//! DRAT-style unsatisfiability certificates and an in-repo checker.
//!
//! A [`Certificate`] packages everything needed to re-derive an UNSAT
//! verdict independently of the solver that produced it:
//!
//! * the **original CNF** exactly as the caller added it (before the
//!   solver's level-0 simplifications — dropping falsified literals at add
//!   time is re-derived by the checker's own unit propagation, so logging
//!   the pre-simplification clause keeps the certificate honest about what
//!   was actually asserted);
//! * the **hypotheses** — for an UNSAT-under-assumptions verdict, the
//!   failed-assumption core treated as unit clauses (empty for an
//!   unconditional UNSAT);
//! * the **proof**: the solver's learnt clauses in derivation order plus
//!   the deletions its database reduction performed, i.e. classic DRAT
//!   addition and `d` lines.
//!
//! [`Certificate::check`] validates the proof by forward unit propagation
//! (RUP — reverse unit propagation — on each added lemma): every lemma
//! must yield a conflict by propagation alone once its negation is assumed
//! on top of the current clause database, and the database after the final
//! step must propagate to a conflict (the empty clause is derivable). The
//! checker is deliberately independent of the CDCL engine: it has its own
//! two-watched-literal propagator, no decisions, no learning — small
//! enough to audit, which is the point.
//!
//! Checking work is budgeted: a propagation ceiling (optionally debited
//! from the job-wide [`BudgetAccount`]) turns a runaway check into
//! [`CheckOutcome::OutOfBudget`] rather than a blown SLO.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::solver::BudgetAccount;
use crate::{LBool, Lit, Var, MAX_VARS};

/// One line of a DRAT proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofStep {
    /// A learnt clause appended to the database (a DRAT addition line).
    /// The empty clause closes the proof.
    Add(Vec<Lit>),
    /// A clause removed from the database (a DRAT `d` line). Literal
    /// order is irrelevant: clauses are matched as sets.
    Delete(Vec<Lit>),
}

/// A self-contained unsatisfiability certificate: original CNF, unit
/// hypotheses (the failed-assumption core), and the DRAT proof.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Certificate {
    /// Number of variables the CNF and proof may mention.
    pub num_vars: u32,
    /// The original clauses, pre-simplification.
    pub clauses: Vec<Vec<Lit>>,
    /// Unit hypotheses: for UNSAT-under-assumptions, the failed-assumption
    /// core. The proof shows `clauses ∧ hypotheses ⊢ ⊥`.
    pub hypotheses: Vec<Lit>,
    /// Additions and deletions in derivation order.
    pub steps: Vec<ProofStep>,
}

/// Verdict of a [`Certificate::check`] run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckOutcome {
    /// Every lemma is RUP over the evolving database and the final
    /// database propagates to a conflict: the certificate proves UNSAT.
    Valid,
    /// The certificate does not prove UNSAT; the message says which step
    /// failed and why.
    Invalid(String),
    /// The propagation ceiling was exhausted before a verdict.
    OutOfBudget,
}

impl CheckOutcome {
    /// Is this the valid outcome?
    pub fn is_valid(&self) -> bool {
        matches!(self, CheckOutcome::Valid)
    }
}

/// Resource ceiling for one [`Certificate::check`] call.
#[derive(Clone, Debug, Default)]
pub struct CheckBudget {
    /// Maximum checker unit propagations (`None` = unlimited).
    pub propagations: Option<u64>,
    /// Job-wide ledger the checker's propagations are charged to. When the
    /// ledger has already spent past `propagations`, the check is refused
    /// up front with [`CheckOutcome::OutOfBudget`].
    pub account: Option<Arc<BudgetAccount>>,
}

impl Certificate {
    /// Total literals across CNF, hypotheses, and proof — a cheap size
    /// proxy used for reporting.
    pub fn num_lits(&self) -> usize {
        let step_lits: usize = self
            .steps
            .iter()
            .map(|s| match s {
                ProofStep::Add(c) | ProofStep::Delete(c) => c.len(),
            })
            .sum();
        let clause_lits: usize = self.clauses.iter().map(|c| c.len()).sum();
        clause_lits + self.hypotheses.len() + step_lits
    }

    /// Number of addition (lemma) steps in the proof.
    pub fn num_lemmas(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Add(_)))
            .count()
    }

    /// Serialize to the single-file text format parsed by
    /// [`Certificate::parse`]: a DIMACS CNF section, a hypotheses section
    /// (`h <lit> 0` lines), and the DRAT proof (`<lits> 0` additions,
    /// `d <lits> 0` deletions).
    pub fn to_text(&self) -> String {
        let lines = self.clauses.len() + self.hypotheses.len() + self.steps.len();
        let mut out = Vec::with_capacity(8 * self.num_lits() + 4 * lines + 64);
        out.extend_from_slice(b"c chipmunk drat certificate v1\n");
        out.extend_from_slice(
            format!("p cnf {} {}\n", self.num_vars, self.clauses.len()).as_bytes(),
        );
        for c in &self.clauses {
            push_clause(&mut out, c);
        }
        for &h in &self.hypotheses {
            out.extend_from_slice(b"h ");
            push_lit(&mut out, h);
            out.extend_from_slice(b" 0\n");
        }
        out.extend_from_slice(b"c proof\n");
        for s in &self.steps {
            match s {
                ProofStep::Add(c) => push_clause(&mut out, c),
                ProofStep::Delete(c) => {
                    out.extend_from_slice(b"d ");
                    push_clause(&mut out, c);
                }
            }
        }
        String::from_utf8(out).expect("certificate text is ASCII")
    }

    /// Parse the text format produced by [`Certificate::to_text`]. The
    /// header may declare at most 2^31 variables.
    pub fn parse(text: &str) -> Result<Certificate, String> {
        let mut cert = Certificate::default();
        let mut saw_header = false;
        let mut declared_clauses = 0usize;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |why: &str| format!("line {}: {why}", ln + 1);
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("p cnf") {
                if saw_header {
                    return Err(err("duplicate p cnf header"));
                }
                saw_header = true;
                let mut it = rest.split_whitespace();
                cert.num_vars = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|&n: &u32| n as usize <= MAX_VARS)
                    .ok_or_else(|| err("malformed p cnf header"))?;
                declared_clauses = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("malformed p cnf header"))?;
                continue;
            }
            if !saw_header {
                return Err(err("clause before p cnf header"));
            }
            let (kind, body) = if let Some(rest) = line.strip_prefix("h ") {
                ('h', rest)
            } else if let Some(rest) = line.strip_prefix("d ") {
                ('d', rest)
            } else {
                ('a', line)
            };
            let lits = parse_lits(body, cert.num_vars).map_err(|e| err(&e))?;
            match kind {
                'h' => {
                    if lits.len() != 1 {
                        return Err(err("hypothesis line must hold exactly one literal"));
                    }
                    cert.hypotheses.push(lits[0]);
                }
                'd' => cert.steps.push(ProofStep::Delete(lits)),
                _ => {
                    if cert.clauses.len() < declared_clauses
                        && cert.hypotheses.is_empty()
                        && cert.steps.is_empty()
                    {
                        cert.clauses.push(lits);
                    } else {
                        cert.steps.push(ProofStep::Add(lits));
                    }
                }
            }
        }
        if !saw_header {
            return Err("missing p cnf header".to_string());
        }
        if cert.clauses.len() != declared_clauses {
            return Err(format!(
                "header declares {declared_clauses} clauses, found {}",
                cert.clauses.len()
            ));
        }
        Ok(cert)
    }

    /// Validate the certificate by forward unit propagation. See the
    /// module docs for the exact obligation each step carries.
    ///
    /// The checker is sized by the largest variable the certificate
    /// mentions, not by the count its header declares, and a size the
    /// allocator refuses is [`CheckOutcome::OutOfBudget`]. So is a
    /// certificate of 2^31 or more clause words (a length word per clause
    /// plus its literals).
    pub fn check(&self, budget: &CheckBudget) -> CheckOutcome {
        let step_lits = self.steps.iter().flat_map(|s| match s {
            ProofStep::Add(c) | ProofStep::Delete(c) => c,
        });
        // A literal past the declared count fails the check before the
        // checker reads its variable, so the declared count caps the size.
        let vars = self
            .clauses
            .iter()
            .flatten()
            .chain(&self.hypotheses)
            .chain(step_lits)
            .map(|l| l.var().index() + 1)
            .max()
            .unwrap_or(0)
            .min(self.num_vars as usize);
        // Every clause the checker may store: a length word plus literals.
        let added = self.steps.iter().filter_map(|s| match s {
            ProofStep::Add(c) => Some(c),
            ProofStep::Delete(_) => None,
        });
        let words = self
            .clauses
            .iter()
            .chain(added)
            .map(|c| 1 + c.len())
            .sum::<usize>()
            + 2 * self.hypotheses.len();
        let Some(mut chk) = Checker::new(vars, words, budget.propagations, budget.account.clone())
        else {
            return CheckOutcome::OutOfBudget;
        };
        let outcome = chk.run(self);
        if let Some(acct) = &budget.account {
            acct.charge(0, chk.propagations);
        }
        outcome
    }
}

fn parse_lits(body: &str, num_vars: u32) -> Result<Vec<Lit>, String> {
    let mut lits = Vec::new();
    let mut terminated = false;
    for tok in body.split_whitespace() {
        if terminated {
            return Err("literals after terminating 0".to_string());
        }
        let v: i64 = tok
            .parse()
            .map_err(|_| format!("bad literal token {tok:?}"))?;
        if v == 0 {
            terminated = true;
            continue;
        }
        let idx = v.unsigned_abs() - 1;
        if idx >= num_vars as u64 {
            return Err(format!("literal {v} exceeds declared variable count"));
        }
        lits.push(Lit::new(Var(idx as u32), v > 0));
    }
    if !terminated {
        return Err("clause line missing terminating 0".to_string());
    }
    Ok(lits)
}

/// Write `lits` as one DIMACS clause line: each literal and a space, then
/// the terminating `0`.
fn push_clause(out: &mut Vec<u8>, lits: &[Lit]) {
    for &l in lits {
        push_lit(out, l);
        out.push(b' ');
    }
    out.extend_from_slice(b"0\n");
}

/// Write `l` as its `Display` form does: the 1-based variable, negative
/// when the literal is negated.
fn push_lit(out: &mut Vec<u8>, l: Lit) {
    if l.is_neg() {
        out.push(b'-');
    }
    let mut v = u64::from(l.var().0) + 1;
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// The top bit of a stored clause's length word: the clause was deleted.
const DELETED: u32 = 1 << 31;

/// Order-independent hash of a set of literal codes, for matching a
/// deletion against the live clauses. Each code is hashed under random
/// keys, so a crafted certificate cannot pile its clauses into one entry.
fn set_hash(keys: &RandomState, codes: impl Iterator<Item = u32>) -> u64 {
    codes.fold(0u64, |h, code| h.wrapping_add(keys.hash_one(code)))
}

/// Replace `key` with `lits` sorted and deduplicated: the clause as a set.
fn set_key(key: &mut Vec<Lit>, lits: &[Lit]) {
    key.clear();
    key.extend_from_slice(lits);
    key.sort_unstable();
    key.dedup();
}

/// A minimal propagation-only engine: two watched literals, a trail, no
/// decisions beyond the per-lemma RUP assumptions.
///
/// Clauses live in one flat store, each a length word (with the
/// [`DELETED`] flag in its top bit) followed by its literal codes, and a
/// clause is named by the offset of its length word. A stored clause is
/// its literals as a set, sorted and deduplicated, then permuted so that
/// the watched literals come first.
struct Checker {
    assign: Vec<LBool>,
    trail: Vec<Lit>,
    qhead: usize,
    store: Vec<u32>,
    watches: Vec<Vec<u32>>,
    /// Literal-set hash -> the live clauses with that hash, oldest first,
    /// so duplicate clauses delete one at a time, most recent first, like
    /// the solver does. Built on the first deletion.
    index: Option<HashMap<u64, Vec<u32>>>,
    /// The keys of [`set_hash`].
    index_keys: RandomState,
    /// Scratch for the clause being attached or deleted, as a set.
    key: Vec<Lit>,
    propagations: u64,
    prop_limit: u64,
    conflict: bool,
}

impl Checker {
    /// A checker over `num_vars` variables with room for `words` words of
    /// clauses; `None` when the allocator refuses its arrays or the store
    /// would reach 2^31 words.
    fn new(
        num_vars: usize,
        words: usize,
        limit: Option<u64>,
        account: Option<Arc<BudgetAccount>>,
    ) -> Option<Checker> {
        // When a job-wide ledger is shared, the remaining allowance is the
        // ceiling minus what the job already spent — the checker cannot
        // re-arm a budget the solvers consumed.
        let prop_limit = match limit {
            Some(l) => {
                let spent = account.as_ref().map_or(0, |a| a.propagations());
                l.saturating_sub(spent)
            }
            None => u64::MAX,
        };
        // Offsets and lengths stay below the deleted flag.
        if words >= DELETED as usize {
            return None;
        }
        let mut store = Vec::new();
        store.try_reserve_exact(words).ok()?;
        let mut assign = Vec::new();
        assign.try_reserve_exact(num_vars).ok()?;
        assign.resize(num_vars, LBool::Undef);
        let lits = num_vars.checked_mul(2)?;
        let mut watches = Vec::new();
        watches.try_reserve_exact(lits).ok()?;
        watches.resize_with(lits, Vec::new);
        Some(Checker {
            assign,
            trail: Vec::new(),
            qhead: 0,
            store,
            watches,
            index: None,
            index_keys: RandomState::new(),
            key: Vec::new(),
            propagations: 0,
            prop_limit,
            conflict: false,
        })
    }

    fn lit_value(&self, l: Lit) -> LBool {
        value(&self.assign, l)
    }

    fn enqueue(&mut self, l: Lit) -> bool {
        match self.lit_value(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                self.assign[l.var().index()] = if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                };
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagate to fixpoint. Returns `Ok(false)` on conflict and
    /// `Err(())` once the propagation ceiling is reached.
    ///
    /// Watchers are visited, swapped out and moved in exactly one order:
    /// the propagations counted here are charged to the job's account, so
    /// a different count would change the budget a compile job has left.
    fn propagate(&mut self) -> Result<bool, ()> {
        while self.qhead < self.trail.len() {
            if self.propagations >= self.prop_limit {
                return Err(());
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_code = (!p).code() as u32;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut conflict = false;
            'watchers: while i < ws.len() {
                let c = ws[i] as usize;
                let head = self.store[c];
                if head & DELETED != 0 {
                    ws.swap_remove(i);
                    continue;
                }
                let lits = &mut self.store[c + 1..=c + head as usize];
                if lits[0] == false_code {
                    lits.swap(0, 1);
                }
                let first = Lit::from_code(lits[0] as usize);
                let first_value = value(&self.assign, first);
                if first_value == LBool::True {
                    i += 1;
                    continue;
                }
                for k in 2..lits.len() {
                    let lk = Lit::from_code(lits[k] as usize);
                    if value(&self.assign, lk) != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!lk).code()].push(c as u32);
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                if first_value == LBool::False {
                    conflict = true;
                    break;
                }
                self.enqueue(first);
                i += 1;
            }
            let appended = std::mem::replace(&mut self.watches[p.code()], ws);
            self.watches[p.code()].extend(appended);
            if conflict {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Append `lits` to the store (and to the deletion index, once it
    /// exists) and return the clause's offset.
    fn store_clause(&mut self, lits: &[Lit]) -> u32 {
        let c = self.store.len() as u32;
        self.store.push(lits.len() as u32);
        self.store.extend(lits.iter().map(|l| l.code() as u32));
        if let Some(index) = &mut self.index {
            let hash = set_hash(&self.index_keys, lits.iter().map(|l| l.code() as u32));
            index.entry(hash).or_default().push(c);
        }
        c
    }

    /// Attach a clause to the database and keep the base-level fixpoint
    /// current. Returns `false` if the base level is now conflicting.
    fn attach(&mut self, lits: &[Lit]) -> Result<bool, ()> {
        let mut key = std::mem::take(&mut self.key);
        set_key(&mut key, lits);
        let attached = self.attach_set(&mut key);
        self.key = key;
        attached
    }

    /// [`Checker::attach`] for a sorted, deduplicated clause, which is
    /// permuted in place to put its watched literals first.
    fn attach_set(&mut self, lits: &mut [Lit]) -> Result<bool, ()> {
        match lits.len() {
            0 => {
                self.conflict = true;
                return Ok(false);
            }
            1 => {
                // Units go straight onto the base trail; store them anyway
                // so a (hypothetical) deletion still matches.
                self.store_clause(lits);
                if !self.enqueue(lits[0]) || !self.propagate()? {
                    self.conflict = true;
                    return Ok(false);
                }
                return Ok(true);
            }
            _ => {}
        }
        // Tautologies can never propagate or conflict; store them inert so
        // deletions still match, but give them no watches.
        if lits.windows(2).any(|w| w[1] == !w[0]) {
            self.store_clause(lits);
            return Ok(true);
        }
        // Prefer non-false literals in the watch slots.
        let mut slot = 0usize;
        for i in 0..lits.len() {
            if self.lit_value(lits[i]) != LBool::False {
                lits.swap(slot, i);
                slot += 1;
                if slot == 2 {
                    break;
                }
            }
        }
        if slot == 0 {
            // Every literal false under the base fixpoint: adding this
            // clause makes the base level conflicting.
            self.conflict = true;
            return Ok(false);
        }
        // A clause unit under the base fixpoint is still watched on its
        // first two slots, so later deletions and (unreachable)
        // unassignments stay sound.
        let c = self.store_clause(lits);
        self.watches[(!lits[0]).code()].push(c);
        self.watches[(!lits[1]).code()].push(c);
        if slot == 1 && (!self.enqueue(lits[0]) || !self.propagate()?) {
            self.conflict = true;
            return Ok(false);
        }
        Ok(true)
    }

    /// RUP check of `lits` against the current database: assume the
    /// negation of every literal on top of the base fixpoint and demand a
    /// conflict by propagation alone.
    fn rup(&mut self, lits: &[Lit]) -> Result<bool, ()> {
        // A lemma with a literal already true at the base level is implied
        // outright (its negation contradicts the base fixpoint).
        if lits.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return Ok(true);
        }
        let mark = self.trail.len();
        let mut ok = false;
        for &l in lits {
            if !self.enqueue(!l) {
                // ¬C is internally contradictory (tautological lemma).
                ok = true;
                break;
            }
        }
        if !ok {
            ok = !self.propagate()?;
        }
        // Undo the assumption level; watches need no repair because
        // unassignment only relaxes the watch invariant.
        for i in mark..self.trail.len() {
            self.assign[self.trail[i].var().index()] = LBool::Undef;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
        Ok(ok)
    }

    /// Delete the most recently attached live clause with the literal set
    /// of `lits`; `false` when there is none.
    fn delete(&mut self, lits: &[Lit]) -> bool {
        let mut key = std::mem::take(&mut self.key);
        set_key(&mut key, lits);
        let deleted = self.delete_set(&key);
        self.key = key;
        deleted
    }

    /// [`Checker::delete`] for a sorted, deduplicated clause.
    fn delete_set(&mut self, key: &[Lit]) -> bool {
        let store = &mut self.store;
        let keys = &self.index_keys;
        let index = self.index.get_or_insert_with(|| {
            let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
            let mut c = 0;
            while c < store.len() {
                let head = store[c];
                let lits = &store[c + 1..=c + (head & !DELETED) as usize];
                if head & DELETED == 0 {
                    let hash = set_hash(keys, lits.iter().copied());
                    index.entry(hash).or_default().push(c as u32);
                }
                c += 1 + lits.len();
            }
            index
        });
        let hash = set_hash(keys, key.iter().map(|l| l.code() as u32));
        let Some(live) = index.get_mut(&hash) else {
            return false;
        };
        // The stored clause is a set too, so equal lengths and inclusion
        // make it the same clause.
        let same = |&c: &u32| {
            let c = c as usize;
            let lits = &store[c + 1..=c + store[c] as usize];
            lits.len() == key.len()
                && lits
                    .iter()
                    .all(|&code| key.binary_search(&Lit::from_code(code as usize)).is_ok())
        };
        let Some(at) = live.iter().rposition(same) else {
            return false;
        };
        let c = live.remove(at) as usize;
        if live.is_empty() {
            index.remove(&hash);
        }
        store[c] |= DELETED;
        true
    }

    fn run(&mut self, cert: &Certificate) -> CheckOutcome {
        macro_rules! budget {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(()) => return CheckOutcome::OutOfBudget,
                }
            };
        }
        for h in &cert.hypotheses {
            if h.var().index() >= self.assign.len() {
                return CheckOutcome::Invalid(format!(
                    "hypothesis {h} exceeds the declared variable count"
                ));
            }
            budget!(self.attach(std::slice::from_ref(h)));
            if self.conflict {
                return CheckOutcome::Valid;
            }
        }
        for c in &cert.clauses {
            if let Some(l) = c.iter().find(|l| l.var().index() >= self.assign.len()) {
                return CheckOutcome::Invalid(format!(
                    "literal {l} exceeds the declared variable count"
                ));
            }
            budget!(self.attach(c));
            if self.conflict {
                // The CNF (plus hypotheses) is UP-unsatisfiable on its
                // own; any proof over it is trivially complete.
                return CheckOutcome::Valid;
            }
        }
        for (i, step) in cert.steps.iter().enumerate() {
            match step {
                ProofStep::Add(c) => {
                    if let Some(l) = c.iter().find(|l| l.var().index() >= self.assign.len()) {
                        return CheckOutcome::Invalid(format!(
                            "step {i}: literal {l} exceeds the declared variable count"
                        ));
                    }
                    if !budget!(self.rup(c)) {
                        return CheckOutcome::Invalid(format!(
                            "step {i}: lemma {} is not derivable by unit propagation",
                            fmt_clause(c)
                        ));
                    }
                    budget!(self.attach(c));
                    if self.conflict {
                        return CheckOutcome::Valid;
                    }
                }
                ProofStep::Delete(c) => {
                    if !self.delete(c) {
                        return CheckOutcome::Invalid(format!(
                            "step {i}: deletion of a clause not in the database: {}",
                            fmt_clause(c)
                        ));
                    }
                }
            }
        }
        // Final obligation: the accumulated database must refute itself by
        // propagation — the empty clause is derivable.
        if budget!(self.rup(&[])) {
            CheckOutcome::Valid
        } else {
            CheckOutcome::Invalid("proof does not derive the empty clause".to_string())
        }
    }
}

/// The value of `l` under `assign`.
fn value(assign: &[LBool], l: Lit) -> LBool {
    let v = assign[l.var().index()];
    if l.is_neg() {
        v.negate()
    } else {
        v
    }
}

fn fmt_clause(lits: &[Lit]) -> String {
    if lits.is_empty() {
        return "(empty)".to_string();
    }
    lits.iter()
        .map(|l| l.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32) -> Lit {
        Lit::new(Var(i.unsigned_abs() - 1), i > 0)
    }

    fn clause(is: &[i32]) -> Vec<Lit> {
        is.iter().map(|&i| lit(i)).collect()
    }

    /// (a|b)(a|!b) ∧ the four clauses forcing a case split on c under a:
    /// refuting ¬a needs only UP, refuting a needs a decision — the
    /// asymmetry the mutation tests below rely on.
    fn split_instance() -> Certificate {
        Certificate {
            num_vars: 4,
            clauses: vec![
                clause(&[1, 2]),
                clause(&[1, -2]),
                clause(&[-1, 3, 4]),
                clause(&[-1, 3, -4]),
                clause(&[-1, -3, 4]),
                clause(&[-1, -3, -4]),
            ],
            hypotheses: vec![],
            steps: vec![ProofStep::Add(clause(&[1])), ProofStep::Add(clause(&[3]))],
        }
    }

    #[test]
    fn valid_proof_accepted() {
        assert_eq!(
            split_instance().check(&CheckBudget::default()),
            CheckOutcome::Valid
        );
    }

    #[test]
    fn flipped_literal_rejected() {
        let mut cert = split_instance();
        // [a] -> [!a]: refuting the mutated lemma needs a case split, so
        // RUP must fail.
        cert.steps[0] = ProofStep::Add(clause(&[-1]));
        assert!(matches!(
            cert.check(&CheckBudget::default()),
            CheckOutcome::Invalid(_)
        ));
    }

    #[test]
    fn dropped_lemma_rejected() {
        let mut cert = split_instance();
        cert.steps.remove(0);
        assert!(matches!(
            cert.check(&CheckBudget::default()),
            CheckOutcome::Invalid(_)
        ));
    }

    #[test]
    fn reordered_deletion_rejected() {
        let mut cert = split_instance();
        // A redundant lemma that is added then deleted: valid as ordered,
        // invalid once the deletion precedes the addition.
        cert.steps.insert(1, ProofStep::Add(clause(&[1, 3])));
        cert.steps.push(ProofStep::Delete(clause(&[3, 1])));
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
        let del = cert.steps.pop().unwrap();
        cert.steps.insert(0, del);
        assert!(matches!(
            cert.check(&CheckBudget::default()),
            CheckOutcome::Invalid(_)
        ));
    }

    #[test]
    fn missing_final_conflict_rejected() {
        let cert = Certificate {
            num_vars: 2,
            clauses: vec![clause(&[1, 2])],
            hypotheses: vec![],
            steps: vec![],
        };
        assert!(matches!(
            cert.check(&CheckBudget::default()),
            CheckOutcome::Invalid(_)
        ));
    }

    #[test]
    fn hypotheses_close_assumption_proofs() {
        // (a|b) is satisfiable; under hypotheses !a, !b it refutes by UP
        // alone with an empty proof.
        let cert = Certificate {
            num_vars: 2,
            clauses: vec![clause(&[1, 2])],
            hypotheses: vec![lit(-1), lit(-2)],
            steps: vec![],
        };
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
    }

    #[test]
    fn contradictory_hypotheses_are_valid() {
        let cert = Certificate {
            num_vars: 1,
            clauses: vec![],
            hypotheses: vec![lit(1), lit(-1)],
            steps: vec![],
        };
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
    }

    #[test]
    fn text_roundtrip() {
        let cert = Certificate {
            num_vars: 4,
            clauses: split_instance().clauses,
            hypotheses: vec![lit(-2)],
            steps: vec![
                ProofStep::Add(clause(&[1])),
                ProofStep::Delete(clause(&[1, 2])),
                ProofStep::Add(clause(&[3])),
            ],
        };
        let text = cert.to_text();
        let parsed = Certificate::parse(&text).expect("roundtrip parses");
        assert_eq!(parsed, cert);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Certificate::parse("").is_err());
        assert!(Certificate::parse("p cnf 2 1\n1 5 0\n").is_err());
        assert!(Certificate::parse("p cnf 2 2\n1 2 0\n").is_err());
        assert!(Certificate::parse("p cnf 2 0\nh 1 2 0\n").is_err());
        assert!(Certificate::parse("1 2 0\n").is_err());
        assert!(Certificate::parse("p cnf 2 1\n1 x 0\n").is_err());
        assert!(Certificate::parse("p cnf 2 1\n1 2\n").is_err());
    }

    #[test]
    fn header_past_2_31_variables_is_a_parse_error() {
        let e = Certificate::parse("p cnf 4294967295 0\n").unwrap_err();
        assert!(e.contains("malformed p cnf header"), "{e}");
    }

    #[test]
    fn literal_past_the_31_bit_variable_index_does_not_alias() {
        // The literal would otherwise lose its index's top bit and read as
        // x2147483646.
        let e = Certificate::parse("p cnf 4294967295 1\n4294967295 0\n").unwrap_err();
        assert!(e.contains("malformed p cnf header"), "{e}");
    }

    #[test]
    fn declared_variables_are_not_allocated() {
        // A 19-byte file declaring 2^31 variables and no clause: the
        // checker is sized by what the certificate mentions, so it answers
        // at once instead of asking for 100 GB.
        let cert = Certificate::parse("p cnf 2147483648 0\n").unwrap();
        assert!(matches!(
            cert.check(&CheckBudget::default()),
            CheckOutcome::Invalid(_)
        ));
        // A certificate that uses a high variable still checks.
        let v = Var(1_000_000);
        let cert = Certificate {
            num_vars: 1 << 31,
            clauses: vec![vec![Lit::pos(v)], vec![Lit::neg(v)]],
            ..Certificate::default()
        };
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
    }

    #[test]
    fn check_budget_is_enforced() {
        let cert = split_instance();
        let tight = CheckBudget {
            propagations: Some(1),
            account: None,
        };
        assert_eq!(cert.check(&tight), CheckOutcome::OutOfBudget);
    }

    #[test]
    fn check_charges_the_account() {
        let account = Arc::new(BudgetAccount::new());
        let budget = CheckBudget {
            propagations: Some(1_000_000),
            account: Some(account.clone()),
        };
        assert_eq!(split_instance().check(&budget), CheckOutcome::Valid);
        assert!(account.propagations() > 0);
        // A ledger spent past the ceiling refuses further checking.
        account.charge(0, 2_000_000);
        assert_eq!(split_instance().check(&budget), CheckOutcome::OutOfBudget);
    }

    #[test]
    fn deleting_a_needed_clause_breaks_the_proof() {
        let mut cert = split_instance();
        cert.steps.insert(0, ProofStep::Delete(clause(&[1, 2])));
        assert!(matches!(
            cert.check(&CheckBudget::default()),
            CheckOutcome::Invalid(_)
        ));
    }

    /// A fresh proof-logging solver over `vars` variables.
    fn proof_solver(vars: usize) -> crate::Solver {
        let mut s = crate::Solver::new();
        for _ in 0..vars {
            s.new_var();
        }
        s.enable_proof(1 << 30);
        s
    }

    /// The pigeonhole principle PHP(pigeons, holes), refuted.
    fn php_certificate(pigeons: usize, holes: usize) -> Certificate {
        let mut s = proof_solver(pigeons * holes);
        let p = |i: usize, j: usize| Lit::pos(Var((i * holes + j) as u32));
        for i in 0..pigeons {
            s.add_clause((0..holes).map(|j| p(i, j)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), crate::SolveResult::Unsat);
        s.certificate().expect("proof fits its budget")
    }

    /// The solver's pinned random 3-SAT instance (seed 4, 150 variables,
    /// clause ratio 4.2), strengthened until it is unsatisfiable.
    fn strengthened_random_certificate() -> Certificate {
        use chipmunk_trace::rng::Xoshiro256;
        let vars = 150;
        let mut rng = Xoshiro256::seed_from_u64(4);
        let clause = |rng: &mut Xoshiro256| -> Vec<Lit> {
            (0..3)
                .map(|_| Lit::new(Var(rng.gen_usize(vars) as u32), rng.gen_bool(0.5)))
                .collect()
        };
        let mut s = proof_solver(vars);
        for _ in 0..vars * 42 / 10 {
            s.add_clause(clause(&mut rng));
        }
        assert_eq!(s.solve(&[]), crate::SolveResult::Sat);
        for _ in 0..vars / 2 {
            s.add_clause(clause(&mut rng));
        }
        assert_eq!(s.solve(&[]), crate::SolveResult::Unsat);
        s.certificate().expect("proof fits its budget")
    }

    /// The checker's propagations are charged to the job's account, so
    /// the budget a compile job has left for its next depth, and with it
    /// the search, depends on this exact count: how the checker stores
    /// clauses must not move it.
    #[test]
    fn checker_charges_are_pinned() {
        let deletions = |cert: &Certificate| {
            cert.steps
                .iter()
                .filter(|s| matches!(s, ProofStep::Delete(_)))
                .count()
        };
        for (name, cert, want_deletions, want_charge) in [
            ("php(7,6)", php_certificate(7, 6), None, 22_807),
            ("php(8,7)", php_certificate(8, 7), Some(3_297), 175_433),
            (
                "random 3-SAT",
                strengthened_random_certificate(),
                Some(1_952),
                108_529,
            ),
        ] {
            if let Some(want) = want_deletions {
                assert_eq!(deletions(&cert), want, "{name}: deletions");
            }
            let account = Arc::new(BudgetAccount::new());
            let budget = CheckBudget {
                propagations: Some(u64::MAX),
                account: Some(account.clone()),
            };
            assert_eq!(cert.check(&budget), CheckOutcome::Valid, "{name}");
            assert_eq!(account.propagations(), want_charge, "{name}: charge");
            assert_eq!(account.conflicts(), 0, "{name}");
        }
    }

    /// `split_instance` with `steps` in front of its two-lemma proof.
    fn split_with(steps: Vec<ProofStep>) -> CheckOutcome {
        let mut cert = split_instance();
        cert.steps.splice(0..0, steps);
        cert.check(&CheckBudget::default())
    }

    fn assert_invalid(outcome: CheckOutcome, why: &str) {
        match outcome {
            CheckOutcome::Invalid(msg) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected Invalid({why}), got {other:?}"),
        }
    }

    #[test]
    fn identical_clauses_are_deleted_one_at_a_time() {
        let mut cert = split_instance();
        cert.clauses.push(clause(&[2, 1]));
        let with = |dels: usize| {
            let mut c = cert.clone();
            c.steps
                .splice(0..0, (0..dels).map(|_| ProofStep::Delete(clause(&[1, 2]))));
            c.check(&CheckBudget::default())
        };
        // One deletion leaves the other copy, which the lemma [1] needs.
        assert_eq!(with(1), CheckOutcome::Valid);
        // The second removes it; a third finds nothing left to delete.
        assert_invalid(with(2), "step 2: lemma 1 is not derivable");
        assert_invalid(with(3), "step 2: deletion of a clause not in the database");
    }

    #[test]
    fn an_original_clause_is_deleted_after_lemmas() {
        // Once [1] is a lemma, (1 2) is redundant and may go.
        let mut cert = split_instance();
        cert.steps.insert(1, ProofStep::Delete(clause(&[1, 2])));
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
        // (-1 3 4) is not redundant: deleting it after [1] was added
        // breaks the lemma [3].
        let mut cert = split_instance();
        cert.steps.insert(1, ProofStep::Delete(clause(&[-1, 3, 4])));
        assert_invalid(
            cert.check(&CheckBudget::default()),
            "step 2: lemma 3 is not derivable",
        );
    }

    #[test]
    fn a_deletion_may_list_its_literals_in_any_order() {
        // Added as (-1 3 4), deleted as (4 -1 3) and as (3 4 -1 4): both
        // name the same clause, so the lemma [3] loses its support.
        for del in [clause(&[4, -1, 3]), clause(&[3, 4, -1, 4])] {
            assert_invalid(
                split_with(vec![ProofStep::Delete(del)]),
                "step 2: lemma 3 is not derivable",
            );
        }
        // A lemma added in one order is deleted in another, and only once.
        let lemma = ProofStep::Add(clause(&[3, 1]));
        assert_eq!(
            split_with(vec![lemma.clone(), ProofStep::Delete(clause(&[1, 3]))]),
            CheckOutcome::Valid
        );
        assert_invalid(
            split_with(vec![
                lemma,
                ProofStep::Delete(clause(&[1, 3])),
                ProofStep::Delete(clause(&[3, 1])),
            ]),
            "step 2: deletion of a clause not in the database",
        );
    }

    #[test]
    fn a_clause_attached_after_the_first_deletion_can_be_deleted() {
        // The first deletion builds the deletion index; (1 4) is attached
        // after it and must still be found.
        let steps = |second: Vec<i32>| {
            vec![
                ProofStep::Add(clause(&[1, 3])),
                ProofStep::Delete(clause(&[3, 1])),
                ProofStep::Add(clause(&[1, 4])),
                ProofStep::Delete(clause(&second)),
            ]
        };
        assert_eq!(split_with(steps(vec![4, 1])), CheckOutcome::Valid);
        assert_invalid(
            split_with(steps(vec![1, 3])),
            "step 3: deletion of a clause not in the database",
        );
    }

    #[test]
    fn text_is_the_formatter_rendering() {
        // The rendering `to_text` had when it wrote each literal through
        // `write!`.
        fn formatted(cert: &Certificate) -> String {
            use std::fmt::Write;
            let mut out = String::new();
            let _ = writeln!(out, "c chipmunk drat certificate v1");
            let _ = writeln!(out, "p cnf {} {}", cert.num_vars, cert.clauses.len());
            for c in &cert.clauses {
                for l in c {
                    let _ = write!(out, "{l} ");
                }
                let _ = writeln!(out, "0");
            }
            for h in &cert.hypotheses {
                let _ = writeln!(out, "h {h} 0");
            }
            let _ = writeln!(out, "c proof");
            for s in &cert.steps {
                let (prefix, c) = match s {
                    ProofStep::Add(c) => ("", c),
                    ProofStep::Delete(c) => ("d ", c),
                };
                let _ = write!(out, "{prefix}");
                for l in c {
                    let _ = write!(out, "{l} ");
                }
                let _ = writeln!(out, "0");
            }
            out
        }
        let big = |v: u32, pos: bool| Lit::new(Var(v), pos);
        let cert = Certificate {
            num_vars: 1 << 31,
            clauses: vec![
                clause(&[1, -2, 10]),
                vec![big(1_000_000, true), big(1_234_566, false)],
                vec![],
                vec![big((1 << 31) - 1, false), lit(-9), lit(99)],
            ],
            hypotheses: vec![lit(-3), big(1_000_001, true)],
            steps: vec![
                ProofStep::Add(clause(&[-1, 100_000])),
                ProofStep::Delete(vec![big(9_999_999, false), lit(7)]),
                ProofStep::Delete(vec![]),
                ProofStep::Add(vec![]),
            ],
        };
        let text = cert.to_text();
        assert_eq!(text, formatted(&cert));
        assert_eq!(Certificate::parse(&text).unwrap(), cert);
        assert_eq!(split_instance().to_text(), formatted(&split_instance()));
    }
}
