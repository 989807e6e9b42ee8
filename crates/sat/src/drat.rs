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

use std::collections::HashMap;
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
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "c chipmunk drat certificate v1");
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                let _ = write!(out, "{l} ");
            }
            let _ = writeln!(out, "0");
        }
        for h in &self.hypotheses {
            let _ = writeln!(out, "h {h} 0");
        }
        let _ = writeln!(out, "c proof");
        for s in &self.steps {
            match s {
                ProofStep::Add(c) => {
                    for l in c {
                        let _ = write!(out, "{l} ");
                    }
                    let _ = writeln!(out, "0");
                }
                ProofStep::Delete(c) => {
                    let _ = write!(out, "d ");
                    for l in c {
                        let _ = write!(out, "{l} ");
                    }
                    let _ = writeln!(out, "0");
                }
            }
        }
        out
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
    /// allocator refuses is [`CheckOutcome::OutOfBudget`].
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
        let Some(mut chk) = Checker::new(vars, budget.propagations, budget.account.clone()) else {
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

/// Sorted-literal key used to match deletions against live clauses.
fn clause_key(lits: &[Lit]) -> Vec<Lit> {
    let mut k = lits.to_vec();
    k.sort_unstable();
    k.dedup();
    k
}

struct CheckerClause {
    lits: Vec<Lit>,
    deleted: bool,
}

/// A minimal propagation-only engine: two watched literals, a trail, no
/// decisions beyond the per-lemma RUP assumptions.
struct Checker {
    assign: Vec<LBool>,
    trail: Vec<Lit>,
    qhead: usize,
    clauses: Vec<CheckerClause>,
    watches: Vec<Vec<u32>>,
    /// Sorted lits -> indices of live clauses with those lits (a multiset,
    /// so duplicate clauses delete one at a time, like the solver does).
    by_key: HashMap<Vec<Lit>, Vec<u32>>,
    propagations: u64,
    prop_limit: u64,
    conflict: bool,
}

impl Checker {
    /// A checker over `num_vars` variables; `None` when the allocator
    /// refuses its per-variable arrays.
    fn new(
        num_vars: usize,
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
            clauses: Vec::new(),
            watches,
            by_key: HashMap::new(),
            propagations: 0,
            prop_limit,
            conflict: false,
        })
    }

    fn lit_value(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_neg() {
            v.negate()
        } else {
            v
        }
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

    /// Propagate to fixpoint. Returns `false` on conflict, `None`-like
    /// behavior for budget exhaustion is signalled via `over_budget`.
    fn propagate(&mut self) -> Result<bool, ()> {
        while self.qhead < self.trail.len() {
            if self.propagations >= self.prop_limit {
                return Err(());
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut conflict = false;
            'watchers: while i < ws.len() {
                let cidx = ws[i] as usize;
                if self.clauses[cidx].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                if self.clauses[cidx].lits[0] == !p {
                    self.clauses[cidx].lits.swap(0, 1);
                }
                let first = self.clauses[cidx].lits[0];
                if self.lit_value(first) == LBool::True {
                    i += 1;
                    continue;
                }
                let len = self.clauses[cidx].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cidx].lits[k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[cidx].lits.swap(1, k);
                        self.watches[(!lk).code()].push(cidx as u32);
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                if self.lit_value(first) == LBool::False {
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

    /// Attach a clause to the database and keep the base-level fixpoint
    /// current. Returns `false` if the base level is now conflicting.
    fn attach(&mut self, lits: Vec<Lit>) -> Result<bool, ()> {
        let key = clause_key(&lits);
        match key.len() {
            0 => {
                self.conflict = true;
                return Ok(false);
            }
            1 => {
                // Units go straight onto the base trail; keep an entry in
                // the key map so a (hypothetical) deletion still matches.
                let idx = self.clauses.len() as u32;
                self.clauses.push(CheckerClause {
                    lits: key.clone(),
                    deleted: false,
                });
                self.by_key.entry(key.clone()).or_default().push(idx);
                if !self.enqueue(key[0]) {
                    self.conflict = true;
                    return Ok(false);
                }
                if !self.propagate()? {
                    self.conflict = true;
                    return Ok(false);
                }
                return Ok(true);
            }
            _ => {}
        }
        // Tautologies can never propagate or conflict; store them inert so
        // deletions still match, but give them no watches.
        let tautology = key.windows(2).any(|w| w[1] == !w[0]);
        let mut lits = key.clone();
        if !tautology {
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
            if slot == 1 {
                // Unit under the base fixpoint: propagate now. Store the
                // clause watched on its first two slots anyway so later
                // deletions and (unreachable) unassignments stay sound.
                let unit = lits[0];
                let idx = self.clauses.len() as u32;
                self.watches[(!lits[0]).code()].push(idx);
                self.watches[(!lits[1]).code()].push(idx);
                self.clauses.push(CheckerClause {
                    lits,
                    deleted: false,
                });
                self.by_key.entry(key).or_default().push(idx);
                if !self.enqueue(unit) || !self.propagate()? {
                    self.conflict = true;
                    return Ok(false);
                }
                return Ok(true);
            }
            let idx = self.clauses.len() as u32;
            self.watches[(!lits[0]).code()].push(idx);
            self.watches[(!lits[1]).code()].push(idx);
            self.clauses.push(CheckerClause {
                lits,
                deleted: false,
            });
            self.by_key.entry(key).or_default().push(idx);
            return Ok(true);
        }
        let idx = self.clauses.len() as u32;
        self.clauses.push(CheckerClause {
            lits,
            deleted: false,
        });
        self.by_key.entry(key).or_default().push(idx);
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

    fn delete(&mut self, lits: &[Lit]) -> bool {
        let key = clause_key(lits);
        match self.by_key.get_mut(&key) {
            Some(stack) => match stack.pop() {
                Some(idx) => {
                    if stack.is_empty() {
                        self.by_key.remove(&key);
                    }
                    self.clauses[idx as usize].deleted = true;
                    self.clauses[idx as usize].lits = Vec::new();
                    true
                }
                None => false,
            },
            None => false,
        }
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
            budget!(self.attach(vec![*h]));
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
            budget!(self.attach(c.clone()));
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
                    budget!(self.attach(c.clone()));
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
}
