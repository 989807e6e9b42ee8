//! Tseitin bit-blasting of circuit terms into CNF.
//!
//! A [`Blaster`] instantiates circuit terms as vectors of SAT literals
//! (LSB first) inside a borrowed [`Solver`]. Inputs may be *bound* before
//! blasting:
//!
//! * to a constant ([`Binding::Const`]) — used by the CEGIS synthesis phase
//!   to pin program inputs to counterexample values, and by the verification
//!   phase to pin holes to a candidate solution;
//! * to existing literals ([`Binding::Bits`]) — used to share one set of
//!   hole literals across every counterexample instantiation inside a single
//!   incremental solver.
//!
//! Unbound inputs get fresh literals on first use; they can be read back
//! with [`Blaster::input_bits`] to decode models.
//!
//! Gate construction partially evaluates through constant literals so that
//! a circuit instantiated with concrete inputs mostly collapses at blast
//! time rather than burdening the solver. What remains is hashed: each
//! AND, XOR and MUX gate is keyed on its normalized input literals and
//! built at most once per gate table. [`Blaster::new`] keeps a private
//! table, so a one-shot blast shares gates within itself; a [`GateSolver`]
//! keeps one table for its solver's whole life, so every copy of a circuit
//! blasted into it reuses the gates an earlier copy built over the same
//! literals — a CEGIS input adds only the gates its constants change.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use chipmunk_sat::{Lit, SolveResult, Solver};

use crate::circuit::{Circuit, InputId, Node, TermId};
use crate::BvOp;

/// How an input of a circuit is realized inside the solver.
#[derive(Clone, Debug)]
pub enum Binding {
    /// The input is fixed to a constant value (masked to the input width).
    Const(u64),
    /// The input is wired to pre-existing literals, LSB first. The vector
    /// length must equal the circuit width.
    Bits(Vec<Lit>),
}

/// Allocate a literal that is constant-true in `solver`.
///
/// Share the returned literal across every [`Blaster`] working on the same
/// solver so the unit clause is added only once.
pub fn mk_true(solver: &mut Solver) -> Lit {
    let v = solver.new_var();
    let l = Lit::pos(v);
    solver.add_clause([l]);
    l
}

/// Assumption literals pinning `bits` (LSB first) to `value`: bit `i` of
/// `value` selects each literal's polarity. Bits beyond `bits.len()` are
/// ignored, so a value decoded from these very literals round-trips
/// exactly. Feed the result to [`Solver::solve`] to check one concrete
/// assignment against a formula whose inputs were realized as free
/// literals — the incremental-verification idiom, where the formula is
/// blasted once and each candidate costs only an assumption vector.
pub fn assumption_lits(bits: &[Lit], value: u64) -> Vec<Lit> {
    bits.iter()
        .enumerate()
        .map(|(i, &l)| if (value >> i) & 1 == 1 { l } else { !l })
        .collect()
}

/// Decode a literal vector (LSB first) against `solver`'s current model;
/// `tru` and its negation read as constants.
fn decode_bits(solver: &Solver, tru: Lit, bits: &[Lit]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &l) in bits.iter().enumerate() {
        let b = if l.var() == tru.var() {
            l == tru
        } else {
            solver.lit_model_value(l)?
        };
        if b {
            v |= 1 << i;
        }
    }
    Some(v)
}

// ----- gate table ------------------------------------------------------------

/// Gate kinds, in the top bits of a packed key above three 32-bit literal
/// codes.
const KEY_AND: u128 = 1 << 96;
const KEY_XOR: u128 = 2 << 96;
const KEY_MUX: u128 = 3 << 96;

/// Pack a gate kind and its normalized input literals into one key (a
/// literal's code is a `u32`). A two-input gate leaves the lowest slot
/// zero; the kind tells it apart.
fn gate_key(kind: u128, a: Lit, b: Lit, c: Option<Lit>) -> u128 {
    let code = |l: Lit| l.code() as u128;
    kind | code(a) << 64 | code(b) << 32 | c.map_or(0, code)
}

/// Multiplicative hasher for packed gate keys: two multiplies per key
/// instead of SipHash's rounds. The keys are literal codes the solver
/// allocated, not outside input, so the table needs no protection against
/// crafted collisions.
#[derive(Default)]
struct GateHasher(u64);

const GATE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for GateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(GATE_MUL);
        }
    }

    fn write_u128(&mut self, key: u128) {
        let (lo, hi) = (key as u64, (key >> 64) as u64);
        self.0 = (lo.wrapping_mul(GATE_MUL) ^ hi).wrapping_mul(GATE_MUL);
    }

    fn finish(&self) -> u64 {
        // A product's high bits are its best mixed; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
}

/// Packed gate key → output literal, for the literals of one solver. Only
/// looked up, never iterated, so the CNF a blast adds is a function of its
/// inputs alone.
type GateTable = HashMap<u128, Lit, BuildHasherDefault<GateHasher>>;

/// The gate table a [`Blaster`] looks gates up in.
enum Gates<'s> {
    /// [`Blaster::new`]'s own table, dropped with the blaster.
    Own(GateTable),
    /// A [`GateSolver`]'s table, shared by every blaster it hands out.
    Shared(&'s mut GateTable),
}

impl Gates<'_> {
    fn table(&mut self) -> &mut GateTable {
        match self {
            Gates::Own(t) => t,
            Gates::Shared(t) => t,
        }
    }
}

/// A solver together with its constant-true literal and one gate table.
///
/// Every [`Blaster`] handed out by [`GateSolver::blaster`] looks its gates
/// up in that one table, so a gate built for one copy of a circuit is
/// reused by every later copy whose inputs realize the same literals: in
/// the CEGIS synthesis instance, the gates over hole literals alone
/// (selectors, opcode decoders, immediate arithmetic) are built once, not
/// once per counterexample. A table is valid only for the solver whose
/// literals it holds; keeping the three together, with the solver never
/// lent out mutably, is what keeps the pairing right.
pub struct GateSolver {
    solver: Solver,
    tru: Lit,
    gates: GateTable,
}

impl GateSolver {
    /// Take over `solver`, configured as the caller wants it (proof
    /// logging, budgets, deadline), and assert its constant-true literal.
    pub fn new(mut solver: Solver) -> GateSolver {
        let tru = mk_true(&mut solver);
        GateSolver {
            solver,
            tru,
            gates: GateTable::default(),
        }
    }

    /// A blaster over this solver that shares the solver's gate table.
    pub fn blaster(&mut self) -> Blaster<'_> {
        Blaster::with_gates(&mut self.solver, self.tru, Gates::Shared(&mut self.gates))
    }

    /// The solver, to read its statistics, proof log and model.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Solve under `assumptions` ([`Solver::solve`]).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve(assumptions)
    }

    /// Decode a literal vector against the current model (see
    /// [`Blaster::decode`]).
    pub fn decode(&self, bits: &[Lit]) -> Option<u64> {
        decode_bits(&self.solver, self.tru, bits)
    }
}

/// One instantiation of circuit terms into a SAT solver.
pub struct Blaster<'s> {
    solver: &'s mut Solver,
    tru: Lit,
    gates: Gates<'s>,
    bindings: HashMap<InputId, Binding>,
    realized: HashMap<InputId, Vec<Lit>>,
    /// Each blasted term's literals, indexed by [`TermId`].
    cache: Vec<Option<Vec<Lit>>>,
}

impl<'s> Blaster<'s> {
    /// Create a blaster over `solver` with a private gate table. `tru` must
    /// be a literal already asserted true (see [`mk_true`]).
    pub fn new(solver: &'s mut Solver, tru: Lit) -> Self {
        Blaster::with_gates(solver, tru, Gates::Own(GateTable::default()))
    }

    fn with_gates(solver: &'s mut Solver, tru: Lit, gates: Gates<'s>) -> Self {
        Blaster {
            solver,
            tru,
            gates,
            bindings: HashMap::new(),
            realized: HashMap::new(),
            cache: Vec::new(),
        }
    }

    /// Bind an input before blasting. Panics if the input was already used.
    pub fn bind(&mut self, input: InputId, binding: Binding) {
        assert!(
            !self.realized.contains_key(&input),
            "input {input:?} already realized; bind before blasting"
        );
        self.bindings.insert(input, binding);
    }

    /// The literals realizing an input (after blasting a term that uses it,
    /// or after an explicit [`Blaster::bind`] with bits).
    pub fn input_bits(&self, input: InputId) -> Option<&[Lit]> {
        self.realized.get(&input).map(|v| v.as_slice())
    }

    /// Fresh unconstrained literals, LSB first.
    pub fn fresh_bits(&mut self, width: u8) -> Vec<Lit> {
        (0..width)
            .map(|_| Lit::pos(self.solver.new_var()))
            .collect()
    }

    /// The constant-true literal of this blaster.
    pub fn true_lit(&self) -> Lit {
        self.tru
    }

    /// Assert that a literal takes a fixed truth value.
    pub fn assert_bit(&mut self, l: Lit, value: bool) {
        self.solver.add_clause([if value { l } else { !l }]);
    }

    /// Assert that a width-1 term is true.
    pub fn assert_term(&mut self, c: &Circuit, t: TermId) {
        assert_eq!(c.term_width(t), 1, "assert_term takes a width-1 term");
        let bits = self.blast(c, t);
        self.solver.add_clause([bits[0]]);
    }

    /// Assert that at least one of the width-1 terms is true.
    pub fn assert_any(&mut self, c: &Circuit, ts: &[TermId]) {
        let lits: Vec<Lit> = ts
            .iter()
            .map(|&t| {
                assert_eq!(c.term_width(t), 1);
                self.blast(c, t)[0]
            })
            .collect();
        self.solver.add_clause(lits);
    }

    /// Decode a literal vector against the current model.
    pub fn decode(&self, bits: &[Lit]) -> Option<u64> {
        decode_bits(self.solver, self.tru, bits)
    }

    /// The literals of a term this blaster has already blasted.
    fn bits(&self, t: TermId) -> &[Lit] {
        self.cache[t.0 as usize]
            .as_deref()
            .expect("operands are blasted before their users")
    }

    /// Blast a term, returning its literals (LSB first).
    pub fn blast(&mut self, c: &Circuit, t: TermId) -> Vec<Lit> {
        if self.cache.len() < c.num_nodes() {
            self.cache.resize(c.num_nodes(), None);
        }
        if let Some(bits) = &self.cache[t.0 as usize] {
            return bits.clone();
        }
        // Iterative post-order over the DAG.
        let mut stack: Vec<(TermId, bool)> = vec![(t, false)];
        while let Some((id, ready)) = stack.pop() {
            if self.cache[id.0 as usize].is_some() {
                continue;
            }
            if !ready {
                stack.push((id, true));
                match *c.node(id) {
                    Node::Bin { a, b, .. } => {
                        stack.push((a, false));
                        stack.push((b, false));
                    }
                    Node::Not(x) | Node::ZExt(x) => stack.push((x, false)),
                    Node::Mux { cond, t: tt, f } => {
                        stack.push((cond, false));
                        stack.push((tt, false));
                        stack.push((f, false));
                    }
                    Node::Input(_) | Node::Const { .. } => {}
                }
                continue;
            }
            let bits = self.blast_node(c, id);
            self.cache[id.0 as usize] = Some(bits);
            chipmunk_trace::counter_add!("bv.blast.terms", 1);
        }
        self.bits(t).to_vec()
    }

    fn blast_node(&mut self, c: &Circuit, id: TermId) -> Vec<Lit> {
        match *c.node(id) {
            Node::Input(i) => self.realize_input(i, c.width()),
            Node::Const { value, width } => self.const_bits(value, width),
            Node::Not(x) => self.bits(x).iter().map(|&l| !l).collect(),
            Node::ZExt(x) => {
                let mut out = self.bits(x).to_vec();
                while out.len() < c.width() as usize {
                    out.push(!self.tru);
                }
                out
            }
            Node::Mux { cond, t, f } => {
                let s = self.bits(cond)[0];
                let tb = self.bits(t).to_vec();
                let fb = self.bits(f).to_vec();
                tb.iter()
                    .zip(fb.iter())
                    .map(|(&a, &b)| self.mux_gate(s, a, b))
                    .collect()
            }
            Node::Bin { op, a, b } => {
                let ab = self.bits(a).to_vec();
                let bb = self.bits(b).to_vec();
                match op {
                    BvOp::Add => self.add_vec(&ab, &bb, false),
                    BvOp::Sub => {
                        let nb: Vec<Lit> = bb.iter().map(|&l| !l).collect();
                        self.add_vec(&ab, &nb, true)
                    }
                    BvOp::Mul => self.mul_vec(&ab, &bb),
                    BvOp::UDiv => self.divrem_vec(&ab, &bb).0,
                    BvOp::URem => self.divrem_vec(&ab, &bb).1,
                    BvOp::And => self.zip_gate(&ab, &bb, |s, x, y| s.and_gate(x, y)),
                    BvOp::Or => self.zip_gate(&ab, &bb, |s, x, y| s.or_gate(x, y)),
                    BvOp::Xor => self.zip_gate(&ab, &bb, |s, x, y| s.xor_gate(x, y)),
                    BvOp::Eq => vec![self.eq_vec(&ab, &bb)],
                    BvOp::Ne => vec![!self.eq_vec(&ab, &bb)],
                    BvOp::Ult => vec![self.ult_vec(&ab, &bb)],
                    BvOp::Ule => vec![!self.ult_vec(&bb, &ab)],
                    BvOp::Ugt => vec![self.ult_vec(&bb, &ab)],
                    BvOp::Uge => vec![!self.ult_vec(&ab, &bb)],
                }
            }
        }
    }

    fn realize_input(&mut self, i: InputId, width: u8) -> Vec<Lit> {
        if let Some(bits) = self.realized.get(&i) {
            return bits.clone();
        }
        let bits = match self.bindings.get(&i).cloned() {
            Some(Binding::Const(v)) => self.const_bits(v, width),
            Some(Binding::Bits(bits)) => {
                assert_eq!(
                    bits.len(),
                    width as usize,
                    "bound bits must match circuit width"
                );
                bits
            }
            None => self.fresh_bits(width),
        };
        self.realized.insert(i, bits.clone());
        bits
    }

    fn const_bits(&self, value: u64, width: u8) -> Vec<Lit> {
        (0..width)
            .map(|k| {
                if (value >> k) & 1 == 1 {
                    self.tru
                } else {
                    !self.tru
                }
            })
            .collect()
    }

    /// `Some(b)` if `l` is one of the constant literals.
    fn lit_const(&self, l: Lit) -> Option<bool> {
        if l == self.tru {
            Some(true)
        } else if l == !self.tru {
            Some(false)
        } else {
            None
        }
    }

    fn lit_true(&self) -> Lit {
        self.tru
    }
    fn lit_false(&self) -> Lit {
        !self.tru
    }

    // ----- gates -----------------------------------------------------------
    //
    // Each gate folds constants first, then normalizes its inputs and looks
    // the result up in the gate table, building it only on a miss.

    /// The output of the gate keyed `key`: the table's entry, or a fresh
    /// literal that `define` constrains with `clauses` clauses, recorded.
    fn gate(&mut self, key: u128, clauses: u64, define: impl FnOnce(&mut Solver, Lit)) -> Lit {
        let Blaster { solver, gates, .. } = self;
        match gates.table().entry(key) {
            Entry::Occupied(e) => {
                chipmunk_trace::counter_add!("bv.blast.shared", 1);
                *e.get()
            }
            Entry::Vacant(e) => {
                let o = Lit::pos(solver.new_var());
                define(solver, o);
                chipmunk_trace::counter_add!("bv.blast.gates", 1);
                chipmunk_trace::counter_add!("bv.blast.clauses", clauses);
                *e.insert(o)
            }
        }
    }

    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.lit_const(a), self.lit_const(b)) {
            (Some(false), _) | (_, Some(false)) => return self.lit_false(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.lit_false();
        }
        // AND commutes: key on the sorted pair.
        let (a, b) = (a.min(b), a.max(b));
        self.gate(gate_key(KEY_AND, a, b, None), 3, |s, o| {
            s.add_clause([!a, !b, o]);
            s.add_clause([a, !o]);
            s.add_clause([b, !o]);
        })
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and_gate(!a, !b)
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.lit_const(a), self.lit_const(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return !b,
            (_, Some(true)) => return !a,
            _ => {}
        }
        if a == b {
            return self.lit_false();
        }
        if a == !b {
            return self.lit_true();
        }
        // xor(¬a, b) = ¬xor(a, b): key on the sorted positive literals and
        // negate the output when exactly one input was negative.
        let flip = a.is_neg() != b.is_neg();
        let (a, b) = (Lit::pos(a.var()), Lit::pos(b.var()));
        let (a, b) = (a.min(b), a.max(b));
        let o = self.gate(gate_key(KEY_XOR, a, b, None), 4, |s, o| {
            s.add_clause([!a, !b, !o]);
            s.add_clause([a, b, !o]);
            s.add_clause([a, !b, o]);
            s.add_clause([!a, b, o]);
        });
        if flip {
            !o
        } else {
            o
        }
    }

    fn mux_gate(&mut self, s: Lit, t: Lit, f: Lit) -> Lit {
        match self.lit_const(s) {
            Some(true) => return t,
            Some(false) => return f,
            None => {}
        }
        if t == f {
            return t;
        }
        match (self.lit_const(t), self.lit_const(f)) {
            (Some(true), Some(false)) => return s,
            (Some(false), Some(true)) => return !s,
            _ => {}
        }
        // mux(¬s, t, f) = mux(s, f, t) and mux(s, ¬t, ¬f) = ¬mux(s, t, f):
        // key on a positive select and a positive then-branch.
        let (s, t, f) = if s.is_neg() { (!s, f, t) } else { (s, t, f) };
        let flip = t.is_neg();
        let (t, f) = if flip { (!t, !f) } else { (t, f) };
        let o = self.gate(gate_key(KEY_MUX, s, t, Some(f)), 6, |sol, o| {
            // s -> (o == t), !s -> (o == f)
            sol.add_clause([!s, !t, o]);
            sol.add_clause([!s, t, !o]);
            sol.add_clause([s, !f, o]);
            sol.add_clause([s, f, !o]);
            // Redundant but propagation-friendly: t & f -> o, !t & !f -> !o
            sol.add_clause([!t, !f, o]);
            sol.add_clause([t, f, !o]);
        });
        if flip {
            !o
        } else {
            o
        }
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, cin);
        let t1 = self.and_gate(a, b);
        let t2 = self.and_gate(axb, cin);
        let cout = self.or_gate(t1, t2);
        (sum, cout)
    }

    fn add_vec(&mut self, a: &[Lit], b: &[Lit], carry_in: bool) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = if carry_in {
            self.lit_true()
        } else {
            self.lit_false()
        };
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    fn mul_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc: Vec<Lit> = vec![self.lit_false(); w];
        for (i, &bi) in b.iter().enumerate() {
            if self.lit_const(bi) == Some(false) {
                continue;
            }
            // Partial product: (a << i) & bi, truncated to w bits.
            let mut pp: Vec<Lit> = vec![self.lit_false(); w];
            for j in 0..w - i {
                pp[i + j] = self.and_gate(a[j], bi);
            }
            acc = self.add_vec(&acc, &pp, false);
        }
        acc
    }

    /// Restoring division producing (quotient, remainder).
    fn divrem_vec(&mut self, a: &[Lit], d: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        // Work with a (w+1)-bit remainder so the compare never overflows.
        let f = self.lit_false();
        let mut r: Vec<Lit> = vec![f; w + 1];
        let dext: Vec<Lit> = d.iter().copied().chain(std::iter::once(f)).collect();
        let mut q: Vec<Lit> = vec![f; w];
        let d_is_zero = {
            let zero = vec![f; w];
            self.eq_vec(d, &zero)
        };
        for i in (0..w).rev() {
            // r = (r << 1) | a[i]
            let mut r2: Vec<Lit> = Vec::with_capacity(w + 1);
            r2.push(a[i]);
            r2.extend_from_slice(&r[..w]);
            // q[i] = r2 >= dext
            let ge = !self.ult_vec(&r2, &dext);
            q[i] = ge;
            // r = ge ? r2 - dext : r2
            let nd: Vec<Lit> = dext.iter().map(|&l| !l).collect();
            let diff = self.add_vec(&r2, &nd, true);
            r = (0..w + 1)
                .map(|k| self.mux_gate(ge, diff[k], r2[k]))
                .collect();
        }
        // SMT-LIB: x/0 = all ones, x%0 = x.
        let ones = vec![self.lit_true(); w];
        let quot: Vec<Lit> = (0..w)
            .map(|k| self.mux_gate(d_is_zero, ones[k], q[k]))
            .collect();
        let rem: Vec<Lit> = (0..w)
            .map(|k| self.mux_gate(d_is_zero, a[k], r[k]))
            .collect();
        (quot, rem)
    }

    fn eq_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = self.lit_true();
        for i in 0..a.len() {
            let x = self.xor_gate(a[i], b[i]);
            acc = self.and_gate(acc, !x);
        }
        acc
    }

    /// a < b (unsigned).
    fn ult_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut lt = self.lit_false();
        for i in 0..a.len() {
            // lt = (!a_i & b_i) | ((a_i == b_i) & lt)
            let gt_bit = self.and_gate(!a[i], b[i]);
            let eq_bit = {
                let x = self.xor_gate(a[i], b[i]);
                !x
            };
            let keep = self.and_gate(eq_bit, lt);
            lt = self.or_gate(gt_bit, keep);
        }
        lt
    }

    fn zip_gate(
        &mut self,
        a: &[Lit],
        b: &[Lit],
        f: impl Fn(&mut Self, Lit, Lit) -> Lit,
    ) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        (0..a.len()).map(|i| f(self, a[i], b[i])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::mask;
    use chipmunk_sat::SolveResult;

    /// Exhaustively compare blasted semantics against the evaluator for a
    /// binary operation at a small width.
    fn exhaustive_binop(op: BvOp, width: u8) {
        let mut c = Circuit::new(width);
        let x = c.input("x");
        let y = c.input("y");
        let r = c.binop(op, x, y);
        let m = mask(width);
        for vx in 0..=m {
            for vy in 0..=m {
                let mut solver = Solver::new();
                let tru = mk_true(&mut solver);
                let mut b = Blaster::new(&mut solver, tru);
                b.bind(c.input_id(x), Binding::Const(vx));
                b.bind(c.input_id(y), Binding::Const(vy));
                let bits = b.blast(&c, r);
                assert_eq!(solver.solve(&[]), SolveResult::Sat);
                let got = Blaster::new(&mut solver, tru).decode(&bits).unwrap();
                let want = c.eval(r, &move |i| if i.0 == 0 { vx } else { vy });
                assert_eq!(got, want, "{op:?}({vx},{vy}) at width {width}");
            }
        }
    }

    #[test]
    fn add_sub_exhaustive_w3() {
        exhaustive_binop(BvOp::Add, 3);
        exhaustive_binop(BvOp::Sub, 3);
    }

    #[test]
    fn mul_exhaustive_w3() {
        exhaustive_binop(BvOp::Mul, 3);
    }

    #[test]
    fn div_rem_exhaustive_w3() {
        exhaustive_binop(BvOp::UDiv, 3);
        exhaustive_binop(BvOp::URem, 3);
    }

    #[test]
    fn bitwise_exhaustive_w3() {
        exhaustive_binop(BvOp::And, 3);
        exhaustive_binop(BvOp::Or, 3);
        exhaustive_binop(BvOp::Xor, 3);
    }

    #[test]
    fn comparisons_exhaustive_w3() {
        exhaustive_binop(BvOp::Eq, 3);
        exhaustive_binop(BvOp::Ne, 3);
        exhaustive_binop(BvOp::Ult, 3);
        exhaustive_binop(BvOp::Ule, 3);
        exhaustive_binop(BvOp::Ugt, 3);
        exhaustive_binop(BvOp::Uge, 3);
    }

    #[test]
    fn symbolic_inputs_solve_equation() {
        // Find x such that x * 3 + 1 == 10 (mod 16)  => x == 3 or x == ...?
        // 3x ≡ 9 (mod 16), gcd(3,16)=1 so x = 3 * 3^{-1}... 3*11=33≡1, so
        // x = 9*11 mod 16 = 99 mod 16 = 3. Unique solution.
        let mut c = Circuit::new(4);
        let x = c.input("x");
        let three = c.constant(3);
        let one = c.constant(1);
        let ten = c.constant(10);
        let px = c.binop(BvOp::Mul, x, three);
        let lhs = c.binop(BvOp::Add, px, one);
        let eq = c.binop(BvOp::Eq, lhs, ten);
        let mut solver = Solver::new();
        let tru = mk_true(&mut solver);
        let mut b = Blaster::new(&mut solver, tru);
        b.assert_term(&c, eq);
        let xbits = b.input_bits(c.input_id(x)).unwrap().to_vec();
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let b = Blaster::new(&mut solver, tru);
        let got = b.decode(&xbits).unwrap();
        assert_eq!(got, 3);
    }

    #[test]
    fn shared_bits_across_instantiations() {
        // CEGIS-style: one hole h, constraints from two "counterexamples":
        //   h + 1 == 5  and  h * 2 == 8   => h == 4.
        let mut solver = Solver::new();
        let tru = mk_true(&mut solver);
        let mut proto = Blaster::new(&mut solver, tru);
        let hole_bits = proto.fresh_bits(4);
        drop(proto);

        let mut c = Circuit::new(4);
        let h = c.input("h");
        let one = c.constant(1);
        let five = c.constant(5);
        let two = c.constant(2);
        let eight = c.constant(8);
        let s = c.binop(BvOp::Add, h, one);
        let eq1 = c.binop(BvOp::Eq, s, five);
        let p = c.binop(BvOp::Mul, h, two);
        let eq2 = c.binop(BvOp::Eq, p, eight);

        for eq in [eq1, eq2] {
            let mut b = Blaster::new(&mut solver, tru);
            b.bind(c.input_id(h), Binding::Bits(hole_bits.clone()));
            b.assert_term(&c, eq);
        }
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let b = Blaster::new(&mut solver, tru);
        assert_eq!(b.decode(&hole_bits).unwrap(), 4);
    }

    #[test]
    fn assumption_lits_pin_free_bits() {
        // Verify-under-assumptions: blast `x + 1 != y` once with x free,
        // then check candidates for x by pinning its bits. x=4 leaves the
        // miter satisfiable (pick y != 5); asserting y = x + 1 as a
        // constraint makes every candidate unsat — and the solver stays
        // reusable between the two phases.
        let mut solver = Solver::new();
        let tru = mk_true(&mut solver);
        let mut c = Circuit::new(4);
        let x = c.input("x");
        let y = c.input("y");
        let one = c.constant(1);
        let s = c.binop(BvOp::Add, x, one);
        let ne = c.binop(BvOp::Ne, s, y);

        let mut b = Blaster::new(&mut solver, tru);
        let x_bits = b.fresh_bits(4);
        b.bind(c.input_id(x), Binding::Bits(x_bits.clone()));
        b.assert_term(&c, ne);
        let y_bits = b.blast(&c, y);
        drop(b);

        assert_eq!(solver.solve(&assumption_lits(&x_bits, 4)), SolveResult::Sat);
        let dec = Blaster::new(&mut solver, tru);
        assert_eq!(dec.decode(&x_bits).unwrap(), 4);
        assert_ne!(dec.decode(&y_bits).unwrap(), 5);

        // Now force y == x + 1: no candidate can distinguish any more.
        let eq = c.binop(BvOp::Eq, s, y);
        let mut b = Blaster::new(&mut solver, tru);
        b.bind(c.input_id(x), Binding::Bits(x_bits.clone()));
        b.bind(c.input_id(y), Binding::Bits(y_bits.clone()));
        b.assert_term(&c, eq);
        drop(b);
        for v in [0u64, 4, 9, 15] {
            assert_eq!(
                solver.solve(&assumption_lits(&x_bits, v)),
                SolveResult::Unsat,
                "x={v}"
            );
        }
    }

    #[test]
    fn unsat_when_contradictory() {
        let mut c = Circuit::new(4);
        let x = c.input("x");
        let a = c.constant(1);
        let b2 = c.constant(2);
        let e1 = c.binop(BvOp::Eq, x, a);
        let e2 = c.binop(BvOp::Eq, x, b2);
        let mut solver = Solver::new();
        let tru = mk_true(&mut solver);
        let mut b = Blaster::new(&mut solver, tru);
        b.assert_term(&c, e1);
        b.assert_term(&c, e2);
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn mux_blast_selects() {
        let mut c = Circuit::new(4);
        let s = c.input("s");
        let zero = c.constant(0);
        let cond = c.binop(BvOp::Ne, s, zero);
        let a = c.constant(10);
        let b2 = c.constant(3);
        let sel = c.mux(cond, a, b2);
        for (sv, want) in [(0u64, 3u64), (7, 10)] {
            let mut solver = Solver::new();
            let tru = mk_true(&mut solver);
            let mut b = Blaster::new(&mut solver, tru);
            b.bind(c.input_id(s), Binding::Const(sv));
            let bits = b.blast(&c, sel);
            assert_eq!(solver.solve(&[]), SolveResult::Sat);
            let dec = Blaster::new(&mut solver, tru).decode(&bits).unwrap();
            assert_eq!(dec, want);
        }
    }

    /// Build one gate over every sign combination of `arity` fresh
    /// literals through one table, starting from each combination in turn,
    /// and check every output against `want` on every assignment. `gates`
    /// is how many distinct gates the combinations normalize to.
    fn gate_signs_exhaustive(
        arity: usize,
        gates: usize,
        gate: impl Fn(&mut Blaster<'_>, &[Lit]) -> Lit,
        want: impl Fn(&[bool]) -> bool,
    ) {
        let combos = 1usize << arity;
        for first in 0..combos {
            let mut gs = GateSolver::new(Solver::new());
            let vars = gs.blaster().fresh_bits(arity as u8);
            let before = gs.solver().num_vars();
            let signed = |m: usize| -> Vec<Lit> {
                vars.iter()
                    .enumerate()
                    .map(|(i, &l)| if (m >> i) & 1 == 1 { !l } else { l })
                    .collect()
            };
            let outs: Vec<(usize, Lit)> = {
                let mut b = gs.blaster();
                std::iter::once(first)
                    .chain((0..combos).filter(|&m| m != first))
                    .map(|m| (m, gate(&mut b, &signed(m))))
                    .collect()
            };
            assert_eq!(gs.solver().num_vars() - before, gates, "first {first:b}");
            for value in 0..combos as u64 {
                assert_eq!(gs.solve(&assumption_lits(&vars, value)), SolveResult::Sat);
                for &(m, o) in &outs {
                    let inputs: Vec<bool> = (0..arity)
                        .map(|i| ((value >> i) & 1 == 1) != ((m >> i) & 1 == 1))
                        .collect();
                    assert_eq!(
                        gs.decode(&[o]),
                        Some(want(&inputs) as u64),
                        "first {first:b}, signs {m:b}, inputs {inputs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn xor_gate_sign_combinations_share_one_gate() {
        gate_signs_exhaustive(2, 1, |b, l| b.xor_gate(l[0], l[1]), |v| v[0] != v[1]);
    }

    #[test]
    fn mux_gate_sign_combinations_are_exact() {
        // A negative select swaps the branches and negating both branches
        // negates the output, so the 8 combinations are 4 gates: which
        // variable is the then-branch, and whether the branches' signs
        // agree.
        gate_signs_exhaustive(
            3,
            4,
            |b, l| b.mux_gate(l[0], l[1], l[2]),
            |v| if v[0] { v[1] } else { v[2] },
        );
    }

    #[test]
    fn and_gate_sign_combinations_are_exact() {
        // AND has no sign symmetry: 4 combinations, 4 gates.
        gate_signs_exhaustive(2, 4, |b, l| b.and_gate(l[0], l[1]), |v| v[0] && v[1]);
        // Its operands commute.
        let mut gs = GateSolver::new(Solver::new());
        let v = gs.blaster().fresh_bits(2);
        let mut b = gs.blaster();
        let ab = b.and_gate(v[0], !v[1]);
        assert_eq!(b.and_gate(!v[1], v[0]), ab);
    }

    #[test]
    fn private_tables_stay_private() {
        // `Blaster::new` shares gates within one blaster only: a second
        // blaster over the same solver builds the gate again.
        let mut solver = Solver::new();
        let tru = mk_true(&mut solver);
        let v = Blaster::new(&mut solver, tru).fresh_bits(2);
        let mut b = Blaster::new(&mut solver, tru);
        let o = b.xor_gate(v[0], v[1]);
        assert_eq!(b.xor_gate(!v[1], !v[0]), o);
        drop(b);
        let before = solver.num_vars();
        let o2 = Blaster::new(&mut solver, tru).xor_gate(v[0], v[1]);
        assert_ne!(o2, o);
        assert_eq!(solver.num_vars(), before + 1);
    }

    #[test]
    fn constant_binding_costs_no_variables() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let y = c.input("y");
        let s = c.binop(BvOp::Add, x, y);
        let mut solver = Solver::new();
        let tru = mk_true(&mut solver);
        let before = solver.num_vars();
        let mut b = Blaster::new(&mut solver, tru);
        b.bind(c.input_id(x), Binding::Const(3));
        b.bind(c.input_id(y), Binding::Const(4));
        let bits = b.blast(&c, s);
        // Fully-constant blasting should introduce zero fresh variables.
        assert_eq!(solver.num_vars(), before);
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let dec = Blaster::new(&mut solver, tru).decode(&bits).unwrap();
        assert_eq!(dec, 7);
    }
}
