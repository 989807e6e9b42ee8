//! Hash-consed bit-vector term graph with constant folding.
//!
//! A [`Circuit`] holds a DAG of bit-vector terms of a fixed *value width*
//! (the circuit's width, 1–64 bits). Comparison operators produce width-1
//! boolean terms; [`Circuit::zext`] injects booleans back into the value
//! domain. Construction performs structural hashing (identical nodes are
//! shared) and local algebraic simplification, which keeps the CNF produced
//! by the blaster small.

use std::collections::HashMap;

/// Index of a term inside a [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

/// Index of a free input of a [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct InputId(pub u32);

impl InputId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary bit-vector operations.
///
/// Arithmetic wraps modulo `2^width`. Comparisons are unsigned and produce
/// width-1 terms. Division follows SMT-LIB: `x udiv 0 = all-ones`,
/// `x urem 0 = x`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BvOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (SMT-LIB semantics for division by zero).
    UDiv,
    /// Unsigned remainder (SMT-LIB semantics for division by zero).
    URem,
    /// Bitwise and (also logical and on width-1 terms).
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Equality; produces a width-1 term.
    Eq,
    /// Disequality; produces a width-1 term.
    Ne,
    /// Unsigned less-than; produces a width-1 term.
    Ult,
    /// Unsigned less-or-equal; produces a width-1 term.
    Ule,
    /// Unsigned greater-than; produces a width-1 term.
    Ugt,
    /// Unsigned greater-or-equal; produces a width-1 term.
    Uge,
}

impl BvOp {
    /// Does this operation produce a width-1 boolean?
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BvOp::Eq | BvOp::Ne | BvOp::Ult | BvOp::Ule | BvOp::Ugt | BvOp::Uge
        )
    }

    /// Is `op(a, b) == op(b, a)` for all inputs?
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BvOp::Add | BvOp::Mul | BvOp::And | BvOp::Or | BvOp::Xor | BvOp::Eq | BvOp::Ne
        )
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Node {
    Input(InputId),
    Const { value: u64, width: u8 },
    Bin { op: BvOp, a: TermId, b: TermId },
    Not(TermId),
    Mux { cond: TermId, t: TermId, f: TermId },
    ZExt(TermId),
}

/// A bit-vector term graph.
///
/// All value terms share one width, fixed at construction. This matches the
/// packet-processing domain (every PHV container, state cell and immediate
/// has the pipeline's word width) and keeps the API impossible to misuse.
#[derive(Clone, Debug)]
pub struct Circuit {
    width: u8,
    nodes: Vec<Node>,
    widths: Vec<u8>,
    dedup: HashMap<Node, TermId>,
    input_names: Vec<String>,
}

impl Circuit {
    /// Create an empty circuit whose value terms are `width` bits wide.
    ///
    /// # Panics
    /// If `width` is 0 or greater than 64.
    pub fn new(width: u8) -> Circuit {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        Circuit {
            width,
            nodes: Vec::new(),
            widths: Vec::new(),
            dedup: HashMap::new(),
            input_names: Vec::new(),
        }
    }

    /// The value width of this circuit.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Bit mask covering the value width.
    pub fn mask(&self) -> u64 {
        mask(self.width)
    }

    /// Number of free inputs declared so far.
    pub fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// The width of a term.
    pub fn term_width(&self, t: TermId) -> u8 {
        self.widths[t.0 as usize]
    }

    /// Declare a fresh free input of the circuit's value width.
    pub fn input(&mut self, name: &str) -> TermId {
        let id = InputId(self.input_names.len() as u32);
        self.input_names.push(name.to_string());
        // Inputs are never deduplicated: each call is a distinct input.
        self.push(Node::Input(id), self.width)
    }

    /// The [`InputId`] of an input term.
    ///
    /// # Panics
    /// If `t` is not an input term.
    pub fn input_id(&self, t: TermId) -> InputId {
        match self.nodes[t.0 as usize] {
            Node::Input(i) => i,
            _ => panic!("term is not an input"),
        }
    }

    /// A constant of the circuit's value width (masked).
    pub fn constant(&mut self, value: u64) -> TermId {
        let w = self.width;
        self.intern(Node::Const {
            value: value & mask(w),
            width: w,
        })
    }

    /// The width-1 constant true.
    pub fn tru(&mut self) -> TermId {
        self.intern(Node::Const { value: 1, width: 1 })
    }

    /// The width-1 constant false.
    pub fn fals(&mut self) -> TermId {
        self.intern(Node::Const { value: 0, width: 1 })
    }

    fn intern(&mut self, node: Node) -> TermId {
        if let Some(&t) = self.dedup.get(&node) {
            return t;
        }
        let w = match &node {
            Node::Input(_) => self.width,
            Node::Const { width, .. } => *width,
            Node::Bin { op, a, .. } => {
                if op.is_predicate() {
                    1
                } else {
                    self.term_width(*a)
                }
            }
            Node::Not(t) => self.term_width(*t),
            Node::Mux { t, .. } => self.term_width(*t),
            Node::ZExt(_) => self.width,
        };
        let id = self.push(node.clone(), w);
        self.dedup.insert(node, id);
        id
    }

    fn push(&mut self, node: Node, width: u8) -> TermId {
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.widths.push(width);
        id
    }

    fn const_value(&self, t: TermId) -> Option<u64> {
        match self.nodes[t.0 as usize] {
            Node::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Apply a binary operation, folding constants and applying local
    /// algebraic identities.
    ///
    /// # Panics
    /// If operand widths differ.
    pub fn binop(&mut self, op: BvOp, mut a: TermId, mut b: TermId) -> TermId {
        let w = self.term_width(a);
        assert_eq!(
            w,
            self.term_width(b),
            "binop operands must have equal widths"
        );
        // Constant folding.
        if let (Some(va), Some(vb)) = (self.const_value(a), self.const_value(b)) {
            let v = eval_binop(op, va, vb, w);
            return if op.is_predicate() {
                self.intern(Node::Const { value: v, width: 1 })
            } else {
                self.intern(Node::Const { value: v, width: w })
            };
        }
        // Canonical operand order for commutative ops: constants right,
        // otherwise ascending ids — improves sharing.
        if op.is_commutative()
            && (self.const_value(a).is_some() || (b < a && self.const_value(b).is_none()))
        {
            std::mem::swap(&mut a, &mut b);
        }
        // Algebraic identities.
        let m = mask(w);
        let vb = self.const_value(b);
        match (op, vb) {
            (BvOp::Add | BvOp::Sub | BvOp::Or | BvOp::Xor, Some(0)) => return a,
            (BvOp::Mul, Some(1)) => return a,
            (BvOp::Mul | BvOp::And, Some(0)) => {
                return self.intern(Node::Const { value: 0, width: w })
            }
            (BvOp::And, Some(v)) if v == m => return a,
            (BvOp::Or, Some(v)) if v == m => {
                return self.intern(Node::Const { value: m, width: w })
            }
            (BvOp::UDiv, Some(1)) => return a,
            _ => {}
        }
        if a == b {
            match op {
                BvOp::Sub | BvOp::Xor => return self.intern(Node::Const { value: 0, width: w }),
                BvOp::And | BvOp::Or => return a,
                BvOp::Eq | BvOp::Ule | BvOp::Uge => return self.tru(),
                BvOp::Ne | BvOp::Ult | BvOp::Ugt => return self.fals(),
                _ => {}
            }
        }
        self.intern(Node::Bin { op, a, b })
    }

    /// Bitwise negation.
    pub fn not(&mut self, t: TermId) -> TermId {
        let w = self.term_width(t);
        if let Some(v) = self.const_value(t) {
            return self.intern(Node::Const {
                value: !v & mask(w),
                width: w,
            });
        }
        if let Node::Not(inner) = self.nodes[t.0 as usize] {
            return inner;
        }
        self.intern(Node::Not(t))
    }

    /// `cond ? t : f`. `cond` must have width 1; `t` and `f` equal widths.
    pub fn mux(&mut self, cond: TermId, t: TermId, f: TermId) -> TermId {
        assert_eq!(self.term_width(cond), 1, "mux condition must be width 1");
        assert_eq!(
            self.term_width(t),
            self.term_width(f),
            "mux arms must have equal widths"
        );
        if let Some(c) = self.const_value(cond) {
            return if c == 1 { t } else { f };
        }
        if t == f {
            return t;
        }
        self.intern(Node::Mux { cond, t, f })
    }

    /// `options[sel]` for a value-width selector `sel`, and the **last**
    /// option when `sel` is past the end — a hardware mux whose control
    /// lines have more codes than inputs. Built as a chain of `Eq` tests
    /// and muxes from the second-to-last option back to the first.
    pub fn select(&mut self, sel: TermId, options: &[TermId]) -> TermId {
        let (&last, rest) = options
            .split_last()
            .expect("select needs at least one option");
        let mut acc = last;
        for (i, &opt) in rest.iter().enumerate().rev() {
            let idx = self.constant(i as u64);
            let is_i = self.binop(BvOp::Eq, sel, idx);
            acc = self.mux(is_i, opt, acc);
        }
        acc
    }

    /// Zero-extend a width-1 boolean to the circuit's value width.
    pub fn zext(&mut self, t: TermId) -> TermId {
        assert_eq!(self.term_width(t), 1, "zext takes a width-1 term");
        if self.width == 1 {
            return t;
        }
        if let Some(v) = self.const_value(t) {
            return self.constant(v);
        }
        self.intern(Node::ZExt(t))
    }

    /// Total number of nodes (a proxy for circuit size).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn node(&self, t: TermId) -> &Node {
        &self.nodes[t.0 as usize]
    }

    /// Evaluate `t` concretely given input values.
    ///
    /// `inputs(i)` supplies the value of input `i` (it is masked to the
    /// circuit width before use).
    pub fn eval(&self, t: TermId, inputs: &dyn Fn(InputId) -> u64) -> u64 {
        let mut memo: Vec<Option<u64>> = vec![None; self.nodes.len()];
        self.eval_memo(t, inputs, &mut memo)
    }

    /// Evaluate many roots sharing one memo table.
    pub fn eval_many(&self, ts: &[TermId], inputs: &dyn Fn(InputId) -> u64) -> Vec<u64> {
        let mut memo: Vec<Option<u64>> = vec![None; self.nodes.len()];
        ts.iter()
            .map(|&t| self.eval_memo(t, inputs, &mut memo))
            .collect()
    }

    fn eval_memo(
        &self,
        root: TermId,
        inputs: &dyn Fn(InputId) -> u64,
        memo: &mut [Option<u64>],
    ) -> u64 {
        // Iterative post-order to avoid stack overflow on deep graphs.
        let mut stack: Vec<(TermId, bool)> = vec![(root, false)];
        while let Some((t, ready)) = stack.pop() {
            let ti = t.0 as usize;
            if memo[ti].is_some() {
                continue;
            }
            if !ready {
                stack.push((t, true));
                match *self.node(t) {
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
            let v = match *self.node(t) {
                Node::Input(i) => inputs(i) & self.mask(),
                Node::Const { value, .. } => value,
                Node::Bin { op, a, b } => {
                    let va = memo[a.0 as usize].expect("child evaluated");
                    let vb = memo[b.0 as usize].expect("child evaluated");
                    eval_binop(op, va, vb, self.term_width(a))
                }
                Node::Not(x) => !memo[x.0 as usize].expect("child") & mask(self.term_width(x)),
                Node::ZExt(x) => memo[x.0 as usize].expect("child"),
                Node::Mux { cond, t: tt, f } => {
                    if memo[cond.0 as usize].expect("child") == 1 {
                        memo[tt.0 as usize].expect("child")
                    } else {
                        memo[f.0 as usize].expect("child")
                    }
                }
            };
            memo[ti] = Some(v);
        }
        memo[root.0 as usize].expect("root evaluated")
    }
}

pub(crate) fn mask(width: u8) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

pub(crate) fn eval_binop(op: BvOp, a: u64, b: u64, width: u8) -> u64 {
    let m = mask(width);
    let (a, b) = (a & m, b & m);
    match op {
        BvOp::Add => a.wrapping_add(b) & m,
        BvOp::Sub => a.wrapping_sub(b) & m,
        BvOp::Mul => a.wrapping_mul(b) & m,
        // SMT-LIB: x / 0 = all ones
        BvOp::UDiv => a.checked_div(b).map_or(m, |v| v & m),
        BvOp::URem => {
            if b == 0 {
                a // SMT-LIB: x % 0 = x
            } else {
                (a % b) & m
            }
        }
        BvOp::And => a & b,
        BvOp::Or => a | b,
        BvOp::Xor => a ^ b,
        BvOp::Eq => (a == b) as u64,
        BvOp::Ne => (a != b) as u64,
        BvOp::Ult => (a < b) as u64,
        BvOp::Ule => (a <= b) as u64,
        BvOp::Ugt => (a > b) as u64,
        BvOp::Uge => (a >= b) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_of_one_option_is_that_option() {
        let mut c = Circuit::new(4);
        let sel = c.input("sel");
        let only = c.constant(7);
        assert_eq!(c.select(sel, &[only]), only);
    }

    #[test]
    fn constants_fold() {
        let mut c = Circuit::new(8);
        let a = c.constant(200);
        let b = c.constant(100);
        let s = c.binop(BvOp::Add, a, b);
        assert_eq!(c.const_value(s), Some((200 + 100) % 256));
        let p = c.binop(BvOp::Ult, a, b);
        assert_eq!(c.const_value(p), Some(0));
        assert_eq!(c.term_width(p), 1);
    }

    #[test]
    fn identities_simplify() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let zero = c.constant(0);
        let one = c.constant(1);
        assert_eq!(c.binop(BvOp::Add, x, zero), x);
        assert_eq!(c.binop(BvOp::Add, zero, x), x);
        assert_eq!(c.binop(BvOp::Mul, x, one), x);
        let m0 = c.binop(BvOp::Mul, x, zero);
        assert_eq!(c.const_value(m0), Some(0));
        let sub_self = c.binop(BvOp::Sub, x, x);
        assert_eq!(c.const_value(sub_self), Some(0));
        let eq_self = c.binop(BvOp::Eq, x, x);
        assert_eq!(c.const_value(eq_self), Some(1));
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let y = c.input("y");
        let s1 = c.binop(BvOp::Add, x, y);
        let s2 = c.binop(BvOp::Add, x, y);
        let s3 = c.binop(BvOp::Add, y, x); // commutative canonicalization
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
    }

    #[test]
    fn inputs_are_never_merged() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let y = c.input("x"); // same name, still distinct
        assert_ne!(x, y);
        assert_eq!(c.num_inputs(), 2);
    }

    #[test]
    fn double_negation_cancels() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let n = c.not(x);
        assert_eq!(c.not(n), x);
    }

    #[test]
    fn mux_simplifications() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let y = c.input("y");
        let t = c.tru();
        let f = c.fals();
        assert_eq!(c.mux(t, x, y), x);
        assert_eq!(c.mux(f, x, y), y);
        let p = c.binop(BvOp::Ult, x, y);
        assert_eq!(c.mux(p, x, x), x);
    }

    #[test]
    fn eval_matches_u64_semantics() {
        let mut c = Circuit::new(5);
        let x = c.input("x");
        let y = c.input("y");
        let sum = c.binop(BvOp::Add, x, y);
        let five = c.constant(5);
        let prod = c.binop(BvOp::Mul, sum, five);
        let cond = c.binop(BvOp::Ugt, prod, y);
        let sel = c.mux(cond, x, prod);
        let vals = [(3u64, 4u64), (31, 31), (0, 0), (17, 19)];
        for (vx, vy) in vals {
            let env = move |i: InputId| if i.0 == 0 { vx } else { vy };
            let m = 31u64;
            let sum_v = (vx + vy) & m;
            let prod_v = (sum_v * 5) & m;
            let sel_v = if prod_v > (vy & m) { vx & m } else { prod_v };
            assert_eq!(c.eval(sel, &env), sel_v);
        }
    }

    #[test]
    fn division_by_zero_follows_smtlib() {
        let mut c = Circuit::new(4);
        let x = c.constant(7);
        let z = c.constant(0);
        let d = c.binop(BvOp::UDiv, x, z);
        let r = c.binop(BvOp::URem, x, z);
        assert_eq!(c.const_value(d), Some(15));
        assert_eq!(c.const_value(r), Some(7));
    }

    #[test]
    fn zext_width1_noop_and_const() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let y = c.input("y");
        let p = c.binop(BvOp::Ult, x, y);
        let z = c.zext(p);
        assert_eq!(c.term_width(z), 8);
        let t = c.tru();
        let zt = c.zext(t);
        assert_eq!(c.const_value(zt), Some(1));
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn mixed_width_binop_panics() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let y = c.input("y");
        let p = c.binop(BvOp::Eq, x, y); // width 1
        c.binop(BvOp::Add, x, p);
    }

    #[test]
    fn eval_many_shares_memo() {
        let mut c = Circuit::new(8);
        let x = c.input("x");
        let one = c.constant(1);
        let a = c.binop(BvOp::Add, x, one);
        let b = c.binop(BvOp::Mul, a, a);
        let out = c.eval_many(&[a, b], &|_| 4);
        assert_eq!(out, vec![5, 25]);
    }
}
