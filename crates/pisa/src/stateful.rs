//! Stateful ALUs: registered units described by hole-bearing templates.
//!
//! A stateful ALU owns one state register. Per packet it reads the
//! register and up to two mux-selected packet operands, computes a new
//! register value, and emits an output into the stage's output muxes.
//! Updates are atomic: the new value is visible to the next packet
//! (§2.2 of the paper).
//!
//! The *behaviour* of the ALU is not fixed: it is a template — a small
//! expression over `{state, packet operands, literal constants, holes}` —
//! so that "a variety of simulated switch hardware" can be explored by
//! swapping templates. Holes select among template alternatives (mux arms,
//! relational operators) or provide immediate constants; the synthesizer
//! fills them, and a concrete configuration stores their values.
//!
//! The [`library`] module provides the Banzai-style templates used by the
//! paper's benchmarks: `raw`, `pred_raw`, `if_else_raw`, `sub`,
//! `nested_ifs`.

use chipmunk_bv::{BvOp, Circuit, TermId};

use crate::stateless::{bits_for, select_concrete};

/// Relational operators selectable inside templates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RelOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (unsigned)
    Lt,
    /// `<=` (unsigned)
    Le,
    /// `>` (unsigned)
    Gt,
    /// `>=` (unsigned)
    Ge,
}

impl RelOp {
    fn eval(self, a: u64, b: u64) -> bool {
        match self {
            RelOp::Eq => a == b,
            RelOp::Ne => a != b,
            RelOp::Lt => a < b,
            RelOp::Le => a <= b,
            RelOp::Gt => a > b,
            RelOp::Ge => a >= b,
        }
    }

    fn bvop(self) -> BvOp {
        match self {
            RelOp::Eq => BvOp::Eq,
            RelOp::Ne => BvOp::Ne,
            RelOp::Lt => BvOp::Ult,
            RelOp::Le => BvOp::Ule,
            RelOp::Gt => BvOp::Ugt,
            RelOp::Ge => BvOp::Uge,
        }
    }
}

/// Value-producing template expressions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AluExpr {
    /// The ALU's state register (value before this packet).
    State,
    /// The state value *after* the update. Only valid in the ALU's
    /// `output` expression — Banzai atoms may emit either the old or the
    /// freshly written value onto the packet path.
    NewState,
    /// Packet operand `i` (selected by the ALU's input mux `i`).
    Pkt(usize),
    /// Immediate constant supplied by hole `i`.
    ConstHole(usize),
    /// A literal constant baked into the template.
    Lit(u64),
    /// Wrapping addition.
    Add(Box<AluExpr>, Box<AluExpr>),
    /// Wrapping subtraction.
    Sub(Box<AluExpr>, Box<AluExpr>),
    /// Hole-selected alternative: `arms[holes[hole]]` (out-of-range hole
    /// values select the last arm).
    MuxHole {
        /// Index of the selecting hole.
        hole: usize,
        /// The alternatives.
        arms: Vec<AluExpr>,
    },
    /// Conditional.
    IfElse {
        /// Guard predicate.
        cond: Box<AluPred>,
        /// Value when the guard holds.
        then_: Box<AluExpr>,
        /// Value otherwise.
        else_: Box<AluExpr>,
    },
}

impl AluExpr {
    /// Boxed-addition helper.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: AluExpr, b: AluExpr) -> AluExpr {
        AluExpr::Add(Box::new(a), Box::new(b))
    }

    /// Boxed-subtraction helper.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: AluExpr, b: AluExpr) -> AluExpr {
        AluExpr::Sub(Box::new(a), Box::new(b))
    }
}

/// Predicate template expressions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AluPred {
    /// A fixed relational comparison.
    Rel {
        /// Operator.
        op: RelOp,
        /// Left operand.
        a: AluExpr,
        /// Right operand.
        b: AluExpr,
    },
    /// A hole-selected relational comparison: `ops[holes[hole]]`.
    RelHole {
        /// Index of the selecting hole.
        hole: usize,
        /// Candidate operators, in hole-encoding order.
        ops: Vec<RelOp>,
        /// Left operand.
        a: AluExpr,
        /// Right operand.
        b: AluExpr,
    },
    /// Conjunction.
    And(Box<AluPred>, Box<AluPred>),
    /// Disjunction.
    Or(Box<AluPred>, Box<AluPred>),
    /// Negation.
    Not(Box<AluPred>),
    /// A one-bit hole used directly as a predicate.
    FlagHole(usize),
    /// Constant true.
    True,
}

/// A stateful ALU description: its holes and its behaviour template.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatefulAluSpec {
    /// Template name (e.g. `"if_else_raw"`).
    pub name: String,
    /// Hole names and bit-widths, in encoding order. Immediate-constant
    /// holes use the grid's immediate width; selector holes use just enough
    /// bits for their arm count.
    pub holes: Vec<(String, u8)>,
    /// Number of packet operands (each gets one input mux), at most 2.
    pub num_pkt_operands: usize,
    /// New-state expression (must not mention [`AluExpr::NewState`]).
    pub update: AluExpr,
    /// Output expression: what the ALU drives onto the stage's output
    /// muxes. May mention [`AluExpr::NewState`]. Banzai atoms use this to
    /// emit old state, new state, or branch-computed packet values.
    pub output: AluExpr,
}

impl StatefulAluSpec {
    /// Total hole bits of one ALU instance.
    pub fn total_hole_bits(&self) -> u32 {
        self.holes.iter().map(|(_, b)| *b as u32).sum()
    }

    /// Validate internal consistency (hole indices, arm counts, operand
    /// indices). Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        fn expr(e: &AluExpr, s: &StatefulAluSpec) -> Result<(), String> {
            expr_in(e, s, false)
        }
        fn expr_in(e: &AluExpr, s: &StatefulAluSpec, allow_new: bool) -> Result<(), String> {
            match e {
                AluExpr::NewState => {
                    if allow_new {
                        Ok(())
                    } else {
                        Err("NewState is only valid in the output expression".into())
                    }
                }
                AluExpr::State | AluExpr::Lit(_) => Ok(()),
                AluExpr::Pkt(i) => {
                    if *i < s.num_pkt_operands {
                        Ok(())
                    } else {
                        Err(format!("packet operand {i} out of range"))
                    }
                }
                AluExpr::ConstHole(h) => check_hole(*h, s),
                AluExpr::Add(a, b) | AluExpr::Sub(a, b) => {
                    expr_in(a, s, allow_new)?;
                    expr_in(b, s, allow_new)
                }
                AluExpr::MuxHole { hole, arms } => {
                    check_hole(*hole, s)?;
                    if arms.is_empty() {
                        return Err("MuxHole with no arms".into());
                    }
                    let need = bits_for(arms.len());
                    if s.holes[*hole].1 < need {
                        return Err(format!(
                            "hole `{}` has {} bits but needs {} for {} arms",
                            s.holes[*hole].0,
                            s.holes[*hole].1,
                            need,
                            arms.len()
                        ));
                    }
                    arms.iter().try_for_each(|a| expr_in(a, s, allow_new))
                }
                AluExpr::IfElse { cond, then_, else_ } => {
                    pred(cond, s)?;
                    expr_in(then_, s, allow_new)?;
                    expr_in(else_, s, allow_new)
                }
            }
        }
        fn pred(p: &AluPred, s: &StatefulAluSpec) -> Result<(), String> {
            match p {
                AluPred::True => Ok(()),
                AluPred::FlagHole(h) => check_hole(*h, s),
                AluPred::Rel { a, b, .. } => {
                    expr(a, s)?;
                    expr(b, s)
                }
                AluPred::RelHole { hole, ops, a, b } => {
                    check_hole(*hole, s)?;
                    if ops.is_empty() {
                        return Err("RelHole with no ops".into());
                    }
                    expr(a, s)?;
                    expr(b, s)
                }
                AluPred::And(a, b) | AluPred::Or(a, b) => {
                    pred(a, s)?;
                    pred(b, s)
                }
                AluPred::Not(x) => pred(x, s),
            }
        }
        fn check_hole(h: usize, s: &StatefulAluSpec) -> Result<(), String> {
            if h < s.holes.len() {
                Ok(())
            } else {
                Err(format!("hole index {h} out of range"))
            }
        }
        if self.num_pkt_operands > 2 {
            return Err("at most 2 packet operands supported".into());
        }
        let mut names: Vec<&str> = self.holes.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        for w in names.windows(2) {
            if w[0] == w[1] {
                return Err(format!(
                    "duplicate hole name `{}`; holes are addressed by name",
                    w[0]
                ));
            }
        }
        expr(&self.update, self)?;
        expr_in(&self.output, self, true)?;
        Ok(())
    }

    /// Concrete execution: `(new_state, output)`.
    pub fn eval(&self, holes: &[u64], state: u64, pkts: &[u64], mask: u64) -> (u64, u64) {
        debug_assert_eq!(holes.len(), self.holes.len());
        let new_state = eval_expr(&self.update, holes, state, state, pkts, mask);
        let out = eval_expr(&self.output, holes, state, new_state, pkts, mask);
        (new_state, out)
    }

    /// Symbolic execution with hole *terms*: `(new_state, output)`.
    pub fn symbolic(
        &self,
        c: &mut Circuit,
        holes: &[TermId],
        state: TermId,
        pkts: &[TermId],
    ) -> (TermId, TermId) {
        debug_assert_eq!(holes.len(), self.holes.len());
        let new_state = sym_expr(&self.update, c, holes, state, state, pkts);
        let out = sym_expr(&self.output, c, holes, state, new_state, pkts);
        (new_state, out)
    }
}

fn eval_expr(
    e: &AluExpr,
    holes: &[u64],
    state: u64,
    new_state: u64,
    pkts: &[u64],
    mask: u64,
) -> u64 {
    match e {
        AluExpr::State => state & mask,
        AluExpr::NewState => new_state & mask,
        AluExpr::Pkt(i) => pkts[*i] & mask,
        AluExpr::ConstHole(h) => holes[*h] & mask,
        AluExpr::Lit(v) => v & mask,
        AluExpr::Add(a, b) => {
            eval_expr(a, holes, state, new_state, pkts, mask)
                .wrapping_add(eval_expr(b, holes, state, new_state, pkts, mask))
                & mask
        }
        AluExpr::Sub(a, b) => {
            eval_expr(a, holes, state, new_state, pkts, mask)
                .wrapping_sub(eval_expr(b, holes, state, new_state, pkts, mask))
                & mask
        }
        AluExpr::MuxHole { hole, arms } => {
            let arm = select_concrete(holes[*hole], &arms.iter().collect::<Vec<_>>());
            eval_expr(arm, holes, state, new_state, pkts, mask)
        }
        AluExpr::IfElse { cond, then_, else_ } => {
            if eval_pred(cond, holes, state, new_state, pkts, mask) {
                eval_expr(then_, holes, state, new_state, pkts, mask)
            } else {
                eval_expr(else_, holes, state, new_state, pkts, mask)
            }
        }
    }
}

fn eval_pred(
    p: &AluPred,
    holes: &[u64],
    state: u64,
    new_state: u64,
    pkts: &[u64],
    mask: u64,
) -> bool {
    match p {
        AluPred::True => true,
        AluPred::FlagHole(h) => holes[*h] & 1 == 1,
        AluPred::Rel { op, a, b } => op.eval(
            eval_expr(a, holes, state, new_state, pkts, mask),
            eval_expr(b, holes, state, new_state, pkts, mask),
        ),
        AluPred::RelHole { hole, ops, a, b } => {
            let op = select_concrete(holes[*hole], ops);
            op.eval(
                eval_expr(a, holes, state, new_state, pkts, mask),
                eval_expr(b, holes, state, new_state, pkts, mask),
            )
        }
        AluPred::And(a, b) => {
            eval_pred(a, holes, state, new_state, pkts, mask)
                && eval_pred(b, holes, state, new_state, pkts, mask)
        }
        AluPred::Or(a, b) => {
            eval_pred(a, holes, state, new_state, pkts, mask)
                || eval_pred(b, holes, state, new_state, pkts, mask)
        }
        AluPred::Not(x) => !eval_pred(x, holes, state, new_state, pkts, mask),
    }
}

fn sym_expr(
    e: &AluExpr,
    c: &mut Circuit,
    holes: &[TermId],
    state: TermId,
    new_state: TermId,
    pkts: &[TermId],
) -> TermId {
    match e {
        AluExpr::State => state,
        AluExpr::NewState => new_state,
        AluExpr::Pkt(i) => pkts[*i],
        AluExpr::ConstHole(h) => holes[*h],
        AluExpr::Lit(v) => c.constant(*v),
        AluExpr::Add(a, b) => {
            let va = sym_expr(a, c, holes, state, new_state, pkts);
            let vb = sym_expr(b, c, holes, state, new_state, pkts);
            c.binop(BvOp::Add, va, vb)
        }
        AluExpr::Sub(a, b) => {
            let va = sym_expr(a, c, holes, state, new_state, pkts);
            let vb = sym_expr(b, c, holes, state, new_state, pkts);
            c.binop(BvOp::Sub, va, vb)
        }
        AluExpr::MuxHole { hole, arms } => {
            let options: Vec<TermId> = arms
                .iter()
                .map(|a| sym_expr(a, c, holes, state, new_state, pkts))
                .collect();
            c.select(holes[*hole], &options)
        }
        AluExpr::IfElse { cond, then_, else_ } => {
            let p = sym_pred(cond, c, holes, state, new_state, pkts);
            let t = sym_expr(then_, c, holes, state, new_state, pkts);
            let f = sym_expr(else_, c, holes, state, new_state, pkts);
            c.mux(p, t, f)
        }
    }
}

fn sym_pred(
    p: &AluPred,
    c: &mut Circuit,
    holes: &[TermId],
    state: TermId,
    new_state: TermId,
    pkts: &[TermId],
) -> TermId {
    match p {
        AluPred::True => c.tru(),
        AluPred::FlagHole(h) => {
            let one = c.constant(1);
            let zero = c.constant(0);
            let bit = c.binop(BvOp::And, holes[*h], one);
            c.binop(BvOp::Ne, bit, zero)
        }
        AluPred::Rel { op, a, b } => {
            let va = sym_expr(a, c, holes, state, new_state, pkts);
            let vb = sym_expr(b, c, holes, state, new_state, pkts);
            c.binop(op.bvop(), va, vb)
        }
        AluPred::RelHole { hole, ops, a, b } => {
            let va = sym_expr(a, c, holes, state, new_state, pkts);
            let vb = sym_expr(b, c, holes, state, new_state, pkts);
            let options: Vec<TermId> = ops.iter().map(|op| c.binop(op.bvop(), va, vb)).collect();
            // Width-1 select chain: compare the hole against each index.
            let mut acc = options[options.len() - 1];
            for (i, &opt) in options.iter().enumerate().rev().skip(1) {
                let idx = c.constant(i as u64);
                let is_i = c.binop(BvOp::Eq, holes[*hole], idx);
                acc = c.mux(is_i, opt, acc);
            }
            acc
        }
        AluPred::And(a, b) => {
            let pa = sym_pred(a, c, holes, state, new_state, pkts);
            let pb = sym_pred(b, c, holes, state, new_state, pkts);
            c.binop(BvOp::And, pa, pb)
        }
        AluPred::Or(a, b) => {
            let pa = sym_pred(a, c, holes, state, new_state, pkts);
            let pb = sym_pred(b, c, holes, state, new_state, pkts);
            c.binop(BvOp::Or, pa, pb)
        }
        AluPred::Not(x) => {
            let px = sym_pred(x, c, holes, state, new_state, pkts);
            c.not(px)
        }
    }
}

/// Banzai-style stateful ALU templates.
pub mod library {
    use super::*;

    /// The standard hole-selected relational operator set (3 bits).
    fn rel_ops() -> Vec<RelOp> {
        vec![
            RelOp::Eq,
            RelOp::Ne,
            RelOp::Lt,
            RelOp::Ge,
            RelOp::Gt,
            RelOp::Le,
        ]
    }

    /// The standard update alternatives over `{state, pkt_0, const}`:
    /// `state+pkt_0 | pkt_0 | state+const | const | state` (3-bit selector;
    /// the bare `state` arm lets one branch of a conditional leave the
    /// register untouched).
    fn raw_arms(const_hole: usize) -> Vec<AluExpr> {
        vec![
            AluExpr::add(AluExpr::State, AluExpr::Pkt(0)),
            AluExpr::Pkt(0),
            AluExpr::add(AluExpr::State, AluExpr::ConstHole(const_hole)),
            AluExpr::ConstHole(const_hole),
            AluExpr::State,
        ]
    }

    /// Two-operand update alternatives (3-bit selector):
    /// `state+pkt₀ | state+pkt₁ | pkt₀ | pkt₁ | state+const | const |
    /// state`. Two-operand atoms need both packet arms so the predicate can
    /// observe one packet value while the update writes another (e.g.
    /// flowlet switching); the bare `state` arm leaves the register
    /// untouched in one branch.
    fn raw2_arms(const_hole: usize) -> Vec<AluExpr> {
        vec![
            AluExpr::add(AluExpr::State, AluExpr::Pkt(0)),
            AluExpr::add(AluExpr::State, AluExpr::Pkt(1)),
            AluExpr::Pkt(0),
            AluExpr::Pkt(1),
            AluExpr::add(AluExpr::State, AluExpr::ConstHole(const_hole)),
            AluExpr::ConstHole(const_hole),
            AluExpr::State,
        ]
    }

    /// Two-operand update alternatives with subtraction (4-bit selector).
    fn sub2_arms(const_hole: usize) -> Vec<AluExpr> {
        vec![
            AluExpr::add(AluExpr::State, AluExpr::Pkt(0)),
            AluExpr::sub(AluExpr::State, AluExpr::Pkt(0)),
            AluExpr::add(AluExpr::State, AluExpr::Pkt(1)),
            AluExpr::sub(AluExpr::State, AluExpr::Pkt(1)),
            AluExpr::Pkt(0),
            AluExpr::Pkt(1),
            AluExpr::add(AluExpr::State, AluExpr::ConstHole(const_hole)),
            AluExpr::sub(AluExpr::State, AluExpr::ConstHole(const_hole)),
            AluExpr::ConstHole(const_hole),
            AluExpr::State,
        ]
    }

    /// Output alternatives (2-bit selector): `old state | new state |
    /// pkt₀ | const` — Banzai atoms can emit branch-computed packet values,
    /// not just the register.
    fn out_arms(const_hole: usize) -> Vec<AluExpr> {
        vec![
            AluExpr::State,
            AluExpr::NewState,
            AluExpr::Pkt(0),
            AluExpr::ConstHole(const_hole),
        ]
    }

    /// The standard predicate:
    /// `relop( state | pkt₀ | pkt₀-state | state-pkt₀ , pkt₁ | const )`,
    /// with the operator, both operand muxes, and the constant as holes.
    /// The difference arms cover inter-arrival-gap tests like flowlet's
    /// `now - last_time > GAP` (Banzai's `sub` predicates). Hole layout
    /// (appended at `base`): `rel(2) pred_a(2) pred_b(1) pred_const(imm)`.
    fn std_pred(base: usize, _imm_bits: u8) -> AluPred {
        AluPred::RelHole {
            hole: base,
            ops: rel_ops(),
            a: AluExpr::MuxHole {
                hole: base + 1,
                arms: vec![
                    AluExpr::State,
                    AluExpr::Pkt(0),
                    AluExpr::sub(AluExpr::Pkt(0), AluExpr::State),
                    AluExpr::sub(AluExpr::State, AluExpr::Pkt(0)),
                ],
            },
            b: AluExpr::MuxHole {
                hole: base + 2,
                arms: vec![AluExpr::Pkt(1), AluExpr::ConstHole(base + 3)],
            },
        }
    }

    fn std_pred_holes(imm_bits: u8) -> Vec<(String, u8)> {
        std_pred_holes_named("pred", imm_bits)
    }

    /// Like [`std_pred_holes`] with a distinct prefix — templates with
    /// several predicate groups must keep hole names unique (the sketch
    /// layer addresses holes by name).
    fn std_pred_holes_named(prefix: &str, imm_bits: u8) -> Vec<(String, u8)> {
        vec![
            (format!("{prefix}_rel"), 3),
            (format!("{prefix}_a_mux"), 2),
            (format!("{prefix}_b_mux"), 1),
            (format!("{prefix}_const"), imm_bits),
        ]
    }

    /// `raw`: unconditional read-add-write —
    /// `state = state+pkt₀ | pkt₀ | state+const | const`; emits a selected
    /// output (old/new state, packet operand, or constant).
    pub fn raw(imm_bits: u8) -> StatefulAluSpec {
        StatefulAluSpec {
            name: "raw".into(),
            holes: vec![
                ("upd_mode".into(), 3),
                ("upd_const".into(), imm_bits),
                ("out_mode".into(), 2),
                ("out_const".into(), imm_bits),
            ],
            num_pkt_operands: 1,
            update: AluExpr::MuxHole {
                hole: 0,
                arms: raw_arms(1),
            },
            output: AluExpr::MuxHole {
                hole: 2,
                arms: out_arms(3),
            },
        }
    }

    /// `pred_raw`: predicated read-add-write —
    /// `if (pred) state = raw-update`; emits old state.
    pub fn pred_raw(imm_bits: u8) -> StatefulAluSpec {
        // Holes: 0..4 = pred (rel, a_mux, b_mux, const), 4 = upd_mode,
        // 5 = upd_const.
        let mut holes = std_pred_holes(imm_bits);
        holes.push(("upd_mode".into(), 3)); // 4
        holes.push(("upd_const".into(), imm_bits)); // 5
        holes.push(("outa_mode".into(), 2)); // 6
        holes.push(("outa_const".into(), imm_bits)); // 7
        holes.push(("outb_mode".into(), 2)); // 8
        holes.push(("outb_const".into(), imm_bits)); // 9
        StatefulAluSpec {
            name: "pred_raw".into(),
            holes,
            num_pkt_operands: 2,
            update: AluExpr::IfElse {
                cond: Box::new(std_pred(0, imm_bits)),
                then_: Box::new(AluExpr::MuxHole {
                    hole: 4,
                    arms: raw2_arms(5),
                }),
                else_: Box::new(AluExpr::State),
            },
            output: AluExpr::IfElse {
                cond: Box::new(std_pred(0, imm_bits)),
                then_: Box::new(AluExpr::MuxHole {
                    hole: 6,
                    arms: out_arms(7),
                }),
                else_: Box::new(AluExpr::MuxHole {
                    hole: 8,
                    arms: out_arms(9),
                }),
            },
        }
    }

    /// `if_else_raw`: both branches update —
    /// `if (pred) state = upd₁ else state = upd₂`; emits old state.
    pub fn if_else_raw(imm_bits: u8) -> StatefulAluSpec {
        let mut holes = std_pred_holes(imm_bits);
        holes.push(("upd1_mode".into(), 3)); // 4
        holes.push(("upd1_const".into(), imm_bits)); // 5
        holes.push(("upd2_mode".into(), 3)); // 6
        holes.push(("upd2_const".into(), imm_bits)); // 7
        holes.push(("outa_mode".into(), 2)); // 8
        holes.push(("outa_const".into(), imm_bits)); // 9
        holes.push(("outb_mode".into(), 2)); // 10
        holes.push(("outb_const".into(), imm_bits)); // 11
        StatefulAluSpec {
            name: "if_else_raw".into(),
            holes,
            num_pkt_operands: 2,
            update: AluExpr::IfElse {
                cond: Box::new(std_pred(0, imm_bits)),
                then_: Box::new(AluExpr::MuxHole {
                    hole: 4,
                    arms: raw2_arms(5),
                }),
                else_: Box::new(AluExpr::MuxHole {
                    hole: 6,
                    arms: raw2_arms(7),
                }),
            },
            output: AluExpr::IfElse {
                cond: Box::new(std_pred(0, imm_bits)),
                then_: Box::new(AluExpr::MuxHole {
                    hole: 8,
                    arms: out_arms(9),
                }),
                else_: Box::new(AluExpr::MuxHole {
                    hole: 10,
                    arms: out_arms(11),
                }),
            },
        }
    }

    /// `sub`: like `if_else_raw` but the update arms include subtraction
    /// (needed by e.g. BLUE's probability decrease).
    pub fn sub(imm_bits: u8) -> StatefulAluSpec {
        let mut holes = std_pred_holes(imm_bits);
        holes.push(("upd1_mode".into(), 4)); // 4
        holes.push(("upd1_const".into(), imm_bits)); // 5
        holes.push(("upd2_mode".into(), 4)); // 6
        holes.push(("upd2_const".into(), imm_bits)); // 7
        holes.push(("outa_mode".into(), 2)); // 8
        holes.push(("outa_const".into(), imm_bits)); // 9
        holes.push(("outb_mode".into(), 2)); // 10
        holes.push(("outb_const".into(), imm_bits)); // 11
        StatefulAluSpec {
            name: "sub".into(),
            holes,
            num_pkt_operands: 2,
            update: AluExpr::IfElse {
                cond: Box::new(std_pred(0, imm_bits)),
                then_: Box::new(AluExpr::MuxHole {
                    hole: 4,
                    arms: sub2_arms(5),
                }),
                else_: Box::new(AluExpr::MuxHole {
                    hole: 6,
                    arms: sub2_arms(7),
                }),
            },
            output: AluExpr::IfElse {
                cond: Box::new(std_pred(0, imm_bits)),
                then_: Box::new(AluExpr::MuxHole {
                    hole: 8,
                    arms: out_arms(9),
                }),
                else_: Box::new(AluExpr::MuxHole {
                    hole: 10,
                    arms: out_arms(11),
                }),
            },
        }
    }

    /// `nested_ifs`: two-level predicates with four leaf updates — the most
    /// expressive (and most expensive to synthesize) template. The three
    /// predicates are independent (outer, inner-then, inner-else), and the
    /// leaves can subtract, mirroring Banzai's nested-if atom family.
    pub fn nested_ifs(imm_bits: u8) -> StatefulAluSpec {
        // Holes: pred1 = 0..4, pred2 = 4..8, pred3 = 8..12, then four
        // (mode, const) leaf pairs at 12..20, then the output pair.
        let mut holes = std_pred_holes_named("pred", imm_bits); // 0..4  (outer)
        holes.extend(std_pred_holes_named("pred_t", imm_bits)); // 4..8  (inner, then-side)
        holes.extend(std_pred_holes_named("pred_e", imm_bits)); // 8..12 (inner, else-side)
        for k in 0..4 {
            holes.push((format!("upd{k}_mode"), 4));
            holes.push((format!("upd{k}_const"), imm_bits));
        }
        holes.push(("outa_mode".into(), 2)); // 20
        holes.push(("outa_const".into(), imm_bits)); // 21
        holes.push(("outb_mode".into(), 2)); // 22
        holes.push(("outb_const".into(), imm_bits)); // 23
        let leaf = |mode: usize| AluExpr::MuxHole {
            hole: mode,
            arms: sub2_arms(mode + 1),
        };
        StatefulAluSpec {
            name: "nested_ifs".into(),
            holes,
            num_pkt_operands: 2,
            update: AluExpr::IfElse {
                cond: Box::new(std_pred(0, imm_bits)),
                then_: Box::new(AluExpr::IfElse {
                    cond: Box::new(std_pred(4, imm_bits)),
                    then_: Box::new(leaf(12)),
                    else_: Box::new(leaf(14)),
                }),
                else_: Box::new(AluExpr::IfElse {
                    cond: Box::new(std_pred(8, imm_bits)),
                    then_: Box::new(leaf(16)),
                    else_: Box::new(leaf(18)),
                }),
            },
            // Output branches on the outer predicate.
            output: AluExpr::IfElse {
                cond: Box::new(std_pred(0, imm_bits)),
                then_: Box::new(AluExpr::MuxHole {
                    hole: 20,
                    arms: out_arms(21),
                }),
                else_: Box::new(AluExpr::MuxHole {
                    hole: 22,
                    arms: out_arms(23),
                }),
            },
        }
    }

    /// All library templates, for enumeration in tests and docs.
    pub fn all(imm_bits: u8) -> Vec<StatefulAluSpec> {
        vec![
            raw(imm_bits),
            pred_raw(imm_bits),
            if_else_raw(imm_bits),
            sub(imm_bits),
            nested_ifs(imm_bits),
        ]
    }

    /// Look a library template up by its canonical name, as used on the
    /// CLI (`--template`) and the serve wire protocol. Every front end
    /// should resolve template names through this single table so the
    /// accepted set cannot diverge between entry points.
    pub fn by_name(name: &str, imm_bits: u8) -> Option<StatefulAluSpec> {
        match name {
            "raw" => Some(raw(imm_bits)),
            "pred_raw" => Some(pred_raw(imm_bits)),
            "if_else_raw" => Some(if_else_raw(imm_bits)),
            "sub" => Some(sub(imm_bits)),
            "nested_ifs" => Some(nested_ifs(imm_bits)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipmunk_bv::InputId;

    #[test]
    fn library_templates_validate() {
        for t in library::all(2) {
            t.validate().unwrap_or_else(|e| panic!("{}: {e}", t.name));
        }
    }

    #[test]
    fn hole_bit_counts_are_reasonable() {
        assert_eq!(library::raw(2).total_hole_bits(), 9);
        assert!(library::pred_raw(2).total_hole_bits() <= 26);
        assert!(library::nested_ifs(2).total_hole_bits() <= 80);
    }

    /// For every template, concrete eval and symbolic eval must agree on
    /// random hole assignments and inputs.
    #[test]
    fn concrete_matches_symbolic() {
        let width = 4u8;
        let mask = 15u64;
        for t in library::all(2) {
            let mut c = Circuit::new(width);
            let state = c.input("state");
            let pkts: Vec<TermId> = (0..t.num_pkt_operands)
                .map(|i| c.input(&format!("pkt{i}")))
                .collect();
            let holes: Vec<TermId> = t
                .holes
                .iter()
                .map(|(n, _)| c.input(&format!("hole_{n}")))
                .collect();
            let (ns, out) = t.symbolic(&mut c, &holes, state, &pkts);
            // Deterministic pseudo-random sweep.
            let mut seed = 0x1234_5678_9abc_def0u64;
            for _ in 0..200 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut vals = Vec::new();
                let mut s = seed;
                let state_v = s & mask;
                vals.push(state_v);
                let mut pkt_vals = Vec::new();
                for _ in 0..t.num_pkt_operands {
                    s >>= 4;
                    pkt_vals.push(s & mask);
                    vals.push(s & mask);
                }
                let mut hole_vals = Vec::new();
                for (_, bits) in &t.holes {
                    s = s.wrapping_mul(2654435761).wrapping_add(99);
                    let hv = s & ((1u64 << bits) - 1);
                    hole_vals.push(hv);
                    vals.push(hv);
                }
                let (want_ns, want_out) = t.eval(&hole_vals, state_v, &pkt_vals, mask);
                let vals2 = vals.clone();
                let lookup = move |i: InputId| vals2[i.index()];
                let got = c.eval_many(&[ns, out], &lookup);
                assert_eq!(got, vec![want_ns, want_out], "template {}", t.name);
            }
        }
    }

    #[test]
    fn raw_template_behaviours() {
        let t = library::raw(2);
        let mask = 15;
        // Holes: [upd_mode, upd_const, out_mode, out_const].
        // upd mode 0: state + pkt0; out mode 0: old state.
        assert_eq!(t.eval(&[0, 0, 0, 0], 5, &[3], mask), (8, 5));
        // upd mode 1: write pkt0.
        assert_eq!(t.eval(&[1, 0, 0, 0], 5, &[3], mask), (3, 5));
        // upd mode 2: state + const.
        assert_eq!(t.eval(&[2, 2, 0, 0], 5, &[3], mask), (7, 5));
        // upd mode 3: write const.
        assert_eq!(t.eval(&[3, 2, 0, 0], 5, &[3], mask), (2, 5));
        // out mode 1: new state; out mode 2: pkt0; out mode 3: const.
        assert_eq!(t.eval(&[0, 0, 1, 0], 5, &[3], mask), (8, 8));
        assert_eq!(t.eval(&[0, 0, 2, 0], 5, &[3], mask), (8, 3));
        assert_eq!(t.eval(&[0, 0, 3, 2], 5, &[3], mask), (8, 2));
    }

    #[test]
    fn if_else_raw_expresses_sampling_update() {
        // sampling: if (count == 9) count = 0 else count = count + 1
        // pred: rel=Eq(0), a_mux=state(0), b_mux=const(1), pred_const=9 —
        // but 9 needs 4 immediate bits.
        let t = library::if_else_raw(4);
        let holes = [
            0u64, // pred_rel = Eq
            0,    // pred_a = state
            1,    // pred_b = const
            9,    // pred_const
            5,    // upd1 = const
            0,    // upd1_const = 0
            4,    // upd2 = state + const
            1,    // upd2_const = 1
            3,    // outa = const
            1,    // outa_const = 1  (pkt.sample on the wrap)
            3,    // outb = const
            0,    // outb_const = 0
        ];
        let mask = 15;
        let mut count = 0u64;
        let mut sampled = Vec::new();
        for _ in 0..12 {
            let (ns, out) = t.eval(&holes, count, &[0, 0], mask);
            sampled.push(out);
            count = ns;
        }
        assert_eq!(count, 2); // 12 packets: wraps at the 10th
                              // pkt.sample fires exactly on the 10th packet — one atom, one stage.
        assert_eq!(sampled, [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn validate_rejects_bad_holes() {
        let t = StatefulAluSpec {
            name: "bad".into(),
            holes: vec![("m".into(), 1)],
            num_pkt_operands: 1,
            update: AluExpr::MuxHole {
                hole: 0,
                arms: vec![AluExpr::State, AluExpr::Pkt(0), AluExpr::Lit(1)],
            },
            output: AluExpr::State,
        };
        let err = t.validate().unwrap_err();
        assert!(err.contains("needs"), "{err}");

        let t2 = StatefulAluSpec {
            name: "bad2".into(),
            holes: vec![],
            num_pkt_operands: 1,
            update: AluExpr::Pkt(1),
            output: AluExpr::State,
        };
        assert!(t2.validate().is_err());

        // NewState may not appear in the update expression.
        let t3 = StatefulAluSpec {
            name: "bad3".into(),
            holes: vec![],
            num_pkt_operands: 1,
            update: AluExpr::NewState,
            output: AluExpr::State,
        };
        assert!(t3.validate().unwrap_err().contains("output"));
    }

    #[test]
    fn output_expression_variants() {
        let mk = |output| StatefulAluSpec {
            name: "t".into(),
            holes: vec![("sel".into(), 1)],
            num_pkt_operands: 1,
            update: AluExpr::add(AluExpr::State, AluExpr::Lit(1)),
            output,
        };
        let mask = 15;
        assert_eq!(mk(AluExpr::State).eval(&[0], 5, &[0], mask), (6, 5));
        assert_eq!(mk(AluExpr::NewState).eval(&[0], 5, &[0], mask), (6, 6));
        let hole_sel = AluExpr::MuxHole {
            hole: 0,
            arms: vec![AluExpr::State, AluExpr::NewState],
        };
        assert_eq!(mk(hole_sel.clone()).eval(&[0], 5, &[0], mask), (6, 5));
        assert_eq!(mk(hole_sel).eval(&[1], 5, &[0], mask), (6, 6));
    }
}
