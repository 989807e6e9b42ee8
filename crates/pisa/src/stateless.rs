//! Stateless ALUs: per-container combinational units.
//!
//! A stateless ALU reads two operands selected by its input muxes from the
//! PHV containers of the current stage, plus an immediate operand from its
//! configuration, and applies one opcode. Its output becomes the
//! "destination" candidate for the ALU's own container (the output mux
//! decides whether the container takes it).
//!
//! The opcode set is configuration data ([`StatelessAluSpec`]), so the
//! simulated hardware can range from a bare adder to the full
//! Banzai-style arithmetic/logical/relational/conditional unit used in the
//! paper's evaluation (§4). Restricting the opcode set is also the lever
//! for the synthesis-speed heuristic discussed in §3.

use chipmunk_bv::{BvOp, Circuit, TermId};

/// One stateless ALU operation over operands `a`, `b` and immediate `imm`.
///
/// Predicates produce 0/1. Logical operations treat nonzero as true.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StatelessOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a + imm`
    AddImm,
    /// `a - imm`
    SubImm,
    /// `imm`
    ConstImm,
    /// `a` (pass-through)
    PassA,
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
    /// `a == imm`
    EqImm,
    /// `a != imm`
    NeImm,
    /// `a < imm`
    LtImm,
    /// `a <= imm`
    LeImm,
    /// `a > imm`
    GtImm,
    /// `a >= imm`
    GeImm,
    /// `a && b` (logical)
    LAnd,
    /// `a || b` (logical)
    LOr,
    /// `!a` (logical)
    LNot,
    /// `a != 0 ? b : imm` (conditional)
    CondImm,
    /// `a ^ b` (bitwise)
    Xor,
    /// `a & b` (bitwise)
    BitAnd,
    /// `a | b` (bitwise)
    BitOr,
}

impl StatelessOp {
    /// Does the op read operand `b` (second input mux)?
    pub fn uses_b(self) -> bool {
        !matches!(
            self,
            StatelessOp::AddImm
                | StatelessOp::SubImm
                | StatelessOp::ConstImm
                | StatelessOp::PassA
                | StatelessOp::EqImm
                | StatelessOp::NeImm
                | StatelessOp::LtImm
                | StatelessOp::LeImm
                | StatelessOp::GtImm
                | StatelessOp::GeImm
                | StatelessOp::LNot
        )
    }

    /// Does the op read the immediate?
    pub fn uses_imm(self) -> bool {
        matches!(
            self,
            StatelessOp::AddImm
                | StatelessOp::SubImm
                | StatelessOp::ConstImm
                | StatelessOp::EqImm
                | StatelessOp::NeImm
                | StatelessOp::LtImm
                | StatelessOp::LeImm
                | StatelessOp::GtImm
                | StatelessOp::GeImm
                | StatelessOp::CondImm
        )
    }
}

/// Configuration-time description of the stateless ALU hardware.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatelessAluSpec {
    /// Opcodes the ALU supports, in hole-encoding order.
    pub ops: Vec<StatelessOp>,
    /// Number of bits of the immediate-operand hole.
    pub imm_bits: u8,
}

impl StatelessAluSpec {
    /// The full Banzai-style ALU: arithmetic, boolean, relational and
    /// conditional operators (the stateless ALU of the paper's evaluation).
    pub fn banzai(imm_bits: u8) -> Self {
        use StatelessOp::*;
        StatelessAluSpec {
            ops: vec![
                Add, Sub, AddImm, SubImm, ConstImm, PassA, Eq, Ne, Lt, Le, Gt, Ge, EqImm, NeImm,
                LtImm, LeImm, GtImm, GeImm, LAnd, LOr, LNot, CondImm, Xor, BitAnd, BitOr,
            ],
            imm_bits,
        }
    }

    /// A restricted arithmetic-only ALU (the opcode-restriction heuristic
    /// of §3: fewer hole values can speed up synthesis when the program
    /// fits).
    pub fn arith_only(imm_bits: u8) -> Self {
        use StatelessOp::*;
        StatelessAluSpec {
            ops: vec![Add, Sub, AddImm, SubImm, ConstImm, PassA],
            imm_bits,
        }
    }

    /// Bits needed for the opcode hole.
    pub fn opcode_bits(&self) -> u8 {
        bits_for(self.ops.len())
    }
}

/// Bits needed to index `n` choices (at least 1).
pub(crate) fn bits_for(n: usize) -> u8 {
    let mut b = 1u8;
    while (1usize << b) < n {
        b += 1;
    }
    b
}

/// Concrete evaluation of one opcode.
pub fn eval_op(op: StatelessOp, a: u64, b: u64, imm: u64, mask: u64) -> u64 {
    use StatelessOp::*;
    let (a, b, imm) = (a & mask, b & mask, imm & mask);
    match op {
        Add => a.wrapping_add(b) & mask,
        Sub => a.wrapping_sub(b) & mask,
        AddImm => a.wrapping_add(imm) & mask,
        SubImm => a.wrapping_sub(imm) & mask,
        ConstImm => imm,
        PassA => a,
        Eq => (a == b) as u64,
        Ne => (a != b) as u64,
        Lt => (a < b) as u64,
        Le => (a <= b) as u64,
        Gt => (a > b) as u64,
        Ge => (a >= b) as u64,
        EqImm => (a == imm) as u64,
        NeImm => (a != imm) as u64,
        LtImm => (a < imm) as u64,
        LeImm => (a <= imm) as u64,
        GtImm => (a > imm) as u64,
        GeImm => (a >= imm) as u64,
        LAnd => (a != 0 && b != 0) as u64,
        LOr => (a != 0 || b != 0) as u64,
        LNot => (a == 0) as u64,
        CondImm => {
            if a != 0 {
                b
            } else {
                imm
            }
        }
        Xor => a ^ b,
        BitAnd => a & b,
        BitOr => a | b,
    }
}

/// Symbolic evaluation of one (fixed) opcode.
pub fn symbolic_op(c: &mut Circuit, op: StatelessOp, a: TermId, b: TermId, imm: TermId) -> TermId {
    use StatelessOp::*;
    let zero = c.constant(0);
    match op {
        Add => c.binop(BvOp::Add, a, b),
        Sub => c.binop(BvOp::Sub, a, b),
        AddImm => c.binop(BvOp::Add, a, imm),
        SubImm => c.binop(BvOp::Sub, a, imm),
        ConstImm => imm,
        PassA => a,
        Eq => pred(c, BvOp::Eq, a, b),
        Ne => pred(c, BvOp::Ne, a, b),
        Lt => pred(c, BvOp::Ult, a, b),
        Le => pred(c, BvOp::Ule, a, b),
        Gt => pred(c, BvOp::Ugt, a, b),
        Ge => pred(c, BvOp::Uge, a, b),
        EqImm => pred(c, BvOp::Eq, a, imm),
        NeImm => pred(c, BvOp::Ne, a, imm),
        LtImm => pred(c, BvOp::Ult, a, imm),
        LeImm => pred(c, BvOp::Ule, a, imm),
        GtImm => pred(c, BvOp::Ugt, a, imm),
        GeImm => pred(c, BvOp::Uge, a, imm),
        LAnd => {
            let pa = c.binop(BvOp::Ne, a, zero);
            let pb = c.binop(BvOp::Ne, b, zero);
            let both = c.binop(BvOp::And, pa, pb);
            c.zext(both)
        }
        LOr => {
            let pa = c.binop(BvOp::Ne, a, zero);
            let pb = c.binop(BvOp::Ne, b, zero);
            let either = c.binop(BvOp::Or, pa, pb);
            c.zext(either)
        }
        LNot => {
            let pa = c.binop(BvOp::Eq, a, zero);
            c.zext(pa)
        }
        CondImm => {
            let pa = c.binop(BvOp::Ne, a, zero);
            c.mux(pa, b, imm)
        }
        Xor => c.binop(BvOp::Xor, a, b),
        BitAnd => c.binop(BvOp::And, a, b),
        BitOr => c.binop(BvOp::Or, a, b),
    }
}

fn pred(c: &mut Circuit, op: BvOp, a: TermId, b: TermId) -> TermId {
    let p = c.binop(op, a, b);
    c.zext(p)
}

/// Symbolic stateless ALU with a *hole-selected* opcode: computes every
/// supported opcode and selects by the opcode-hole term.
pub fn symbolic_alu(
    spec: &StatelessAluSpec,
    c: &mut Circuit,
    a: TermId,
    b: TermId,
    imm: TermId,
    opcode_hole: TermId,
) -> TermId {
    let options: Vec<TermId> = spec
        .ops
        .iter()
        .map(|&op| symbolic_op(c, op, a, b, imm))
        .collect();
    c.select(opcode_hole, &options)
}

/// Concrete stateless ALU with an encoded opcode value (out-of-range codes
/// clamp to the last opcode, mirroring [`symbolic_alu`]).
pub fn eval_alu(spec: &StatelessAluSpec, opcode: u64, a: u64, b: u64, imm: u64, mask: u64) -> u64 {
    let op = select_concrete(opcode, &spec.ops);
    eval_op(op, a, b, imm, mask)
}

/// Concrete analogue of [`Circuit::select`]: `options[sel]`, and the last
/// option when `sel` is past the end.
pub(crate) fn select_concrete<T: Copy>(sel: u64, options: &[T]) -> T {
    let i = (sel as usize).min(options.len() - 1);
    options[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipmunk_bv::InputId;

    #[test]
    fn circuit_select_matches_select_concrete() {
        let mut c = Circuit::new(4);
        let sel = c.input("sel");
        let opts: Vec<TermId> = (0..3).map(|i| c.constant(10 + i)).collect();
        let out = c.select(sel, &opts);
        for s in 0..16u64 {
            let got = c.eval(out, &move |_: InputId| s);
            let want = 10 + select_concrete(s, &[0u64, 1, 2]);
            assert_eq!(got, want, "sel={s}");
        }
    }

    #[test]
    fn banzai_spec_has_unique_ops() {
        let spec = StatelessAluSpec::banzai(2);
        let mut seen = std::collections::HashSet::new();
        for op in &spec.ops {
            assert!(seen.insert(*op), "duplicate opcode {op:?}");
        }
        assert!(spec.opcode_bits() >= 5);
    }

    #[test]
    fn bits_for_is_ceil_log2() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(23), 5);
    }

    #[test]
    fn concrete_and_symbolic_ops_agree() {
        let width = 4u8;
        let mask = 15u64;
        let spec = StatelessAluSpec::banzai(2);
        for &op in &spec.ops {
            let mut c = Circuit::new(width);
            let a = c.input("a");
            let b = c.input("b");
            let imm = c.input("imm");
            let out = symbolic_op(&mut c, op, a, b, imm);
            for va in 0..=mask {
                for vb in [0u64, 1, 7, 15] {
                    for vimm in [0u64, 3] {
                        let vals = [va, vb, vimm];
                        let got = c.eval(out, &move |i: InputId| vals[i.index()]);
                        let want = eval_op(op, va, vb, vimm, mask);
                        assert_eq!(got, want, "{op:?} a={va} b={vb} imm={vimm}");
                    }
                }
            }
        }
    }

    #[test]
    fn hole_selected_alu_matches_each_opcode() {
        let width = 4u8;
        let mask = 15u64;
        let spec = StatelessAluSpec::arith_only(2);
        let mut c = Circuit::new(width);
        let a = c.input("a");
        let b = c.input("b");
        let imm = c.input("imm");
        let hole = c.input("opcode");
        let out = symbolic_alu(&spec, &mut c, a, b, imm, hole);
        for code in 0..8u64 {
            for va in [0u64, 5, 15] {
                for vb in [1u64, 9] {
                    let vals = [va, vb, 2u64, code];
                    let got = c.eval(out, &move |i: InputId| vals[i.index()]);
                    let want = eval_alu(&spec, code, va, vb, 2, mask);
                    assert_eq!(got, want, "code={code} a={va} b={vb}");
                }
            }
        }
    }

    #[test]
    fn uses_b_and_imm_classification() {
        assert!(StatelessOp::Add.uses_b());
        assert!(!StatelessOp::Add.uses_imm());
        assert!(!StatelessOp::AddImm.uses_b());
        assert!(StatelessOp::AddImm.uses_imm());
        assert!(StatelessOp::CondImm.uses_b());
        assert!(StatelessOp::CondImm.uses_imm());
        assert!(!StatelessOp::PassA.uses_b());
        assert!(!StatelessOp::PassA.uses_imm());
    }
}
