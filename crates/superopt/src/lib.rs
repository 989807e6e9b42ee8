//! # chipmunk-superopt
//!
//! A superoptimizer for straightline ALU code — a working prototype of the
//! paper's §5.1 ("Synthesizing Fast Processor Code"): *"a superoptimizing
//! compiler searches over the space of instruction sequences to attempt to
//! find an optimal sequence of instructions (according to a stated
//! objective function such as minimum instruction count) implementing the
//! entire input program."*
//!
//! The processor model is the PISA stateless ALU repurposed as a register
//! machine: registers `r0..r_{k-1}` hold the packet-field inputs, each
//! instruction applies one [`StatelessOp`] to two mux-selected registers
//! (plus an immediate) and appends its result as a new register, and the
//! last register is the output. [`superoptimize`] runs **iterative
//! deepening over the program length** with one CEGIS run per length, so
//! the first synthesized program is provably the shortest (minimum
//! instruction count is the objective function, as in the paper's
//! examples [41, 47, 51]).
//!
//! ```
//! use chipmunk_lang::parse;
//! use chipmunk_superopt::{superoptimize, SuperoptOptions};
//!
//! // x*5 on an adder-only machine: the optimum is 3 adds
//! // (t1 = x+x; t2 = t1+t1; out = t2+x), not the 4 of naive unrolling.
//! let spec = parse("pkt.out = pkt.x * 5;").unwrap();
//! let opts = SuperoptOptions::small_for_tests();
//! let out = superoptimize(&spec, &opts).unwrap();
//! assert_eq!(out.instrs.len(), 3);
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::time::Instant;

use chipmunk_bv::{mk_true, Binding, Blaster, BvOp, Circuit, GateSolver, TermId};
use chipmunk_lang::spec::compile_spec;
use chipmunk_lang::{Interpreter, PacketState, Program};
use chipmunk_pisa::{stateless, StatelessAluSpec, StatelessOp};
use chipmunk_sat::{Lit, SolveResult, Solver};

/// Options for a superoptimization run.
#[derive(Clone, Debug)]
pub struct SuperoptOptions {
    /// The instruction set (and immediate width).
    pub alu: StatelessAluSpec,
    /// Longest program to try before giving up.
    pub max_len: usize,
    /// Semantic bit width the output must match the spec at.
    pub width: u8,
    /// Initial CEGIS inputs are sampled below `2^synth_input_bits`.
    pub synth_input_bits: u8,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Seed for initial-input sampling.
    pub seed: u64,
}

impl SuperoptOptions {
    /// Paper-like defaults: full Banzai ALU, 10-bit semantics.
    pub fn new(alu: StatelessAluSpec) -> Self {
        SuperoptOptions {
            alu,
            max_len: 5,
            width: 10,
            synth_input_bits: 5,
            deadline: None,
            seed: 0xdecaf,
        }
    }

    /// Reduced widths for fast unit tests and doctests.
    pub fn small_for_tests() -> Self {
        let mut o = SuperoptOptions::new(StatelessAluSpec::arith_only(3));
        o.width = 7;
        o.synth_input_bits = 4;
        o
    }
}

/// One register-machine instruction: `r_new = op(r[a], r[b], imm)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Instr {
    /// The ALU operation.
    pub op: StatelessOp,
    /// First source register.
    pub a: usize,
    /// Second source register.
    pub b: usize,
    /// Immediate operand.
    pub imm: u64,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} r{}", self.op, self.a)?;
        if self.op.uses_b() {
            write!(f, ", r{}", self.b)?;
        }
        if self.op.uses_imm() {
            write!(f, ", #{}", self.imm)?;
        }
        Ok(())
    }
}

/// The synthesized program.
#[derive(Clone, Debug)]
pub struct SuperoptResult {
    /// Instructions in execution order; instruction `i` defines register
    /// `num_inputs + i`, and the last one is the output.
    pub instrs: Vec<Instr>,
    /// Input register count (one per packet field of the spec).
    pub num_inputs: usize,
    /// Program lengths that were proven infeasible before this one.
    pub infeasible_below: usize,
    /// Total CEGIS iterations across all lengths.
    pub iterations: usize,
}

impl SuperoptResult {
    /// Execute the program on concrete inputs.
    pub fn exec(&self, inputs: &[u64], width: u8) -> u64 {
        assert_eq!(inputs.len(), self.num_inputs);
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut regs: Vec<u64> = inputs.iter().map(|v| v & mask).collect();
        for i in &self.instrs {
            let v = stateless::eval_op(i.op, regs[i.a], regs[i.b], i.imm, mask);
            regs.push(v);
        }
        *regs.last().expect("nonempty program")
    }

    /// Assembly-style listing.
    pub fn listing(&self) -> String {
        let mut s = String::new();
        for (i, instr) in self.instrs.iter().enumerate() {
            s.push_str(&format!("r{} = {}\n", self.num_inputs + i, instr));
        }
        s
    }
}

/// Why superoptimization failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SuperoptError {
    /// No program up to `max_len` instructions implements the spec on this
    /// instruction set.
    Infeasible,
    /// Deadline exhausted.
    Timeout,
    /// The spec writes no packet field (nothing to compute).
    NoOutput,
}

impl fmt::Display for SuperoptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperoptError::Infeasible => write!(f, "no program within max_len implements the spec"),
            SuperoptError::Timeout => write!(f, "superoptimization timed out"),
            SuperoptError::NoOutput => write!(f, "spec writes no packet field"),
        }
    }
}

impl std::error::Error for SuperoptError {}

fn bits_for(n: usize) -> u8 {
    let mut b = 1u8;
    while (1usize << b) < n {
        b += 1;
    }
    b
}

/// Find the shortest instruction sequence implementing `spec` (a stateless
/// program; its first written packet field is the output, its packet
/// fields are the input registers).
pub fn superoptimize(
    spec: &Program,
    opts: &SuperoptOptions,
) -> Result<SuperoptResult, SuperoptError> {
    assert!(
        spec.state_names().is_empty(),
        "superoptimization targets stateless code; stateful programs go through `chipmunk`"
    );
    let mut run_sp =
        chipmunk_trace::span!("superopt.run", max_len = opts.max_len, width = opts.width,);
    let out_field = *spec
        .written_fields()
        .first()
        .ok_or(SuperoptError::NoOutput)?;
    let num_inputs = spec.field_names().len();
    let mut iterations = 0usize;

    for len in 1..=opts.max_len {
        if opts.deadline.is_some_and(|d| Instant::now() >= d) {
            run_sp.record("result", "timeout");
            return Err(SuperoptError::Timeout);
        }
        let mut len_sp = chipmunk_trace::span!("superopt.len", len = len);
        let found = cegis_at_len(spec, out_field, num_inputs, len, opts, &mut iterations);
        len_sp.record(
            "result",
            match &found {
                Ok(Some(_)) => "ok",
                Ok(None) => "infeasible",
                Err(_) => "timeout",
            },
        );
        drop(len_sp);
        match found? {
            Some(instrs) => {
                run_sp.record("result", "ok");
                run_sp.record("optimal_len", len as u64);
                run_sp.record("iterations", iterations as u64);
                return Ok(SuperoptResult {
                    instrs,
                    num_inputs,
                    infeasible_below: len - 1,
                    iterations,
                });
            }
            None => continue,
        }
    }
    run_sp.record("result", "infeasible");
    run_sp.record("iterations", iterations as u64);
    Err(SuperoptError::Infeasible)
}

/// One CEGIS run at a fixed program length. `Ok(None)` = proven infeasible.
fn cegis_at_len(
    spec: &Program,
    out_field: usize,
    num_inputs: usize,
    len: usize,
    opts: &SuperoptOptions,
    iterations: &mut usize,
) -> Result<Option<Vec<Instr>>, SuperoptError> {
    let w = opts.width;
    let interp = Interpreter::new(spec, w);

    // --- Symbolic register machine.
    let mut c = Circuit::new(w);
    let mut hole_meta: Vec<(String, u8)> = Vec::new(); // (name, bits)
    for i in 0..len {
        let regs = num_inputs + i;
        hole_meta.push((format!("op{i}"), opts.alu.opcode_bits()));
        hole_meta.push((format!("a{i}"), bits_for(regs)));
        hole_meta.push((format!("b{i}"), bits_for(regs)));
        hole_meta.push((format!("imm{i}"), opts.alu.imm_bits));
    }
    assert!(
        w >= hole_meta.iter().map(|(_, b)| *b).max().unwrap_or(1),
        "width must cover the widest hole"
    );
    let hole_terms: Vec<TermId> = hole_meta.iter().map(|(n, _)| c.input(n)).collect();
    let input_terms: Vec<TermId> = (0..num_inputs)
        .map(|i| c.input(&format!("in{i}")))
        .collect();

    let mut regs: Vec<TermId> = input_terms.clone();
    for i in 0..len {
        let h = |k: usize| hole_terms[4 * i + k];
        let a = c.select(h(1), &regs);
        let b = c.select(h(2), &regs);
        let out = stateless::symbolic_alu(&opts.alu, &mut c, a, b, h(3), h(0));
        regs.push(out);
    }
    let result = *regs.last().expect("len >= 1");

    // --- Incremental CEGIS: every input's copy of the program blasts
    // through the solver's one gate table, so gates over hole literals
    // alone are built once.
    let mut solver = Solver::new();
    solver.set_deadline(opts.deadline);
    let mut gs = GateSolver::new(solver);
    let hole_bits: Vec<Vec<Lit>> = {
        let mut b = gs.blaster();
        hole_meta
            .iter()
            .map(|(_, bits)| b.fresh_bits(*bits))
            .collect()
    };

    let add_input = |gs: &mut GateSolver, vals: &[u64]| {
        let inp = PacketState {
            fields: {
                let mut f = vec![0u64; num_inputs];
                f.copy_from_slice(vals);
                f
            },
            states: vec![],
        };
        let want = interp.exec(&inp).fields[out_field];
        let mut b = gs.blaster();
        let fals = !b.true_lit();
        for (k, &t) in hole_terms.iter().enumerate() {
            let mut padded = hole_bits[k].clone();
            while padded.len() < w as usize {
                padded.push(fals);
            }
            b.bind(c.input_id(t), Binding::Bits(padded));
        }
        for (k, &t) in input_terms.iter().enumerate() {
            b.bind(c.input_id(t), Binding::Const(vals[k]));
        }
        let bits = b.blast(&c, result);
        for (bi, &l) in bits.iter().enumerate() {
            b.assert_bit(l, (want >> bi) & 1 == 1);
        }
    };

    // Seed inputs.
    let small = (1u64 << opts.synth_input_bits.min(w)) - 1;
    let mut s = opts.seed;
    add_input(&mut gs, &vec![0; num_inputs]);
    for _ in 0..3 {
        let vals: Vec<u64> = (0..num_inputs)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 23) & small
            })
            .collect();
        add_input(&mut gs, &vals);
    }

    loop {
        *iterations += 1;
        match gs.solve(&[]) {
            SolveResult::Unsat => return Ok(None),
            SolveResult::Unknown => return Err(SuperoptError::Timeout),
            SolveResult::Sat => {}
        }
        let hv: Vec<u64> = hole_bits
            .iter()
            .map(|bits| gs.decode(bits).expect("total model"))
            .collect();
        let instrs = decode(&hv, num_inputs, len, &opts.alu);
        let mut cand_sp = chipmunk_trace::span!("superopt.candidate", len = len);

        // Verify: candidate vs spec for all inputs at width w.
        let mut vc = Circuit::new(w);
        let vins: Vec<TermId> = (0..num_inputs)
            .map(|i| vc.input(&format!("in{i}")))
            .collect();
        let mut vregs = vins.clone();
        for ins in &instrs {
            let imm = vc.constant(ins.imm);
            let out = stateless::symbolic_op(&mut vc, ins.op, vregs[ins.a], vregs[ins.b], imm);
            vregs.push(out);
        }
        let spec_outs = compile_spec(spec, &mut vc, &vins, &[]);
        let diff = vc.binop(
            BvOp::Ne,
            *vregs.last().expect("nonempty"),
            spec_outs.field_outs[out_field],
        );
        let mut vsolver = Solver::new();
        vsolver.set_deadline(opts.deadline);
        let vtru = mk_true(&mut vsolver);
        let mut vb = Blaster::new(&mut vsolver, vtru);
        vb.assert_term(&vc, diff);
        let in_bits: Vec<Vec<Lit>> = vins.iter().map(|&t| vb.blast(&vc, t)).collect();
        match vsolver.solve(&[]) {
            SolveResult::Unsat => {
                cand_sp.record("result", "accepted");
                chipmunk_trace::counter_add!("superopt.candidates.accepted", 1);
                return Ok(Some(instrs));
            }
            SolveResult::Unknown => return Err(SuperoptError::Timeout),
            SolveResult::Sat => {
                cand_sp.record("result", "rejected_counterexample");
                chipmunk_trace::counter_add!("superopt.candidates.rejected", 1);
                let vdec = Blaster::new(&mut vsolver, vtru);
                let cex: Vec<u64> = in_bits
                    .iter()
                    .map(|bits| vdec.decode(bits).expect("total"))
                    .collect();
                add_input(&mut gs, &cex);
            }
        }
    }
}

fn decode(hv: &[u64], num_inputs: usize, len: usize, alu: &StatelessAluSpec) -> Vec<Instr> {
    (0..len)
        .map(|i| {
            let regs = num_inputs + i;
            let clamp = |v: u64, n: usize| (v as usize).min(n - 1);
            Instr {
                op: alu.ops[clamp(hv[4 * i], alu.ops.len())],
                a: clamp(hv[4 * i + 1], regs),
                b: clamp(hv[4 * i + 2], regs),
                imm: hv[4 * i + 3],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipmunk_lang::parse;

    fn validate(spec: &Program, out: &SuperoptResult, width: u8) {
        let interp = Interpreter::new(spec, width);
        let out_field = spec.written_fields()[0];
        let mask = (1u64 << width) - 1;
        let mut s = 55u64;
        for _ in 0..500 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            let inputs: Vec<u64> = (0..out.num_inputs)
                .map(|k| (s >> (5 * k + 3)) & mask)
                .collect();
            let want = interp
                .exec(&PacketState {
                    fields: inputs.clone(),
                    states: vec![],
                })
                .fields[out_field];
            assert_eq!(out.exec(&inputs, width), want, "inputs {inputs:?}");
        }
    }

    #[test]
    fn times_five_is_three_adds() {
        // The classic: x*5 with adds only = ((x+x)+(x+x))+x → 3 instrs.
        let spec = parse("pkt.out = pkt.x * 5;").unwrap();
        let opts = SuperoptOptions::small_for_tests();
        let out = superoptimize(&spec, &opts).expect("feasible");
        assert_eq!(out.instrs.len(), 3);
        assert_eq!(out.infeasible_below, 2); // lengths 1 and 2 proven impossible
        validate(&spec, &out, opts.width);
    }

    #[test]
    fn single_instruction_when_possible() {
        let spec = parse("pkt.out = pkt.x + pkt.y;").unwrap();
        let opts = SuperoptOptions::small_for_tests();
        let out = superoptimize(&spec, &opts).expect("feasible");
        assert_eq!(out.instrs.len(), 1);
        validate(&spec, &out, opts.width);
    }

    #[test]
    fn common_subexpression_is_discovered() {
        // 2x + 2y: naive is 3 ops (x+x, y+y, add) or (x+y)*2 — either way
        // the optimum is 2: t = x+y; out = t+t.
        let spec = parse("pkt.out = pkt.x + pkt.x + pkt.y + pkt.y;").unwrap();
        let opts = SuperoptOptions::small_for_tests();
        let out = superoptimize(&spec, &opts).expect("feasible");
        assert_eq!(out.instrs.len(), 2);
        validate(&spec, &out, opts.width);
    }

    #[test]
    fn comparison_needs_richer_isa() {
        let spec = parse("pkt.out = pkt.x < 3;").unwrap();
        // Adder-only ISA cannot express a comparison…
        let mut opts = SuperoptOptions::small_for_tests();
        opts.max_len = 2;
        assert_eq!(
            superoptimize(&spec, &opts).unwrap_err(),
            SuperoptError::Infeasible
        );
        // …the full Banzai ALU does it in one instruction.
        opts.alu = StatelessAluSpec::banzai(3);
        let out = superoptimize(&spec, &opts).expect("feasible");
        assert_eq!(out.instrs.len(), 1);
        validate(&spec, &out, opts.width);
    }

    #[test]
    fn listing_is_readable() {
        let spec = parse("pkt.out = pkt.x + 3;").unwrap();
        let out = superoptimize(&spec, &SuperoptOptions::small_for_tests()).expect("feasible");
        // Fields are [out, x] (assignment targets come first in first-use
        // order), so the single instruction defines r2.
        let listing = out.listing();
        assert!(listing.starts_with("r2 = "), "{listing}");
        assert!(listing.contains("AddImm"), "{listing}");
    }

    #[test]
    #[should_panic(expected = "stateless")]
    fn stateful_specs_are_rejected() {
        let spec = parse("state s; s = s + 1; pkt.out = s;").unwrap();
        let _ = superoptimize(&spec, &SuperoptOptions::small_for_tests());
    }
}
