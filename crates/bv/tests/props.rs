//! Randomized tests for the bit-vector layer: circuit evaluation must
//! match `u64` reference semantics, and the blaster must agree with the
//! evaluator on random expression trees with symbolic inputs, also when
//! several copies of a tree share one gate table. Seeded, so every run
//! checks the same 200-tree corpus.

use chipmunk_bv::{
    assumption_lits, check_equiv, mk_true, Binding, Blaster, BvOp, Circuit, GateSolver, TermId,
};
use chipmunk_sat::{Lit, SolveResult, Solver};
use chipmunk_trace::rng::Xoshiro256;

const OPS: &[BvOp] = &[
    BvOp::Add,
    BvOp::Sub,
    BvOp::Mul,
    BvOp::UDiv,
    BvOp::URem,
    BvOp::And,
    BvOp::Or,
    BvOp::Xor,
];

/// A random expression tree encoded as post-order instructions over a
/// stack seeded with the two inputs.
#[derive(Clone, Debug)]
enum Step {
    PushConst(u64),
    PushX,
    PushY,
    Bin(usize),
    Mux,
}

fn random_steps(rng: &mut Xoshiro256) -> Vec<Step> {
    let n = rng.gen_range(1, 19);
    (0..n)
        .map(|_| match rng.gen_usize(5) {
            0 => Step::PushConst(rng.gen_u64_below(64)),
            1 => Step::PushX,
            2 => Step::PushY,
            3 => Step::Bin(rng.gen_usize(OPS.len())),
            _ => Step::Mux,
        })
        .collect()
}

fn build(c: &mut Circuit, x: TermId, y: TermId, steps: &[Step]) -> TermId {
    let mut stack = vec![x, y];
    for s in steps {
        match s {
            Step::PushConst(v) => stack.push(c.constant(*v)),
            Step::PushX => stack.push(x),
            Step::PushY => stack.push(y),
            Step::Bin(i) => {
                let b = stack.pop().unwrap_or(x);
                let a = stack.pop().unwrap_or(y);
                stack.push(c.binop(OPS[*i], a, b));
            }
            Step::Mux => {
                let f = stack.pop().unwrap_or(x);
                let t = stack.pop().unwrap_or(y);
                let sel = stack.pop().unwrap_or(x);
                let zero = c.constant(0);
                let cond = c.binop(BvOp::Ne, sel, zero);
                stack.push(c.mux(cond, t, f));
            }
        }
    }
    stack.pop().expect("seeded stack is never empty")
}

/// Blasting with constant bindings must reproduce the evaluator.
#[test]
fn blaster_matches_evaluator() {
    let mut rng = Xoshiro256::seed_from_u64(0xb7_0001);
    for case in 0..200 {
        let steps = random_steps(&mut rng);
        let vx = rng.gen_u64_below(64);
        let vy = rng.gen_u64_below(64);
        let mut c = Circuit::new(6);
        let x = c.input("x");
        let y = c.input("y");
        let root = build(&mut c, x, y, &steps);
        let want = c.eval(root, &move |i| if i.0 == 0 { vx } else { vy });

        let mut solver = Solver::new();
        let tru = mk_true(&mut solver);
        let mut b = Blaster::new(&mut solver, tru);
        b.bind(c.input_id(x), Binding::Const(vx));
        b.bind(c.input_id(y), Binding::Const(vy));
        let bits = b.blast(&c, root);
        assert_eq!(solver.solve(&[]), SolveResult::Sat, "case {case}");
        let got = Blaster::new(&mut solver, tru).decode(&bits).expect("model");
        assert_eq!(got, want, "case {case}: {steps:?} on ({vx}, {vy})");
    }
}

/// The equivalence checker accepts hash-consing-invisible rewrites (adding
/// zero, multiplying by one) and rejects off-by-one variants.
#[test]
fn equiv_checker_is_sound_and_complete_on_identities() {
    let mut rng = Xoshiro256::seed_from_u64(0xb7_0002);
    for case in 0..200 {
        let steps = random_steps(&mut rng);
        let mut c = Circuit::new(5);
        let x = c.input("x");
        let y = c.input("y");
        let root = build(&mut c, x, y, &steps);
        // `root + y - y` is equivalent; folding cannot collapse it because
        // the intermediate wraps.
        let plus = c.binop(BvOp::Add, root, y);
        let same = c.binop(BvOp::Sub, plus, y);
        assert!(
            check_equiv(&c, root, same, None).is_none(),
            "case {case}: rejected an identity: {steps:?}"
        );
        // `root + 1` differs on every input.
        let one = c.constant(1);
        let off = c.binop(BvOp::Add, root, one);
        assert!(
            check_equiv(&c, root, off, None).is_some(),
            "case {case}: accepted an off-by-one: {steps:?}"
        );
    }
}

/// Copies of one tree blasted into one solver through one gate table, as
/// the CEGIS synthesis instance blasts the sketch once per input: `x` is
/// bound to shared free bits, as holes are, and `y` to a different
/// constant per copy. Every copy must decode to the evaluator's value, and
/// a copy that repeats an earlier `y` must add no variable and no clause.
#[test]
fn copies_sharing_gates_match_the_evaluator() {
    let mut rng = Xoshiro256::seed_from_u64(0xb7_0003);
    for case in 0..200 {
        let steps = random_steps(&mut rng);
        let mut c = Circuit::new(6);
        let x = c.input("x");
        let y = c.input("y");
        let root = build(&mut c, x, y, &steps);
        let mut ys: Vec<u64> = Vec::new();
        while ys.len() < 3 {
            let v = rng.gen_u64_below(64);
            if !ys.contains(&v) {
                ys.push(v);
            }
        }
        let vx = rng.gen_u64_below(64);

        let mut gs = GateSolver::new(Solver::new());
        let x_bits = gs.blaster().fresh_bits(6);
        let copy = |gs: &mut GateSolver, vy: u64| -> Vec<Lit> {
            let mut b = gs.blaster();
            b.bind(c.input_id(x), Binding::Bits(x_bits.clone()));
            b.bind(c.input_id(y), Binding::Const(vy));
            b.blast(&c, root)
        };
        let outs: Vec<Vec<Lit>> = ys.iter().map(|&vy| copy(&mut gs, vy)).collect();
        let size = (gs.solver().num_vars(), gs.solver().num_clauses());
        let again = copy(&mut gs, ys[1]);
        assert_eq!(again, outs[1], "case {case}: the repeated copy differs");
        assert_eq!(
            (gs.solver().num_vars(), gs.solver().num_clauses()),
            size,
            "case {case}: the repeated copy grew the instance: {steps:?}"
        );

        assert_eq!(
            gs.solve(&assumption_lits(&x_bits, vx)),
            SolveResult::Sat,
            "case {case}"
        );
        for (bits, &vy) in outs.iter().zip(&ys) {
            let want = c.eval(root, &move |i| if i.0 == 0 { vx } else { vy });
            assert_eq!(
                gs.decode(bits),
                Some(want),
                "case {case}: {steps:?} on ({vx}, {vy})"
            );
        }
    }
}
