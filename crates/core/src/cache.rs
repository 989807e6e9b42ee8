//! Content-addressed cache keys for compilation results.
//!
//! A Chipmunk query is expensive (CEGIS over bit-blasted SAT) but fully
//! determined by its inputs: the packet program and the compilation
//! options. Better still, the paper's own mutation benchmark shows that
//! semantics-preserving rewrites (commuted operands, mirrored comparisons,
//! hoisted subexpressions, …) leave the underlying synthesis problem
//! unchanged — so a cache keyed on a *canonical form* of the program turns
//! every mutant re-compilation into a free hit.
//!
//! The key is an FNV-1a 64-bit hash over a canonical description of:
//!
//! 1. the program, after hash elimination and
//!    [`chipmunk_lang::passes::canonicalize`] (which inverts every mutation
//!    kind in `chipmunk-mutate`),
//! 2. the grid search space (`max_stages`, `slots`),
//! 3. the stateless and stateful ALU specs,
//! 4. the sketch and CEGIS options that affect the *result* (widths,
//!    sampling, iteration cap, seed, approximation domain).
//!
//! Deliberately excluded: `timeout` and `deadline`. They bound *how long*
//! the answer may take, not *what* it is — a configuration synthesized
//! under one budget is equally valid under another.

use std::fmt::Write as _;

use chipmunk_lang::Program;

use crate::search::CompilerOptions;

/// 64-bit FNV-1a. Stable, dependency-free, and plenty for a cache keyed by
/// canonical text (collisions would need two distinct canonical
/// descriptions hashing equal — acceptable for a result cache).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical source text of a program: hash calls eliminated, then
/// normalized by [`chipmunk_lang::passes::canonicalize`] at `width` bits.
/// Two programs related by any `chipmunk-mutate` rewrite share this text.
pub fn canonical_text(prog: &Program, width: u8) -> String {
    let mut p = prog.clone();
    if p.stmts().iter().any(|s| s.contains_hash()) {
        chipmunk_lang::passes::eliminate_hashes(&mut p);
    }
    chipmunk_lang::passes::canonicalize(&mut p, width);
    p.to_string()
}

/// The field and state names a compilation of `prog` is laid out over, in
/// index order: the submitted program's names after hash elimination (each
/// hash call appends a fresh metadata field, exactly as [`crate::compile`]
/// does internally). `CodegenSuccess::decoded.field_to_container` is
/// indexed by this field list.
///
/// Index order is *requester-local*: [`canonical_text`] (and therefore
/// [`cache_key`]) orders by name, so two programs can share a key while
/// numbering their fields differently. A result cache keyed by
/// [`cache_key`] must carry these name lists alongside the result and
/// remap indices by name when serving a different submitter.
pub fn layout_names(prog: &Program) -> (Vec<String>, Vec<String>) {
    let mut p = prog.clone();
    if p.stmts().iter().any(|s| s.contains_hash()) {
        chipmunk_lang::passes::eliminate_hashes(&mut p);
    }
    (p.field_names().to_vec(), p.state_names().to_vec())
}

/// Content hash of a compilation query, as a 16-hex-digit string.
pub fn cache_key(prog: &Program, opts: &CompilerOptions) -> String {
    let mut desc = String::new();
    let _ = writeln!(
        desc,
        "prog:{}",
        canonical_text(prog, opts.cegis.verify_width)
    );
    let _ = writeln!(
        desc,
        "grid:max_stages={};slots={:?}",
        opts.max_stages, opts.slots
    );
    let _ = writeln!(desc, "stateless:{:?}", opts.stateless);
    let _ = writeln!(desc, "stateful:{:?}", opts.stateful);
    let _ = writeln!(desc, "sketch:{:?}", opts.sketch);
    let c = &opts.cegis;
    let _ = writeln!(
        desc,
        "cegis:vw={};sw={:?};sib={};nii={};mi={};seed={};dw={:?}",
        c.verify_width,
        c.screen_width,
        c.synth_input_bits,
        c.num_initial_inputs,
        c.max_iters,
        c.seed,
        c.domain_width,
    );
    format!("{:016x}", fnv1a64(desc.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipmunk_lang::parse;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn mutants_share_a_key() {
        let opts = CompilerOptions::small_for_tests();
        let base = parse("state s; if (s == 3) { s = 0; } else { s = s + 1; }").unwrap();
        let mutants = [
            // CommuteOperands (s + 1 → 1 + s) and MirrorComparison (== flipped).
            "state s; if (3 == s) { s = 0; } else { s = 1 + s; }",
            // NegateBranch.
            "state s; if (!(s == 3)) { s = s + 1; } else { s = 0; }",
            // AddIdentity.
            "state s; if (s == 3) { s = 0 + 0; } else { s = s + 1 + 0; }",
        ];
        let key = cache_key(&base, &opts);
        for m in mutants {
            let mp = parse(m).unwrap();
            assert_eq!(cache_key(&mp, &opts), key, "mutant diverged: {m}");
        }
    }

    #[test]
    fn different_programs_or_options_get_different_keys() {
        let opts = CompilerOptions::small_for_tests();
        let a = parse("pkt.x = pkt.a + pkt.b;").unwrap();
        let b = parse("pkt.x = pkt.a - pkt.b;").unwrap();
        assert_ne!(cache_key(&a, &opts), cache_key(&b, &opts));
        let mut wider = opts.clone();
        wider.cegis.verify_width = 8;
        assert_ne!(cache_key(&a, &opts), cache_key(&a, &wider));
        let mut deeper = opts.clone();
        deeper.max_stages += 1;
        assert_ne!(cache_key(&a, &opts), cache_key(&a, &deeper));
    }

    #[test]
    fn key_equal_programs_can_still_number_fields_differently() {
        // Canonical text orders by *name*, so these two commuted programs
        // share a key — but their first-use field numbering differs. This
        // is exactly why cached results must carry their name lists and be
        // remapped per requester (see chipmunk-serve).
        let opts = CompilerOptions::small_for_tests();
        let a = parse("pkt.x = pkt.b | pkt.a; pkt.y = pkt.a;").unwrap();
        let b = parse("pkt.x = pkt.a | pkt.b; pkt.y = pkt.a;").unwrap();
        assert_eq!(cache_key(&a, &opts), cache_key(&b, &opts));
        let (fa, sa) = layout_names(&a);
        let (fb, sb) = layout_names(&b);
        assert_eq!(fa, ["x", "b", "a", "y"]);
        assert_eq!(fb, ["x", "a", "b", "y"]);
        assert_eq!(sa, sb);
    }

    #[test]
    fn layout_names_include_hash_metadata_fields() {
        let p = parse("state s; s = hash(pkt.a, pkt.b) % 8; pkt.out = s;").unwrap();
        let (fields, states) = layout_names(&p);
        assert_eq!(fields, ["a", "b", "out", "hash_0"]);
        assert_eq!(states, ["s"]);
    }

    #[test]
    fn budget_knobs_do_not_change_the_key() {
        let prog = parse("pkt.x = pkt.a;").unwrap();
        let opts = CompilerOptions::small_for_tests();
        let mut budgeted = opts.clone();
        budgeted.timeout = Some(std::time::Duration::from_secs(5));
        // Solver resource ceilings are budget knobs too: a config
        // synthesized under a tight conflict or memory budget is equally
        // valid under a loose one, so they must not fragment the cache.
        budgeted.cegis.budget = chipmunk_sat::ResourceBudget {
            conflicts: Some(10_000),
            propagations: Some(1_000_000),
            clause_bytes: Some(1 << 20),
        };
        assert_eq!(cache_key(&prog, &opts), cache_key(&prog, &budgeted));
    }
}
