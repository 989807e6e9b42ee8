//! Experiment runners for the paper's Table 2 and Figure 5.
//!
//! One pass over (program × variant) produces a [`VariantOutcome`] per
//! cell: variant 0 is the original program, variants 1..=N its seeded
//! semantics-preserving mutations. Table 2 aggregates success rates and
//! Chipmunk synthesis times; Figure 5 aggregates resource usage where both
//! compilers succeed.

use std::time::{Duration, Instant};

use chipmunk::{compile as chipmunk_compile, CegisOptions, CompilerOptions, Sketch};
use chipmunk_domino::{compile as domino_compile, DominoOptions};
use chipmunk_lang::Program;
use chipmunk_mutate::mutations;
use chipmunk_pisa::StatelessAluSpec;
use chipmunk_trace::json::Json;

use crate::corpus::{corpus, Benchmark};

/// Configuration of one experiment sweep.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Mutation seed (the paper's 10 mutations per program are seeded
    /// deterministically per program from this).
    pub seed: u64,
    /// Mutations per program (the paper uses 10).
    pub mutations_per_program: usize,
    /// Immediate-operand width shared by both compilers.
    pub imm_bits: u8,
    /// Semantic verification width (the paper's Z3 loop uses 10 bits).
    pub verify_width: u8,
    /// Screening-verifier width (`None` disables).
    pub screen_width: Option<u8>,
    /// Deepest grid the Chipmunk search tries.
    pub max_stages: usize,
    /// Per-variant Chipmunk timeout in seconds (the paper's runs also use
    /// a timeout; flowlet exceeds it for some mutations).
    pub timeout_secs: u64,
    /// Restrict to these program names (empty = all 8).
    pub programs: Vec<String>,
    /// Differential-validation samples applied to every successful
    /// Chipmunk result.
    pub validate_samples: usize,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 2019,
            mutations_per_program: 10,
            imm_bits: 4,
            verify_width: 10,
            screen_width: Some(5),
            max_stages: 4,
            timeout_secs: 120,
            programs: Vec::new(),
            validate_samples: 200,
            threads: 0,
        }
    }
}

/// One compiler's outcome on one program variant.
#[derive(Clone, Debug)]
pub struct CompilerOutcome {
    /// Did code generation succeed?
    pub success: bool,
    /// Pipeline depth of the generated code.
    pub stages: Option<usize>,
    /// Max ALUs in any stage.
    pub max_alus: Option<usize>,
    /// Total ALUs.
    pub total_alus: Option<usize>,
    /// Wall-clock code-generation time.
    pub seconds: f64,
    /// Failure reason, if any.
    pub error: Option<String>,
}

/// Outcome of one (program, variant) cell.
#[derive(Clone, Debug)]
pub struct VariantOutcome {
    /// Benchmark name.
    pub program: String,
    /// 0 = original, 1.. = mutation index.
    pub variant: usize,
    /// The synthesis-based compiler.
    pub chipmunk: CompilerOutcome,
    /// The classical baseline.
    pub domino: CompilerOutcome,
}

fn opt_usize(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::from(n),
        None => Json::Null,
    }
}

fn get_opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(|x| Some(x as usize))
            .ok_or_else(|| format!("non-integer field `{key}`")),
    }
}

impl CompilerOutcome {
    /// Serialize to JSON (same wire format serde used to emit, so existing
    /// `results_table2.json` files keep parsing).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("success", Json::from(self.success)),
            ("stages", opt_usize(self.stages)),
            ("max_alus", opt_usize(self.max_alus)),
            ("total_alus", opt_usize(self.total_alus)),
            ("seconds", Json::from(self.seconds)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::from(e.as_str()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Deserialize from JSON.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(CompilerOutcome {
            success: v
                .get("success")
                .and_then(Json::as_bool)
                .ok_or("missing `success`")?,
            stages: get_opt_usize(v, "stages")?,
            max_alus: get_opt_usize(v, "max_alus")?,
            total_alus: get_opt_usize(v, "total_alus")?,
            seconds: v
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("missing `seconds`")?,
            error: match v.get("error") {
                None | Some(Json::Null) => None,
                Some(e) => Some(e.as_str().ok_or("non-string `error`")?.to_string()),
            },
        })
    }
}

impl VariantOutcome {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("program", Json::from(self.program.as_str())),
            ("variant", Json::from(self.variant)),
            ("chipmunk", self.chipmunk.to_json()),
            ("domino", self.domino.to_json()),
        ])
    }

    /// Deserialize from JSON.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(VariantOutcome {
            program: v
                .get("program")
                .and_then(Json::as_str)
                .ok_or("missing `program`")?
                .to_string(),
            variant: v
                .get("variant")
                .and_then(Json::as_u64)
                .ok_or("missing `variant`")? as usize,
            chipmunk: CompilerOutcome::from_json(v.get("chipmunk").ok_or("missing `chipmunk`")?)?,
            domino: CompilerOutcome::from_json(v.get("domino").ok_or("missing `domino`")?)?,
        })
    }
}

/// Serialize a sweep's outcomes as a JSON array.
pub fn outcomes_to_json(outcomes: &[VariantOutcome]) -> Json {
    Json::Arr(outcomes.iter().map(|o| o.to_json()).collect())
}

/// Parse a sweep result file (what `table2 --json` writes).
pub fn outcomes_from_json_str(text: &str) -> Result<Vec<VariantOutcome>, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    v.as_arr()
        .ok_or("expected a JSON array of outcomes")?
        .iter()
        .map(VariantOutcome::from_json)
        .collect()
}

fn run_domino(b: &Benchmark, prog: &Program, cfg: &ExperimentConfig) -> CompilerOutcome {
    let opts = DominoOptions {
        width: cfg.verify_width,
        stateless: StatelessAluSpec::banzai(cfg.imm_bits),
        stateful: b.template.spec(cfg.imm_bits),
    };
    let t0 = Instant::now();
    match domino_compile(prog, &opts) {
        Ok(out) => CompilerOutcome {
            success: true,
            stages: Some(out.resources.stages_used),
            max_alus: Some(out.resources.max_alus_per_stage),
            total_alus: Some(out.resources.total_alus),
            seconds: t0.elapsed().as_secs_f64(),
            error: None,
        },
        Err(e) => CompilerOutcome {
            success: false,
            stages: None,
            max_alus: None,
            total_alus: None,
            seconds: t0.elapsed().as_secs_f64(),
            error: Some(e.to_string()),
        },
    }
}

fn run_chipmunk(b: &Benchmark, prog: &Program, cfg: &ExperimentConfig) -> CompilerOutcome {
    let opts = CompilerOptions {
        max_stages: cfg.max_stages,
        slots: None,
        stateful: b.template.spec(cfg.imm_bits),
        stateless: StatelessAluSpec::banzai(cfg.imm_bits),
        sketch: Default::default(),
        cegis: CegisOptions {
            verify_width: cfg.verify_width,
            screen_width: cfg.screen_width,
            synth_input_bits: 5,
            num_initial_inputs: 4,
            max_iters: 256,
            seed: cfg.seed ^ 0xc0ffee,
            ..CegisOptions::default()
        },
        timeout: Some(Duration::from_secs(cfg.timeout_secs)),
        portfolio: false,
    };
    let t0 = Instant::now();
    match chipmunk_compile(prog, &opts) {
        Ok(out) => {
            // Defense in depth: every reported success must behave like the
            // spec on random packets.
            let mut hashfree = prog.clone();
            if hashfree.stmts().iter().any(|s| s.contains_hash()) {
                chipmunk_lang::passes::eliminate_hashes(&mut hashfree);
            }
            let sketch = Sketch::new(
                out.grid.clone(),
                hashfree.field_names().len(),
                hashfree.state_names().len(),
                opts.sketch,
            )
            .expect("winning sketch reconstructs");
            let mismatch = chipmunk::cegis::validate_decoded(
                &hashfree,
                &sketch,
                &out.decoded,
                cfg.verify_width,
                cfg.validate_samples,
                cfg.seed,
            );
            match mismatch {
                None => CompilerOutcome {
                    success: true,
                    stages: Some(out.resources.stages_used),
                    max_alus: Some(out.resources.max_alus_per_stage),
                    total_alus: Some(out.resources.total_alus),
                    seconds: t0.elapsed().as_secs_f64(),
                    error: None,
                },
                Some(inp) => CompilerOutcome {
                    success: false,
                    stages: None,
                    max_alus: None,
                    total_alus: None,
                    seconds: t0.elapsed().as_secs_f64(),
                    error: Some(format!("VALIDATION FAILURE on input {inp:?}")),
                },
            }
        }
        Err(e) => CompilerOutcome {
            success: false,
            stages: None,
            max_alus: None,
            total_alus: None,
            seconds: t0.elapsed().as_secs_f64(),
            error: Some(e.to_string()),
        },
    }
}

/// Run the full sweep: every selected program, original + mutations, both
/// compilers. Work is spread over OS threads (one cell at a time).
pub fn run_experiments(cfg: &ExperimentConfig) -> Vec<VariantOutcome> {
    let selected: Vec<Benchmark> = corpus()
        .into_iter()
        .filter(|b| cfg.programs.is_empty() || cfg.programs.iter().any(|p| p == b.name))
        .collect();

    // Build all cells first (mutation generation is cheap and must be
    // deterministic in the seed regardless of thread count).
    let mut cells: Vec<(Benchmark, usize, Program)> = Vec::new();
    for (bi, b) in selected.iter().enumerate() {
        let prog = b.program();
        let muts = mutations(
            &prog,
            cfg.seed.wrapping_add(bi as u64 * 1000),
            cfg.mutations_per_program,
        );
        cells.push((b.clone(), 0, prog));
        for (mi, m) in muts.into_iter().enumerate() {
            cells.push((b.clone(), mi + 1, m));
        }
    }

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        cfg.threads
    };
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<VariantOutcome>> = Vec::new();
    results.resize_with(cells.len(), || None);
    let results = std::sync::Mutex::new(results);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= cells.len() {
                    break;
                }
                let (b, variant, prog) = &cells[i];
                let outcome = VariantOutcome {
                    program: b.name.to_string(),
                    variant: *variant,
                    chipmunk: run_chipmunk(b, prog, cfg),
                    domino: run_domino(b, prog, cfg),
                };
                results.lock().expect("no poisoning")[i] = Some(outcome);
            });
        }
    });
    results
        .into_inner()
        .expect("no poisoning")
        .into_iter()
        .map(|o| o.expect("every cell ran"))
        .collect()
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Render Table 2: per-program code-generation rate over the mutations and
/// Chipmunk synthesis time.
pub fn render_table2(outcomes: &[VariantOutcome]) -> String {
    let mut s = String::new();
    s.push_str(
        "Table 2: Code generation rate and time for Chipmunk and Domino\n\
         (rate over the semantics-preserving mutations; variant 0 = original)\n\n",
    );
    s.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>10} {:>10} {:>14}\n",
        "Program", "Chipmunk", "Domino", "orig C/D", "mutations", "Chipmunk time(s)"
    ));
    let mut names: Vec<&str> = outcomes.iter().map(|o| o.program.as_str()).collect();
    names.dedup();
    for name in names {
        let all: Vec<&VariantOutcome> = outcomes.iter().filter(|o| o.program == name).collect();
        let orig = all.iter().find(|o| o.variant == 0).expect("original ran");
        let muts: Vec<&&VariantOutcome> = all.iter().filter(|o| o.variant > 0).collect();
        let n = muts.len().max(1);
        let c_rate = 100.0 * muts.iter().filter(|o| o.chipmunk.success).count() as f64 / n as f64;
        let d_rate = 100.0 * muts.iter().filter(|o| o.domino.success).count() as f64 / n as f64;
        let times: Vec<f64> = all
            .iter()
            .filter(|o| o.chipmunk.success)
            .map(|o| o.chipmunk.seconds)
            .collect();
        let (tmean, _) = mean_std(&times);
        s.push_str(&format!(
            "{:<22} {:>8.0}% {:>8.0}% {:>5}/{:<4} {:>10} {:>14.2}\n",
            name,
            c_rate,
            d_rate,
            if orig.chipmunk.success { "ok" } else { "FAIL" },
            if orig.domino.success { "ok" } else { "FAIL" },
            muts.len(),
            tmean,
        ));
    }
    s
}

/// Render Figure 5: resources used by Chipmunk and Domino where both
/// compilers succeed (mean ± stddev across variants).
pub fn render_figure5(outcomes: &[VariantOutcome]) -> String {
    let mut s = String::new();
    s.push_str(
        "Figure 5: Resources used by Chipmunk and Domino\n\
         (variants where both compilers succeed; mean ± stddev)\n\n",
    );
    s.push_str(&format!(
        "{:<22} {:>18} {:>18} {:>20} {:>20}\n",
        "Program",
        "stages (Chipmunk)",
        "stages (Domino)",
        "max ALUs/st (Chip)",
        "max ALUs/st (Dom)"
    ));
    let mut names: Vec<&str> = outcomes.iter().map(|o| o.program.as_str()).collect();
    names.dedup();
    for name in names {
        let both: Vec<&VariantOutcome> = outcomes
            .iter()
            .filter(|o| o.program == name && o.chipmunk.success && o.domino.success)
            .collect();
        if both.is_empty() {
            s.push_str(&format!("{name:<22} (no variant compiled by both)\n"));
            continue;
        }
        let cs: Vec<f64> = both
            .iter()
            .map(|o| o.chipmunk.stages.expect("success") as f64)
            .collect();
        let ds: Vec<f64> = both
            .iter()
            .map(|o| o.domino.stages.expect("success") as f64)
            .collect();
        let ca: Vec<f64> = both
            .iter()
            .map(|o| o.chipmunk.max_alus.expect("success") as f64)
            .collect();
        let da: Vec<f64> = both
            .iter()
            .map(|o| o.domino.max_alus.expect("success") as f64)
            .collect();
        let (csm, css) = mean_std(&cs);
        let (dsm, dss) = mean_std(&ds);
        let (cam, cas) = mean_std(&ca);
        let (dam, das) = mean_std(&da);
        s.push_str(&format!(
            "{:<22} {:>11.2} ±{:<4.2} {:>11.2} ±{:<4.2} {:>13.2} ±{:<4.2} {:>13.2} ±{:<4.2}\n",
            name, csm, css, dsm, dss, cam, cas, dam, das
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ok: bool, stages: usize, alus: usize, secs: f64) -> CompilerOutcome {
        CompilerOutcome {
            success: ok,
            stages: ok.then_some(stages),
            max_alus: ok.then_some(alus),
            total_alus: ok.then_some(stages * alus),
            seconds: secs,
            error: (!ok).then(|| "too expressive".into()),
        }
    }

    fn cell(
        program: &str,
        variant: usize,
        chip: CompilerOutcome,
        dom: CompilerOutcome,
    ) -> VariantOutcome {
        VariantOutcome {
            program: program.into(),
            variant,
            chipmunk: chip,
            domino: dom,
        }
    }

    #[test]
    fn table2_renders_rates_and_times() {
        let data = vec![
            cell("p", 0, outcome(true, 1, 2, 1.0), outcome(true, 2, 1, 0.001)),
            cell(
                "p",
                1,
                outcome(true, 1, 2, 3.0),
                outcome(false, 0, 0, 0.001),
            ),
            cell("p", 2, outcome(true, 1, 2, 5.0), outcome(true, 3, 1, 0.001)),
        ];
        let t = render_table2(&data);
        assert!(t.contains("p"), "{t}");
        assert!(t.contains("100%"), "chipmunk rate missing:\n{t}");
        assert!(t.contains("50%"), "domino rate missing:\n{t}");
        // Mean chipmunk time over successes = (1+3+5)/3 = 3.00.
        assert!(t.contains("3.00"), "{t}");
    }

    #[test]
    fn figure5_uses_only_doubly_successful_variants() {
        let data = vec![
            cell("p", 0, outcome(true, 1, 2, 1.0), outcome(true, 3, 1, 0.0)),
            cell("p", 1, outcome(true, 1, 2, 1.0), outcome(false, 0, 0, 0.0)),
            cell("p", 2, outcome(true, 1, 2, 1.0), outcome(true, 5, 1, 0.0)),
        ];
        let f = render_figure5(&data);
        // Domino mean over {3, 5} = 4.00 with stddev 1.00; the failed
        // variant must not drag the mean down.
        assert!(f.contains("4.00"), "{f}");
        assert!(f.contains("1.00"), "{f}");
    }

    #[test]
    fn figure5_handles_programs_with_no_common_success() {
        let data = vec![cell(
            "q",
            0,
            outcome(true, 1, 1, 1.0),
            outcome(false, 0, 0, 0.0),
        )];
        let f = render_figure5(&data);
        assert!(f.contains("no variant compiled by both"), "{f}");
    }

    #[test]
    fn outcomes_roundtrip_through_json() {
        let data = vec![
            cell(
                "p",
                0,
                outcome(true, 1, 2, 1.5),
                outcome(false, 0, 0, 0.001),
            ),
            cell(
                "q",
                3,
                outcome(false, 0, 0, 9.0),
                outcome(true, 4, 2, 0.002),
            ),
        ];
        let json = outcomes_to_json(&data).to_compact();
        let back: Vec<VariantOutcome> = outcomes_from_json_str(&json).expect("parses");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].program, "p");
        assert_eq!(back[0].chipmunk.stages, Some(1));
        assert_eq!(back[1].variant, 3);
        assert_eq!(back[1].domino.max_alus, Some(2));
        // figure5 --load consumes exactly this format.
        let f = render_figure5(&back);
        assert!(f.contains("no variant compiled by both"));
    }

    #[test]
    fn mean_std_of_empty_and_singleton() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[2.0]), (2.0, 0.0));
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
    }

    /// A tiny smoke sweep: two fast programs, two mutations, small widths.
    #[test]
    fn smoke_sweep_produces_expected_shape() {
        let cfg = ExperimentConfig {
            mutations_per_program: 2,
            verify_width: 7,
            screen_width: Some(5),
            timeout_secs: 60,
            programs: vec!["sampling".into(), "detect-new-flows".into()],
            validate_samples: 100,
            ..Default::default()
        };
        let out = run_experiments(&cfg);
        assert_eq!(out.len(), 2 * 3); // 2 programs × (original + 2 mutations)
        for o in &out {
            // The originals must compile under BOTH compilers.
            if o.variant == 0 {
                assert!(o.domino.success, "{}: domino original fails", o.program);
                assert!(
                    o.chipmunk.success,
                    "{}: chipmunk original fails: {:?}",
                    o.program, o.chipmunk.error
                );
            }
            // Chipmunk must never report a validation failure.
            if let Some(e) = &o.chipmunk.error {
                assert!(
                    !e.contains("VALIDATION"),
                    "{} v{}: {e}",
                    o.program,
                    o.variant
                );
            }
        }
        let t2 = render_table2(&out);
        assert!(t2.contains("sampling"));
        let f5 = render_figure5(&out);
        assert!(f5.contains("detect-new-flows"));
    }
}
