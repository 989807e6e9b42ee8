//! End-to-end test of the `--trace` plumbing: `chipmunkc compile` with a
//! trace file must produce parseable, schema-stable JSONL covering the
//! search, CEGIS, and SAT layers, and `chipmunkc trace-report` must read
//! it back.

use std::path::PathBuf;
use std::process::Command;

use chipmunk_trace::json::Json;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("chipmunkc-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn compile_emits_wellformed_jsonl_and_report_reads_it() {
    let prog = scratch("prog.chip");
    let trace = scratch("out.jsonl");
    std::fs::write(&prog, "state s; s = s + pkt.x;\n").unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
        .args([
            "compile",
            prog.to_str().unwrap(),
            "--width",
            "6",
            "--max-stages",
            "2",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .status()
        .expect("chipmunkc runs");
    assert!(status.success(), "compile failed");

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.trim().is_empty(), "trace is empty");

    let mut kinds = std::collections::BTreeSet::new();
    let mut spans = std::collections::BTreeSet::new();
    for (no, line) in text.lines().enumerate() {
        let rec = Json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not JSON ({e}): {line}", no + 1));
        // Schema-stable core fields.
        let ts = rec.get("ts_us").and_then(Json::as_u64);
        assert!(ts.is_some(), "line {}: missing ts_us: {line}", no + 1);
        let kind = rec
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line {}: missing kind: {line}", no + 1));
        assert!(
            matches!(kind, "open" | "close" | "event" | "counter" | "histogram"),
            "line {}: unknown kind {kind}",
            no + 1
        );
        let span = rec
            .get("span")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line {}: missing span: {line}", no + 1));
        kinds.insert(kind.to_string());
        if kind == "open" || kind == "close" {
            assert!(
                rec.get("id").and_then(Json::as_u64).is_some(),
                "line {}: span record without id",
                no + 1
            );
            spans.insert(span.to_string());
        }
        if kind == "close" {
            assert!(
                rec.get("dur_us").and_then(Json::as_u64).is_some(),
                "line {}: close without dur_us",
                no + 1
            );
        }
    }
    // The compile path must cover every instrumented layer.
    for want in [
        "search.compile",
        "search.grid",
        "cegis.run",
        "cegis.synth",
        "cegis.verify",
        "sat.solve",
    ] {
        assert!(spans.contains(want), "no `{want}` span in trace");
    }
    assert!(kinds.contains("counter"), "flush() emitted no counters");

    // The report subcommand digests the file.
    let out = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
        .args(["trace-report", trace.to_str().unwrap()])
        .output()
        .expect("chipmunkc runs");
    assert!(out.status.success(), "trace-report failed");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("cegis.run"),
        "report missing spans:\n{report}"
    );
    assert!(
        report.contains("sat.solve"),
        "report missing spans:\n{report}"
    );

    let _ = std::fs::remove_file(&prog);
    let _ = std::fs::remove_file(&trace);
}

/// The blaster counts the gates it builds and the gate-table hits it
/// shares; `trace-report` lists both beside the clause count.
#[test]
fn report_lists_built_and_shared_gates() {
    let prog = scratch("prog3.chip");
    let trace = scratch("out3.jsonl");
    std::fs::write(&prog, "state s; s = s + pkt.x;\n").unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
        .args(["compile", prog.to_str().unwrap(), "--width", "6"])
        .args(["--max-stages", "2", "--trace", trace.to_str().unwrap()])
        .status()
        .expect("chipmunkc runs");
    assert!(status.success(), "compile failed");
    let out = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
        .args(["trace-report", trace.to_str().unwrap()])
        .output()
        .expect("chipmunkc runs");
    assert!(out.status.success(), "trace-report failed");
    let report = String::from_utf8_lossy(&out.stdout);
    for counter in ["bv.blast.gates", "bv.blast.clauses", "bv.blast.shared"] {
        let value = report
            .lines()
            .find_map(|l| l.trim().strip_prefix(counter))
            .and_then(|rest| rest.trim().parse::<u64>().ok());
        assert!(
            value.is_some_and(|v| v > 0),
            "report lists no positive `{counter}`:\n{report}"
        );
    }
    let _ = std::fs::remove_file(&prog);
    let _ = std::fs::remove_file(&trace);
}

/// An unopenable CHIPMUNK_TRACE path must degrade to disabled tracing
/// (one warning, successful compile), not crash. Regression test: the
/// env-init error path once recursed through `disable → flush → enabled`
/// until the stack overflowed.
#[test]
fn bad_trace_env_var_degrades_gracefully() {
    let prog = scratch("prog2.chip");
    std::fs::write(&prog, "pkt.x = pkt.x + 1;\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
        .env("CHIPMUNK_TRACE", "/nonexistent-dir/trace.jsonl")
        .args(["compile", prog.to_str().unwrap(), "--width", "6"])
        .output()
        .expect("chipmunkc runs");
    assert!(
        out.status.success(),
        "compile must survive a bad CHIPMUNK_TRACE: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot open CHIPMUNK_TRACE"),
        "expected a warning about the bad path:\n{stderr}"
    );
    let _ = std::fs::remove_file(&prog);
}
