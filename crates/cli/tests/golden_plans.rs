//! Golden-plan tests: `chipmunkc plan --explain` is a stable contract.
//!
//! The explain rendering is what operators read, what the docs quote, and
//! — via the embedded fingerprint — what the serve journal keys resumable
//! progress on. These tests diff the binary's output verbatim against
//! committed goldens in `tests/golden_plans/`; an intentional planner
//! change must update the goldens in the same commit, which makes plan
//! drift (new strategies, reordered steps, budget changes) reviewable
//! instead of silent.

use std::path::PathBuf;
use std::process::Command;

/// Run `chipmunkc plan <source> --explain <extra flags>` and return stdout.
fn explain(name: &str, source: &str, extra: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("chipmunk-golden-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("{name}.dom"));
    std::fs::write(&file, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
        .arg("plan")
        .arg(&file)
        .arg("--explain")
        .args(extra)
        .output()
        .expect("chipmunkc runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "plan --explain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_plans")
        .join(name)
}

/// Diff `actual` against the committed golden. Set
/// `CHIPMUNK_UPDATE_GOLDENS=1` to rewrite the goldens from the current
/// output (then review the diff like any other source change).
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("CHIPMUNK_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with CHIPMUNK_UPDATE_GOLDENS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "plan --explain drifted from {}; if intentional, regenerate with CHIPMUNK_UPDATE_GOLDENS=1 and commit the diff",
        path.display()
    );
}

const SAMPLING: &str = "state count;
if (count == 9) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
";

#[test]
fn default_plan_matches_golden() {
    assert_golden("sampling-default.txt", &explain("default", SAMPLING, &[]));
}

#[test]
fn portfolio_plan_matches_golden() {
    assert_golden(
        "sampling-portfolio.txt",
        &explain("portfolio", SAMPLING, &["--portfolio", "--max-stages", "2"]),
    );
}

#[test]
fn budgeted_plan_matches_golden() {
    assert_golden(
        "stateless-budget.txt",
        &explain(
            "budget",
            "pkt.x = pkt.a + pkt.b;\n",
            &["--budget-conflicts", "50000", "--max-stages", "2"],
        ),
    );
}

/// Flags are checked before any subcommand runs: the removed `--parallel`
/// and a typo of it are both rejected by name, rather than guessed
/// value-taking so that they swallow the `--width` after them.
#[test]
fn unknown_flags_are_rejected_by_name() {
    for flag in ["--parallel", "--paralel"] {
        let out = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
            .args(["compile", "never-read.dom", flag, "--width", "6"])
            .output()
            .expect("chipmunkc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
    }
}
