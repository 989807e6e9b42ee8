//! `chipmunkc compile --json` prints the serve daemon's result document:
//! one encoder, so the CLI and the wire cannot drift apart.

use std::process::Command;

use chipmunk_serve::protocol::decode_result;
use chipmunk_trace::json::Json;

#[test]
fn compile_json_is_the_daemons_result_document() {
    let dir = std::env::temp_dir().join(format!("chipmunkc-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("add.chip");
    std::fs::write(&file, "pkt.x = pkt.a + pkt.b;\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
        .arg("compile")
        .arg(&file)
        .args(["--width", "6", "--max-stages", "2", "--json"])
        .output()
        .expect("chipmunkc runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "compile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let doc = Json::parse(text.trim()).expect("stdout is one JSON document");
    let result = decode_result(&doc).expect("a result document");
    assert_eq!(result.stages, 1, "{doc}");
    let stats = doc.get("stats").expect("the document carries `stats`");
    assert!(
        stats.get("iterations").and_then(Json::as_u64).is_some(),
        "{doc}"
    );
}
