//! `perf` against the real `copernicus-bench` binary: each measured child
//! is the same executable re-run with the command as its first argument,
//! and the harness leaves nothing in the working directory unless asked.

use serde::Value;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_copernicus-bench");

#[test]
fn perf_records_a_trajectory_point_and_writes_no_evidence_file_by_default() {
    let dir = std::env::temp_dir().join(format!("copernicus-perf-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trajectory = dir.join("t.json");

    let out = Command::new(BIN)
        .current_dir(&dir)
        .args(["perf", "--cmd", "table1", "--iters", "1", "--warmup", "0"])
        .arg("--trajectory")
        .arg(&trajectory)
        .args(["--record", "smoke"])
        .output()
        .expect("spawn copernicus-bench perf");
    assert!(
        out.status.success(),
        "perf exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trajectory).expect("trajectory written");
    let doc = serde::json::parse(&text).expect("trajectory is JSON");
    let points = doc.get("points").and_then(Value::as_seq).expect("points");
    assert_eq!(points.len(), 1, "{text}");
    assert_eq!(
        points[0].get("cmd").and_then(Value::as_str),
        Some("table1"),
        "{text}"
    );
    assert!(
        !dir.join("BENCH_hotpath.json").exists(),
        "perf wrote an evidence file without --out"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
