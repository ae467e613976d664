//! The `repro` binary as a process.

use std::process::Command;

/// Stdout of `MGRID_FAST=1 repro fig8 fig9 fig17` at a thread budget, minus
/// blank lines and the lines that carry wall-clock times or the thread
/// count.
fn repro_stdout(threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig8", "fig9", "fig17"])
        .env("MGRID_FAST", "1")
        .env("MGRID_REPRO_THREADS", threads)
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|l| !(l.is_empty() || l.starts_with("(regenerating ") || l.ends_with("s wall)")))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The reorder-buffer property: fig9 (no simulation at all) finishes
/// long before fig8 on a second worker, and must still print after it;
/// fig17's metrics table is merged from scenarios run on the pool.
#[test]
fn output_is_byte_identical_at_one_and_three_threads() {
    let serial = repro_stdout("1");
    let fig8 = serial.find("== fig8").expect("fig8 table");
    let fig9 = serial.find("== fig9").expect("fig9 table");
    assert!(fig8 < fig9, "canonical order: {serial}");
    assert!(serial.contains("-- metrics --"), "fig17 carries metrics");
    assert_eq!(serial, repro_stdout("3"));
}

/// `scale` holds only virtual seconds and executor polls, so it is gated
/// like every figure: two runs of one build both match the tracked file.
#[test]
fn scale_check_passes_twice_in_a_row() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for run in 1..=2 {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--check", "scale"])
            .current_dir(root)
            .env_remove("MGRID_FAST")
            .output()
            .expect("run repro");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "run {run}: {stdout}");
        assert_eq!(stdout, "scale: matches results/scale.json\n", "run {run}");
    }
}
