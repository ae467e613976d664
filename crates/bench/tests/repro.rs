//! The `repro` binary as a process.

use std::process::Command;

/// Stdout of `MGRID_FAST=1 repro all` at a thread budget, minus blank
/// lines and the lines that carry host seconds or the thread count.
fn repro_stdout(threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .env("MGRID_FAST", "1")
        .env("MGRID_REPRO_THREADS", threads)
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{out:?}");
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(
        summary.starts_with("repro: ") && summary.contains(&format!(" threads={threads}, ")),
        "the end-to-end line on stderr: {summary}"
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|l| {
            !(l.is_empty() || l.starts_with("(regenerating ") || l.ends_with("simulation seconds)"))
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The whole fast sweep as one job list: a figure's simulations interleave
/// with its neighbours' on three workers, fig5 and fig9 have none at all,
/// and every figure must still print in canonical order with the bytes of
/// the serial run — the metrics table merged from its simulations
/// included, which every figure that runs one carries.
#[test]
fn output_is_byte_identical_at_one_and_three_threads() {
    let serial = repro_stdout("1");
    let tables: Vec<&str> = serial.split("== ").skip(1).collect();
    let ids: Vec<&str> = tables
        .iter()
        .map(|t| t.split(' ').next().expect("figure id"))
        .collect();
    let canonical = [
        "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig14", "fig15",
        "fig16", "fig17", "scale",
    ];
    assert_eq!(ids, canonical, "canonical order: {serial}");
    for (id, table) in ids.iter().zip(&tables) {
        let simulates = !matches!(*id, "fig5" | "fig9");
        assert_eq!(table.contains("-- metrics --"), simulates, "{id}: {table}");
    }
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

/// A harness setting `repro` cannot read stops it before any figure runs,
/// naming the variable.
#[test]
fn misread_settings_exit_2() {
    for (var, value) in [("MGRID_REPRO_THREADS", "0"), ("MGRID_FAST", "true")] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("fig5")
            .env_remove("MGRID_FAST")
            .env_remove("MGRID_REPRO_THREADS")
            .env(var, value)
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {out:?}");
        assert!(out.stdout.is_empty(), "{var}={value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(&format!("repro: {var}=")), "{stderr}");
    }
}
