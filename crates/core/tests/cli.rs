//! The `mgrid` binary as a process: behaviour that only shows at the
//! pipe boundary.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// `mgrid run … | head -1`: the reader takes one line and closes the
/// pipe. The run must end quietly — no panic text, not exit status 101.
#[test]
fn closed_stdout_pipe_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mgrid"))
        .args(["run", "alpha_cluster", "IS", "S"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mgrid");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    assert!(first.starts_with("running IS on"), "{first:?}");
    // Closing the read end makes mgrid's next write fail with EPIPE.
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for mgrid");
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// `wavetoy` needs a positive numeric edge: anything else is a usage
/// error before a simulation starts, not a silent 50^3 or empty grid.
#[test]
fn wavetoy_rejects_a_missing_non_numeric_or_zero_edge() {
    for edge in [None, Some("abc"), Some("0")] {
        let out = Command::new(env!("CARGO_BIN_EXE_mgrid"))
            .args(["run", "alpha_cluster", "wavetoy"])
            .args(edge)
            .output()
            .expect("run mgrid");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "edge {edge:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: mgrid"),
            "edge {edge:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "edge {edge:?} started a run");
    }
}
