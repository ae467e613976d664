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

/// `--profile-out` streams the Perfetto export into the file and then
/// reports what the spans cost to keep; a write the file refuses is an
/// error exit after the tables, not a panic and not a silent success.
#[test]
fn profile_out_reports_the_span_table_and_a_failed_write() {
    let path = std::env::temp_dir().join(format!("mgrid-cli-prof-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_mgrid"))
        .args(["run", "alpha_cluster", "IS", "S", "--profile-out"])
        .arg(&path)
        .output()
        .expect("run mgrid");
    let written = std::fs::read_to_string(&path).expect("profile file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0));
    assert!(written.starts_with("{\"traceEvents\":[\n"), "{written:.40}");
    assert!(written.ends_with("\n],\"displayTimeUnit\":\"ms\"}\n"));
    // "profile: N spans, M flows written to P; span table K KB (B bytes/span)"
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("profile: "))
        .unwrap_or_else(|| panic!("no profile line in {stdout}"));
    let per_span: usize = line
        .rsplit_once('(')
        .and_then(|(_, tail)| tail.strip_suffix(" bytes/span)"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no bytes/span in {line:?}"));
    assert!((32..=40).contains(&per_span), "{line}");

    // /dev/full opens, then fails every write with ENOSPC.
    if cfg!(target_os = "linux") {
        let out = Command::new(env!("CARGO_BIN_EXE_mgrid"))
            .args([
                "run",
                "alpha_cluster",
                "IS",
                "S",
                "--profile-out",
                "/dev/full",
            ])
            .output()
            .expect("run mgrid");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(
            stderr.contains("cannot write profile to /dev/full"),
            "stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    }
}
