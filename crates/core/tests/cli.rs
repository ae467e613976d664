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

/// A class other than S or A, a missing class and an argument `run` does
/// not know are usage errors too: not a silent class S, not a misspelt
/// `--baseline` that runs the MicroGrid instead, and not a ring capacity
/// `run` has no option for. A profile path that cannot be created fails
/// before the run, not after it.
#[test]
fn run_rejects_an_unknown_class_and_unknown_arguments() {
    for (args, refusal) in [
        (&["IS", "B"][..], "usage: mgrid"),
        (&["IS"], "usage: mgrid"),
        (&["IS", "S", "--basline"], "usage: mgrid"),
        (&["IS", "S", "A"], "usage: mgrid"),
        (&["wavetoy", "50", "--basline"], "usage: mgrid"),
        (
            &["IS", "S", "--trace-out", "t.jsonl", "--trace-cap", "5"],
            "usage: mgrid",
        ),
        (
            &["IS", "S", "--profile-out", "/nonexistent/p.json"],
            "cannot create profile file /nonexistent/p.json: ",
        ),
    ] {
        let (code, stdout, stderr) = mgrid(&[&["run", "alpha_cluster"], args].concat());
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(refusal), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} started a run: {stdout}");
    }
    // Either case of a known class still runs, on the side asked for.
    let (code, stdout, stderr) = mgrid(&["run", "alpha_cluster", "is", "s", "--baseline"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.starts_with("running IS on 'Alpha_Cluster' (physical baseline)\nIS class S:"),
        "{stdout}"
    );
}

/// `run` is a figure job's scenario, seed included: it prints fig10's
/// `EP (Alpha_Cluster)` MicroGrid cell and both sides of fig16's 50^3 row.
#[test]
fn run_reproduces_figure_cells() {
    for (args, line) in [
        (&["EP", "A"][..], "EP class A: 105.368 virtual s"),
        (&["wavetoy", "50"], "wavetoy 50^3: 1.646 virtual s"),
        (
            &["wavetoy", "50", "--baseline"],
            "wavetoy 50^3: 1.495 virtual s",
        ),
    ] {
        let (code, stdout, stderr) = mgrid(&[&["run", "alpha_cluster"], args].concat());
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        let result = stdout.lines().nth(1).unwrap_or_default();
        assert!(result.starts_with(line), "{args:?}: {stdout}");
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
    assert!((24..=28).contains(&per_span), "{line}");

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

fn mgrid(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mgrid"))
        .args(args)
        .output()
        .expect("run mgrid");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `mgrid run` takes the five benchmarks the paper validates with
/// (§3.3) and no others.
#[test]
fn run_accepts_exactly_the_papers_five_benchmarks() {
    let (code, _, stderr) = mgrid(&["run", "alpha_cluster", "FT", "S"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown application \"FT\""), "{stderr}");

    let (code, _, usage) = mgrid(&[]);
    assert_eq!(code, Some(2));
    let run_line = usage
        .lines()
        .find(|l| l.contains("run <config.json|preset> <"))
        .unwrap_or_else(|| panic!("no run line in {usage}"));
    assert!(run_line.contains(" <EP|BT|LU|MG|IS> <S|A> "), "{run_line}");
}

/// Configs whose numbers are outside what the layers below assert:
/// `validate` names the field and exits 1, `run` refuses with the same
/// message before a simulation starts. None of them may panic.
#[test]
fn hostile_configs_are_typed_errors_not_panics() {
    use microgrid::{presets, GridConfig, RatePolicy};
    type Patch = fn(&mut GridConfig);
    let cases: [(&str, Patch, &str); 12] = [
        (
            "safety",
            |c| c.rate = RatePolicy::Auto { safety: 2.0 },
            "rate: Auto safety factor 2 is not in (0, 1]",
        ),
        (
            "fixed-zero",
            |c| c.rate = RatePolicy::Fixed(0.0),
            "rate: Fixed rate 0 is not positive and finite",
        ),
        (
            "fixed-negative",
            |c| c.rate = RatePolicy::Fixed(-1.0),
            "rate: Fixed rate -1 is not positive and finite",
        ),
        (
            "bandwidth",
            |c| c.network.links[1].bandwidth_bps = 0.0,
            "link \"alpha1\"-\"switch\": bandwidth_bps 0 is not positive and finite",
        ),
        (
            "quantum",
            |c| c.quantum = microgrid::desim::SimDuration::ZERO,
            "quantum must be positive",
        ),
        // Below one full segment's wire size every bulk packet is dropped:
        // `run` used to retransmit forever.
        (
            "queue",
            |c| c.network.links[1].queue_bytes = Some(1517),
            "link \"alpha1\"-\"switch\": queue_bytes 1517 cannot hold one 1518-byte segment",
        ),
        // Below hostsim's per-process overhead no rank can start.
        (
            "memory",
            |c| c.virtual_hosts[1].spec.memory_bytes = 512,
            "host \"alpha1\": memory_bytes 512 cannot hold one process (1024 bytes)",
        ),
        // Positive and finite, but its CPU fraction underflows to zero.
        (
            "speed-underflow",
            |c| c.virtual_hosts[1].spec.speed_mops = 5e-324,
            "host \"alpha1\": speed_mops 5e-324 at rate 0.9 is a CPU fraction of 0",
        ),
        // Positive and finite, but a 50 us link delay at this rate is
        // past the simulation clock's range: `run` panicked in netsim.
        (
            "fixed-tiny",
            |c| c.rate = RatePolicy::Fixed(1e-300),
            "link \"alpha0\"-\"switch\": delay 50000 ns at rate 1e-300 overflows the \
             simulation clock (one step may last at most 9223372036854775807 ns)",
        ),
        // Non-zero, but the scheduler daemon's first sleep through it
        // overflowed the clock.
        (
            "quantum-max",
            |c| c.quantum = microgrid::desim::SimDuration::MAX,
            "quantum 18446744073709551615 ns overflows the simulation clock \
             (one step may last at most 9223372036854775807 ns)",
        ),
        // Both ends the same node: `run` panicked in netsim's builder.
        (
            "self-link",
            |c| c.network.links[0].b = c.network.links[0].a.clone(),
            "link \"alpha0\"-\"alpha0\": both ends are the same node",
        ),
        // Nothing to run on: `validate` said `ok` and `run` panicked
        // indexing the empty host list.
        (
            "no-hosts",
            |c| {
                c.virtual_hosts.clear();
                c.network.links.clear();
            },
            "no virtual host to run on",
        ),
    ];
    for (name, patch, message) in cases {
        let mut config = presets::alpha_cluster();
        patch(&mut config);
        let path =
            std::env::temp_dir().join(format!("mgrid-cli-{name}-{}.json", std::process::id()));
        std::fs::write(&path, config.to_json()).expect("write config");
        let file = path.to_str().expect("utf-8 temp path");
        let validate = mgrid(&["validate", file]);
        let run = mgrid(&["run", file, "IS", "S"]);
        let _ = std::fs::remove_file(&path);

        let (code, stdout, stderr) = validate;
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert_eq!(stderr, format!("invalid: {message}\n"), "{name}");
        assert!(stdout.is_empty(), "{name}: {stdout}");

        let (code, stdout, stderr) = run;
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert_eq!(stderr, format!("cannot build grid: {message}\n"), "{name}");
        assert!(!stdout.contains("verified"), "{name} ran: {stdout}");
    }
}

/// `mgrid presets` prints the names of `presets::NAMED`, and each is a
/// config `mgrid validate` accepts.
#[test]
fn every_listed_preset_validates() {
    let (code, names, _) = mgrid(&["presets"]);
    assert_eq!(code, Some(0));
    let listed: Vec<&str> = names.lines().collect();
    let table = microgrid::presets::NAMED.map(|(name, _)| name);
    assert_eq!(listed, table);
    for name in table {
        let (code, stdout, stderr) = mgrid(&["validate", name]);
        assert_eq!(code, Some(0), "{name}: {stderr}");
        assert!(stdout.starts_with("ok: "), "{name}: {stdout}");
    }
}
