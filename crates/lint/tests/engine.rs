//! Fixture-based engine tests: known-bad snippets must produce exactly
//! the expected rule codes at the expected lines; known-good snippets
//! must be clean; the binary must exit nonzero on findings.

use std::path::Path;

use mgrid_lint::{lint_source, lint_workspace, Config, Finding};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Lint a fixture as if it lived in a sim crate.
fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_source(name, "desim", &fixture(name), &Config::default())
}

fn codes_and_lines(name: &str) -> Vec<(String, u32)> {
    lint_fixture(name)
        .into_iter()
        .map(|f| (f.code.to_string(), f.line))
        .collect()
}

fn expect(name: &str, expected: &[(&str, u32)]) {
    let got = codes_and_lines(name);
    let want: Vec<(String, u32)> = expected.iter().map(|(c, l)| (c.to_string(), *l)).collect();
    assert_eq!(got, want, "unexpected findings for {name}");
}

#[test]
fn wall_clock_fixture_exact_codes_and_lines() {
    expect(
        "bad_wall_clock.rs",
        &[("MG001", 2), ("MG001", 3), ("MG001", 6), ("MG001", 7)],
    );
}

#[test]
fn hash_container_fixture_exact_codes_and_lines() {
    expect(
        "bad_hash_containers.rs",
        &[
            ("MG002", 2),
            ("MG002", 5),
            ("MG002", 6),
            ("MG002", 9),
            ("MG002", 10),
        ],
    );
}

#[test]
fn randomness_fixture_exact_codes_and_lines() {
    expect(
        "bad_randomness.rs",
        &[("MG003", 4), ("MG003", 5), ("MG003", 6)],
    );
}

#[test]
fn unsafe_fixture_exact_codes_and_lines() {
    expect("bad_unsafe.rs", &[("MG004", 5), ("MG004", 8)]);
}

#[test]
fn thread_fixture_exact_codes_and_lines() {
    expect("bad_thread.rs", &[("MG005", 2), ("MG005", 5), ("MG005", 6)]);
}

#[test]
fn alias_fixture_flags_import_and_every_use() {
    // The v1 scanner matched the literal token `HashMap`, so
    // `use std::collections::HashMap as AliasMap` hid the container from
    // MG002 at every use site. The use-resolution table closes that
    // blindspot: the import line AND both `AliasMap` uses are findings.
    expect(
        "bad_alias_hash.rs",
        &[("MG002", 2), ("MG002", 4), ("MG002", 5)],
    );
    // Aliasing a deterministic-hasher container stays clean.
    expect("good_alias_fx.rs", &[]);
}

#[test]
fn atomics_fixture_exact_codes_and_lines() {
    // The import, both fields, then every op: the Relaxed publish, the
    // unpaired Acquire and the invalid load-with-Release the pairing
    // audit used to flag, and the annotated pair and SeqCst it let by.
    let lines = [4, 7, 8, 13, 16, 19, 24, 27];
    let want: Vec<_> = lines.iter().map(|&l| ("MG006", l)).collect();
    expect("bad_atomics.rs", &want);
    expect("good_atomics.rs", &[]);
}

#[test]
fn lone_atomic_is_a_finding_in_a_sim_crate_only() {
    let src = "static SEQ: AtomicU64 = AtomicU64::new(0);\n";
    let codes = |path: &str, krate: &str| -> Vec<(&str, u32)> {
        lint_source(path, krate, src, &Config::default())
            .iter()
            .map(|f| (f.code, f.line))
            .collect()
    };
    assert_eq!(codes("crates/desim/src/seq.rs", "desim"), [("MG006", 1)]);
    assert_eq!(codes("crates/bench/src/seq.rs", "bench"), []);
}

#[test]
fn hash_iter_fixture_exact_codes_and_lines() {
    expect("bad_hash_iter.rs", &[("MG007", 11), ("MG007", 17)]);
    expect("good_hash_iter.rs", &[]);
}

#[test]
fn float_time_fixture_exact_codes_and_lines() {
    // Line 13 compares two `as_secs_f64` reads, so it fires twice.
    expect(
        "bad_float_time.rs",
        &[("MG008", 5), ("MG008", 9), ("MG008", 13), ("MG008", 13)],
    );
    expect("good_float_time.rs", &[]);
}

#[test]
fn growth_fixture_exact_codes_and_lines() {
    expect("bad_growth.rs", &[("MG009", 9)]);
    expect("good_growth.rs", &[]);
}

#[test]
fn clean_fixture_has_no_findings() {
    expect("good_clean.rs", &[]);
}

#[test]
fn reasoned_suppressions_silence_findings() {
    expect("good_suppressed.rs", &[]);
}

#[test]
fn suppression_hygiene_fixture() {
    // Line 3's reasonless suppression masks line 4 but earns MG000; line
    // 5 is outside its range so the MG002 stands; line 8 is malformed.
    expect(
        "bad_suppression.rs",
        &[("MG000", 3), ("MG002", 5), ("MG000", 8)],
    );
}

#[test]
fn findings_in_non_sim_crates_are_limited_to_unsafe_rules() {
    let src = fixture("bad_wall_clock.rs");
    let f = lint_source("bad_wall_clock.rs", "bench", &src, &Config::default());
    assert!(f.is_empty(), "bench crate must not get MG001: {f:?}");
}

#[test]
fn workspace_scan_aggregates_fixtures_deterministically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut config = Config::default();
    config.exclude.clear();
    config.sim_crates = vec!["workspace".to_string()];
    let a = lint_workspace(&root, &config).unwrap();
    let b = lint_workspace(&root, &config).unwrap();
    assert_eq!(a.findings, b.findings, "scan must be deterministic");
    assert_eq!(a.files_scanned, 18);
    // 4 wall-clock + 5 hash + 3 rand + 2 unsafe + 3 thread + 3 hygiene
    // + 3 alias + 8 atomics + 2 hash-iter + 4 float-time + 1 growth.
    assert_eq!(a.findings.len(), 38);
    // Ordered by path: stable report output.
    let paths: Vec<&str> = a.findings.iter().map(|f| f.path.as_str()).collect();
    let mut sorted = paths.clone();
    sorted.sort();
    assert_eq!(paths, sorted);
}

#[test]
fn baseline_round_trip_suppresses_old_findings_only() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = std::env::temp_dir().join("mgrid-lint-test-baseline");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixtures.join("bad_growth.rs"), dir.join("bad_growth.rs")).unwrap();
    let cfg = dir.join("config.toml");
    std::fs::write(
        &cfg,
        "[lint]\nsim-crates = [\"workspace\"]\nexclude = []\nbaseline = \"accepted.txt\"\n",
    )
    .unwrap();
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_mgrid-lint"))
            .args(["--root"])
            .arg(&dir)
            .args(["--config"])
            .arg(&cfg)
            .args(args)
            .output()
            .expect("run mgrid-lint")
    };

    // Without a baseline file the finding fails the run; --write-baseline
    // accepts the current state and the next run is green.
    assert_eq!(run(&[]).status.code(), Some(1));
    assert_eq!(run(&["--write-baseline"]).status.code(), Some(0));
    let accepted = std::fs::read_to_string(dir.join("accepted.txt")).unwrap();
    assert!(accepted.contains("MG009 bad_growth.rs 1"), "{accepted}");
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(0), "baselined run must be green");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(1 baselined)"), "{stdout}");

    // New findings are NOT absorbed: a fresh bad file still fails, and
    // only its own findings are reported.
    std::fs::copy(fixtures.join("bad_atomics.rs"), dir.join("bad_atomics.rs")).unwrap();
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(1), "new findings must still fail");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("MG006"), "{stdout}");
    assert!(
        !stdout.contains("MG009"),
        "old finding stays baselined: {stdout}"
    );

    // --no-baseline surfaces everything again.
    let stdout = String::from_utf8(run(&["--no-baseline"]).stdout).unwrap();
    assert!(stdout.contains("MG009"), "{stdout}");

    // Stale entries are called out once the debt is paid off.
    std::fs::remove_file(dir.join("bad_growth.rs")).unwrap();
    std::fs::remove_file(dir.join("bad_atomics.rs")).unwrap();
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("stale baseline entry"), "{stderr}");
}

#[test]
fn binary_exits_nonzero_on_bad_fixtures_and_zero_when_clean() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let cfg = std::env::temp_dir().join("mgrid-lint-test-config.toml");
    std::fs::write(&cfg, "[lint]\nsim-crates = [\"workspace\"]\nexclude = []\n").unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mgrid-lint"))
        .args(["--root"])
        .arg(&fixtures)
        .args(["--config"])
        .arg(&cfg)
        .args(["--format", "json"])
        .output()
        .expect("run mgrid-lint");
    assert_eq!(out.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"code\":\"MG001\""),
        "json output: {stdout}"
    );
    assert!(stdout.contains("\"total\":38"), "json output: {stdout}");

    // A scan restricted to the known-good fixtures exits 0.
    let clean_dir = std::env::temp_dir().join("mgrid-lint-test-clean");
    let _ = std::fs::remove_dir_all(&clean_dir);
    std::fs::create_dir_all(&clean_dir).unwrap();
    for good in ["good_clean.rs", "good_suppressed.rs"] {
        std::fs::copy(fixtures.join(good), clean_dir.join(good)).unwrap();
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mgrid-lint"))
        .args(["--root"])
        .arg(&clean_dir)
        .args(["--config"])
        .arg(&cfg)
        .args(["--format", "human"])
        .output()
        .expect("run mgrid-lint");
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0 findings in 2 files scanned"), "{stdout}");
}
