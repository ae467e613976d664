//! Harness self-tests at the `--smoke` size: every name `BENCHMARK.json`
//! promises is emitted, exact counters repeat, and the manifest and the
//! catalog say the same thing.

use std::collections::BTreeMap;

use serde::Deserialize;

use crate::catalog::{self, manifest, Kind};
use crate::run::{run, ResultLine, RunOpts};
use crate::workloads::WORKLOADS;

#[derive(Deserialize)]
struct Named {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct FullManifest {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

fn full_manifest() -> FullManifest {
    let text = std::fs::read_to_string(manifest::path()).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn smoke(workload: &str, trace: bool) -> ResultLine {
    let opts = RunOpts {
        workload: workload.to_string(),
        seed: 0,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    run(&opts).expect("known workload").line
}

#[test]
fn manifest_and_catalog_agree() {
    let m = full_manifest();
    assert_eq!(m.command, ["bash", "benchmark/run.sh"]);
    assert_eq!(m.paths, ["benchmark"]);
    assert!((1..=60).contains(&m.run_seconds));
    let names: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    for w in &m.workloads {
        assert!(name_ok(&w.name), "{}", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    for (listed, defs) in [
        (&m.end_to_end, &catalog::END_TO_END[..]),
        (&m.per_layer, catalog::PER_LAYER),
    ] {
        assert_eq!(listed.len(), defs.len());
        for (l, d) in listed.iter().zip(defs) {
            assert!(name_ok(&l.name), "{}", l.name);
            assert_eq!(
                (l.name.as_str(), l.unit.as_str(), l.better.as_str()),
                (d.name, d.unit, d.better)
            );
        }
    }
    // Every name is used once across the whole file.
    let mut all: Vec<&str> = names;
    all.extend(
        m.end_to_end
            .iter()
            .chain(&m.per_layer)
            .map(|n| n.name.as_str()),
    );
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "a name is used twice");
    // The bounds the compare tool reads are the contract's: at most 0.25,
    // set-up the largest.
    let bounds = manifest::load().expect("manifest loads").end_to_end;
    let setup = bounds
        .iter()
        .find(|b| b.name == "setup_s")
        .expect("setup_s is listed");
    assert!(bounds
        .iter()
        .all(|b| b.bound > 0.0 && b.bound <= setup.bound && setup.bound <= 0.25));
}

/// One pass over the six workloads, untraced and traced twice: all the
/// smoke-size assertions share these runs to keep the suite quick.
#[test]
fn smoke_runs_emit_every_metric_pass_every_check_and_repeat_exactly() {
    for w in WORKLOADS {
        let plain = smoke(w, false);
        assert!(
            plain.correct && plain.failed == 0 && plain.attempted >= 1,
            "{w}: {plain:?}"
        );
        let names: Vec<&str> = plain.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = catalog::END_TO_END.iter().map(|d| d.name).collect();
        want.sort_unstable();
        assert_eq!(names, want, "{w}");
        for (name, m) in &plain.metrics {
            assert!(m.value > 0.0, "{w} {name} must never be 0");
            assert_eq!(m.unit, catalog::lookup(name).unwrap().unit);
        }

        let first = smoke(w, true);
        let second = smoke(w, true);
        assert!(first.correct && first.failed == 0, "{w}: {first:?}");
        let mut want: Vec<&str> = catalog::PER_LAYER.iter().map(|d| d.name).collect();
        want.sort_unstable();
        let names: Vec<&str> = first.metrics.keys().map(String::as_str).collect();
        assert_eq!(names, want, "{w}");
        let exact = |line: &ResultLine| -> BTreeMap<String, u64> {
            line.metrics
                .iter()
                .filter(|(n, _)| catalog::lookup(n).unwrap().kind == Kind::Count)
                .map(|(n, m)| (n.clone(), m.value.to_bits()))
                .collect()
        };
        assert_eq!(
            exact(&first),
            exact(&second),
            "{w}: exact counters moved between runs"
        );
        assert!(first.metrics["desim.polls"].value > 0.0);
        assert!(first.metrics["apps.fidelity_err_pct"].value > 0.0);
        let trace = crate::expected::repo_root().join(format!("benchmark/out/trace-{w}.json"));
        let text = std::fs::read_to_string(trace).expect("traced run wrote its trace file");
        assert!(text.contains("\"name\":\"run\"") && text.contains("\"name\":\"core.build\""));
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let opts = RunOpts {
        workload: "nope".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: true,
    };
    assert!(run(&opts).is_err());
}
