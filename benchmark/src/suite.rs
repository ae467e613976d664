//! The commands people run: `suite` (every end-to-end metric on every
//! workload, one fresh child process per workload per repetition),
//! `trace` (one traced run per workload: the per-layer table and the
//! trace files) and `bless`.

use std::collections::BTreeMap;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::catalog::{self, manifest, Kind};
use crate::expected::{self, Expected};
use crate::run::{median, ResultLine};
use crate::scenario::run_scenario;
use crate::spans::Recorder;
use crate::workloads::{scenarios, WORKLOADS};
use crate::Flags;

/// Where a result file was measured.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Env {
    pub nproc: u64,
    pub rustc: String,
    pub commit: String,
}

/// One metric's values on one workload: one per repetition.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub ops_failed: u64,
    pub ops_total: u64,
    /// Every repetition checked its outputs and repeated its counters.
    pub correct: bool,
    pub metrics: BTreeMap<String, Series>,
}

/// What `suite` and `trace` write under `benchmark/out/` and `compare`
/// reads.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ResultFile {
    pub env: Env,
    /// Smoke sizes: not comparable with a full-size file.
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn env() -> Env {
    let root = expected::repo_root();
    Env {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        rustc: command_line("rustc", &["-V"]),
        commit: command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]),
    }
}

/// Run one workload once in a fresh child process and parse its result
/// line. The child's notes (failed operations) pass through on stderr.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child for {workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

impl ResultFile {
    /// An empty file for this invocation; a run measures for
    /// `BENCHMARK.json`'s `run_seconds` unless `--seconds` says otherwise.
    fn new(flags: &Flags) -> Result<ResultFile, String> {
        let seconds = match flags.get("seconds") {
            Some(s) => s,
            None => manifest::load()?.run_seconds as f64,
        };
        Ok(ResultFile {
            env: env(),
            smoke: flags.smoke,
            seed: flags.get("seed").unwrap_or(0),
            seconds,
            workloads: BTreeMap::new(),
        })
    }

    /// Fold one child's result into the file.
    fn add(&mut self, workload: &str, line: &ResultLine) {
        let w = self
            .workloads
            .entry(workload.to_string())
            .or_insert_with(|| WorkloadResult {
                correct: true,
                ..WorkloadResult::default()
            });
        w.ops_failed += line.failed;
        w.ops_total += line.attempted;
        w.correct &= line.correct;
        for (name, m) in &line.metrics {
            let s = w.metrics.entry(name.clone()).or_default();
            s.unit = m.unit.clone();
            s.values.push(m.value);
        }
    }

    fn all_correct(&self) -> bool {
        self.workloads
            .values()
            .all(|w| w.correct && w.ops_failed == 0)
    }

    fn write(&self, name: &str) -> Result<(), String> {
        let dir = expected::repo_root().join("benchmark/out");
        let path = dir.join(name);
        let text = serde_json::to_string_pretty(self).expect("result file serializes");
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, text + "\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    }

    fn print_header(&self, what: &str) {
        println!(
            "{what}: seed {}, {} s per run, {} cores, {}, commit {}",
            self.seed, self.seconds, self.env.nproc, self.env.rustc, self.env.commit
        );
        if self.smoke {
            println!("note: --smoke sizes; these numbers are not comparable with full-size runs");
        }
    }
}

fn fail(e: String) -> i32 {
    eprintln!("benchmark: {e}");
    1
}

/// Every end-to-end metric on every workload: `--reps` repetitions after
/// one discarded warm-up, workloads interleaved round-robin so drift of
/// the machine spreads over all of them.
pub fn suite(flags: &Flags) -> i32 {
    let reps: usize = flags.get("reps").unwrap_or(5);
    let mut file = match ResultFile::new(flags) {
        Ok(file) => file,
        Err(e) => return fail(e),
    };
    file.print_header("suite");
    for rep in 0..=reps {
        for w in WORKLOADS {
            let line = match child(w, file.seed, file.seconds, false, file.smoke) {
                Ok(line) => line,
                Err(e) => return fail(e),
            };
            if rep == 0 {
                continue; // warm-up: page cache, CPU governor
            }
            eprintln!(
                "rep {rep}/{reps} {w}: wall_s {:.3}",
                line.metrics["wall_s"].value
            );
            file.add(w, &line);
        }
    }

    println!(
        "\n{:<12} {:<18} {:>5} {:>12} {:>12} {:>12} {:>3}",
        "workload", "metric", "unit", "median", "min", "max", "n"
    );
    for w in WORKLOADS {
        let r = &file.workloads[w];
        for d in catalog::END_TO_END {
            let v = &r.metrics[d.name].values;
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{w:<12} {:<18} {:>5} {:>12.6} {min:>12.6} {max:>12.6} {:>3}",
                d.name,
                d.unit,
                median(v),
                v.len()
            );
        }
        println!(
            "{w:<12} ops_failed = {} of ops_total = {}{}",
            r.ops_failed,
            r.ops_total,
            if r.correct { "" } else { "  NOT CORRECT" }
        );
    }
    println!("n repetitions is too small for a tail percentile: median, min and max only.");
    if let Err(e) = file.write("results.json") {
        return fail(e);
    }
    i32::from(!file.all_correct())
}

/// One traced run per workload: the per-layer table, the overlapping
/// per-layer cost bounds, and `benchmark/out/trace-<workload>.json`.
pub fn trace(flags: &Flags) -> i32 {
    let mut file = match ResultFile::new(flags) {
        Ok(file) => file,
        Err(e) => return fail(e),
    };
    file.print_header("trace");
    for w in WORKLOADS {
        match child(w, file.seed, file.seconds, true, file.smoke) {
            Ok(line) => file.add(w, &line),
            Err(e) => return fail(e),
        }
    }
    let value = |w: &str, name: &str| file.workloads[w].metrics[name].values[0];

    print!("\n{:<36} {:>6}", "per-layer metric", "unit");
    for w in WORKLOADS {
        print!(" {w:>14}");
    }
    println!();
    for d in catalog::PER_LAYER.iter().filter(|d| d.kind != Kind::Probe) {
        print!("{:<36} {:>6}", d.name, d.unit);
        for w in WORKLOADS {
            print!(" {:>14.4}", value(w, d.name));
        }
        println!();
    }

    // A probe measures the same thing in every child: report it once.
    println!(
        "\n{:<36} {:>6} {:>14}   (median of the six traced runs)",
        "probe", "unit", "value"
    );
    let probe = |name: &str| median(&WORKLOADS.map(|w| value(w, name)));
    for d in catalog::PER_LAYER.iter().filter(|d| d.kind == Kind::Probe) {
        println!("{:<36} {:>6} {:>14.3}", d.name, d.unit, probe(d.name));
    }

    println!(
        "\ncount x probe cost, in seconds, beside the time in `run`: overlapping upper bounds \
         (every probe includes the executor polls it causes), to rank layers only"
    );
    println!(
        "{:<12} {:>9} {:>16} {:>16} {:>18} {:>14}",
        "workload",
        "wall_s",
        "hostsim.quanta",
        "netsim.packets",
        "middleware.sends",
        "mpi.collect."
    );
    for w in WORKLOADS {
        let product = |count: &str, probe_ns: &str| value(w, count) * probe(probe_ns) / 1e9;
        println!(
            "{w:<12} {:>9.3} {:>16.3} {:>16.3} {:>18.3} {:>14.3}",
            value(w, "desim.polls") * value(w, "desim.ns_per_poll") / 1e9,
            product("hostsim.quanta", "hostsim.quantum_probe_ns"),
            product("netsim.packets_tx", "netsim.bulk_probe_ns_per_packet"),
            product(
                "middleware.vsock_sends",
                "middleware.vsock_probe_ns_per_msg"
            ),
            product("mpi.collectives", "mpi.allreduce_probe_ns"),
        );
    }
    for w in WORKLOADS {
        let r = &file.workloads[w];
        println!(
            "{w:<12} ops_failed = {} of ops_total = {}",
            r.ops_failed, r.ops_total
        );
    }
    if let Err(e) = file.write("layers.json") {
        return fail(e);
    }
    i32::from(!file.all_correct())
}

/// Run every scenario of both sizes once at seed 0 and record what it
/// produced as the blessed values.
pub fn bless() -> i32 {
    let mut exp = Expected::default();
    let rec = Recorder::new();
    for smoke in [true, false] {
        for w in WORKLOADS {
            for s in scenarios(w, 0, smoke).expect("known workload") {
                let out = run_scenario(&s, &rec);
                if out.error.is_some() || !out.verified {
                    eprintln!("bless: {} did not verify: {:?}", out.id, out.error);
                    return 1;
                }
                println!(
                    "{:<44} {:>16} virtual s {:>8.3} s set-up {:>8.3} s wall",
                    out.id,
                    out.virtual_s_text(),
                    out.setup_s(),
                    out.wall_s()
                );
                exp.bless(&out);
            }
        }
    }
    let path = expected::expected_path();
    let text = serde_json::to_string_pretty(&exp).expect("expected values serialize");
    match std::fs::write(&path, text + "\n") {
        Ok(()) => {
            println!("wrote {}", path.display());
            0
        }
        Err(e) => fail(format!("cannot write {}: {e}", path.display())),
    }
}
