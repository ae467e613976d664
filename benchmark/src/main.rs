//! `benchmark` — the repo benchmark defined by `BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!                                   one measured run; last line is the JSON result
//! benchmark suite [--reps N] [--seconds S] [--seed N] [--smoke]
//!                                   all six workloads, fresh child per repetition
//! benchmark trace [--seconds S] [--seed N] [--smoke]
//!                                   one traced run per workload: per-layer table + trace files
//! benchmark compare A.json B.json   apply the bounds to two result files
//! benchmark bless                   rewrite benchmark/expected/seed0.json
//! ```
//!
//! See `benchmark/README.md` for the metric and workload tables.

mod catalog;
mod compare;
mod expected;
mod probes;
mod run;
mod scenario;
#[cfg(test)]
mod selftest;
mod spans;
mod suite;
mod workloads;

use run::RunOpts;

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      benchmark suite [--reps <n>] [--seconds <s>] [--seed <n>] [--smoke]\n\
         \x20      benchmark trace [--seconds <s>] [--seed <n>] [--smoke]\n\
         \x20      benchmark compare <A.json> <B.json>\n\
         \x20      benchmark bless\n\
         workloads: {}",
        workloads::WORKLOADS.join(" ")
    );
    std::process::exit(2);
}

/// `--name value` pairs and bare `--smoke`, in any order.
struct Flags {
    pairs: Vec<(String, String)>,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut flags = Flags {
            pairs: Vec::new(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => flags.smoke = true,
                name if name.starts_with("--") => {
                    let Some(value) = it.next() else { usage() };
                    flags.pairs.push((name[2..].to_string(), value.clone()));
                }
                _ => usage(),
            }
        }
        flags
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let (_, v) = self.pairs.iter().find(|(k, _)| k == name)?;
        Some(v.parse().unwrap_or_else(|_| usage()))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("suite") => suite::suite(&Flags::parse(&args[1..])),
        Some("trace") => suite::trace(&Flags::parse(&args[1..])),
        Some("compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        Some("bless") if args.len() == 1 => suite::bless(),
        Some(flag) if flag.starts_with("--") => one_run(&Flags::parse(&args)),
        _ => usage(),
    };
    std::process::exit(code);
}

/// The driver's entry point: one run, the result as the last line.
fn one_run(flags: &Flags) -> i32 {
    let Some(workload) = flags.get::<String>("workload") else {
        usage()
    };
    let opts = RunOpts {
        workload,
        seed: flags.get("seed").unwrap_or(0),
        seconds: flags.get("seconds").unwrap_or(0.0),
        trace: flags.get::<u8>("trace").unwrap_or(0) != 0,
        smoke: flags.smoke,
    };
    match run::run(&opts) {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("{note}");
            }
            if opts.smoke {
                println!(
                    "note: --smoke sizes; these numbers are not comparable with full-size runs"
                );
            }
            println!(
                "{}: {} rounds, {} of {} operations failed",
                opts.workload, report.rounds, report.line.failed, report.line.attempted
            );
            println!(
                "{}",
                serde_json::to_string(&report.line).expect("result line serializes")
            );
            0
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            1
        }
    }
}
