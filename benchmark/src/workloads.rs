//! The six workloads: which scenarios each one runs, and why.
//!
//! A scenario is one simulation: a grid configuration handed over as JSON
//! text, an application, a problem class and a mode — the same inputs
//! `mgrid run <config.json> <app> <class> [--baseline]` takes. The
//! generator here is the only place that sees `--seed`; the program sees
//! the generated inputs and nothing else.

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::desim::time::SimDuration;
use microgrid::faults::{FaultKind, FaultPlan};
use microgrid::{presets, GridConfig};

/// Workload names, in the order every table prints them.
pub const WORKLOADS: [&str; 6] = [
    "npb_lan",
    "net_starved",
    "wide_lu8",
    "lossy_wan",
    "observed_lu",
    "wide_setup",
];

/// Which side of a physical/MicroGrid comparison a scenario runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// `VirtualGrid::build_baseline`: direct hosts, identity clock.
    Physical,
    /// `VirtualGrid::build`: paced hosts, rate-scaled clock.
    MicroGrid,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Physical => "physical",
            Mode::MicroGrid => "microgrid",
        }
    }
}

/// What runs on the grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum App {
    /// An NPB kernel at the scenario's class.
    Npb(NpbBenchmark),
    /// `wide_setup`'s body: a few rounds of a short compute burst and an
    /// 8-byte allreduce, so the run is dominated by launch, not by work.
    Pulse,
}

/// Rounds of `compute_mops(PULSE_MOPS)` + allreduce in [`App::Pulse`].
pub const PULSE_ROUNDS: u32 = 10;
/// Compute burst per pulse round, in Mops.
pub const PULSE_MOPS: f64 = 5.0;

/// One simulation's inputs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name: `<app>.<class>.<config name>.<mode>[.<tag>]`. Smoke
    /// and full-size scenarios never share an id (class or host count
    /// differs), so one expected-values file serves both sizes.
    pub id: String,
    /// The grid configuration, as the JSON text the program parses.
    pub config_json: String,
    pub app: App,
    pub class: NpbClass,
    pub mode: Mode,
    /// Record spans and trace events during the run, then capture,
    /// profile, extract the critical path and export (what
    /// `mgrid run --trace-out --profile-out` does).
    pub observed: bool,
    /// Fidelity-pair key: a physical and a MicroGrid scenario with the
    /// same key are the two sides of one Fig 10-style comparison.
    pub pair: Option<String>,
}

fn scenario(
    mut config: GridConfig,
    seed: u64,
    app: App,
    class: NpbClass,
    mode: Mode,
    tag: &str,
) -> Scenario {
    config.seed ^= seed;
    let app_name = match app {
        App::Npb(b) => b.name(),
        App::Pulse => "PULSE",
    };
    let stem = format!("{app_name}.{}.{}", class.name(), config.name);
    let mut id = format!("{stem}.{}", mode.name());
    if !tag.is_empty() {
        id.push('.');
        id.push_str(tag);
    }
    Scenario {
        id,
        config_json: config.to_json(),
        app,
        class,
        mode,
        observed: tag == "observed",
        pair: None,
    }
}

/// Both sides of a fidelity pair: physical first, then MicroGrid.
fn pair(config: &GridConfig, seed: u64, app: App, class: NpbClass, tag: &str) -> [Scenario; 2] {
    [Mode::Physical, Mode::MicroGrid].map(|mode| {
        let mut s = scenario(config.clone(), seed, app, class, mode, tag);
        let key = s.id.replace(&format!(".{}", mode.name()), "");
        s.pair = Some(key);
        s
    })
}

/// The `lossy_wan` fault script: 50 per-mille loss on the long-haul link
/// from the start, and one 150 ms outage of it at 5 s.
fn lossy_plan() -> FaultPlan {
    let (a, b) = ("vbns-la".to_string(), "vbns-chi".to_string());
    FaultPlan::new()
        .at(
            SimDuration::ZERO,
            FaultKind::LinkLoss {
                a: a.clone(),
                b: b.clone(),
                per_mille: 50,
            },
        )
        .at(
            SimDuration::from_secs(5),
            FaultKind::LinkDown {
                a: a.clone(),
                b: b.clone(),
            },
        )
        .at(SimDuration::from_millis(5150), FaultKind::LinkUp { a, b })
}

/// Generate a workload's scenarios from the seed. `smoke` shrinks every
/// workload to class S and at most 64 hosts: quick, and not comparable
/// with full-size numbers.
pub fn scenarios(workload: &str, seed: u64, smoke: bool) -> Option<Vec<Scenario>> {
    use NpbBenchmark::*;
    let class = if smoke { NpbClass::S } else { NpbClass::A };
    let npb = |config: GridConfig, bench, mode, tag: &str| {
        scenario(config, seed, App::Npb(bench), class, mode, tag)
    };
    let npb_pair =
        |config: &GridConfig, bench, tag: &str| pair(config, seed, App::Npb(bench), class, tag);
    let mut out = Vec::new();
    match workload {
        // The paper's headline experiment (Fig 10): packet-bound bulk
        // traffic on a LAN; netsim's bulk path and the executor carry it.
        // (LU, Fig 10's fifth kernel, runs in three other workloads.)
        "npb_lan" => {
            let alpha = presets::alpha_cluster();
            for bench in [EP, BT, MG, IS] {
                out.extend(npb_pair(&alpha, bench, ""));
            }
        }
        // The Fig 12 shape: ranks wait on a 1 Mb/s, 50 ms network for
        // thousands of virtual seconds while every host's scheduler keeps
        // granting quanta; hostsim carries it.
        "net_starved" => {
            let base = presets::cpu_scaled_cluster(1.0);
            out.extend(npb_pair(&base, EP, ""));
            out.extend(npb_pair(&base, MG, ""));
            out.push(npb(
                presets::cpu_scaled_cluster(8.0),
                BT,
                Mode::MicroGrid,
                "",
            ));
        }
        // The paper's §5 scaling direction: LU's wavefront across 8 ranks
        // is hundreds of thousands of one-packet messages; middleware, MPI
        // point-to-point and netsim's per-message latency path carry it.
        "wide_lu8" => {
            let wide = presets::alpha_cluster_n(8);
            out.extend(npb_pair(&wide, MG, ""));
            out.push(npb(wide, LU, Mode::MicroGrid, ""));
        }
        // Loss recovery over a 7-hop routed WAN: drops, retransmit
        // rounds, RTO backoff and the fault injector.
        "lossy_wan" => {
            let healthy = presets::vbns_grid(155e6);
            let mut lossy = healthy.clone();
            lossy.faults = Some(lossy_plan());
            out.extend(npb_pair(&healthy, MG, ""));
            out.push(npb(lossy.clone(), MG, Mode::MicroGrid, "lossy"));
            out.push(npb(lossy, LU, Mode::MicroGrid, "lossy"));
        }
        // The observability layer's own cost: recording, capture,
        // profile, critical path and Perfetto export. The unobserved LU
        // run is the control `obs.record_overhead_ratio` divides by.
        "observed_lu" => {
            let alpha = presets::alpha_cluster();
            out.extend(npb_pair(&alpha, MG, "observed"));
            out.push(npb(alpha.clone(), LU, Mode::MicroGrid, ""));
            out.push(npb(alpha, LU, Mode::MicroGrid, "observed"));
        }
        // Set-up dominates: config load (hundreds of KB of JSON), GIS
        // publication, topology build, one route-cache source per host
        // and the MPI launch.
        "wide_setup" => {
            let hosts = if smoke { 64 } else { 768 };
            let wide = presets::alpha_cluster_n(hosts);
            out.extend(pair(&wide, seed, App::Pulse, class, ""));
        }
        _ => return None,
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_unique_ids_and_a_fidelity_pair() {
        for smoke in [true, false] {
            for w in WORKLOADS {
                if w == "wide_setup" && !smoke {
                    continue; // 768-host JSON: covered by the smoke size
                }
                let s = scenarios(w, 0, smoke).expect("known workload");
                let mut ids: Vec<&str> = s.iter().map(|x| x.id.as_str()).collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), s.len(), "{w}: duplicate scenario id");
                let pairs = s.iter().filter(|x| x.pair.is_some()).count();
                assert!(pairs >= 2 && pairs % 2 == 0, "{w}: no fidelity pair");
            }
        }
        assert!(scenarios("nope", 0, true).is_none());
    }

    #[test]
    fn seed_reaches_the_config_and_nothing_else() {
        let a = scenarios("npb_lan", 0, true).unwrap();
        let b = scenarios("npb_lan", 5, true).unwrap();
        assert_eq!(a[0].id, b[0].id);
        assert_ne!(a[0].config_json, b[0].config_json);
        let ca = GridConfig::from_json(&a[0].config_json).unwrap();
        let cb = GridConfig::from_json(&b[0].config_json).unwrap();
        assert_eq!(ca.seed ^ 5, cb.seed);
    }
}
