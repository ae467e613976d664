//! # mgrid-faults — deterministic, scenario-scripted fault injection
//!
//! The healthy virtual Grid that `microgrid` assembles is only half of the
//! paper's what-if promise: real Grid experiments ask what happens when the
//! vBNS drops packets, a link goes dark, or a compute host dies mid-job.
//! This crate supplies the scenario layer for those questions.
//!
//! A [`FaultPlan`] is a serializable script of timed [`FaultEvent`]s —
//! link outages and recoveries, probabilistic per-link loss, and final
//! virtual-host crashes. At grid bring-up the plan is handed to
//! [`spawn_injector`], a simulation daemon that replays the script on the
//! simulated clock and hands each [`FaultKind`] to the one closure the
//! grid wired at build, which reconfigures the resource models (`netsim`,
//! `hostsim`); they never poll.
//!
//! ## Determinism
//!
//! Everything here is driven by the simulation clock and, for link loss,
//! by `desim::rng` streams forked from the grid seed inside the consuming
//! model. A plan therefore perturbs a run the same way every time: one
//! config + one seed = one fault timeline = one trace (see
//! `docs/FAULTS.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mgrid_desim::time::{SimDuration, SimTime};
use mgrid_desim::{obs, spawn_daemon, Event};
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
///
/// Link-level kinds name both endpoints of a configured duplex link; the
/// impairment applies to both directions. [`FaultKind::HostCrash`] names
/// a virtual host. Probabilities are expressed per-mille (`0..=1000`) so
/// plans serialize exactly and compare bitwise.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Take the duplex link `a`–`b` down: every packet offered to either
    /// direction is dropped.
    LinkDown {
        /// One endpoint (virtual host or router name).
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// Bring the duplex link `a`–`b` back up.
    LinkUp {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// Drop each packet offered to the link with probability
    /// `per_mille / 1000` (0 disables).
    LinkLoss {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
        /// Loss probability in thousandths.
        per_mille: u32,
    },
    /// Crash a virtual host for good: every process on it halts
    /// permanently and new CPU requests never complete.
    HostCrash {
        /// Virtual host name.
        host: String,
    },
}

impl FaultKind {
    /// Stable snake_case name of the kind, used in trace events and the
    /// `faults.<kind>` metric keys.
    pub const fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkUp { .. } => "link_up",
            FaultKind::LinkLoss { .. } => "link_loss",
            FaultKind::HostCrash { .. } => "host_crash",
        }
    }

    /// Human-readable target description for trace output.
    pub fn target(&self) -> String {
        match self {
            FaultKind::LinkDown { a, b }
            | FaultKind::LinkUp { a, b }
            | FaultKind::LinkLoss { a, b, .. } => format!("{a}-{b}"),
            FaultKind::HostCrash { host } => host.clone(),
        }
    }

    /// Check parameter ranges (probabilities in `0..=1000`). Returns a
    /// description of the first violation.
    pub fn check_params(&self) -> Result<(), String> {
        match self {
            FaultKind::LinkLoss { per_mille, .. } if *per_mille > 1000 => {
                Err(format!("{}: per_mille {per_mille} > 1000", self.name()))
            }
            _ => Ok(()),
        }
    }
}

/// One scheduled fault: `kind` fires at simulated time `at` (measured
/// from the start of the run).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Offset from simulation start.
    pub at: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete fault script for one run.
///
/// Events need not be pre-sorted; the injector orders them by `at`,
/// breaking ties by plan position, so the scenario file reads naturally.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add an event, builder-style.
    pub fn at(mut self, at: SimDuration, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check parameter ranges of every event (see
    /// [`FaultKind::check_params`]).
    pub fn check_params(&self) -> Result<(), String> {
        for ev in &self.events {
            ev.kind.check_params()?;
        }
        Ok(())
    }

    /// Events sorted by fire time (stable: plan order breaks ties).
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }
}

/// Spawn the injector daemon: replay `plan` on the simulation clock,
/// calling `apply` with each fault at its scheduled time.
///
/// Runs as a daemon so a plan stretching past the workload's end never
/// keeps the simulation alive. Each injection increments
/// `faults.injected` plus the per-kind `faults.<kind>` counter and emits
/// an [`Event::FaultInjected`] trace event.
pub fn spawn_injector(plan: &FaultPlan, apply: impl Fn(&FaultKind) + 'static) {
    let events = plan.sorted_events();
    if events.is_empty() {
        return;
    }
    spawn_daemon(async move {
        for ev in events {
            mgrid_desim::sleep_until(SimTime::ZERO + ev.at).await;
            obs::count("faults.injected", 1);
            obs::count(&format!("faults.{}", ev.kind.name()), 1);
            obs::emit(|| Event::FaultInjected {
                fault: ev.kind.name(),
                target: ev.kind.target().into(),
            });
            apply(&ev.kind);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrid_desim::{now, sleep, Simulation};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn down(a: &str, b: &str) -> FaultKind {
        FaultKind::LinkDown {
            a: a.into(),
            b: b.into(),
        }
    }

    #[test]
    fn plan_json_roundtrip() {
        let plan = FaultPlan::new()
            .at(SimDuration::from_secs(1), down("n0", "r0"))
            .at(
                SimDuration::from_millis(1500),
                FaultKind::LinkLoss {
                    a: "n0".into(),
                    b: "r0".into(),
                    per_mille: 50,
                },
            )
            .at(
                SimDuration::from_secs(2),
                FaultKind::HostCrash { host: "n1".into() },
            );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn params_validated() {
        assert!(FaultKind::LinkLoss {
            a: "a".into(),
            b: "b".into(),
            per_mille: 1001,
        }
        .check_params()
        .is_err());
        assert!(FaultKind::LinkLoss {
            a: "a".into(),
            b: "b".into(),
            per_mille: 1000,
        }
        .check_params()
        .is_ok());
    }

    #[test]
    fn injector_fires_in_time_order_with_stable_ties() {
        let plan = FaultPlan::new()
            .at(SimDuration::from_millis(20), down("late", "l"))
            .at(SimDuration::from_millis(10), down("first", "f"))
            .at(SimDuration::from_millis(10), down("second", "s"));
        let mut sim = Simulation::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = log.clone();
        sim.block_on(async move {
            spawn_injector(&plan, move |k| {
                sink.borrow_mut().push((now(), k.target()));
            });
            sleep(SimDuration::from_millis(50)).await;
        });
        let got = log.borrow().clone();
        let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
        assert_eq!(
            got,
            vec![
                (ms(10), "first-f".to_string()),
                (ms(10), "second-s".to_string()),
                (ms(20), "late-l".to_string()),
            ]
        );
    }

    #[test]
    fn injector_daemon_never_blocks_exit() {
        // A plan far in the future must not keep the simulation alive.
        let plan = FaultPlan::new().at(SimDuration::from_secs(3600), down("a", "b"));
        let mut sim = Simulation::new(1);
        let t = sim.block_on(async move {
            spawn_injector(&plan, |_| {});
            sleep(SimDuration::from_millis(1)).await;
            now()
        });
        assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(1));
    }

    #[test]
    fn injection_counts_into_metrics() {
        let plan = FaultPlan::new()
            .at(SimDuration::from_millis(1), down("a", "b"))
            .at(
                SimDuration::from_millis(2),
                FaultKind::HostCrash { host: "h".into() },
            );
        let mut sim = Simulation::new(1);
        sim.block_on(async move {
            spawn_injector(&plan, |_| {});
            sleep(SimDuration::from_millis(5)).await;
        });
        let m = sim.obs().metrics();
        assert_eq!(m.counter("faults.injected"), 2);
        assert_eq!(m.counter("faults.link_down"), 1);
        assert_eq!(m.counter("faults.host_crash"), 1);
    }
}
