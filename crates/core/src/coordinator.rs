//! Global coordination: choosing the simulation rate (paper §2.3).
//!
//! "The simulation rate (SR) is defined for each resource type r as
//! `SR_r = spec(physical r) / spec(virtual r mapped to this physical
//! resource)`. … No resource should be allowed to work faster than this
//! rate … This global coordination mechanism for the rate of simulation
//! over all available resources ensures accurate performance analysis."
//!
//! For CPUs the bound is per *physical host*: the virtual hosts mapped to
//! it together need `rate * sum(virtual speeds)` of its capacity, so
//! `rate <= C_p / sum(V)`. The network simulator in this reproduction is
//! not itself resource-bound (it is simulated, not run on a real NIC), so
//! networks constrain the rate only through an optional explicit cap —
//! standing in for NSE's unpredictable compute demand, which the paper
//! lists as an open problem.

use mgrid_desim::FxHashMap;
use mgrid_netsim::transport::SEGMENT_WIRE_BYTES;

use crate::config::{ConfigError, GridConfig, RatePolicy, MAX_STEP};

/// Per-resource simulation-rate bounds, and the chosen global rate.
#[derive(Clone, Debug)]
pub struct RatePlan {
    /// `(physical host, feasible rate bound)` per CPU, ascending.
    pub cpu_bounds: Vec<(String, f64)>,
    /// The binding constraint.
    pub feasible: f64,
    /// The rate actually selected by the policy.
    pub chosen: f64,
}

/// Sort CPU bounds ascending by feasible rate, host name as tie-break.
/// `total_cmp` keeps the order total even if a bound is NaN (e.g. a
/// degraded-speed fraction dividing 0/0), so a degenerate bound sorts
/// last deterministically instead of panicking the coordinator.
pub(crate) fn sort_cpu_bounds(bounds: &mut [(String, f64)]) {
    bounds.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
}

/// Compute the feasible bound and select the rate per the config's policy.
pub fn plan_rate(config: &GridConfig) -> Result<RatePlan, ConfigError> {
    config.validate()?;
    // Per physical host: its speed and the summed speed of the virtual
    // hosts mapped to it.
    let mut cpus: FxHashMap<&str, (f64, f64)> = config
        .physical_hosts
        .iter()
        .map(|p| (p.name.as_str(), (p.speed_mops, 0.0)))
        .collect();
    for v in &config.virtual_hosts {
        cpus.get_mut(v.mapped_to.as_str())
            .expect("validated mapping")
            .1 += v.spec.speed_mops;
    }
    let mut cpu_bounds: Vec<(String, f64)> = config
        .physical_hosts
        .iter()
        .filter_map(|p| {
            let (speed, demand) = cpus[p.name.as_str()];
            (demand > 0.0).then(|| (p.name.clone(), speed / demand))
        })
        .collect();
    sort_cpu_bounds(&mut cpu_bounds);
    let feasible = cpu_bounds.first().map(|(_, r)| *r).unwrap_or(f64::INFINITY);
    let chosen = match config.rate {
        RatePolicy::Auto { safety } => {
            if feasible.is_finite() {
                feasible * safety
            } else {
                1.0
            }
        }
        RatePolicy::Fixed(r) => {
            if r > feasible {
                return Err(ConfigError::InfeasibleRate {
                    requested: format!("{r}"),
                    feasible: format!("{feasible}"),
                });
            }
            r
        }
    };
    // The fraction `PhysicalHost::map_virtual` will compute, by the same
    // expression: it asserts what a speed or rate near the bottom of the
    // f64 range underflows to.
    for v in &config.virtual_hosts {
        let fraction = v.spec.speed_mops * chosen / cpus[v.mapped_to.as_str()].0;
        if fraction <= 0.0 {
            return Err(ConfigError::ZeroCpuFraction {
                host: v.spec.name.clone(),
                // `{:?}` writes 5e-324 as that, not as 324 decimal places.
                speed_mops: format!("{:?}", v.spec.speed_mops),
                rate: format!("{chosen:?}"),
            });
        }
    }
    // Every link time the network derives from the config, as physical
    // seconds at the chosen rate (plain f64: a bandwidth near the bottom
    // of the range makes the serialisation time infinite, which must be
    // an error here, not a panic).
    let max_step = MAX_STEP.as_secs_f64();
    for l in &config.network.links {
        let delay = l.delay.as_secs_f64() / chosen;
        let segment = (SEGMENT_WIRE_BYTES * 8) as f64 / l.bandwidth_bps / chosen;
        let what = if delay > max_step {
            format!("delay {} ns", l.delay.as_nanos())
        } else if segment > max_step {
            format!("one {SEGMENT_WIRE_BYTES}-byte segment")
        } else {
            continue;
        };
        return Err(ConfigError::ClockOverflow(format!(
            "link {:?}-{:?}: {what} at rate {chosen:?}",
            l.a, l.b
        )));
    }
    Ok(RatePlan {
        cpu_bounds,
        feasible,
        chosen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkConfig, NetworkConfig, VirtualHostConfig};
    use mgrid_desim::time::SimDuration;
    use mgrid_hostsim::{PhysicalHostSpec, VirtualHostSpec};

    fn config(rate: RatePolicy) -> GridConfig {
        GridConfig {
            name: "c".into(),
            physical_hosts: vec![
                PhysicalHostSpec::new("p0", 500.0, 1 << 30),
                PhysicalHostSpec::new("p1", 1000.0, 1 << 30),
            ],
            virtual_hosts: vec![
                VirtualHostConfig {
                    spec: VirtualHostSpec::new("v0", 100.0, 1 << 27),
                    mapped_to: "p0".into(),
                },
                VirtualHostConfig {
                    spec: VirtualHostSpec::new("v1", 150.0, 1 << 27),
                    mapped_to: "p0".into(),
                },
                VirtualHostConfig {
                    spec: VirtualHostSpec::new("v2", 100.0, 1 << 27),
                    mapped_to: "p1".into(),
                },
            ],
            network: NetworkConfig::default(),
            rate,
            quantum: SimDuration::from_millis(10),
            seed: 0,
            faults: None,
            shards: None,
        }
    }

    #[test]
    fn feasible_is_min_over_hosts() {
        // p0: 500/(100+150) = 2.0 ; p1: 1000/100 = 10.0.
        let plan = plan_rate(&config(RatePolicy::Auto { safety: 1.0 })).unwrap();
        assert_eq!(plan.feasible, 2.0);
        assert_eq!(plan.chosen, 2.0);
        assert_eq!(plan.cpu_bounds[0].0, "p0");
    }

    #[test]
    fn safety_factor_scales_choice() {
        let plan = plan_rate(&config(RatePolicy::Auto { safety: 0.5 })).unwrap();
        assert_eq!(plan.chosen, 1.0);
    }

    #[test]
    fn fixed_rate_within_bound_accepted() {
        let plan = plan_rate(&config(RatePolicy::Fixed(0.04))).unwrap();
        assert_eq!(plan.chosen, 0.04);
    }

    #[test]
    fn fixed_rate_beyond_bound_rejected() {
        let err = plan_rate(&config(RatePolicy::Fixed(3.0))).unwrap_err();
        assert!(matches!(err, ConfigError::InfeasibleRate { .. }));
    }

    #[test]
    fn zero_speed_virtual_host_rejected() {
        // A 0-Mops virtual host would make its physical host's demand sum
        // zero and the bound `C_p / sum(demand)` infinite; plan_rate must
        // refuse instead of silently choosing an unbounded rate.
        let mut c = config(RatePolicy::Auto { safety: 1.0 });
        c.virtual_hosts = vec![VirtualHostConfig {
            spec: VirtualHostSpec::new("v0", 0.0, 1 << 27),
            mapped_to: "p0".into(),
        }];
        let err = plan_rate(&c).unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveSpeed("v0".into()));
    }

    #[test]
    fn cpu_fraction_that_underflows_to_zero_is_rejected() {
        // Both pass `validate`: the speed and the rate are positive and
        // finite. Their product over the physical speed is not.
        let mut tiny_speed = config(RatePolicy::Fixed(0.04));
        tiny_speed.virtual_hosts[2].spec.speed_mops = 5e-324;
        let tiny_rate = config(RatePolicy::Fixed(5e-324));
        for (c, host) in [(tiny_speed, "v2"), (tiny_rate, "v0")] {
            assert_eq!(c.validate(), Ok(()));
            match plan_rate(&c) {
                Err(ConfigError::ZeroCpuFraction { host: h, .. }) => assert_eq!(h, host),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn link_time_that_overflows_the_clock_is_rejected() {
        // Positive and finite, like the speeds above: a delay or a
        // segment's serialisation stretched past half the clock's range
        // by a tiny rate or a tiny bandwidth.
        let with_link = |rate, bandwidth_bps, delay| {
            let mut c = config(RatePolicy::Fixed(rate));
            c.network.links = vec![LinkConfig {
                a: "v0".into(),
                b: "v1".into(),
                bandwidth_bps,
                delay,
                queue_bytes: None,
            }];
            c
        };
        let century = SimDuration::from_secs(100 * 365 * 86_400);
        assert!(plan_rate(&with_link(0.9, 100e6, century)).is_ok());
        for (rate, bandwidth_bps, what) in [
            (1e-300, 100e6, "delay 50000 ns"),
            (0.9, 1e-300, "one 1518-byte segment"),
            (0.9, 5e-324, "one 1518-byte segment"),
        ] {
            let c = with_link(rate, bandwidth_bps, SimDuration::from_micros(50));
            assert_eq!(c.validate(), Ok(()));
            let what = format!("link \"v0\"-\"v1\": {what} at rate {rate:?}");
            assert_eq!(plan_rate(&c).unwrap_err(), ConfigError::ClockOverflow(what));
        }
    }

    #[test]
    fn nan_bound_sorts_without_panicking() {
        // plan_rate's validation rejects NaN speeds at the config layer,
        // but the sort must stay total on its own: a NaN bound (0/0 from
        // a fully degraded host) used to panic `partial_cmp(..).unwrap()`.
        let mut bounds = vec![
            ("pb".to_string(), f64::NAN),
            ("pa".to_string(), 2.0),
            ("pc".to_string(), f64::NAN),
            ("pd".to_string(), 0.5),
        ];
        sort_cpu_bounds(&mut bounds);
        assert_eq!(bounds[0].0, "pd");
        assert_eq!(bounds[1].0, "pa");
        // NaN sorts after every finite value under total_cmp, names break
        // the tie deterministically.
        assert_eq!(bounds[2].0, "pb");
        assert_eq!(bounds[3].0, "pc");
        assert!(bounds[2].1.is_nan() && bounds[3].1.is_nan());
    }

    #[test]
    fn nan_speed_physical_host_rejected() {
        let mut c = config(RatePolicy::Auto { safety: 1.0 });
        c.physical_hosts[0] = PhysicalHostSpec::new("p0", f64::NAN, 1 << 30);
        let err = plan_rate(&c).unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveSpeed("p0".into()));
    }

    #[test]
    fn unmapped_virtual_host_rejected_not_unconstrained() {
        // Mapping to a host the config never declares must be an error,
        // not a virtual host that silently contributes no CPU constraint.
        let mut c = config(RatePolicy::Auto { safety: 1.0 });
        c.virtual_hosts[1].mapped_to = "ghost".into();
        let err = plan_rate(&c).unwrap_err();
        assert_eq!(err, ConfigError::UnknownPhysicalHost("ghost".into()));
    }

    #[test]
    fn slower_virtual_cpu_allows_faster_than_realtime() {
        // A 10-Mops virtual host on a 500-Mops physical host could run 50x
        // real time (the paper's "can be run at a variety of actual
        // speeds" observation behind Fig 15).
        let mut c = config(RatePolicy::Auto { safety: 1.0 });
        c.virtual_hosts = vec![VirtualHostConfig {
            spec: VirtualHostSpec::new("slow", 10.0, 1 << 27),
            mapped_to: "p0".into(),
        }];
        let plan = plan_rate(&c).unwrap();
        assert_eq!(plan.feasible, 50.0);
    }
}
