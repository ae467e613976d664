//! Virtual Grid configuration.
//!
//! A [`GridConfig`] is the complete, serializable description of one
//! virtual Grid experiment: the physical (emulation) hosts, the virtual
//! hosts and their mapping, the virtual network topology, and the
//! simulation-rate policy. It corresponds to the paper's "network
//! configuration files" plus the GIS virtual-resource records that the
//! MicroGrid reads at startup (§2.4.2, Fig 3).

use mgrid_desim::time::SimDuration;
use mgrid_desim::FxHashSet;
use mgrid_faults::FaultPlan;
use mgrid_hostsim::memory::PROCESS_OVERHEAD;
use mgrid_hostsim::{PhysicalHostSpec, VirtualHostSpec};
use mgrid_netsim::transport::SEGMENT_WIRE_BYTES;
use serde::{Deserialize, Serialize};

/// How the global simulation rate is chosen (paper §2.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum RatePolicy {
    /// The maximum feasible rate times a safety factor in `(0, 1]`.
    Auto {
        /// Fraction of the feasible bound actually used.
        safety: f64,
    },
    /// A fixed rate (must not exceed the feasible bound).
    Fixed(f64),
}

impl Default for RatePolicy {
    fn default() -> Self {
        RatePolicy::Auto { safety: 0.95 }
    }
}

/// One virtual host and its mapping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VirtualHostConfig {
    /// The host's virtual specification.
    pub spec: VirtualHostSpec,
    /// Name of the physical host carrying it.
    pub mapped_to: String,
}

/// A duplex link between two named nodes (virtual hosts or routers).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkConfig {
    /// One end (virtual host or router name).
    pub a: String,
    /// The other end.
    pub b: String,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// FIFO queue capacity in bytes (`None` = default 512 KB).
    pub queue_bytes: Option<u64>,
}

/// The virtual network: routers plus links among named nodes.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Router names (virtual hosts are nodes implicitly).
    pub routers: Vec<String>,
    /// Duplex links.
    pub links: Vec<LinkConfig>,
}

/// A complete virtual Grid description.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridConfig {
    /// Configuration name (the GIS `Configuration_Name` attribute).
    pub name: String,
    /// Emulation-cluster hosts.
    pub physical_hosts: Vec<PhysicalHostSpec>,
    /// Virtual hosts and their mappings.
    pub virtual_hosts: Vec<VirtualHostConfig>,
    /// The virtual network.
    pub network: NetworkConfig,
    /// Simulation-rate policy.
    pub rate: RatePolicy,
    /// MicroGrid scheduler quantum (paper default 10 ms; Fig 11 sweeps it).
    pub quantum: SimDuration,
    /// Seed for every stochastic model component.
    pub seed: u64,
    /// Scripted fault scenario injected while the grid runs (`None` = no
    /// faults). Ignored on baseline grids: the physical-grid condition has
    /// no fault injector to compare against.
    pub faults: Option<FaultPlan>,
    /// Inert, pinned by the benchmark: parsed and serialized, never read.
    /// `core.config_bytes` in `benchmark/expected/seed0.json` counts the
    /// `"shards": null` this serializes to, and PRs may not edit
    /// `benchmark/`.
    pub shards: Option<usize>,
}

/// Configuration validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A virtual host maps to an unknown physical host.
    UnknownPhysicalHost(String),
    /// A link endpoint names no virtual host or router.
    UnknownNode(String),
    /// Duplicate name.
    DuplicateName(String),
    /// A fixed rate exceeds the feasible bound.
    InfeasibleRate {
        /// Requested rate.
        requested: String,
        /// Feasible bound.
        feasible: String,
    },
    /// A host (physical or virtual) declares a CPU speed that is not
    /// positive and finite, which would make the coordinator's
    /// `C_p / sum(demand)` bound meaningless (zero demand divides to
    /// infinity, infinite demand to a zero rate).
    NonPositiveSpeed(String),
    /// A fault-plan event is malformed: bad parameters or a reference to
    /// a name the grid does not define.
    InvalidFault(String),
    /// An `Auto` rate policy whose safety factor is outside `(0, 1]` (NaN
    /// included).
    SafetyOutOfRange(String),
    /// A `Fixed` rate that is not positive and finite: the virtual clock
    /// cannot run at it.
    NonPositiveRate(String),
    /// A link whose bandwidth is not positive and finite: a packet's
    /// serialisation time on it would be infinite or negative.
    NonPositiveBandwidth {
        /// One end of the link.
        a: String,
        /// The other end.
        b: String,
        /// The declared `bandwidth_bps`.
        bandwidth_bps: String,
    },
    /// A zero scheduler quantum: every grant would last only its own
    /// overhead.
    ZeroQuantum,
    /// A duration the run derives from the config — the quantum, or a
    /// link's delay or one-segment serialisation in physical time at the
    /// chosen rate — longer than one step may last (half the simulation
    /// clock's range), so the clock overflows on it. Holds which one.
    ClockOverflow(String),
    /// A link queue that cannot hold one full data segment: every bulk
    /// packet is dropped on arrival and the transfer retransmits forever.
    QueueBelowSegment {
        /// One end of the link.
        a: String,
        /// The other end.
        b: String,
        /// The declared `queue_bytes`.
        queue_bytes: u64,
        /// Wire size of one full segment (MTU plus header).
        segment_bytes: u64,
    },
    /// A virtual host whose memory cannot hold the bookkeeping of a single
    /// process, so no rank can ever start on it.
    MemoryBelowProcess {
        /// The virtual host.
        host: String,
        /// The declared `memory_bytes`.
        memory_bytes: u64,
    },
    /// A virtual host whose CPU fraction `speed * rate / physical speed`
    /// underflows to zero at the chosen rate: the scheduler would have
    /// nothing to grant it.
    ZeroCpuFraction {
        /// The virtual host.
        host: String,
        /// Its declared `speed_mops`.
        speed_mops: String,
        /// The chosen simulation rate.
        rate: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownPhysicalHost(h) => write!(f, "unknown physical host {h:?}"),
            ConfigError::UnknownNode(n) => write!(f, "unknown network node {n:?}"),
            ConfigError::DuplicateName(n) => write!(f, "duplicate name {n:?}"),
            ConfigError::InfeasibleRate {
                requested,
                feasible,
            } => write!(f, "rate {requested} exceeds feasible bound {feasible}"),
            ConfigError::NonPositiveSpeed(h) => {
                write!(f, "host {h:?}: speed_mops is not positive and finite")
            }
            ConfigError::InvalidFault(why) => write!(f, "invalid fault plan: {why}"),
            ConfigError::SafetyOutOfRange(safety) => {
                write!(f, "rate: Auto safety factor {safety} is not in (0, 1]")
            }
            ConfigError::NonPositiveRate(rate) => {
                write!(f, "rate: Fixed rate {rate} is not positive and finite")
            }
            ConfigError::NonPositiveBandwidth {
                a,
                b,
                bandwidth_bps,
            } => write!(
                f,
                "link {a:?}-{b:?}: bandwidth_bps {bandwidth_bps} is not positive and finite"
            ),
            ConfigError::ZeroQuantum => write!(f, "quantum must be positive"),
            ConfigError::ClockOverflow(what) => write!(
                f,
                "{what} overflows the simulation clock (one step may last at most {} ns)",
                MAX_STEP.as_nanos()
            ),
            ConfigError::QueueBelowSegment {
                a,
                b,
                queue_bytes,
                segment_bytes,
            } => write!(
                f,
                "link {a:?}-{b:?}: queue_bytes {queue_bytes} cannot hold one \
                 {segment_bytes}-byte segment"
            ),
            ConfigError::MemoryBelowProcess { host, memory_bytes } => write!(
                f,
                "host {host:?}: memory_bytes {memory_bytes} cannot hold one process \
                 ({PROCESS_OVERHEAD} bytes)"
            ),
            ConfigError::ZeroCpuFraction {
                host,
                speed_mops,
                rate,
            } => write!(
                f,
                "host {host:?}: speed_mops {speed_mops} at rate {rate} is a CPU fraction of 0"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The longest physical step a duration the run derives from the config
/// may take: half the simulation clock's range, so that any instant in
/// its first half (292 years) can take one more such step without
/// overflowing it.
pub(crate) const MAX_STEP: SimDuration = SimDuration::from_nanos(u64::MAX / 2);

/// The domain of every rate, speed and bandwidth: NaN, zero, negatives
/// and the infinity the JSON reader makes of `1e999` are all outside it.
fn positive_finite(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

impl GridConfig {
    /// Check referential integrity (names resolve, no duplicates), every
    /// numeric precondition the layers below assert or hang on (speeds,
    /// link bandwidths, rate policy and quantum in their domains, the
    /// quantum short enough for the clock; a link
    /// queue that holds a segment, host memory that holds a process) and,
    /// when a fault plan is present, that every fault has sound parameters
    /// and targets a name the grid defines. What depends on the chosen
    /// rate is [`crate::plan_rate`]'s to check.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.rate {
            RatePolicy::Auto { safety } if !(safety > 0.0 && safety <= 1.0) => {
                return Err(ConfigError::SafetyOutOfRange(safety.to_string()));
            }
            RatePolicy::Fixed(rate) if !positive_finite(rate) => {
                return Err(ConfigError::NonPositiveRate(rate.to_string()));
            }
            _ => {}
        }
        if self.quantum.is_zero() {
            return Err(ConfigError::ZeroQuantum);
        }
        if self.quantum > MAX_STEP {
            let quantum = format!("quantum {} ns", self.quantum.as_nanos());
            return Err(ConfigError::ClockOverflow(quantum));
        }
        // Every name lives in exactly one of these two sets, so a name is
        // a duplicate when either already holds it.
        let mut physical = FxHashSet::default();
        for p in &self.physical_hosts {
            if !physical.insert(p.name.as_str()) {
                return Err(ConfigError::DuplicateName(p.name.clone()));
            }
            if !positive_finite(p.speed_mops) {
                return Err(ConfigError::NonPositiveSpeed(p.name.clone()));
            }
        }
        let mut nodes = FxHashSet::default();
        for v in &self.virtual_hosts {
            if physical.contains(v.spec.name.as_str()) || !nodes.insert(v.spec.name.as_str()) {
                return Err(ConfigError::DuplicateName(v.spec.name.clone()));
            }
            if !physical.contains(v.mapped_to.as_str()) {
                return Err(ConfigError::UnknownPhysicalHost(v.mapped_to.clone()));
            }
            if !positive_finite(v.spec.speed_mops) {
                return Err(ConfigError::NonPositiveSpeed(v.spec.name.clone()));
            }
            if v.spec.memory_bytes < PROCESS_OVERHEAD {
                return Err(ConfigError::MemoryBelowProcess {
                    host: v.spec.name.clone(),
                    memory_bytes: v.spec.memory_bytes,
                });
            }
        }
        for r in &self.network.routers {
            if physical.contains(r.as_str()) || !nodes.insert(r.as_str()) {
                return Err(ConfigError::DuplicateName(r.clone()));
            }
        }
        for l in &self.network.links {
            for end in [&l.a, &l.b] {
                if !nodes.contains(end.as_str()) {
                    return Err(ConfigError::UnknownNode(end.clone()));
                }
            }
            if !positive_finite(l.bandwidth_bps) {
                return Err(ConfigError::NonPositiveBandwidth {
                    a: l.a.clone(),
                    b: l.b.clone(),
                    bandwidth_bps: l.bandwidth_bps.to_string(),
                });
            }
            if let Some(queue_bytes) = l.queue_bytes.filter(|q| *q < SEGMENT_WIRE_BYTES) {
                return Err(ConfigError::QueueBelowSegment {
                    a: l.a.clone(),
                    b: l.b.clone(),
                    queue_bytes,
                    segment_bytes: SEGMENT_WIRE_BYTES,
                });
            }
        }
        if let Some(plan) = &self.faults {
            plan.check_params().map_err(ConfigError::InvalidFault)?;
            let vhosts: FxHashSet<&str> = self
                .virtual_hosts
                .iter()
                .map(|v| v.spec.name.as_str())
                .collect();
            for ev in &plan.events {
                for name in ev.kind.node_refs() {
                    let known = if ev.kind.is_host_fault() {
                        vhosts.contains(name)
                    } else {
                        nodes.contains(name)
                    };
                    if !known {
                        return Err(ConfigError::InvalidFault(format!(
                            "{} targets unknown node {name:?}",
                            ev.kind.name()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Names of all virtual hosts, in configuration order.
    pub fn virtual_host_names(&self) -> Vec<String> {
        self.virtual_hosts
            .iter()
            .map(|v| v.spec.name.clone())
            .collect()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GridConfig {
        GridConfig {
            name: "Test_Configuration".into(),
            physical_hosts: vec![PhysicalHostSpec::new("phys0", 533.0, 1 << 30)],
            virtual_hosts: vec![VirtualHostConfig {
                spec: VirtualHostSpec::new("vm0", 100.0, 1 << 27),
                mapped_to: "phys0".into(),
            }],
            network: NetworkConfig {
                routers: vec!["r0".into()],
                links: vec![LinkConfig {
                    a: "vm0".into(),
                    b: "r0".into(),
                    bandwidth_bps: 100e6,
                    delay: SimDuration::from_micros(50),
                    queue_bytes: None,
                }],
            },
            rate: RatePolicy::default(),
            quantum: SimDuration::from_millis(10),
            seed: 1,
            faults: None,
            shards: None,
        }
    }

    #[test]
    fn valid_config_passes() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn unknown_mapping_rejected() {
        let mut c = sample();
        c.virtual_hosts[0].mapped_to = "ghost".into();
        assert!(matches!(
            c.validate(),
            Err(ConfigError::UnknownPhysicalHost(_))
        ));
    }

    #[test]
    fn unknown_link_endpoint_rejected() {
        let mut c = sample();
        c.network.links[0].b = "nowhere".into();
        assert!(matches!(c.validate(), Err(ConfigError::UnknownNode(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = sample();
        c.network.routers.push("vm0".into());
        assert!(matches!(c.validate(), Err(ConfigError::DuplicateName(_))));
    }

    #[test]
    fn nonpositive_speed_rejected() {
        let mut c = sample();
        c.virtual_hosts[0].spec.speed_mops = 0.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPositiveSpeed("vm0".into()))
        );
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut c = sample();
            c.physical_hosts[0].speed_mops = bad;
            assert_eq!(
                c.validate(),
                Err(ConfigError::NonPositiveSpeed("phys0".into())),
                "speed {bad}"
            );
        }
    }

    #[test]
    fn safety_factor_must_be_in_unit_interval() {
        let with = |safety| {
            let mut c = sample();
            c.rate = RatePolicy::Auto { safety };
            c.validate()
        };
        assert_eq!(with(1.0), Ok(()));
        assert_eq!(with(f64::MIN_POSITIVE), Ok(()));
        for bad in [0.0, -0.5, 1.0 + f64::EPSILON, 2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                with(bad),
                Err(ConfigError::SafetyOutOfRange(bad.to_string())),
                "safety {bad}"
            );
        }
    }

    #[test]
    fn fixed_rate_must_be_positive_and_finite() {
        let with = |rate| {
            let mut c = sample();
            c.rate = RatePolicy::Fixed(rate);
            c.validate()
        };
        assert_eq!(with(0.04), Ok(()));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                with(bad),
                Err(ConfigError::NonPositiveRate(bad.to_string())),
                "rate {bad}"
            );
        }
    }

    #[test]
    fn link_queue_must_hold_a_segment_and_host_memory_a_process() {
        let mut c = sample();
        c.network.links[0].queue_bytes = Some(1518);
        c.virtual_hosts[0].spec.memory_bytes = PROCESS_OVERHEAD;
        assert_eq!(c.validate(), Ok(()));
        c.network.links[0].queue_bytes = Some(1517);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::QueueBelowSegment { .. })
        ));
        c.network.links[0].queue_bytes = None;
        c.virtual_hosts[0].spec.memory_bytes -= 1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::MemoryBelowProcess { .. })
        ));
    }

    #[test]
    fn link_bandwidth_must_be_positive_and_finite() {
        let with = |bps| {
            let mut c = sample();
            c.network.links[0].bandwidth_bps = bps;
            c.validate()
        };
        assert_eq!(with(1.0), Ok(()));
        for bad in [0.0, -100e6, f64::NAN, f64::INFINITY] {
            assert_eq!(
                with(bad),
                Err(ConfigError::NonPositiveBandwidth {
                    a: "vm0".into(),
                    b: "r0".into(),
                    bandwidth_bps: bad.to_string(),
                }),
                "bandwidth {bad}"
            );
        }
    }

    #[test]
    fn quantum_must_be_positive_and_fit_the_clock() {
        let mut c = sample();
        c.quantum = SimDuration::from_nanos(1);
        assert_eq!(c.validate(), Ok(()));
        c.quantum = SimDuration::ZERO;
        assert_eq!(c.validate(), Err(ConfigError::ZeroQuantum));
        c.quantum = MAX_STEP;
        assert_eq!(c.validate(), Ok(()));
        for ns in [MAX_STEP.as_nanos() + 1, u64::MAX] {
            c.quantum = SimDuration::from_nanos(ns);
            let quantum = format!("quantum {ns} ns");
            assert_eq!(c.validate(), Err(ConfigError::ClockOverflow(quantum)));
        }
    }

    #[test]
    fn fault_plan_bad_params_rejected() {
        use mgrid_faults::{FaultKind, FaultPlan};
        let mut c = sample();
        c.faults = Some(FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::LinkLoss {
                a: "vm0".into(),
                b: "r0".into(),
                per_mille: 1500,
            },
        ));
        assert!(matches!(c.validate(), Err(ConfigError::InvalidFault(_))));
    }

    #[test]
    fn fault_targeting_unknown_node_rejected() {
        use mgrid_faults::{FaultKind, FaultPlan};
        let mut c = sample();
        c.faults = Some(FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::LinkDown {
                a: "vm0".into(),
                b: "ghost".into(),
            },
        ));
        assert!(matches!(c.validate(), Err(ConfigError::InvalidFault(_))));
    }

    #[test]
    fn host_fault_must_target_a_virtual_host() {
        use mgrid_faults::{FaultKind, FaultPlan};
        // Routers are network nodes but not hosts: crashing one is a
        // config error, not a silent no-op.
        let mut c = sample();
        c.faults = Some(FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::HostCrash { host: "r0".into() },
        ));
        assert!(matches!(c.validate(), Err(ConfigError::InvalidFault(_))));
        let mut ok = sample();
        ok.faults = Some(FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::HostCrash { host: "vm0".into() },
        ));
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn json_roundtrip() {
        let c = sample();
        let json = c.to_json();
        let back = GridConfig::from_json(&json).unwrap();
        assert_eq!(back.name, c.name);
        assert_eq!(back.virtual_hosts.len(), 1);
        assert_eq!(back.network.links[0].bandwidth_bps, 100e6);
    }
}
