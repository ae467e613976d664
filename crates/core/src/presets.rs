//! The paper's experimental configurations (Fig 9, Fig 12-15).

use mgrid_desim::time::SimDuration;
use mgrid_hostsim::{PhysicalHostSpec, VirtualHostSpec};

use crate::config::{GridConfig, LinkConfig, NetworkConfig, RatePolicy, VirtualHostConfig};

/// Speed of the paper's emulation hosts (533 MHz DEC 21164 Alphas), in
/// abstract Mops.
pub const ALPHA_MOPS: f64 = 533.0;
/// Speed of the HPVM cluster's 300 MHz Pentium II nodes.
pub const PII_MOPS: f64 = 300.0;

fn star_network(
    hosts: &[&str],
    switch: &str,
    bandwidth_bps: f64,
    delay: SimDuration,
) -> NetworkConfig {
    NetworkConfig {
        routers: vec![switch.to_string()],
        links: hosts
            .iter()
            .map(|h| LinkConfig {
                a: h.to_string(),
                b: switch.to_string(),
                bandwidth_bps,
                delay,
                queue_bytes: None,
            })
            .collect(),
    }
}

fn cluster(
    name: &str,
    host_prefix: &str,
    n: usize,
    virtual_mops: f64,
    physical_mops: f64,
    bandwidth_bps: f64,
    delay: SimDuration,
) -> GridConfig {
    let host_names: Vec<String> = (0..n).map(|i| format!("{host_prefix}{i}")).collect();
    let refs: Vec<&str> = host_names.iter().map(String::as_str).collect();
    GridConfig {
        name: name.into(),
        physical_hosts: (0..n)
            .map(|i| PhysicalHostSpec::new(format!("csag-226-{}", 60 + i), physical_mops, 1 << 30))
            .collect(),
        virtual_hosts: host_names
            .iter()
            .enumerate()
            .map(|(i, h)| VirtualHostConfig {
                spec: VirtualHostSpec::new(h.clone(), virtual_mops, 1 << 30),
                mapped_to: format!("csag-226-{}", 60 + i),
            })
            .collect(),
        network: star_network(&refs, "switch", bandwidth_bps, delay),
        // The MicroGrid daemons, Globus services, and NSE share the
        // physical hosts with the applications, so the emulation cannot
        // use the whole CPU: run at 90% of real time.
        rate: RatePolicy::Fixed(0.9),
        quantum: SimDuration::from_millis(10),
        seed: 20000,
        faults: None,
        shards: None,
    }
}

/// Fig 9 row 1: the 4-node Alpha cluster — 533 MHz CPUs on switched
/// 100 Mb Ethernet.
pub fn alpha_cluster() -> GridConfig {
    cluster(
        "Alpha_Cluster",
        "alpha",
        4,
        ALPHA_MOPS,
        ALPHA_MOPS,
        100e6,
        SimDuration::from_micros(50),
    )
}

/// An `n`-node Alpha cluster (the paper's §5 scaling goal: "dozens of
/// machines"). Same per-node specs and switched Ethernet as
/// [`alpha_cluster`].
pub fn alpha_cluster_n(n: usize) -> GridConfig {
    let mut c = cluster(
        "Alpha_Cluster_N",
        "alpha",
        n,
        ALPHA_MOPS,
        ALPHA_MOPS,
        100e6,
        SimDuration::from_micros(50),
    );
    c.name = format!("Alpha_Cluster_{n}");
    c
}

/// Fig 9 row 2: the HPVM cluster — 300 MHz Pentium IIs on 1.2 Gb Myrinet,
/// emulated on the Alpha machines.
pub fn hpvm_cluster() -> GridConfig {
    cluster(
        "HPVM",
        "hpvm",
        4,
        PII_MOPS,
        ALPHA_MOPS,
        1.2e9,
        SimDuration::from_micros(10),
    )
}

/// Fig 12: virtual CPUs scaled by `mult` (1x/2x/4x/8x), network pinned to
/// 1 Mb/s with 50 ms latency.
///
/// The emulation hosts scale alongside the virtual ones so the rate stays
/// constant; scaling the rate down by `mult` instead produces identical
/// virtual results (Fig 15's invariance) at `mult`-times the wall-clock
/// cost.
pub fn cpu_scaled_cluster(mult: f64) -> GridConfig {
    let mut c = cluster(
        "CPU_Scaling",
        "node",
        4,
        ALPHA_MOPS * mult,
        ALPHA_MOPS * mult,
        1e6,
        SimDuration::from_millis(50),
    );
    c.name = format!("CPU_Scaling_{mult}x");
    c
}

/// Fig 15: the Alpha cluster emulated at different actual speeds. `k`
/// scales the emulation hosts; the rate is fixed at `0.45 * k`, so the
/// virtual Grid is identical while the wall-clock speed varies.
pub fn emulation_rate_cluster(k: f64) -> GridConfig {
    let mut c = cluster(
        "Emulation_Rate",
        "alpha",
        4,
        ALPHA_MOPS,
        ALPHA_MOPS * k,
        100e6,
        SimDuration::from_micros(50),
    );
    c.name = format!("Emulation_Rate_{k}x");
    c.rate = RatePolicy::Fixed(0.45 * k);
    c
}

/// A shared deployment: the four virtual Alpha hosts are mapped onto only
/// two physical machines (fraction 0.45 each). Co-located virtual hosts
/// can never run simultaneously — the scheduler rotates their quanta — so
/// every synchronization between them waits out up to a full rotation.
/// This is the deployment that exposes the quantum-granularity modeling
/// error of Fig 11.
pub fn alpha_cluster_shared() -> GridConfig {
    let mut c = alpha_cluster();
    c.name = "Alpha_Cluster_Shared".into();
    c.physical_hosts.truncate(2);
    for (i, v) in c.virtual_hosts.iter_mut().enumerate() {
        v.mapped_to = c.physical_hosts[i / 2].name.clone();
    }
    c.rate = RatePolicy::Fixed(0.45);
    c
}

/// Fig 13/14: the fictional vBNS coupled-cluster testbed — two processes
/// at UCSD and two at UIUC, LANs joined across the vBNS with a variable
/// bottleneck link (622 Mb/s OC12, 155 Mb/s OC3, or 10 Mb/s).
pub fn vbns_grid(bottleneck_bps: f64) -> GridConfig {
    let lan = 100e6;
    let oc3 = 155e6;
    let oc12 = 622e6;
    let hosts = ["ucsd0", "ucsd1", "uiuc0", "uiuc1"];
    // (a, b, bandwidth in bits/s, one-way delay in microseconds)
    let links = vec![
        // UCSD CSE department LAN.
        ("ucsd0", "ucsd-lan", lan, 50),
        ("ucsd1", "ucsd-lan", lan, 50),
        ("ucsd-lan", "ucsd-gw", oc3, 300),
        // vBNS: San Diego -> Los Angeles -> (long haul) -> Chicago.
        ("ucsd-gw", "vbns-la", oc12, 2_000),
        ("vbns-la", "vbns-chi", bottleneck_bps, 25_000),
        ("vbns-chi", "uiuc-gw", oc12, 2_000),
        // UIUC CS department LAN.
        ("uiuc-gw", "uiuc-lan", oc3, 300),
        ("uiuc-lan", "uiuc0", lan, 50),
        ("uiuc-lan", "uiuc1", lan, 50),
    ];
    GridConfig {
        name: format!("vBNS_{:.0}Mbps", bottleneck_bps / 1e6),
        physical_hosts: (0..4)
            .map(|i| PhysicalHostSpec::new(format!("phys{i}"), ALPHA_MOPS, 1 << 30))
            .collect(),
        virtual_hosts: hosts
            .iter()
            .enumerate()
            .map(|(i, h)| VirtualHostConfig {
                spec: VirtualHostSpec::new(*h, ALPHA_MOPS, 1 << 30),
                mapped_to: format!("phys{i}"),
            })
            .collect(),
        network: NetworkConfig {
            routers: vec![
                "ucsd-lan".into(),
                "ucsd-gw".into(),
                "vbns-la".into(),
                "vbns-chi".into(),
                "uiuc-gw".into(),
                "uiuc-lan".into(),
            ],
            links: links
                .into_iter()
                .map(|(a, b, bw, delay_us)| LinkConfig {
                    a: a.into(),
                    b: b.into(),
                    bandwidth_bps: bw,
                    delay: SimDuration::from_micros(delay_us),
                    // WAN routers buffer more than LAN switches.
                    queue_bytes: Some(4 * 1024 * 1024),
                })
                .collect(),
        },
        rate: RatePolicy::Fixed(0.9),
        quantum: SimDuration::from_millis(10),
        seed: 20013,
        faults: None,
        shards: None,
    }
}

/// The Fig 17 internal-validation setting: the Alpha cluster run at a
/// fixed 4% CPU fraction (simulation rate 0.04).
pub fn fig17_cluster() -> GridConfig {
    let mut c = alpha_cluster();
    c.name = "Fig17_4pct".into();
    c.rate = RatePolicy::Fixed(0.04);
    c
}

/// A preset's CLI name and its constructor.
pub type Named = (&'static str, fn() -> GridConfig);

/// The presets the `mgrid` CLI knows by name, in the order `mgrid
/// presets` lists them.
pub const NAMED: [Named; 7] = [
    ("alpha_cluster", alpha_cluster),
    ("alpha_cluster_shared", alpha_cluster_shared),
    ("hpvm_cluster", hpvm_cluster),
    ("vbns_oc12", || vbns_grid(622e6)),
    ("vbns_oc3", || vbns_grid(155e6)),
    ("vbns_10mbps", || vbns_grid(10e6)),
    ("fig17_cluster", fig17_cluster),
];

/// The [`NAMED`] preset called `name`.
pub fn by_name(name: &str) -> Option<GridConfig> {
    let (_, build) = NAMED.iter().find(|(n, _)| *n == name)?;
    Some(build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::plan_rate;

    #[test]
    fn presets_validate() {
        for c in [
            alpha_cluster(),
            hpvm_cluster(),
            cpu_scaled_cluster(4.0),
            emulation_rate_cluster(2.0),
            vbns_grid(155e6),
            fig17_cluster(),
        ] {
            c.validate().unwrap_or_else(|e| panic!("{}: {e}", c.name));
            plan_rate(&c).unwrap_or_else(|e| panic!("{}: {e}", c.name));
        }
    }

    #[test]
    fn alpha_cluster_runs_at_ninety_percent() {
        let plan = plan_rate(&alpha_cluster()).unwrap();
        assert!((plan.feasible - 1.0).abs() < 1e-9);
        assert!((plan.chosen - 0.9).abs() < 1e-9);
        let shared = plan_rate(&alpha_cluster_shared()).unwrap();
        assert!((shared.chosen - 0.45).abs() < 1e-9);
        assert!((shared.feasible - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hpvm_runs_faster_than_realtime() {
        let plan = plan_rate(&hpvm_cluster()).unwrap();
        assert!(plan.feasible > 1.7 && plan.feasible < 1.8);
    }

    #[test]
    fn cpu_scaling_keeps_rate_constant() {
        let p1 = plan_rate(&cpu_scaled_cluster(1.0)).unwrap();
        let p8 = plan_rate(&cpu_scaled_cluster(8.0)).unwrap();
        assert!((p1.chosen - p8.chosen).abs() < 1e-9);
        // The virtual CPUs really are 8x apart.
        let c1 = cpu_scaled_cluster(1.0);
        let c8 = cpu_scaled_cluster(8.0);
        assert!(
            (c8.virtual_hosts[0].spec.speed_mops / c1.virtual_hosts[0].spec.speed_mops - 8.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn vbns_bottleneck_is_config_driven() {
        let c = vbns_grid(10e6);
        let l = c
            .network
            .links
            .iter()
            .find(|l| l.a == "vbns-la")
            .expect("long-haul link");
        assert_eq!(l.bandwidth_bps, 10e6);
        assert_eq!(l.delay, SimDuration::from_millis(25));
    }
}
