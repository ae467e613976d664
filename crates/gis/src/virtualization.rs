//! Virtual-resource record extensions (paper §2.2.2 and Fig 3).
//!
//! The MicroGrid extends standard GIS host and network records with
//! virtualization fields — *extension by addition*, so the extended
//! records remain subtype-compatible with existing queries:
//!
//! ```text
//! hn=vm.ucsd.edu, ou=Concurrent Systems Architecture Group, ...
//!   Is_Virtual_Resource=Yes
//!   Configuration_Name=Slow_CPU_Configuration
//!   Mapped_Physical_Resource=csag-226-67.ucsd.edu
//!   CpuSpeed=10
//!   MemorySize=100MBytes
//! ```
//!
//! The added fields support identification and grouping of the entries of
//! one virtual Grid among many stored in the same GIS server.

use crate::dn::{Dn, Rdn};
use crate::filter::Filter;
use crate::record::Record;

/// Attribute marking a record as part of a virtual Grid.
pub const IS_VIRTUAL: &str = "Is_Virtual_Resource";
/// Attribute naming the virtual Grid configuration a record belongs to.
pub const CONFIGURATION: &str = "Configuration_Name";
/// Attribute naming the physical resource a virtual host is mapped to.
pub const MAPPED_PHYSICAL: &str = "Mapped_Physical_Resource";

/// Build a virtual host record under `base`, as in Fig 3.
///
/// `cpu_speed_mops` and `memory_bytes` become the standard `CpuSpeed` /
/// `MemorySize` attributes; the virtualization fields are added on top.
pub fn virtual_host_record(
    base: &Dn,
    hostname: &str,
    configuration: &str,
    mapped_physical: &str,
    cpu_speed_mops: f64,
    memory_bytes: u64,
) -> Record {
    Record::new(base.child(Rdn::new("hn", hostname)))
        .with("objectclass", "GridComputeResource")
        .with("hn", hostname)
        .with("CpuSpeed", format!("{cpu_speed_mops}"))
        .with("MemorySize", format!("{memory_bytes}"))
        .with(IS_VIRTUAL, "Yes")
        .with(CONFIGURATION, configuration)
        .with(MAPPED_PHYSICAL, mapped_physical)
}

/// Build a virtual network record under `base`, as in Fig 3.
///
/// `speed` follows the paper's free-form convention, e.g. `"100Mbps 50ms"`.
pub fn virtual_network_record(
    base: &Dn,
    network_number: &str,
    configuration: &str,
    nw_type: &str,
    speed: &str,
) -> Record {
    Record::new(base.child(Rdn::new("nn", network_number)))
        .with("objectclass", "GridNetwork")
        .with("nn", network_number)
        .with("nwType", nw_type)
        .with("speed", speed)
        .with(IS_VIRTUAL, "Yes")
        .with(CONFIGURATION, configuration)
}

/// Filter selecting virtual hosts of one configuration.
pub fn virtual_hosts_filter(configuration: &str) -> Filter {
    Filter::and([
        Filter::eq("objectclass", "GridComputeResource"),
        Filter::eq(IS_VIRTUAL, "Yes"),
        Filter::eq(CONFIGURATION, configuration),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::Directory;

    fn base() -> Dn {
        Dn::parse("ou=Concurrent Systems Architecture Group, o=Grid").unwrap()
    }

    #[test]
    fn fig3_host_record_shape() {
        let r = virtual_host_record(
            &base(),
            "vm.ucsd.edu",
            "Slow_CPU_Configuration",
            "csag-226-67.ucsd.edu",
            10.0,
            100_000_000,
        );
        assert_eq!(
            r.dn.to_string(),
            "hn=vm.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid"
        );
        assert_eq!(r.get(IS_VIRTUAL), Some("Yes"));
        assert_eq!(r.get(CONFIGURATION), Some("Slow_CPU_Configuration"));
        assert_eq!(r.get(MAPPED_PHYSICAL), Some("csag-226-67.ucsd.edu"));
        assert_eq!(r.get("CpuSpeed"), Some("10"));
        assert_eq!(r.get("MemorySize"), Some("100000000"));
    }

    #[test]
    fn fig3_network_record_shape() {
        let r = virtual_network_record(
            &base(),
            "1.11.11.0",
            "Slow_CPU_Configuration",
            "LAN",
            "100Mbps 50ms",
        );
        assert_eq!(r.get("nwType"), Some("LAN"));
        assert_eq!(r.get("speed"), Some("100Mbps 50ms"));
        assert_eq!(r.get(IS_VIRTUAL), Some("Yes"));
    }

    #[test]
    fn grouping_by_configuration() {
        let mut d = Directory::new();
        for (host, config) in [
            ("vm1.ucsd.edu", "ConfigA"),
            ("vm2.ucsd.edu", "ConfigA"),
            ("vm3.ucsd.edu", "ConfigB"),
        ] {
            d.upsert(virtual_host_record(
                &base(),
                host,
                config,
                "phys.ucsd.edu",
                10.0,
                1 << 27,
            ));
        }
        let hits = d.search_all(&virtual_hosts_filter("ConfigA"));
        assert_eq!(hits.len(), 2);
        let hits_b = d.search_all(&virtual_hosts_filter("ConfigB"));
        assert_eq!(hits_b.len(), 1);
    }

    #[test]
    fn virtual_hosts_filter_separates_virtual_from_physical() {
        // One server holds a physical host, a virtual host and a virtual
        // network of the same configuration (paper §2.2.2).
        let mut d = Directory::new();
        d.upsert(
            Record::new(base().child(Rdn::new("hn", "phys.ucsd.edu")))
                .with("objectclass", "GridComputeResource")
                .with("hn", "phys.ucsd.edu")
                .with("CpuSpeed", "533"),
        );
        d.upsert(virtual_host_record(
            &base(),
            "vm.ucsd.edu",
            "ConfigA",
            "phys.ucsd.edu",
            10.0,
            1 << 27,
        ));
        d.upsert(virtual_network_record(
            &base(),
            "1.11.11.0",
            "ConfigA",
            "LAN",
            "100Mbps 50ms",
        ));
        let hosts: Vec<_> = d
            .search_all(&virtual_hosts_filter("ConfigA"))
            .iter()
            .map(|r| r.get("hn"))
            .collect();
        assert_eq!(hosts, [Some("vm.ucsd.edu")]);
    }

    #[test]
    fn extended_records_remain_subtype_compatible() {
        // A legacy query for compute resources must return virtual records
        // too (extension by addition, "a la Pascal, Modula-3, or C++").
        let mut d = Directory::new();
        d.upsert(virtual_host_record(
            &base(),
            "vm.ucsd.edu",
            "C",
            "p",
            10.0,
            1,
        ));
        let legacy = Filter::eq("objectclass", "GridComputeResource");
        assert_eq!(d.search_all(&legacy).len(), 1);
    }
}
