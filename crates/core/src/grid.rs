//! Assembling a running virtual Grid from a [`GridConfig`].
//!
//! [`VirtualGrid::build`] is the MicroGrid proper: it plans the simulation
//! rate, brings up the simulated network under a rate-scaled virtual
//! clock, creates the physical-host models with their scheduler daemons,
//! maps each virtual host at its CPU fraction, fills the mapping table,
//! and publishes Fig 3-style records into the GIS.
//!
//! [`VirtualGrid::build_baseline`] wires the *same configuration* as a
//! "physical grid": virtual specs become real machines, no pacing, an
//! identity clock — the baseline side of every validation figure.

use std::cell::RefCell;
use std::rc::Rc;

use mgrid_desim::vclock::VirtualClock;
use mgrid_desim::{FxHashMap, SimRng, SpanStr};
use mgrid_gis::{Directory, Dn};
use mgrid_hostsim::{OsParams, PhysicalHost, PhysicalHostSpec, SchedulerParams};
use mgrid_middleware::{HostTable, ProcessCtx};
use mgrid_mpi::{Comm, MpiParams};
use mgrid_netsim::{LinkSpec, NetParams, Network, NodeId, TopologyBuilder};

use mgrid_faults::{spawn_injector, FaultKind};

use crate::config::{ConfigError, GridConfig};
use crate::coordinator::plan_rate;

/// A running virtual Grid.
pub struct VirtualGrid {
    /// The configuration's name (what the GIS groups this grid's records
    /// by).
    name: String,
    /// Virtual host names in configuration order, shared with the
    /// mapping table's entries.
    hosts: Vec<SpanStr>,
    table: HostTable,
    network: Network,
    gis: Rc<RefCell<Directory>>,
}

impl VirtualGrid {
    /// Bring up the MicroGrid for `config` (must be called inside a
    /// running simulation).
    ///
    /// # Examples
    ///
    /// Assemble the paper's Alpha cluster and run a 4-rank SPMD body on
    /// it:
    ///
    /// ```
    /// use microgrid::desim::Simulation;
    /// use microgrid::mpi::MpiParams;
    /// use microgrid::{presets, VirtualGrid};
    ///
    /// let mut sim = Simulation::new(42);
    /// let ranks = sim.block_on(async {
    ///     let grid = VirtualGrid::build(presets::alpha_cluster()).unwrap();
    ///     let hosts = grid.host_names();
    ///     grid.mpirun(&hosts, MpiParams::default(), |comm| async move {
    ///         comm.barrier().await.unwrap();
    ///         comm.rank()
    ///     })
    ///     .await
    /// });
    /// assert_eq!(ranks, vec![0, 1, 2, 3]);
    /// ```
    pub fn build(config: GridConfig) -> Result<VirtualGrid, ConfigError> {
        let rate = plan_rate(&config)?.chosen;
        Self::assemble(config, rate, false)
    }

    /// Bring up the "physical grid" baseline: each virtual host spec is
    /// instantiated as a real machine (no MicroGrid pacing, identity
    /// clock, same network topology).
    pub fn build_baseline(config: GridConfig) -> Result<VirtualGrid, ConfigError> {
        config.validate()?;
        Self::assemble(config, 1.0, true)
    }

    fn assemble(config: GridConfig, rate: f64, baseline: bool) -> Result<VirtualGrid, ConfigError> {
        let mut rng = SimRng::new(config.seed);

        // Virtual network: hosts in config order, then routers. Hosts thus
        // hold nodes 0.. in config order, which is what their virtual IPs
        // are numbered by.
        let mut b = TopologyBuilder::new();
        let mut node_of: FxHashMap<&str, NodeId> = FxHashMap::default();
        for v in &config.virtual_hosts {
            node_of.insert(&v.spec.name, b.host(&v.spec.name));
        }
        for r in &config.network.routers {
            node_of.insert(r, b.router(r));
        }
        for l in &config.network.links {
            let spec = LinkSpec {
                bandwidth_bps: l.bandwidth_bps,
                delay: l.delay,
                queue_bytes: l.queue_bytes.unwrap_or(512 * 1024),
            };
            b.link(node_of[l.a.as_str()], node_of[l.b.as_str()], spec);
        }
        let network = Network::new(b.build(), VirtualClock::new(rate), NetParams::default());

        let sched_params = SchedulerParams {
            quantum: config.quantum,
        };

        // Physical hosts (emulated mode) and the mapping table.
        let table = HostTable::new();
        let mut hosts = Vec::with_capacity(config.virtual_hosts.len());
        if baseline {
            // The virtual hosts ARE the machines.
            for v in &config.virtual_hosts {
                let spec = PhysicalHostSpec::new(
                    v.spec.name.to_string(),
                    v.spec.speed_mops,
                    v.spec.memory_bytes,
                );
                let ph =
                    PhysicalHost::new(spec, OsParams::default(), sched_params.clone(), rng.fork());
                let entry = table.register(
                    &v.spec.name,
                    node_of[v.spec.name.as_str()],
                    ph.as_direct_virtual(),
                );
                hosts.push(entry.name);
            }
        } else {
            // Only the mapping step looks physical hosts up by name.
            let mut physical: FxHashMap<&str, PhysicalHost> = FxHashMap::default();
            for p in &config.physical_hosts {
                let ph = PhysicalHost::new(
                    p.clone(),
                    OsParams::default(),
                    sched_params.clone(),
                    rng.fork(),
                );
                physical.insert(&p.name, ph);
            }
            for v in &config.virtual_hosts {
                let ph = &physical[v.mapped_to.as_str()];
                let vh = ph.map_virtual(v.spec.clone(), rate);
                let entry = table.register(&v.spec.name, node_of[v.spec.name.as_str()], vh);
                hosts.push(entry.name);
            }
        }

        // Fault injection: replay the scripted scenario against the live
        // models. Baselines skip this — the "physical grid" condition is
        // the healthy control every chaos figure compares against.
        if !baseline {
            if let Some(fault_plan) = &config.faults {
                if !fault_plan.is_empty() {
                    let ht = table.clone();
                    let net = network.clone();
                    spawn_injector(fault_plan, move |kind| match kind {
                        FaultKind::HostCrash { host } => ht
                            .lookup(host)
                            .expect("validate checks every host fault's target")
                            .vhost
                            .crash(),
                        link_fault => net.apply_fault(link_fault),
                    });
                }
            }
        }

        // Publish GIS records (Fig 3).
        let mut gis = Directory::new();
        let base = Dn::parse("ou=Concurrent Systems Architecture Group, o=Grid")
            .expect("static DN parses");
        for v in &config.virtual_hosts {
            gis.upsert(mgrid_gis::virtualization::virtual_host_record(
                &base,
                &v.spec.name,
                &config.name,
                &v.mapped_to,
                v.spec.speed_mops,
                v.spec.memory_bytes,
            ));
        }
        for (i, l) in config.network.links.iter().enumerate() {
            let nn = format!("1.11.{}.0", i);
            let speed = format!(
                "{}Mbps {}ms",
                l.bandwidth_bps / 1e6,
                l.delay.as_secs_f64() * 1e3
            );
            let nw_type = if l.delay.as_millis() >= 5 {
                "WAN"
            } else {
                "LAN"
            };
            gis.upsert(mgrid_gis::virtualization::virtual_network_record(
                &base,
                &nn,
                &config.name,
                nw_type,
                &speed,
            ));
        }

        Ok(VirtualGrid {
            name: config.name,
            hosts,
            table,
            network,
            gis: Rc::new(RefCell::new(gis)),
        })
    }

    /// The name of the configuration this grid was built from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chosen simulation rate (1.0 for baselines).
    pub fn rate(&self) -> f64 {
        self.network.clock().rate()
    }

    /// The virtualization mapping table.
    pub fn table(&self) -> &HostTable {
        &self.table
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The GIS directory holding this grid's records.
    pub fn gis(&self) -> Rc<RefCell<Directory>> {
        self.gis.clone()
    }

    /// Virtual host names, in configuration order.
    pub fn host_names(&self) -> Vec<String> {
        self.hosts.iter().map(|h| h.to_string()).collect()
    }

    /// Start a process on a virtual host.
    pub fn spawn_process(
        &self,
        host: &str,
        name: impl Into<String>,
    ) -> Result<ProcessCtx, mgrid_hostsim::OutOfMemory> {
        ProcessCtx::spawn(&self.table, &self.network, host, name)
    }

    /// Run an SPMD body with one rank per listed host (see
    /// [`mgrid_mpi::mpirun`]).
    pub async fn mpirun<T, F, Fut>(&self, hosts: &[String], params: MpiParams, body: F) -> Vec<T>
    where
        T: 'static,
        F: Fn(Comm) -> Fut,
        Fut: std::future::Future<Output = T> + 'static,
    {
        mgrid_mpi::mpirun(&self.table, &self.network, hosts, params, body).await
    }

    /// Fault-tolerant `mpirun`: every rank races a per-job `deadline`;
    /// ranks that miss it (e.g. their host crashed) are dropped and
    /// reported as `None` (see [`mgrid_mpi::mpirun_resilient`]).
    pub async fn mpirun_resilient<T, F, Fut>(
        &self,
        hosts: &[String],
        params: MpiParams,
        deadline: mgrid_desim::time::SimDuration,
        body: F,
    ) -> Vec<Option<T>>
    where
        T: 'static,
        F: Fn(Comm) -> Fut,
        Fut: std::future::Future<Output = T> + 'static,
    {
        mgrid_mpi::mpirun_resilient(&self.table, &self.network, hosts, params, deadline, body).await
    }

    /// Convenience: `mpirun` across every virtual host.
    pub async fn mpirun_all<T, F, Fut>(&self, params: MpiParams, body: F) -> Vec<T>
    where
        T: 'static,
        F: Fn(Comm) -> Fut,
        Fut: std::future::Future<Output = T> + 'static,
    {
        let hosts = self.host_names();
        self.mpirun(&hosts, params, body).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use mgrid_desim::Simulation;

    /// Virtual hosts take nodes 0.. in config order, so inside either
    /// grid the intercepted `gethostbyname` answers `alphaK` with
    /// 1.0.0.(K+1).
    #[test]
    fn virtual_ips_follow_config_order() {
        for build in [VirtualGrid::build, VirtualGrid::build_baseline] {
            let vips = Simulation::new(1).block_on(async move {
                let grid = build(presets::alpha_cluster()).unwrap();
                let ctx = grid.spawn_process("alpha0", "probe").unwrap();
                (0..4)
                    .map(|k| ctx.resolve(&format!("alpha{k}")).unwrap().to_string())
                    .collect::<Vec<_>>()
            });
            assert_eq!(vips, ["1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4"]);
        }
    }
}
