//! Gatekeeper and jobmanager: Globus-style job submission onto virtual
//! hosts.
//!
//! "A user of the MicroGrid will typically be logged in directly on a
//! physical host and submit jobs to a virtual Grid. … our current solution
//! is to run all gatekeeper, jobmanager and client processes on virtual
//! hosts. Thus jobs are submitted to virtual servers through the virtual
//! Grid resource's gatekeeper." (paper §2.2.1)
//!
//! A [`Gatekeeper`] listens on the well-known port of its virtual host;
//! job requests carry an RSL-style specification naming a registered
//! executable. The gatekeeper forks a jobmanager process which starts the
//! requested processes on the virtual host, waits for them, and reports
//! completion back to the client.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use mgrid_desim::{spawn, FxHashMap};
use mgrid_netsim::Payload;

use crate::process::ProcessCtx;
use crate::vsocket::{SockError, VSocket};

/// The gatekeeper's well-known port (Globus convention).
pub const GATEKEEPER_PORT: u16 = 2119;

/// An RSL-style job specification: `&(executable=ep)(count=4)(arguments=A)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Name of the registered executable.
    pub executable: String,
    /// Number of processes to start.
    pub count: usize,
    /// Free-form arguments handed to each process.
    pub arguments: Vec<String>,
}

/// Error parsing an RSL string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RslParseError(pub String);

impl std::fmt::Display for RslParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid RSL: {}", self.0)
    }
}

impl std::error::Error for RslParseError {}

impl JobSpec {
    /// A single-process job with no arguments.
    pub fn simple(executable: impl Into<String>) -> Self {
        JobSpec {
            executable: executable.into(),
            count: 1,
            arguments: Vec::new(),
        }
    }

    /// Parse the minimal RSL subset `&(k=v)(k=v)...`.
    pub fn parse_rsl(s: &str) -> Result<JobSpec, RslParseError> {
        let s = s.trim();
        let body = s
            .strip_prefix('&')
            .ok_or_else(|| RslParseError(format!("missing leading '&': {s:?}")))?;
        let mut executable = None;
        let mut count = 1usize;
        let mut arguments = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let inner_end = rest
                .find(')')
                .ok_or_else(|| RslParseError(format!("unclosed clause: {rest:?}")))?;
            if !rest.starts_with('(') {
                return Err(RslParseError(format!("expected '(': {rest:?}")));
            }
            let clause = &rest[1..inner_end];
            let (k, v) = clause
                .split_once('=')
                .ok_or_else(|| RslParseError(format!("clause without '=': {clause:?}")))?;
            match k.trim().to_ascii_lowercase().as_str() {
                "executable" => executable = Some(v.trim().to_string()),
                "count" => {
                    count = v
                        .trim()
                        .parse()
                        .map_err(|_| RslParseError(format!("bad count: {v:?}")))?
                }
                "arguments" => {
                    arguments = v.split_whitespace().map(str::to_string).collect();
                }
                other => {
                    return Err(RslParseError(format!("unknown RSL attribute {other:?}")));
                }
            }
            rest = rest[inner_end + 1..].trim_start();
        }
        Ok(JobSpec {
            executable: executable
                .ok_or_else(|| RslParseError("missing (executable=...)".into()))?,
            count,
            arguments,
        })
    }

    /// Render back to RSL.
    pub fn to_rsl(&self) -> String {
        let mut s = format!("&(executable={})(count={})", self.executable, self.count);
        if !self.arguments.is_empty() {
            s.push_str(&format!("(arguments={})", self.arguments.join(" ")));
        }
        s
    }
}

/// Everything a started process receives from the jobmanager.
pub struct AppInstance {
    /// The process's mediated execution context.
    pub ctx: ProcessCtx,
    /// This process's index within the job, `0..count`.
    pub rank: usize,
    /// Number of processes in the job.
    pub count: usize,
    /// Arguments from the job specification.
    pub arguments: Vec<String>,
}

/// A registered application body.
pub type AppFuture = Pin<Box<dyn Future<Output = ()>>>;
/// Factory invoked once per started process.
pub type AppFactory = Rc<dyn Fn(AppInstance) -> AppFuture>;

/// Maps executable names to application factories — the stand-in for the
/// binaries a real jobmanager would exec.
#[derive(Clone, Default)]
pub struct ExecutableRegistry {
    map: Rc<RefCell<FxHashMap<String, AppFactory>>>,
}

impl ExecutableRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an executable under `name`.
    pub fn register<F>(&self, name: impl Into<String>, factory: F)
    where
        F: Fn(AppInstance) -> AppFuture + 'static,
    {
        self.map.borrow_mut().insert(name.into(), Rc::new(factory));
    }

    /// Look up an executable.
    pub fn get(&self, name: &str) -> Option<AppFactory> {
        self.map.borrow().get(name).cloned()
    }
}

/// Final status of a submitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// All processes ran to completion.
    Done,
    /// The executable is not registered on the target host.
    UnknownExecutable(String),
    /// A process could not be started (e.g. memory exhausted).
    StartFailure(String),
}

struct JobRequest {
    spec_rsl: String,
    reply_host: String,
    reply_port: u16,
}

struct JobReply {
    status: JobStatus,
}

/// A running gatekeeper daemon on one virtual host.
pub struct Gatekeeper {
    host: String,
}

impl Gatekeeper {
    /// Start the gatekeeper on the virtual host of `ctx` (binds the
    /// well-known port and serves forever).
    pub fn start(ctx: ProcessCtx, registry: ExecutableRegistry) -> Gatekeeper {
        let host = ctx.gethostname().to_string();
        mgrid_desim::spawn_daemon(async move {
            let sock = ctx.bind(GATEKEEPER_PORT);
            loop {
                let Ok(msg) = sock.recv().await else { break };
                let Some(req) = msg.payload.downcast::<JobRequest>() else {
                    continue; // not a job request; ignore
                };
                // Authentication + fork cost of the real gatekeeper path.
                ctx.compute_mops(0.5).await;
                let ctx = ctx.clone();
                let registry = registry.clone();
                spawn(async move {
                    run_jobmanager(ctx, registry, req).await;
                });
            }
        });
        Gatekeeper { host }
    }

    /// The virtual host this gatekeeper serves.
    pub fn host(&self) -> &str {
        &self.host
    }
}

async fn run_jobmanager(
    gk: ProcessCtx,
    registry: ExecutableRegistry,
    req: std::sync::Arc<JobRequest>,
) {
    let status = jobmanager_body(&gk, &registry, &req).await;
    // Report completion to the client.
    let reply_sock = gk.bind(ephemeral_port());
    let _ = reply_sock
        .send_to(
            &req.reply_host,
            req.reply_port,
            64,
            Payload::new(JobReply { status }),
        )
        .await;
}

async fn jobmanager_body(
    gk: &ProcessCtx,
    registry: &ExecutableRegistry,
    req: &JobRequest,
) -> JobStatus {
    let spec = match JobSpec::parse_rsl(&req.spec_rsl) {
        Ok(s) => s,
        Err(e) => return JobStatus::StartFailure(e.to_string()),
    };
    let Some(factory) = registry.get(&spec.executable) else {
        return JobStatus::UnknownExecutable(spec.executable.clone());
    };
    // The jobmanager is itself a process on the virtual host.
    let jm = match ProcessCtx::spawn(
        gk.table(),
        gk.endpoint().network(),
        gk.gethostname(),
        format!("jobmanager-{}", spec.executable),
    ) {
        Ok(c) => c,
        Err(e) => return JobStatus::StartFailure(e.to_string()),
    };
    jm.compute_mops(0.5).await; // process-creation overhead
    let mut handles = Vec::new();
    let mut failure = None;
    for rank in 0..spec.count {
        match ProcessCtx::spawn(
            gk.table(),
            gk.endpoint().network(),
            gk.gethostname(),
            format!("{}[{rank}]", spec.executable),
        ) {
            Ok(ctx) => {
                let inst = AppInstance {
                    ctx: ctx.clone(),
                    rank,
                    count: spec.count,
                    arguments: spec.arguments.clone(),
                };
                let fut = factory(inst);
                handles.push((ctx, spawn(fut)));
            }
            Err(e) => {
                failure = Some(e.to_string());
                break;
            }
        }
    }
    if let Some(e) = failure {
        for (ctx, _) in &handles {
            ctx.exit();
        }
        jm.exit();
        return JobStatus::StartFailure(e);
    }
    for (ctx, h) in handles {
        h.await;
        ctx.exit();
    }
    jm.exit();
    JobStatus::Done
}

/// Pick an unused high port on the host (deterministic draw from the
/// simulation RNG, retrying is unnecessary at our port density).
fn ephemeral_port() -> u16 {
    49152 + (mgrid_desim::with_rng(|r| r.below(16000)) as u16)
}

/// Submit a job to the gatekeeper of `gatekeeper_host` and wait for
/// completion.
pub async fn submit_job(
    client: &ProcessCtx,
    gatekeeper_host: &str,
    spec: &JobSpec,
) -> Result<JobStatus, SockError> {
    let reply_port = ephemeral_port();
    let reply_sock: VSocket = client.bind(reply_port);
    let rsl = spec.to_rsl();
    let request = JobRequest {
        spec_rsl: rsl.clone(),
        reply_host: client.gethostname().to_string(),
        reply_port,
    };
    let send_sock = client.bind(ephemeral_port());
    send_sock
        .send_to(
            gatekeeper_host,
            GATEKEEPER_PORT,
            128 + rsl.len() as u64,
            Payload::new(request),
        )
        .await?;
    let reply = reply_sock.recv().await?;
    let reply = reply
        .payload
        .downcast::<JobReply>()
        .ok_or(SockError::Closed)?;
    Ok(reply.status.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosttable::HostTable;
    use mgrid_desim::vclock::VirtualClock;
    use mgrid_desim::{SimRng, SimTime, Simulation};
    use mgrid_hostsim::{OsParams, PhysicalHost, PhysicalHostSpec, SchedulerParams};
    use mgrid_netsim::{LinkSpec, NetParams, Network, TopologyBuilder};
    use std::cell::Cell;

    #[test]
    fn rsl_roundtrip() {
        let spec = JobSpec {
            executable: "ep".into(),
            count: 4,
            arguments: vec!["classA".into(), "verbose".into()],
        };
        let rsl = spec.to_rsl();
        assert_eq!(rsl, "&(executable=ep)(count=4)(arguments=classA verbose)");
        assert_eq!(JobSpec::parse_rsl(&rsl).unwrap(), spec);
    }

    #[test]
    fn rsl_rejects_malformed() {
        assert!(JobSpec::parse_rsl("(executable=x)").is_err());
        assert!(JobSpec::parse_rsl("&(count=2)").is_err());
        assert!(JobSpec::parse_rsl("&(executable=x)(count=abc)").is_err());
        assert!(JobSpec::parse_rsl("&(executable=x)(bogus=1)").is_err());
        assert!(JobSpec::parse_rsl("&(executable=x").is_err());
    }

    fn grid() -> (HostTable, Network) {
        let mut b = TopologyBuilder::new();
        let n0 = b.host("client.ucsd.edu");
        let n1 = b.host("server.ucsd.edu");
        b.link(n0, n1, LinkSpec::fast_ethernet());
        let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
        let table = HostTable::new();
        for (i, (name, node)) in [("client.ucsd.edu", n0), ("server.ucsd.edu", n1)]
            .into_iter()
            .enumerate()
        {
            let ph = PhysicalHost::new(
                PhysicalHostSpec::new(format!("phys{i}"), 500.0, 1 << 30),
                OsParams::default(),
                SchedulerParams::default(),
                SimRng::new(i as u64 + 10),
            );
            table.register(name, node, ph.as_direct_virtual());
        }
        (table, net)
    }

    #[test]
    fn job_submission_roundtrip_runs_processes() {
        let mut sim = Simulation::new(5);
        let ran = Rc::new(Cell::new(0usize));
        let ran2 = ran.clone();
        sim.spawn(async move {
            let (table, net) = grid();
            let registry = ExecutableRegistry::new();
            let ran3 = ran2.clone();
            registry.register("worker", move |inst: AppInstance| {
                let ran = ran3.clone();
                Box::pin(async move {
                    inst.ctx.compute_mops(10.0).await;
                    assert_eq!(inst.ctx.gethostname(), "server.ucsd.edu");
                    assert_eq!(inst.arguments, vec!["fast"]);
                    ran.set(ran.get() + 1);
                }) as AppFuture
            });
            let gk_ctx = ProcessCtx::spawn(&table, &net, "server.ucsd.edu", "gatekeeper").unwrap();
            Gatekeeper::start(gk_ctx, registry);
            let client = ProcessCtx::spawn(&table, &net, "client.ucsd.edu", "client").unwrap();
            let spec = JobSpec {
                executable: "worker".into(),
                count: 3,
                arguments: vec!["fast".into()],
            };
            let status = submit_job(&client, "server.ucsd.edu", &spec).await.unwrap();
            assert_eq!(status, JobStatus::Done);
        });
        sim.run_until(SimTime::from_secs_f64(30.0));
        assert_eq!(ran.get(), 3);
    }

    #[test]
    fn unknown_executable_reported() {
        let mut sim = Simulation::new(6);
        sim.spawn(async {
            let (table, net) = grid();
            let registry = ExecutableRegistry::new();
            let gk_ctx = ProcessCtx::spawn(&table, &net, "server.ucsd.edu", "gatekeeper").unwrap();
            Gatekeeper::start(gk_ctx, registry);
            let client = ProcessCtx::spawn(&table, &net, "client.ucsd.edu", "client").unwrap();
            let status = submit_job(&client, "server.ucsd.edu", &JobSpec::simple("ghost"))
                .await
                .unwrap();
            assert_eq!(status, JobStatus::UnknownExecutable("ghost".into()));
        });
        sim.run_until(SimTime::from_secs_f64(30.0));
    }
}
