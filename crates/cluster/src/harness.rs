//! An in-process cluster: one router, a fleet of owner processes, and
//! a poll-driven session loop with scripted kills and membership
//! changes — the cross-process twin of `hds-serve`'s chaos harness.
//!
//! Everything is deterministic: the same loads, script, and owner set
//! produce the same frame interleaving poll for poll, which is what
//! lets the determinism suite demand *byte-identical* reports between
//! a clustered run and the single-process reference.

use std::collections::BTreeMap;

use hds_serve::client::{ClientConfig, ClientError, ClientSession, ClientStatus, TenantReport};
use hds_serve::load::TenantLoad;
use hds_serve::manager::ServeConfigError;
use hds_serve::transport::{loopback, LoopbackTransport};
use hds_serve::wire::Frame;
use hds_serve::{serve_tick, ServeConfig, SessionManager};
use hds_telemetry::{NullObserver, Observer};

use crate::owner::OwnerProcess;
use crate::router::{Router, RouterConfig};

/// What to do with a killed owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPolicy {
    /// Restart the process (empty) and rebuild its tenants on it —
    /// process-granular `supervise()` semantics.
    Restart,
    /// Remove it from the fleet and re-home its tenants onto the
    /// survivors.
    Rehome,
}

/// A router plus its owner fleet, wired over loopback transports.
pub struct Cluster<O: Observer = NullObserver> {
    serve_cfg: ServeConfig,
    router: Router<O>,
    owners: BTreeMap<u32, OwnerProcess>,
}

impl Cluster<NullObserver> {
    /// Boots `owner_ids` owner processes around a router, all owners
    /// sharing `serve_cfg`.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] for a degenerate serve config.
    pub fn new(
        serve_cfg: ServeConfig,
        router_cfg: RouterConfig,
        owner_ids: &[u32],
    ) -> Result<Self, ServeConfigError> {
        Cluster::with_observer(serve_cfg, router_cfg, owner_ids, NullObserver)
    }
}

impl<O: Observer> Cluster<O> {
    /// [`Cluster::new`] with a telemetry observer on the router.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] for a degenerate serve config.
    pub fn with_observer(
        serve_cfg: ServeConfig,
        router_cfg: RouterConfig,
        owner_ids: &[u32],
        obs: O,
    ) -> Result<Self, ServeConfigError> {
        // Surface config errors before any owner boots.
        drop(SessionManager::new(serve_cfg.clone())?);
        let mut cluster = Cluster {
            serve_cfg,
            router: Router::with_observer(router_cfg, obs),
            owners: BTreeMap::new(),
        };
        for &id in owner_ids {
            cluster.join_owner(id)?;
        }
        Ok(cluster)
    }

    /// The router, for assertions and direct frame handling.
    #[must_use]
    pub fn router(&self) -> &Router<O> {
        &self.router
    }

    /// Live owner ids, ascending.
    #[must_use]
    pub fn owner_ids(&self) -> Vec<u32> {
        self.owners.keys().copied().collect()
    }

    /// Handles one client frame at the router.
    pub fn handle(&mut self, frame: Frame) -> Vec<Frame> {
        self.router.handle(frame)
    }

    /// One cluster tick: the router steps its owner links (re-attaching
    /// any that dropped on a live owner), then every owner process
    /// ticks. Returns the frames the router produced for the client.
    pub fn tick(&mut self) -> Vec<Frame> {
        let out = self.router.tick();
        for id in out.needs_attach {
            if let Some(owner) = self.owners.get_mut(&id) {
                if !owner.is_dead() {
                    self.router.attach_owner(id, owner.connect());
                }
                // A dead owner stays unattached until the script
                // decides restart vs re-home via `kill_owner`.
            }
        }
        for owner in self.owners.values_mut() {
            owner.tick();
        }
        out.client_frames
    }

    /// Boots a new owner process and admits it to the ring; tenants on
    /// its arc start migrating immediately.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] — cannot happen for a config that already
    /// booted owners, but the constructor's contract is preserved.
    pub fn join_owner(&mut self, id: u32) -> Result<(), ServeConfigError> {
        let mut owner = OwnerProcess::new(id, self.serve_cfg.clone())?;
        self.router.join_owner(id, owner.connect());
        self.owners.insert(id, owner);
        Ok(())
    }

    /// Starts a planned departure: the owner leaves the ring and its
    /// tenants begin migrating off. The process stays up to serve the
    /// handoff exports; poll [`Cluster::finish_leave`] to complete.
    pub fn leave_owner(&mut self, id: u32) {
        self.router.leave_owner(id);
    }

    /// Completes a planned departure once the owner has drained:
    /// detaches the link and drops the process. `false` while tenants
    /// are still migrating.
    pub fn finish_leave(&mut self, id: u32) -> bool {
        if !self.router.owner_drained(id) {
            return false;
        }
        self.router.detach_owner(id);
        self.owners.remove(&id);
        true
    }

    /// Kills an owner process mid-flight — `SIGKILL` semantics, all
    /// in-memory state lost — and recovers per `policy`.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] from the restart — cannot happen for a
    /// config that already booted.
    pub fn kill_owner(&mut self, id: u32, policy: KillPolicy) -> Result<(), ServeConfigError> {
        let Some(owner) = self.owners.get_mut(&id) else {
            return Ok(());
        };
        owner.kill();
        match policy {
            KillPolicy::Restart => {
                owner.restart()?;
                let transport = owner.connect();
                self.router.owner_restarted(id, transport);
            }
            KillPolicy::Rehome => {
                self.owners.remove(&id);
                self.router.rehome_owner(id);
            }
        }
        Ok(())
    }
}

/// How a cluster session ended.
#[derive(Debug)]
pub enum ClusterError {
    /// The front client gave up (fatal reject or retries exhausted).
    Client(ClientError),
    /// The client never finished within the poll budget.
    Stalled {
        /// Polls consumed before giving up.
        polls: u64,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Client(err) => write!(f, "cluster client failed: {err}"),
            ClusterError::Stalled { polls } => {
                write!(f, "cluster session stalled after {polls} polls")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A finished cluster session.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Every tenant's final report, in load order.
    pub reports: Vec<TenantReport>,
    /// Polls the session took.
    pub polls: u64,
}

/// Drives one client session against the cluster to completion.
///
/// Each poll: `script(poll, cluster)` runs first (kills and membership
/// changes land at deterministic points in the stream), then the client
/// steps, then its frames flow through the router, then the cluster
/// ticks and router responses flow back.
///
/// # Errors
///
/// [`ClusterError::Client`] if the front client fails fatally;
/// [`ClusterError::Stalled`] if the session outlives `max_polls`.
pub fn run_cluster_session<O: Observer>(
    cluster: &mut Cluster<O>,
    client_cfg: ClientConfig,
    loads: &[TenantLoad],
    max_polls: u64,
    mut script: impl FnMut(u64, &mut Cluster<O>),
) -> Result<ClusterOutcome, ClusterError> {
    let mut client: ClientSession<LoopbackTransport> = ClientSession::new(client_cfg);
    for load in loads {
        client.add_tenant(&load.name, load.procedures.clone(), load.chunks.clone());
    }
    let (client_end, mut server_end) = loopback();
    client.connect(client_end);
    for poll in 0..max_polls {
        script(poll, cluster);
        match client.step().map_err(ClusterError::Client)? {
            ClientStatus::Done => {
                let reports = loads
                    .iter()
                    .filter_map(|load| client.take_report(&load.name))
                    .collect();
                return Ok(ClusterOutcome {
                    reports,
                    polls: poll,
                });
            }
            ClientStatus::NeedReconnect => {
                let (fresh_client, fresh_server) = loopback();
                server_end = fresh_server;
                client.on_reconnected(fresh_client);
            }
            ClientStatus::Working => {}
        }
        serve_tick(cluster, &mut server_end, Cluster::handle, Cluster::tick);
    }
    Err(ClusterError::Stalled { polls: max_polls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
    use hds_serve::load::{generate, LoadConfig};

    fn serve_cfg() -> ServeConfig {
        ServeConfig::new(
            OptimizerConfig::test_scale(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
        )
    }

    fn loads(tenants: u32, seed: u64) -> Vec<TenantLoad> {
        generate(&LoadConfig {
            tenants,
            chunks_per_tenant: 4,
            events_per_chunk: 50,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn a_session_completes_against_two_owners() {
        let mut cluster = Cluster::new(serve_cfg(), RouterConfig::default(), &[0, 1]).unwrap();
        let loads = loads(3, 7);
        let outcome = run_cluster_session(
            &mut cluster,
            ClientConfig::default(),
            &loads,
            50_000,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outcome.reports.len(), 3);
        for report in &outcome.reports {
            assert!(!report.report_json.is_empty());
        }
        assert!(cluster.router().all_flushed());
    }

    #[test]
    fn killing_an_owner_with_restart_still_finishes() {
        let mut cluster = Cluster::new(serve_cfg(), RouterConfig::default(), &[0, 1]).unwrap();
        let loads = loads(3, 7);
        let outcome = run_cluster_session(
            &mut cluster,
            ClientConfig::default(),
            &loads,
            50_000,
            |poll, cluster| {
                if poll == 40 {
                    cluster.kill_owner(0, KillPolicy::Restart).unwrap();
                }
            },
        )
        .unwrap();
        assert_eq!(outcome.reports.len(), 3);
    }
}
