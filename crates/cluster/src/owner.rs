//! One shard-owner process: a whole `hds-serve` [`SessionManager`]
//! reachable *only* through `HDSW` frames over a transport, plus the
//! crash/restart lifecycle the cluster supervisor drives.
//!
//! The process boundary is modeled faithfully: the router holds no
//! reference into an owner's memory — every byte crosses the wire —
//! and [`OwnerProcess::kill`] drops the manager and its connection
//! outright, exactly the state loss a real `SIGKILL` inflicts. A
//! restarted owner starts from an empty manager; whatever its tenants
//! need to survive must come back over the wire (the router's
//! record-plus-journal rebuild).

use hds_serve::manager::ServeConfigError;
use hds_serve::{
    loopback, serve_tick, LoopbackTransport, ServeConfig, ServeReport, SessionManager,
};
use hds_telemetry::NullObserver;

/// A shard-owner process for the cluster: config, manager, connection.
pub struct OwnerProcess {
    id: u32,
    cfg: ServeConfig,
    manager: Option<SessionManager<NullObserver>>,
    server_end: Option<LoopbackTransport>,
    restarts: u32,
}

impl OwnerProcess {
    /// Boots an owner process from the fleet-shared serve config.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] for a degenerate config.
    pub fn new(id: u32, cfg: ServeConfig) -> Result<Self, ServeConfigError> {
        let manager = SessionManager::new(cfg.clone())?;
        Ok(OwnerProcess {
            id,
            cfg,
            manager: Some(manager),
            server_end: None,
            restarts: 0,
        })
    }

    /// This owner's id.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Times the process was restarted after a kill.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Accepts a fresh connection: builds a loopback pair, keeps the
    /// server end, returns the client end for the router's link.
    #[must_use]
    pub fn connect(&mut self) -> LoopbackTransport {
        let (client_end, server_end) = loopback();
        self.server_end = Some(server_end);
        client_end
    }

    /// Kills the process: manager and connection drop, all in-memory
    /// state is lost. What a `SIGKILL` does.
    pub fn kill(&mut self) {
        self.manager = None;
        self.server_end = None;
    }

    /// Whether the process is dead (killed and not yet restarted).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.manager.is_none()
    }

    /// Boots a fresh, empty manager from the same config. The caller
    /// re-[`OwnerProcess::connect`]s afterwards.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] — only if the shared config became invalid,
    /// which it cannot, but the constructor's contract is preserved.
    pub fn restart(&mut self) -> Result<(), ServeConfigError> {
        self.manager = Some(SessionManager::new(self.cfg.clone())?);
        self.restarts += 1;
        Ok(())
    }

    /// One server tick: drain every frame the router put on the wire,
    /// answer each immediately, then pump the shards so reports and
    /// exports flow back. Dead processes (and unconnected ones) tick
    /// as nothing.
    pub fn tick(&mut self) {
        if let (Some(manager), Some(server_end)) = (self.manager.as_mut(), self.server_end.as_mut())
        {
            serve_tick(
                manager,
                server_end,
                SessionManager::handle,
                SessionManager::pump,
            );
        }
    }

    /// The live manager's aggregate report, for assertions. `None`
    /// while dead.
    #[must_use]
    pub fn report(&self) -> Option<ServeReport> {
        self.manager.as_ref().map(SessionManager::report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
    use hds_serve::wire::Frame;
    use hds_serve::{ClientConfig, ClientSession, ClientStatus};

    fn cfg() -> ServeConfig {
        ServeConfig::new(
            OptimizerConfig::test_scale(),
            RunMode::Optimize(PrefetchPolicy::StreamTail),
        )
    }

    #[test]
    fn kill_loses_all_state_and_restart_boots_empty() {
        let mut owner = OwnerProcess::new(0, cfg()).unwrap();
        assert!(!owner.is_dead());
        let transport = owner.connect();
        drop(transport);
        owner.kill();
        assert!(owner.is_dead());
        assert!(owner.report().is_none());
        owner.restart().unwrap();
        assert!(!owner.is_dead());
        assert_eq!(owner.restarts(), 1);
        assert_eq!(owner.report().unwrap().opened, 0);
    }

    #[test]
    fn a_client_session_completes_against_an_owner() {
        use hds_serve::load::{generate, LoadConfig};
        let mut owner = OwnerProcess::new(0, cfg()).unwrap();
        let loads = generate(&LoadConfig {
            tenants: 1,
            chunks_per_tenant: 3,
            events_per_chunk: 40,
            seed: 11,
        })
        .unwrap();
        let mut client: ClientSession<LoopbackTransport> = ClientSession::new(ClientConfig {
            goodbye: false,
            ..ClientConfig::default()
        });
        client.add_tenant(
            &loads[0].name,
            loads[0].procedures.clone(),
            loads[0].chunks.clone(),
        );
        client.connect(owner.connect());
        for _ in 0..10_000 {
            match client.step().unwrap() {
                ClientStatus::Done => break,
                ClientStatus::NeedReconnect => panic!("loopback never dies"),
                ClientStatus::Working => {}
            }
            owner.tick();
        }
        let report = client.take_report(&loads[0].name).expect("report arrived");
        assert!(!report.report_json.is_empty());
        // The owner is reachable only through frames: a dead one
        // answers nothing.
        owner.kill();
        owner.tick();
        let _ = Frame::Goodbye; // wire types in scope — owners speak only HDSW
    }
}
