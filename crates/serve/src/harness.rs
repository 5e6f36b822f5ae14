//! The hostile-network harness: one client session driven to
//! completion against one [`SessionManager`] over a fault-injected
//! loopback pair.
//!
//! This is the shared engine behind the chaos integration tests and
//! the `chaos` bin's network sweep: wire a [`ClientSession`] to a
//! manager through a [`ChaosTransport`], interleave client steps with
//! server ticks, and rebuild the connection (carrying the fault
//! schedule across) whenever chaos kills it. The caller owns the manager, so it
//! can configure auth/budgets/shards and read the [`crate::ServeReport`]
//! and observer back afterwards.

use hds_core::Observer;

use crate::chaos::{ChaosTransport, NetFaultPlan};
use crate::client::TenantReport;
use crate::client::{ClientConfig, ClientError, ClientSession, ClientStats, ClientStatus};
use crate::load::TenantLoad;
use crate::manager::SessionManager;
use crate::transport::{loopback, LoopbackTransport};

/// Why a chaos session did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosHarnessError {
    /// The client gave up (retries exhausted or fatally rejected).
    Client(ClientError),
    /// The session made no progress within the poll budget — a
    /// convergence bug, since every fault schedule eventually goes
    /// quiet.
    Stalled {
        /// The exhausted poll budget.
        polls: u64,
    },
}

impl std::fmt::Display for ChaosHarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosHarnessError::Client(e) => write!(f, "chaos client failed: {e}"),
            ChaosHarnessError::Stalled { polls } => {
                write!(f, "chaos session stalled after {polls} polls")
            }
        }
    }
}

impl std::error::Error for ChaosHarnessError {}

impl From<ClientError> for ChaosHarnessError {
    fn from(e: ClientError) -> Self {
        ChaosHarnessError::Client(e)
    }
}

/// What one completed chaos session delivered.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Every tenant's report, in tenant submission order.
    pub reports: Vec<TenantReport>,
    /// The client's delivery/robustness counters.
    pub stats: ClientStats,
    /// Polls it took the client to finish.
    pub polls: u64,
    /// Total faults the schedule injected.
    pub faults_injected: u32,
    /// Injections per fault class, indexed by
    /// [`crate::NetFault::ALL`].
    pub fault_counts: [u64; 6],
}

/// Drives `tenants` through `manager` over a loopback pair whose
/// client→server direction misbehaves per `plan`, until every tenant
/// has its report (plus a graceful `Goodbye` drain when the client
/// config asks for one). Dead connections are rebuilt automatically,
/// carrying the remaining fault schedule across, so one seed describes
/// the hostility of the whole session.
///
/// # Errors
///
/// [`ChaosHarnessError`] when the client gives up or `max_polls`
/// elapse without completion.
pub fn run_chaos_session<O: Observer>(
    manager: &mut SessionManager<O>,
    client_cfg: ClientConfig,
    plan: NetFaultPlan,
    tenants: &[TenantLoad],
    max_polls: u64,
) -> Result<ChaosOutcome, ChaosHarnessError> {
    let mut client: ClientSession<ChaosTransport<LoopbackTransport>> =
        ClientSession::new(client_cfg);
    for t in tenants {
        client.add_tenant(&t.name, t.procedures.clone(), t.chunks.clone());
    }
    let (client_end, mut server_end) = loopback();
    client.connect(ChaosTransport::new(client_end, plan));
    let mut polls = 0u64;
    let (faults_injected, fault_counts) = loop {
        polls += 1;
        if polls > max_polls {
            return Err(ChaosHarnessError::Stalled { polls: max_polls });
        }
        match client.step()? {
            ClientStatus::Done => {
                let (_, plan) = client
                    .take_transport()
                    .map(ChaosTransport::into_parts)
                    .expect("a done client still holds its transport");
                let counts = std::array::from_fn(|i| plan.count(crate::NetFault::ALL[i]));
                break (plan.injected(), counts);
            }
            ClientStatus::NeedReconnect => {
                // Chaos killed the connection. Recover the surviving
                // fault schedule, rebuild the pair, resume.
                let plan = client
                    .take_transport()
                    .map_or_else(NetFaultPlan::quiet, |t| t.into_parts().1);
                let (client_end, fresh_server_end) = loopback();
                server_end = fresh_server_end;
                client.on_reconnected(ChaosTransport::new(client_end, plan));
            }
            ClientStatus::Working => {}
        }
        crate::serve_tick(
            manager,
            &mut server_end,
            SessionManager::handle,
            SessionManager::pump,
        );
    };
    Ok(ChaosOutcome {
        reports: client.reports().into_iter().cloned().collect(),
        stats: *client.stats(),
        polls,
        faults_injected,
        fault_counts,
    })
}
