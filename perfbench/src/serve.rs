//! The closed serve loop of `serve_resident` and of the layer replays.
//!
//! One [`ClientSession`] streams every tenant over one loopback
//! connection with at most [`WINDOW`] chunks handed over but not yet
//! applied — a profiled program stalls when its trace buffer is full.
//! Each loop iteration hands over new chunks, steps the client,
//! delivers its frames to the server, and runs one [`Server::tick`]. A
//! chunk's latency runs from its hand-off to `push_chunk` until the end
//! of the tick that applied it. Input generation happens between the
//! timed sections and is never counted.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use hds_core::{OptimizerConfig, PrefetchPolicy, RunMode};
use hds_guard::ServeBudgets;
use hds_serve::client::{ClientConfig, ClientSession, ClientStats, ClientStatus, TenantReport};
use hds_serve::TransportError;
use hds_serve::{loopback, Frame, LoopbackTransport, ServeConfig, SessionManager, Transport};
use hds_store::{Storage, Store, StoreConfig};
use hds_telemetry::MetricsRecorder;

use crate::probe::{StorageCounters, Timer, WireTimes};
use crate::programs::{ChunkSource, TenantSpec};

/// Chunks handed over but not yet applied, at most. With more than one,
/// each pump applies a mix of chunks with and without a phase boundary
/// and the median latency sits on the step between the two modes.
pub const WINDOW: usize = 1;

/// Client steps one repetition may take before it counts as stalled.
const MAX_ITERATIONS: u64 = 2_000_000;

/// The optimizer mode every serve workload runs.
pub const MODE: RunMode = RunMode::Optimize(PrefetchPolicy::StreamTail);

/// The system under test behind the client's connection.
pub trait Server {
    /// Handles one client frame; the responses go back to the client.
    fn handle(&mut self, frame: Frame) -> Vec<Frame>;

    /// Runs queued work — one pump, or one cluster tick — and returns
    /// frames for the client.
    fn tick(&mut self) -> Vec<Frame>;

    /// How many of `tenant`'s chunks have been applied so far.
    fn applied(&self, tenant: &str) -> u64;

    /// Tells the server how many chunks the client has handed over,
    /// for scripted events that land at fixed points of the stream.
    fn progress(&mut self, _chunks: u64) {}
}

/// The tenants, which send in turn, each streaming its whole program.
#[derive(Clone, Debug)]
pub struct Traffic {
    /// The tenant programs.
    pub specs: Vec<TenantSpec>,
    /// Chunks per tenant at most: the warm-up's and the replays' short
    /// versions, and `Some(0)` for a set-up alone.
    pub cap: Option<usize>,
}

/// Time in each section of the serve loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopTimes {
    /// `push_chunk`, `request_flush` and `step` on the client.
    pub client: Timer,
    /// Receiving client frames at the server end.
    pub recv: Timer,
    /// [`Server::handle`].
    pub handle: Timer,
    /// Sending responses from the server end.
    pub send: Timer,
    /// [`Server::tick`].
    pub tick: Timer,
}

/// What one repetition did.
#[derive(Debug, Default)]
pub struct Rep {
    /// Each tenant's final report, in tenant order.
    pub reports: Vec<Option<TenantReport>>,
    /// Chunks each tenant sent.
    pub chunks: Vec<usize>,
    /// Events handed over.
    pub events: u64,
    /// Set-up seconds.
    pub setup_s: f64,
    /// Seconds inside the system's calls, per loop iteration.
    pub times_s: Vec<f64>,
    /// Latency of each chunk, in hand-off order, in ms.
    pub chunk_ms: Vec<f64>,
    /// The client's robustness counters.
    pub stats: ClientStats,
    /// Serve-loop sections.
    pub times: LoopTimes,
    /// Wire codec times at the client's end of the connection.
    pub wire_client: WireTimes,
    /// Wire codec times at the server's end.
    pub wire_server: WireTimes,
    /// Failures of the loop itself (stalls, dead connections).
    pub problems: Vec<String>,
}

impl Rep {
    /// Chunks handed over.
    #[must_use]
    pub fn total_chunks(&self) -> u64 {
        self.chunks.iter().map(|&c| c as u64).sum()
    }

    /// Seconds inside the system's calls after set-up.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.times_s.iter().sum()
    }
}

/// Reads what a transport wrapper measured, if it measures anything.
pub trait WireProbe: Transport {
    /// The measured wire times (zero for an untimed transport).
    fn wire_times(&self) -> WireTimes;
}

impl WireProbe for LoopbackTransport {
    fn wire_times(&self) -> WireTimes {
        WireTimes::default()
    }
}

impl<T: Transport> WireProbe for crate::probe::TimedTransport<T> {
    fn wire_times(&self) -> WireTimes {
        self.times
    }
}

/// Picks who sends next: every unfinished tenant in turn.
#[derive(Default)]
struct Picker {
    next: usize,
    handed: u64,
}

impl Picker {
    /// The next sender among the unfinished tenants, or `None` when
    /// every tenant has finished.
    fn pick(&mut self, finished: &[bool]) -> Option<usize> {
        if finished.iter().all(|&f| f) {
            return None;
        }
        loop {
            let i = self.next % finished.len();
            self.next += 1;
            if !finished[i] {
                return Some(i);
            }
        }
    }
}

/// Delivers every frame the client sent to the server, then ticks it.
fn exchange<T: Transport, S: Server>(
    server_end: &mut T,
    server: &mut S,
    times: &mut LoopTimes,
    problems: &mut Vec<String>,
) -> Instant {
    loop {
        let start = Instant::now();
        let received = server_end.recv();
        times.recv.stop(start);
        match received {
            Ok(Some(frame)) => {
                let start = Instant::now();
                let responses = server.handle(frame);
                times.handle.stop(start);
                let start = Instant::now();
                for r in &responses {
                    let _ = server_end.send(r);
                }
                times.send.stop(start);
            }
            Ok(None) => break,
            Err(TransportError::Frame(e)) => problems.push(format!("damaged frame: {e}")),
            Err(e) => {
                problems.push(format!("server end failed: {e}"));
                break;
            }
        }
    }
    let start = Instant::now();
    let out = server.tick();
    times.tick.stop(start);
    let start = Instant::now();
    for r in &out {
        let _ = server_end.send(r);
    }
    times.send.stop(start);
    Instant::now()
}

/// Runs one repetition: set up the server and connection, open every
/// tenant, stream the traffic, and collect the reports.
pub fn drive<T: WireProbe, S: Server>(
    traffic: &Traffic,
    make: impl FnOnce() -> S,
    wrap: impl Fn(LoopbackTransport) -> T,
) -> (Rep, S) {
    let n = traffic.specs.len();
    let mut sources: Vec<ChunkSource> = traffic.specs.iter().map(ChunkSource::new).collect();
    let procedures: Vec<_> = sources.iter().map(|s| s.procedures().to_vec()).collect();
    let mut rep = Rep {
        chunks: vec![0; n],
        ..Rep::default()
    };
    let mut times = LoopTimes::default();

    let setup = Instant::now();
    let mut server = make();
    let (client_end, server_end) = loopback();
    let mut client = ClientSession::new(ClientConfig {
        window: WINDOW as u64,
        ..ClientConfig::default()
    });
    client.connect(wrap(client_end));
    let mut server_end = wrap(server_end);
    for (spec, procs) in traffic.specs.iter().zip(procedures) {
        client.add_tenant_streaming(&spec.name, procs);
    }
    loop {
        if let Err(e) = client.step() {
            rep.problems
                .push(format!("client failed opening tenants: {e}"));
            break;
        }
        exchange(&mut server_end, &mut server, &mut times, &mut rep.problems);
        if client.idle() {
            break;
        }
    }
    rep.setup_s = setup.elapsed().as_secs_f64();
    times = LoopTimes::default();

    let mut picker = Picker::default();
    let mut finished = vec![false; n];
    // (tenant, sequence number, index of the chunk in hand-off order,
    // hand-off instant) of every chunk handed over but not yet applied.
    let mut outstanding: VecDeque<(usize, u64, usize, Instant)> = VecDeque::new();
    let mut batch: Vec<(usize, Vec<hds_vulcan::Event>)> = Vec::with_capacity(WINDOW);
    let mut flushes: Vec<usize> = Vec::new();
    let mut flushed_all = false;
    for _ in 0..MAX_ITERATIONS {
        // Untimed: generate the chunks that fit in the window.
        while outstanding.len() + batch.len() < WINDOW {
            let Some(i) = picker.pick(&finished) else {
                if !flushed_all {
                    flushed_all = true;
                    flushes.extend((0..n).filter(|&i| !finished[i]));
                    finished.iter_mut().for_each(|f| *f = true);
                }
                break;
            };
            let capped = traffic.cap.is_some_and(|c| rep.chunks[i] >= c);
            match (!capped).then(|| sources[i].next_chunk()).flatten() {
                Some(chunk) => {
                    rep.chunks[i] += 1;
                    picker.handed += 1;
                    batch.push((i, chunk));
                }
                None => {
                    finished[i] = true;
                    flushes.push(i);
                }
            }
        }
        let start = Instant::now();
        for (i, chunk) in batch.drain(..) {
            rep.events += chunk.len() as u64;
            client.push_chunk(&traffic.specs[i].name, chunk);
            outstanding.push_back((i, rep.chunks[i] as u64, rep.chunk_ms.len(), start));
            rep.chunk_ms.push(f64::NAN);
        }
        for i in flushes.drain(..) {
            client.request_flush(&traffic.specs[i].name);
        }
        let status = client.step();
        times.client.stop(start);
        let end = exchange(&mut server_end, &mut server, &mut times, &mut rep.problems);
        rep.times_s.push((end - start).as_secs_f64());
        outstanding.retain(|&(i, seq, index, handed_at)| {
            if server.applied(&traffic.specs[i].name) >= seq {
                rep.chunk_ms[index] = (end - handed_at).as_secs_f64() * 1e3;
                false
            } else {
                true
            }
        });
        server.progress(picker.handed);
        match status {
            Ok(ClientStatus::Done) => break,
            Ok(ClientStatus::Working) => {}
            Ok(ClientStatus::NeedReconnect) => {
                rep.problems.push("client lost its connection".into());
                break;
            }
            Err(e) => {
                rep.problems.push(format!("client failed: {e}"));
                break;
            }
        }
    }
    if !outstanding.is_empty() {
        rep.problems
            .push(format!("{} chunks never applied", outstanding.len()));
    }
    rep.times = times;
    rep.stats = *client.stats();
    rep.reports = traffic
        .specs
        .iter()
        .map(|s| client.take_report(&s.name))
        .collect();
    rep.wire_server = server_end.wire_times();
    if let Some(t) = client.take_transport() {
        rep.wire_client = t.wire_times();
    }
    (rep, server)
}

/// A [`SessionManager`] as the server: chunks are applied by the pump
/// after the frame that carried them.
pub struct ManagerServer {
    /// The manager, with the recorder its report reconciles against.
    pub manager: SessionManager<MetricsRecorder>,
    acked: HashMap<String, u64>,
    pending: Vec<(String, u64)>,
    applied: HashMap<String, u64>,
    compact_every: u64,
    /// Pumps run.
    pub pumps: u64,
    /// Largest `resident_bytes` seen after a pump, when tracked.
    pub resident_peak: Option<u64>,
    /// The store's storage counters, when it is timed.
    pub storage: Option<std::sync::Arc<StorageCounters>>,
}

impl ManagerServer {
    /// A manager with `shards` shards and one pump worker, optionally
    /// capped at `live_cap` live sessions and spilling to a store over
    /// `storage` that is compacted every `compact_every` pumps.
    #[must_use]
    pub fn new(
        config: &OptimizerConfig,
        shards: u32,
        live_cap: Option<u64>,
        storage: Option<Box<dyn Storage>>,
        compact_every: u64,
    ) -> Self {
        let mut budgets = ServeBudgets::disabled();
        if let Some(cap) = live_cap {
            budgets = budgets.with_max_live_sessions(cap);
        }
        let cfg = ServeConfig::new(config.clone(), MODE)
            .with_shards(shards)
            .with_workers(1)
            .with_budgets(budgets);
        let mut manager =
            SessionManager::with_observer(cfg, MetricsRecorder::new()).expect("valid serve config");
        if let Some(storage) = storage {
            manager.attach_store(
                Store::open(storage, StoreConfig::default()).expect("an empty store opens"),
            );
        }
        ManagerServer {
            manager,
            acked: HashMap::new(),
            pending: Vec::new(),
            applied: HashMap::new(),
            compact_every,
            pumps: 0,
            resident_peak: None,
            storage: None,
        }
    }
}

/// The `(tenant, seq)` of a sequenced chunk frame.
pub fn chunk_id(frame: &Frame) -> Option<(String, u64)> {
    match frame {
        Frame::TraceChunk { tenant, seq, .. } => Some((tenant.clone(), *seq)),
        _ => None,
    }
}

/// Whether `responses` acknowledge `tenant`'s chunk `seq`.
pub fn acks(responses: &[Frame], tenant: &str, seq: u64) -> bool {
    responses
        .iter()
        .any(|r| matches!(r, Frame::Ack { tenant: t, seq: s } if *s == seq && t == tenant))
}

impl Server for ManagerServer {
    fn handle(&mut self, frame: Frame) -> Vec<Frame> {
        let chunk = chunk_id(&frame);
        let responses = self.manager.handle(frame);
        if let Some((tenant, seq)) = chunk {
            let last = self.acked.entry(tenant.clone()).or_insert(0);
            if seq > *last && acks(&responses, &tenant, seq) {
                *last = seq;
                self.pending.push((tenant, seq));
            }
        }
        responses
    }

    fn tick(&mut self) -> Vec<Frame> {
        let out = self.manager.pump();
        self.pumps += 1;
        if self.compact_every > 0 && self.pumps.is_multiple_of(self.compact_every) {
            self.manager.compact_store();
        }
        for (tenant, seq) in self.pending.drain(..) {
            self.applied.insert(tenant, seq);
        }
        if let Some(peak) = self.resident_peak.as_mut() {
            *peak = (*peak).max(self.manager.resident_bytes());
        }
        out
    }

    fn applied(&self, tenant: &str) -> u64 {
        self.applied.get(tenant).copied().unwrap_or(0)
    }
}
