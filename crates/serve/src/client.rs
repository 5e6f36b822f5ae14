//! A reliable `HDSW` client: per-frame timeouts, capped-exponential
//! retry, and reconnect-with-resume on top of any [`Transport`].
//!
//! [`ClientSession`] is a poll-driven state machine: every call to
//! [`ClientSession::step`] advances a logical clock, drains inbound
//! frames, retransmits any in-flight request whose ack deadline
//! lapsed, and sends the next requests when the window has room.
//!
//! Delivery is selective-repeat over sequenced chunks: up to
//! [`ClientConfig::window`] chunks may be unacknowledged at once, each
//! on its own retransmission clock. Everything that is *not* a chunk
//! (`Hello`, `OpenSession`/`Migrate`, `Flush`, `Export`, `Goodbye`) is
//! a **barrier**: it is only sent on an empty pipeline and nothing
//! else is sent while it is in flight, which keeps the resume algebra
//! exactly as simple as classic stop-and-wait (`window = 1`, the
//! default, *is* classic stop-and-wait).
//!
//! Exactly-once delivery is the sum of three pieces: chunks carry
//! per-tenant sequence numbers, the server deduplicates at or below
//! its acknowledged sequence and re-acks for free, and after a
//! reconnect the client re-`Hello`s and re-opens each tenant — the
//! server answers with the tenant's resume point, and the client
//! rewinds (or fast-forwards) to it. A retried chunk is therefore
//! applied exactly once however often the wire dropped, duplicated,
//! corrupted, or tore it.
//!
//! Timeouts count *polls*, not wall-clock time, which makes every
//! retry schedule deterministic under the chaos harness; a real
//! deployment calls `step` on a ticker.

use hds_backend::BackendKind;
use hds_core::Observer;
use hds_store::TenantRecord;
use hds_telemetry::events as tev;
use hds_vulcan::{Event, Procedure};

use crate::transport::{Transport, TransportError};
use crate::wire::{
    Frame, RejectCode, FEATURE_RELIABLE, K_CHUNK, K_EXPORT, K_FLUSH, K_GOODBYE, K_HELLO, K_MIGRATE,
    K_OPEN, WIRE_VERSION,
};

/// Client behaviour knobs. Defaults are sane for the chaos harness.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Shared-secret auth token sent in `Hello`.
    pub token: String,
    /// Polls to wait for an acknowledgement before retransmitting.
    pub ack_timeout: u64,
    /// Consecutive retransmissions of one frame before giving up.
    pub max_retries: u32,
    /// First retry backoff, in polls; doubles per attempt.
    pub backoff_base: u64,
    /// Backoff ceiling, in polls.
    pub backoff_cap: u64,
    /// Send a `Goodbye` drain once every tenant has its report.
    pub goodbye: bool,
    /// `AuthFailed` rejects tolerated (with a fresh handshake each
    /// time) before concluding the credential itself is bad. The frame
    /// checksum turns almost every token damaged in flight into a
    /// dropped frame rather than a reject; these retries cover the
    /// damage that still matches its checksum (p ≈ 2^-32 per damaged
    /// frame). A genuinely wrong token fails persistently and still
    /// surfaces as [`ClientError::Rejected`].
    pub auth_retries: u32,
    /// Prefetch backend to request in `Hello`. `None` (the default)
    /// omits the negotiation byte entirely — the server's per-tenant
    /// policy (A/B split or default) then decides.
    pub backend: Option<BackendKind>,
    /// Sequenced chunks allowed in flight at once (selective repeat).
    /// 1 — the default — is classic stop-and-wait; larger windows
    /// pipeline the chunk stream over real RTTs. Non-chunk frames are
    /// barriers regardless of the window.
    pub window: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            token: String::new(),
            ack_timeout: 8,
            max_retries: 16,
            backoff_base: 2,
            backoff_cap: 32,
            goodbye: true,
            auth_retries: 2,
            backend: None,
            window: 1,
        }
    }
}

/// Why a client session gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// One frame exhausted its retransmission budget.
    RetriesExhausted {
        /// What was being retried, as a wire kind tag.
        kind: u8,
        /// Retries attempted.
        attempts: u32,
    },
    /// The server answered with a reject the client cannot recover
    /// from (bad auth, draining, a true protocol conflict).
    Rejected {
        /// The server's reason code.
        code: RejectCode,
        /// The server's free-form detail.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RetriesExhausted { kind, attempts } => {
                write!(f, "frame {kind:#04x} unacked after {attempts} retries")
            }
            ClientError::Rejected { code, detail } => {
                write!(f, "fatally rejected ({code}): {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// What [`ClientSession::step`] reports back to its driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientStatus {
    /// Making progress (or backing off); keep stepping.
    Working,
    /// The connection died; hand a fresh transport to
    /// [`ClientSession::on_reconnected`], then keep stepping.
    NeedReconnect,
    /// Every tenant has its report (and the drain, if configured, is
    /// acknowledged).
    Done,
}

/// Robustness counters, for `BENCH_net.json` and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Frames retransmitted after an ack timeout.
    pub retries: u64,
    /// Fresh transports attached after a dead connection.
    pub reconnects: u64,
    /// Recoverable rejects absorbed (lost handshake, sequence rewind,
    /// lost open).
    pub rejects: u64,
    /// `Busy`/`Shed` refusals absorbed with backoff.
    pub sheds: u64,
    /// Acknowledgements received.
    pub acks: u64,
    /// Keepalive pings answered.
    pub pings: u64,
    /// Polls spent waiting in retry backoff.
    pub backoff_polls: u64,
    /// Server-initiated `Stats` pushes received.
    pub stats_pushes: u64,
}

/// A tenant's final report as the client received it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant identifier.
    pub tenant: String,
    /// The server's `Report` JSON, byte-for-byte.
    pub report_json: String,
    /// The server's image digest at flush time.
    pub image_digest: u64,
}

/// One tenant's upload: program image, chunked events, and the
/// client-side delivery cursor.
struct Flow {
    name: String,
    procedures: Vec<Procedure>,
    chunks: Vec<Vec<Event>>,
    /// Open by handing the server this migrated durable record instead
    /// of a fresh `OpenSession` — the receiving half of a cross-process
    /// tenant handoff. The server seats the record cold and rehydrates
    /// it through the same path as a store load.
    open_record: Option<Box<TenantRecord>>,
    /// Whether the server has confirmed the open on the current
    /// connection.
    opened: bool,
    /// Highest chunk sequence number the server has acknowledged.
    acked: u64,
    /// Batch flows ([`ClientSession::add_tenant`]) flush as soon as
    /// every chunk is acknowledged; streaming flows wait for
    /// [`ClientSession::request_flush`].
    auto_flush: bool,
    flush_requested: bool,
    /// A queued `Export`; the payload is the detach flag.
    export_requested: Option<bool>,
    /// The record the server answered the last `Export` with.
    exported: Option<Box<TenantRecord>>,
    report: Option<TenantReport>,
    /// The server detached the tenant after an export; the flow is
    /// finished without a report.
    detached: bool,
}

impl Flow {
    fn done(&self) -> bool {
        self.report.is_some() || self.detached
    }

    /// Every queued chunk acknowledged.
    fn drained(&self) -> bool {
        self.acked >= self.chunks.len() as u64
    }
}

/// One unacknowledged request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    Hello,
    Open(usize),
    Chunk(usize, u64),
    Flush(usize),
    Export(usize),
    Goodbye,
}

/// An unacknowledged request with its own retransmission clock.
struct InFlight {
    pending: Pending,
    sent_at: u64,
    attempt: u32,
    backoff: u64,
}

/// See the module docs. `T` is the wire, `O` the observer receiving
/// `Net` span instants for every retry and reconnect.
pub struct ClientSession<T: Transport, O: Observer = hds_core::NullObserver> {
    cfg: ClientConfig,
    obs: O,
    transport: Option<T>,
    /// The connection errored; it is kept (so its state — e.g. a chaos
    /// plan — can be recovered via [`ClientSession::take_transport`])
    /// but no longer used.
    dead: bool,
    flows: Vec<Flow>,
    poll: u64,
    handshaken: bool,
    goodbye_acked: bool,
    inflight: Vec<InFlight>,
    auth_rejects: u32,
    last_stats: Option<Frame>,
    stats: ClientStats,
}

impl<T: Transport> ClientSession<T, hds_core::NullObserver> {
    /// A client with no observer.
    #[must_use]
    pub fn new(cfg: ClientConfig) -> Self {
        ClientSession::with_observer(cfg, hds_core::NullObserver)
    }
}

impl<T: Transport, O: Observer> ClientSession<T, O> {
    /// A client emitting `Net` telemetry into `obs`.
    #[must_use]
    pub fn with_observer(cfg: ClientConfig, obs: O) -> Self {
        ClientSession {
            cfg,
            obs,
            transport: None,
            dead: false,
            flows: Vec::new(),
            poll: 0,
            handshaken: false,
            goodbye_acked: false,
            inflight: Vec::new(),
            auth_rejects: 0,
            last_stats: None,
            stats: ClientStats::default(),
        }
    }

    fn new_flow(name: String, procedures: Vec<Procedure>, auto_flush: bool) -> Flow {
        Flow {
            name,
            procedures,
            chunks: Vec::new(),
            open_record: None,
            opened: false,
            acked: 0,
            auto_flush,
            flush_requested: false,
            export_requested: None,
            exported: None,
            report: None,
            detached: false,
        }
    }

    /// Queues a batch tenant upload: its program image and chunked
    /// event stream. Chunk `i` is sent with sequence number `i + 1`,
    /// and the flow flushes itself once every chunk is acknowledged.
    pub fn add_tenant(&mut self, name: &str, procedures: Vec<Procedure>, chunks: Vec<Vec<Event>>) {
        let mut flow = Self::new_flow(name.to_string(), procedures, true);
        flow.chunks = chunks;
        self.flows.push(flow);
    }

    /// Queues a streaming tenant: chunks arrive later through
    /// [`ClientSession::push_chunk`], and the flow only flushes on
    /// [`ClientSession::request_flush`] (or exports on
    /// [`ClientSession::request_export`]).
    pub fn add_tenant_streaming(&mut self, name: &str, procedures: Vec<Procedure>) {
        self.flows
            .push(Self::new_flow(name.to_string(), procedures, false));
    }

    /// Queues a streaming tenant that opens by *migration*: the open
    /// frame is a `Migrate` carrying this durable record, so the
    /// server adopts the tenant's cold state exactly as if it had been
    /// loaded from its own store.
    pub fn add_tenant_from_record(&mut self, record: TenantRecord) {
        let mut flow = Self::new_flow(record.tenant.clone(), record.procedures.clone(), false);
        flow.open_record = Some(Box::new(record));
        self.flows.push(flow);
    }

    /// Appends a chunk to a tenant's stream; it is sent with the next
    /// sequence number once the window has room. `false` when the
    /// tenant is unknown or already finished.
    ///
    /// The client keeps every chunk, acknowledged or not, until the
    /// session ends: a [`RejectCode::StoreFailed`] reject means the
    /// server lost the tenant's state, and the client re-opens it and
    /// replays the stream from sequence zero. A long-running stream
    /// therefore holds its whole event history in client memory.
    pub fn push_chunk(&mut self, tenant: &str, events: Vec<Event>) -> bool {
        match self.flow_index(tenant) {
            Some(i) if !self.flows[i].done() => {
                self.flows[i].chunks.push(events);
                true
            }
            _ => false,
        }
    }

    /// Asks a streaming tenant to flush (compute its final report)
    /// once every queued chunk is acknowledged. `false` when the
    /// tenant is unknown or already finished.
    pub fn request_flush(&mut self, tenant: &str) -> bool {
        match self.flow_index(tenant) {
            Some(i) if !self.flows[i].done() => {
                self.flows[i].flush_requested = true;
                true
            }
            _ => false,
        }
    }

    /// Asks the server to export the tenant's durable record once
    /// every queued chunk is acknowledged. With `detach` the tenant
    /// leaves the server entirely (the sending half of a migration);
    /// without it the record is a point-in-time copy. `false` when the
    /// tenant is unknown or already finished.
    pub fn request_export(&mut self, tenant: &str, detach: bool) -> bool {
        match self.flow_index(tenant) {
            Some(i) if !self.flows[i].done() => {
                self.flows[i].export_requested = Some(detach);
                true
            }
            _ => false,
        }
    }

    /// The record the server answered the tenant's last `Export` with,
    /// if it has arrived.
    pub fn take_export(&mut self, tenant: &str) -> Option<TenantRecord> {
        let i = self.flow_index(tenant)?;
        self.flows[i].exported.take().map(|r| *r)
    }

    /// The tenant's final report, if it has arrived.
    pub fn take_report(&mut self, tenant: &str) -> Option<TenantReport> {
        let i = self.flow_index(tenant)?;
        self.flows[i].report.take()
    }

    /// The most recent server `Stats` frame (answer or push), if any
    /// arrived since the last take.
    pub fn take_stats(&mut self) -> Option<Frame> {
        self.last_stats.take()
    }

    /// Highest chunk sequence number the server has acknowledged for
    /// the tenant.
    #[must_use]
    pub fn acked_seq(&self, tenant: &str) -> Option<u64> {
        self.flow_index(tenant).map(|i| self.flows[i].acked)
    }

    /// No requests in flight.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Attaches the first transport. Equivalent to
    /// [`ClientSession::on_reconnected`] minus the reconnect
    /// accounting.
    pub fn connect(&mut self, transport: T) {
        self.transport = Some(transport);
        self.dead = false;
        self.handshaken = false;
        self.inflight.clear();
    }

    /// Attaches a fresh transport after a dead connection and arms the
    /// resume protocol: re-`Hello`, re-open every unfinished tenant
    /// (the server's open ack carries the resume point), resend
    /// whatever is still unacknowledged.
    pub fn on_reconnected(&mut self, transport: T) {
        self.stats.reconnects += 1;
        self.net_event(tev::NetEventKind::Reconnect, self.stats.reconnects);
        for flow in &mut self.flows {
            if !flow.done() {
                flow.opened = false;
            }
        }
        self.connect(transport);
    }

    /// Takes the (possibly dead) transport back, e.g. to recover a
    /// chaos plan before building the replacement connection.
    pub fn take_transport(&mut self) -> Option<T> {
        self.inflight.clear();
        self.dead = false;
        self.transport.take()
    }

    /// Delivery/robustness counters.
    #[must_use]
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The observer, for reading recorded telemetry back.
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Consumes the session and returns its observer.
    #[must_use]
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// Polls stepped so far.
    #[must_use]
    pub fn polls(&self) -> u64 {
        self.poll
    }

    /// Every tenant report received, in [`ClientSession::add_tenant`]
    /// order (a tenant without a report yet is skipped).
    #[must_use]
    pub fn reports(&self) -> Vec<&TenantReport> {
        self.flows
            .iter()
            .filter_map(|f| f.report.as_ref())
            .collect()
    }

    fn net_event(&mut self, kind: tev::NetEventKind, b: u64) {
        if O::ENABLED {
            self.obs.on(&tev::Event::Span(
                tev::SpanEvent::instant(tev::SpanKind::Net, self.poll).with_args(kind.code(), b),
            ));
        }
    }

    /// The wire kind tag of `pending`'s frame.
    fn kind_tag(&self, pending: Pending) -> u8 {
        match pending {
            Pending::Hello => K_HELLO,
            Pending::Open(i) if self.flows[i].open_record.is_some() => K_MIGRATE,
            Pending::Open(_) => K_OPEN,
            Pending::Chunk(..) => K_CHUNK,
            Pending::Flush(_) => K_FLUSH,
            Pending::Export(_) => K_EXPORT,
            Pending::Goodbye => K_GOODBYE,
        }
    }

    /// Sends `pending`'s frame; a send failure kills the connection. A
    /// chunk's events are lent to its frame and taken back, not copied.
    fn send_request(&mut self, pending: Pending) -> bool {
        let frame = match pending {
            Pending::Hello => Frame::Hello {
                version: WIRE_VERSION,
                token: self.cfg.token.clone(),
                features: FEATURE_RELIABLE,
                backend: self.cfg.backend,
            },
            Pending::Open(i) => match &self.flows[i].open_record {
                Some(record) => Frame::Migrate {
                    record: (**record).clone(),
                },
                None => Frame::OpenSession {
                    tenant: self.flows[i].name.clone(),
                    procedures: self.flows[i].procedures.clone(),
                },
            },
            Pending::Chunk(i, seq) => {
                let slot = (seq - 1) as usize;
                let frame = Frame::TraceChunk {
                    tenant: self.flows[i].name.clone(),
                    seq,
                    events: std::mem::take(&mut self.flows[i].chunks[slot]).into(),
                };
                let sent = self.push(&frame);
                if let Frame::TraceChunk { events, .. } = frame {
                    self.flows[i].chunks[slot] = events.into_vec();
                }
                return sent;
            }
            Pending::Flush(i) => Frame::Flush {
                tenant: self.flows[i].name.clone(),
            },
            Pending::Export(i) => Frame::Export {
                tenant: self.flows[i].name.clone(),
                detach: self.flows[i].export_requested.unwrap_or(false),
            },
            Pending::Goodbye => Frame::Goodbye,
        };
        self.push(&frame)
    }

    /// Sends `frame`; a send failure kills the connection.
    fn push(&mut self, frame: &Frame) -> bool {
        let Some(t) = self.transport.as_mut() else {
            return false;
        };
        if t.send(frame).is_err() {
            self.dead = true;
            return false;
        }
        true
    }

    /// The latest flow with this name — a re-homed tenant can come
    /// back to a link that already holds its finished older flow, and
    /// delivery state must bind to the live one.
    fn flow_index(&self, tenant: &str) -> Option<usize> {
        self.flows.iter().rposition(|f| f.name == tenant)
    }

    /// Sends a barrier request on an (asserted-empty) pipeline.
    fn send_barrier(&mut self, pending: Pending) -> Result<ClientStatus, ClientError> {
        if !self.send_request(pending) {
            return Ok(ClientStatus::NeedReconnect);
        }
        self.inflight.push(InFlight {
            pending,
            sent_at: self.poll,
            attempt: 0,
            backoff: 0,
        });
        Ok(ClientStatus::Working)
    }

    /// Sends whatever the window allows: the next barrier on an empty
    /// pipeline, or chunk top-ups (flows in order) while only chunks
    /// are in flight.
    fn fill_window(&mut self) -> Result<ClientStatus, ClientError> {
        if self
            .inflight
            .iter()
            .any(|e| !matches!(e.pending, Pending::Chunk(..)))
        {
            // A barrier in flight: nothing else moves.
            return Ok(ClientStatus::Working);
        }
        if !self.handshaken {
            if self.inflight.is_empty() {
                return self.send_barrier(Pending::Hello);
            }
            return Ok(ClientStatus::Working);
        }
        let window = self.cfg.window.max(1);
        let mut in_flight = self.inflight.len() as u64;
        for i in 0..self.flows.len() {
            if self.flows[i].done() {
                continue;
            }
            if !self.flows[i].opened {
                if self.inflight.is_empty() {
                    return self.send_barrier(Pending::Open(i));
                }
                return Ok(ClientStatus::Working);
            }
            // Top up this flow's chunks: in-flight sequences form a
            // contiguous run above `acked`, so the next to send is one
            // past the highest in flight.
            let highest = self
                .inflight
                .iter()
                .filter_map(|e| match e.pending {
                    Pending::Chunk(j, s) if j == i => Some(s),
                    _ => None,
                })
                .max()
                .unwrap_or(self.flows[i].acked);
            let mut next = highest.max(self.flows[i].acked) + 1;
            while in_flight < window && next <= self.flows[i].chunks.len() as u64 {
                if !self.send_request(Pending::Chunk(i, next)) {
                    return Ok(ClientStatus::NeedReconnect);
                }
                self.inflight.push(InFlight {
                    pending: Pending::Chunk(i, next),
                    sent_at: self.poll,
                    attempt: 0,
                    backoff: 0,
                });
                in_flight += 1;
                next += 1;
            }
            if next <= self.flows[i].chunks.len() as u64 {
                // Window full with chunks still queued.
                return Ok(ClientStatus::Working);
            }
            let flow = &self.flows[i];
            if flow.export_requested.is_some() || flow.auto_flush || flow.flush_requested {
                // Barrier work queued for this flow: wait for its
                // chunks to be acknowledged and the pipe to clear,
                // then send it. Later flows wait behind it.
                if flow.drained() && self.inflight.is_empty() {
                    if flow.export_requested.is_some() {
                        return self.send_barrier(Pending::Export(i));
                    }
                    return self.send_barrier(Pending::Flush(i));
                }
                return Ok(ClientStatus::Working);
            }
            // A streaming flow with nothing queued parks without
            // blocking later flows.
        }
        if self.flows.iter().all(Flow::done) {
            if self.cfg.goodbye && !self.goodbye_acked {
                if self.inflight.is_empty() {
                    return self.send_barrier(Pending::Goodbye);
                }
                return Ok(ClientStatus::Working);
            }
            if self.inflight.is_empty() {
                return Ok(ClientStatus::Done);
            }
        }
        Ok(ClientStatus::Working)
    }

    /// Advances the session by one logical tick. Call in a loop; see
    /// [`ClientStatus`] for what to do between calls.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the session cannot make further progress.
    pub fn step(&mut self) -> Result<ClientStatus, ClientError> {
        self.poll += 1;
        if self.transport.is_none() || self.dead {
            return Ok(ClientStatus::NeedReconnect);
        }
        // Drain everything the server pushed since the last step.
        loop {
            let received = match self.transport.as_mut().expect("checked above").recv() {
                Ok(Some(frame)) => frame,
                Ok(None) | Err(TransportError::TimedOut) => break,
                Err(_) => {
                    self.dead = true;
                    return Ok(ClientStatus::NeedReconnect);
                }
            };
            self.on_frame(received)?;
            if self.dead {
                return Ok(ClientStatus::NeedReconnect);
            }
        }
        // Retransmit every in-flight request past its deadline, each
        // on its own capped-exponential clock (selective repeat).
        for k in 0..self.inflight.len() {
            let (pending, sent_at, backoff) = {
                let e = &self.inflight[k];
                (e.pending, e.sent_at, e.backoff)
            };
            if self.poll < sent_at + self.cfg.ack_timeout + backoff {
                continue;
            }
            let attempt = self.inflight[k].attempt + 1;
            if attempt > self.cfg.max_retries {
                return Err(ClientError::RetriesExhausted {
                    kind: self.kind_tag(pending),
                    attempts: attempt - 1,
                });
            }
            self.stats.retries += 1;
            let backoff =
                (self.cfg.backoff_base << (attempt - 1).min(16)).min(self.cfg.backoff_cap);
            self.stats.backoff_polls += backoff;
            self.net_event(tev::NetEventKind::Retry, backoff);
            if !self.send_request(pending) {
                return Ok(ClientStatus::NeedReconnect);
            }
            let e = &mut self.inflight[k];
            e.attempt = attempt;
            e.backoff = backoff;
            e.sent_at = self.poll;
        }
        self.fill_window()
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), ClientError> {
        match frame {
            Frame::HelloAck { .. } => {
                self.handshaken = true;
                self.auth_rejects = 0;
                self.inflight.retain(|e| e.pending != Pending::Hello);
            }
            Frame::Ack { tenant, seq } => {
                self.stats.acks += 1;
                let Some(i) = self.flow_index(&tenant) else {
                    return Ok(());
                };
                self.flows[i].acked = self.flows[i].acked.max(seq);
                if self.inflight.iter().any(|e| e.pending == Pending::Open(i)) {
                    self.flows[i].opened = true;
                    self.inflight.retain(|e| e.pending != Pending::Open(i));
                }
                let acked = self.flows[i].acked;
                self.inflight
                    .retain(|e| !matches!(e.pending, Pending::Chunk(j, s) if j == i && s <= acked));
            }
            Frame::Report {
                tenant,
                report_json,
                image_digest,
            } => {
                if let Some(i) = self.flow_index(&tenant) {
                    if self.flows[i].report.is_none() {
                        self.flows[i].report = Some(TenantReport {
                            tenant,
                            report_json,
                            image_digest,
                        });
                    }
                    self.inflight
                        .retain(|e| !matches!(e.pending, Pending::Flush(j) if j == i));
                }
            }
            Frame::Exported { record } => {
                if let Some(i) = self.flow_index(&record.tenant) {
                    let detach = self.flows[i].export_requested.take().unwrap_or(false);
                    if detach {
                        self.flows[i].detached = true;
                    }
                    self.flows[i].exported = Some(Box::new(record));
                    self.inflight
                        .retain(|e| !matches!(e.pending, Pending::Export(j) if j == i));
                }
            }
            stats_frame @ Frame::Stats { .. } => {
                self.stats.stats_pushes += 1;
                self.last_stats = Some(stats_frame);
            }
            Frame::Ping { nonce } => {
                self.stats.pings += 1;
                // Answer out of band; keepalives don't disturb the
                // delivery pipeline.
                self.push(&Frame::Pong { nonce });
            }
            Frame::GoodbyeAck { .. } => {
                self.goodbye_acked = true;
                self.inflight.retain(|e| e.pending != Pending::Goodbye);
            }
            Frame::Busy { .. } | Frame::Shed { .. } => {
                // The request was refused but not applied: retrying
                // the same frame later is safe. Restart every in-flight
                // timer with a grown backoff so the retry storm stays
                // polite.
                self.stats.sheds += 1;
                for k in 0..self.inflight.len() {
                    let attempt = self.inflight[k].attempt + 1;
                    if attempt > self.cfg.max_retries {
                        return Err(ClientError::RetriesExhausted {
                            kind: self.kind_tag(self.inflight[k].pending),
                            attempts: attempt - 1,
                        });
                    }
                    let backoff =
                        (self.cfg.backoff_base << (attempt - 1).min(16)).min(self.cfg.backoff_cap);
                    self.stats.backoff_polls += backoff;
                    let e = &mut self.inflight[k];
                    e.attempt = attempt;
                    e.backoff = backoff;
                    e.sent_at = self.poll;
                }
            }
            Frame::Reject { code, detail } => return self.on_reject(code, &detail),
            // Other unsolicited server frames carry no delivery state
            // for this pipeline.
            _ => {}
        }
        Ok(())
    }

    /// Drops every in-flight request bound to flow `i` (chunk, flush,
    /// export — not an open).
    fn drop_flow_inflight(&mut self, i: usize) {
        self.inflight.retain(|e| {
            !matches!(e.pending,
                Pending::Chunk(j, _) | Pending::Flush(j) | Pending::Export(j) if j == i)
        });
    }

    fn on_reject(&mut self, code: RejectCode, detail: &str) -> Result<(), ClientError> {
        match code {
            RejectCode::HandshakeRequired => {
                // Reordering (or a server restart) lost our Hello:
                // re-handshake, then resend the rejected request.
                self.stats.rejects += 1;
                self.handshaken = false;
                self.inflight.retain(|e| e.pending == Pending::Hello);
                Ok(())
            }
            RejectCode::BadSequence => {
                // detail is "<tenant> <last_acked_seq>": rewind to the
                // server's position.
                self.stats.rejects += 1;
                let mut parts = detail.rsplitn(2, ' ');
                let seq: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                let tenant = parts.next().unwrap_or_default();
                if let Some(i) = self.flow_index(tenant) {
                    self.flows[i].acked = seq;
                    self.inflight
                        .retain(|e| !matches!(e.pending, Pending::Chunk(j, _) if j == i));
                }
                Ok(())
            }
            RejectCode::UnknownTenant => {
                // Our open never arrived (or the tenant already
                // detached and a stale retry crossed it); re-open
                // before retrying the stream frame.
                self.stats.rejects += 1;
                if let Some(i) = self.flow_index(detail) {
                    self.drop_flow_inflight(i);
                    if !self.flows[i].detached {
                        self.flows[i].opened = false;
                    }
                }
                Ok(())
            }
            RejectCode::TenantFlushed => {
                // A retried Flush crossed its own Report in flight.
                if let Some(i) = self.flow_index(detail) {
                    if self.flows[i].report.is_some() {
                        self.stats.rejects += 1;
                        self.inflight
                            .retain(|e| !matches!(e.pending, Pending::Flush(j) if j == i));
                        return Ok(());
                    }
                }
                Err(ClientError::Rejected {
                    code,
                    detail: detail.to_string(),
                })
            }
            RejectCode::AuthFailed => {
                // The token the server read was wrong — but ours may
                // merely have been damaged in flight in a way that
                // still matched the frame checksum (p ≈ 2^-32).
                // Corruption is transient; a bad credential is
                // persistent. Re-handshake a bounded number of times
                // before believing the latter.
                self.auth_rejects += 1;
                if self.auth_rejects > self.cfg.auth_retries {
                    return Err(ClientError::Rejected {
                        code,
                        detail: detail.to_string(),
                    });
                }
                self.stats.rejects += 1;
                self.handshaken = false;
                self.inflight.clear();
                Ok(())
            }
            RejectCode::StoreFailed => {
                // The server's durable copy of our cold session was
                // unreadable and it restarted us from scratch: re-open
                // and replay the whole stream from sequence zero.
                self.stats.rejects += 1;
                if let Some(i) = self.flow_index(detail) {
                    if self.flows[i].open_record.is_some() {
                        // A migrated record the server cannot decode
                        // will never decode on retry; surface it so
                        // the router can fall back.
                        return Err(ClientError::Rejected {
                            code,
                            detail: detail.to_string(),
                        });
                    }
                    self.flows[i].opened = false;
                    self.flows[i].acked = 0;
                    self.drop_flow_inflight(i);
                }
                Ok(())
            }
            RejectCode::ClientSentServerFrame
            | RejectCode::TenantAlreadyOpen
            | RejectCode::Draining
            | RejectCode::MalformedStream => Err(ClientError::Rejected {
                code,
                detail: detail.to_string(),
            }),
        }
    }
}
