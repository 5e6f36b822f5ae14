//! `hds-serve`: a sharded multi-tenant profiling-and-prefetching
//! service front-end.
//!
//! The paper's system optimizes one process from the inside. This
//! crate turns the whole profile → analyze → optimize cycle into a
//! *service*: many tenants stream trace events over a length-prefixed
//! binary protocol ([`wire`], magic `HDSW`), a [`SessionManager`]
//! hashes them onto shards whose workers drive ordinary
//! `SessionBuilder` pipelines, and each tenant eventually gets its
//! [`hds_core::RunReport`] back — bit-identical to running alone,
//! whatever the shard count and however often the tenant was LRU-
//! evicted and rehydrated along the way.
//!
//! The moving parts:
//!
//! * [`wire`] — the frame codec. Decoding is total (typed
//!   [`wire::FrameError`], never a panic) and trace chunks reuse the
//!   `HDSP` profile codec's zigzag-delta primitives.
//! * [`transport`] — the byte pipe: an in-process [`transport::loopback`]
//!   pair by default, real TCP behind the `net` feature.
//! * [`manager`] — the control plane (admission via
//!   [`hds_guard::ServeBudgets`], LRU eviction, shard placement)
//!   and the parallel shard pump.
//! * [`report`] — the [`ServeReport`] aggregate, reconciling exactly
//!   with the serve telemetry in [`hds_telemetry`].
//! * [`load`] — seeded load generation and the standalone reference
//!   runner the determinism suite compares against.
//! * [`chaos`] — seeded byte-level fault injection
//!   ([`ChaosTransport`]) for hostile-network testing.
//! * [`client`] — a reliable [`ClientSession`] with retry/backoff and
//!   reconnect-with-resume, delivering every chunk exactly once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod harness;
pub mod load;
pub mod manager;
pub mod report;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosTransport, NetFault, NetFaultPlan};
pub use client::{
    ClientConfig, ClientError, ClientSession, ClientStats, ClientStatus, TenantReport,
};
pub use harness::{run_chaos_session, ChaosHarnessError, ChaosOutcome};
pub use hds_backend::BackendKind;
pub use manager::{chunk_cost, tenant_key, ServeConfig, ServeConfigError, SessionManager};
pub use report::{ServeReport, ShardStats, TenantOutcome};
pub use transport::{loopback, LoopbackTransport, Transport, TransportError};
pub use wire::{
    Frame, FrameError, RejectCode, ShardSummary, TenantStats, FEATURE_RELIABLE, MAX_FRAME_BYTES,
    WIRE_VERSION,
};

use hds_core::Observer;

/// Tuning for [`serve_with`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Pump the shards every this many frames (and once at end of
    /// stream). `0` pumps only at end of stream.
    pub pump_every: u64,
    /// Consecutive read timeouts tolerated before the peer is declared
    /// dead and [`TransportError::TimedOut`] is returned.
    pub max_idle_timeouts: u32,
    /// Send a [`Frame::Ping`] keepalive on each read timeout so a live
    /// but quiet peer can prove it is still there.
    pub keepalive: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            pump_every: 8,
            max_idle_timeouts: 3,
            keepalive: true,
        }
    }
}

/// Drives one client connection to completion: receive frames, answer
/// immediately, pump the shards every `pump_every` frames (and once at
/// end of stream) so reports flow back. Returns when the transport's
/// stream ends cleanly. Equivalent to [`serve_with`] using `pump_every`
/// and no idle tolerance.
///
/// # Errors
///
/// Any [`TransportError`] from the underlying pipe.
pub fn serve<T: Transport, O: Observer>(
    transport: &mut T,
    manager: &mut SessionManager<O>,
    pump_every: u64,
) -> Result<(), TransportError> {
    serve_with(
        transport,
        manager,
        ServeOptions {
            pump_every,
            max_idle_timeouts: 0,
            keepalive: false,
        },
    )
}

/// [`serve`] hardened for hostile networks: read-deadline keepalives,
/// graceful `Goodbye` drain, damaged-frame tolerance, and clean
/// handling of a peer that hangs up once fully served.
///
/// Specifically, beyond the plain loop:
///
/// * A [`TransportError::TimedOut`] read is answered with a
///   [`Frame::Ping`] keepalive (when [`ServeOptions::keepalive`]);
///   after [`ServeOptions::max_idle_timeouts`] consecutive lapses the
///   peer is declared dead.
/// * A [`Frame::Goodbye`] triggers a drain: the shards are pumped so
///   every in-flight tenant's report flushes *before* the
///   [`Frame::GoodbyeAck`] goes out, then the loop returns `Ok`.
/// * A damaged frame (typed decode error with the stream still
///   framed) is dropped like a lost packet — the client's retry
///   resends it — instead of killing the connection. An oversized
///   length prefix still kills it: the stream is desynchronized.
/// * A peer that disconnects — even tearing the connection mid-frame —
///   after every opened tenant was flushed owes the server nothing:
///   that EOF maps to `Ok(())`, not an error.
///
/// # Errors
///
/// Any unrecoverable [`TransportError`] from the underlying pipe.
pub fn serve_with<T: Transport, O: Observer>(
    transport: &mut T,
    manager: &mut SessionManager<O>,
    options: ServeOptions,
) -> Result<(), TransportError> {
    let mut since_pump = 0u64;
    let mut idle = 0u32;
    let mut nonce = 0u64;
    // Once a send fails, the peer's read side is gone. Keep consuming
    // the frames it already put on the wire (so a fire-and-forget
    // Flush still completes), and decide clean-vs-error at the end of
    // the stream from whether the peer abandoned unflushed work.
    let mut peer_gone: Option<TransportError> = None;
    macro_rules! push {
        ($frame:expr) => {
            if peer_gone.is_none() {
                if let Err(e) = transport.send($frame) {
                    peer_gone = Some(e);
                }
            }
        };
    }
    let eof = loop {
        let frame = match transport.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => break Ok(()),
            Err(TransportError::TimedOut) => {
                idle += 1;
                if idle > options.max_idle_timeouts {
                    return Err(TransportError::TimedOut);
                }
                if options.keepalive {
                    nonce += 1;
                    push!(&Frame::Ping { nonce });
                }
                continue;
            }
            Err(TransportError::Frame(wire::FrameError::Oversized(n))) => {
                // A garbage length prefix desynchronizes the stream;
                // nothing after it can be trusted.
                return Err(TransportError::Frame(wire::FrameError::Oversized(n)));
            }
            Err(TransportError::Frame(_)) => {
                // The damaged frame was consumed and the stream is
                // still framed: treat it as lost in transit.
                continue;
            }
            Err(e) => break Err(e),
        };
        idle = 0;
        let draining = matches!(frame, Frame::Goodbye);
        if draining {
            // Flush in-flight tenants so their reports precede the ack.
            for response in manager.pump() {
                push!(&response);
            }
        }
        for response in manager.handle(frame) {
            push!(&response);
        }
        if draining {
            return match peer_gone {
                None => Ok(()),
                Some(e) => Err(e),
            };
        }
        since_pump += 1;
        if options.pump_every > 0 && since_pump >= options.pump_every {
            for response in manager.pump() {
                push!(&response);
            }
            since_pump = 0;
        }
    };
    for response in manager.pump() {
        push!(&response);
    }
    match (eof, peer_gone) {
        // Clean EOF with every response delivered.
        (Ok(()), None) => Ok(()),
        // The peer hung up (possibly tearing a frame, possibly before
        // reading its answers) — forgiven only when every tenant it
        // opened was flushed to completion, i.e. it owed us nothing
        // and we owed it nothing it still wanted.
        (Ok(()), Some(e)) | (Err(e), _) => {
            if manager.all_flushed() {
                Ok(())
            } else {
                Err(e)
            }
        }
    }
}

/// One server tick over one end of a link, the loop every poll-driven
/// harness runs: answer each frame waiting on `end` with `handle`, then
/// send what `tick` produces (a shard pump, or a cluster's owner ticks).
///
/// A damaged frame was consumed with the stream still framed, so it is
/// dropped like a lost packet and the peer's retry re-delivers it. A
/// torn or closed link ends the drain, and a failed send is ignored:
/// the peer reconnects and the resume protocol re-delivers.
pub fn serve_tick<S, T: Transport>(
    server: &mut S,
    end: &mut T,
    handle: impl Fn(&mut S, Frame) -> Vec<Frame>,
    tick: impl FnOnce(&mut S) -> Vec<Frame>,
) {
    loop {
        match end.recv() {
            Ok(Some(frame)) => {
                for response in handle(server, frame) {
                    let _ = end.send(&response);
                }
            }
            Ok(None) => break,
            Err(TransportError::Frame(_)) => {}
            Err(_) => break,
        }
    }
    for response in tick(server) {
        let _ = end.send(&response);
    }
}
