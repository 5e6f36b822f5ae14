//! Seeded byte-level fault injection for `HDSW` transports.
//!
//! [`ChaosTransport`] wraps any [`Transport`] and mangles its *send*
//! side according to a [`NetFaultPlan`] — a seeded schedule drawing
//! from the six classic hostile-network fault classes ([`NetFault`]).
//! Faults are injected below the frame codec (via
//! [`Transport::send_bytes`]), so a corrupted frame really is damaged
//! bytes on the wire and a partial write really does leave half a
//! frame in the peer's reassembly buffer.
//!
//! Same seed, same faults: a chaos schedule is perfectly reproducible,
//! which is what lets the `chaos` bin's network sweep assert that
//! every recovered run is byte-identical to its fault-free twin. A
//! fault budget ([`NetFaultPlan::with_max_faults`]) guarantees every
//! schedule eventually goes quiet so retry loops converge.

use hds_trace::rng::FaultRoll;

use crate::transport::{Transport, TransportError};
use crate::wire::Frame;

/// One class of injected network fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetFault {
    /// The frame is silently discarded.
    Drop,
    /// The frame is held back and released after a later send
    /// (reordering).
    Delay,
    /// The frame is delivered twice.
    Duplicate,
    /// One byte of the frame body is flipped.
    Corrupt,
    /// Only a prefix of the frame is written, then the connection
    /// dies.
    PartialWrite,
    /// The connection dies between frames.
    Disconnect,
}

impl NetFault {
    /// All fault classes, in declaration order.
    pub const ALL: [NetFault; 6] = [
        NetFault::Drop,
        NetFault::Delay,
        NetFault::Duplicate,
        NetFault::Corrupt,
        NetFault::PartialWrite,
        NetFault::Disconnect,
    ];

    /// Stable lower-snake label for results files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetFault::Drop => "drop",
            NetFault::Delay => "delay",
            NetFault::Duplicate => "duplicate",
            NetFault::Corrupt => "corrupt",
            NetFault::PartialWrite => "partial_write",
            NetFault::Disconnect => "disconnect",
        }
    }

    /// Position in [`NetFault::ALL`] — the index convention of
    /// per-class count arrays like `ChaosOutcome::fault_counts`.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A seeded schedule of send-side faults. Each send draws one random
/// number; per-class rates are in per-mille of sends. At most one
/// fault fires per send, and none after the fault budget is spent.
#[derive(Clone, Debug)]
pub struct NetFaultPlan {
    roll: FaultRoll<6>,
}

impl NetFaultPlan {
    /// A plan injecting nothing — the fault-free twin.
    #[must_use]
    pub fn quiet() -> Self {
        NetFaultPlan {
            roll: FaultRoll::new(1, [0; 6], 0),
        }
    }

    /// A hostile default: every fault class at 30‰ of sends, budget of
    /// 24 faults total.
    #[must_use]
    pub fn hostile(seed: u64) -> Self {
        NetFaultPlan {
            roll: FaultRoll::new(seed | 1, [30; 6], 24), // xorshift must not start at 0
        }
    }

    /// A plan emphasizing one fault class: `per_mille` for `fault`,
    /// zero for the rest. Used by the per-class sweep.
    #[must_use]
    pub fn focused(seed: u64, fault: NetFault, per_mille: u32) -> Self {
        NetFaultPlan {
            roll: FaultRoll::new(seed | 1, [0; 6], 24),
        }
        .with_rate(fault, per_mille)
    }

    /// Overrides one class's per-mille rate.
    #[must_use]
    pub fn with_rate(mut self, fault: NetFault, per_mille: u32) -> Self {
        self.roll.rates[fault.index()] = per_mille;
        self
    }

    /// Caps total injected faults so every schedule goes quiet and
    /// retry loops converge.
    #[must_use]
    pub fn with_max_faults(mut self, cap: u32) -> Self {
        self.roll.max_faults = u64::from(cap);
        self
    }

    /// Faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u32 {
        // Never above the `u32` cap `with_max_faults` takes.
        u32::try_from(self.roll.injected()).unwrap_or(u32::MAX)
    }

    /// Injections of one class so far.
    #[must_use]
    pub fn count(&self, fault: NetFault) -> u64 {
        self.roll.counts[fault.index()]
    }

    /// Draws the fault (if any) for one send.
    fn draw(&mut self) -> Option<NetFault> {
        self.roll
            .draw(0..NetFault::ALL.len())
            .map(|i| NetFault::ALL[i])
    }
}

/// A [`Transport`] whose send side misbehaves on a seeded schedule.
/// The receive side is passed through untouched — wrap both ends of a
/// pair (with different seeds) to abuse both directions.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    plan: NetFaultPlan,
    /// Frames held back by a `Delay`, released *after* the next
    /// undelayed send so they arrive reordered.
    delayed: Vec<Vec<u8>>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` under `plan`.
    #[must_use]
    pub fn new(inner: T, plan: NetFaultPlan) -> Self {
        ChaosTransport {
            inner,
            plan,
            delayed: Vec::new(),
        }
    }

    /// The fault schedule (for reading injection counts back).
    #[must_use]
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Unwraps into the inner transport and the plan — how a
    /// reconnect carries one continuing fault schedule across
    /// connections.
    #[must_use]
    pub fn into_parts(self) -> (T, NetFaultPlan) {
        (self.inner, self.plan)
    }

    fn flush_delayed(&mut self) -> Result<(), TransportError> {
        for blob in std::mem::take(&mut self.delayed) {
            self.inner.send_bytes(&blob)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let blob = frame.encode();
        match self.plan.draw() {
            None => {
                self.inner.send_bytes(&blob)?;
                self.flush_delayed()
            }
            Some(NetFault::Drop) => {
                // Lost in transit; the peer never sees it.
                Ok(())
            }
            Some(NetFault::Delay) => {
                self.delayed.push(blob);
                Ok(())
            }
            Some(NetFault::Duplicate) => {
                self.inner.send_bytes(&blob)?;
                self.inner.send_bytes(&blob)?;
                self.flush_delayed()
            }
            Some(NetFault::Corrupt) => {
                // Flip one body byte. The length prefix is left alone
                // so the peer's stream stays framed and the damage
                // surfaces as a typed decode error, not a desync.
                let mut bad = blob;
                if bad.len() > 4 {
                    let at = 4 + (self.plan.roll.rng.next_u64() as usize) % (bad.len() - 4);
                    bad[at] ^= 0x40;
                }
                self.inner.send_bytes(&bad)?;
                self.flush_delayed()
            }
            Some(NetFault::PartialWrite) => {
                // Half the frame goes out, then the connection dies.
                let cut = 1
                    + (self.plan.roll.rng.next_u64() as usize)
                        % blob.len().max(2).saturating_sub(1);
                let _ = self.inner.send_bytes(&blob[..cut.min(blob.len())]);
                self.inner.close();
                Err(TransportError::Closed)
            }
            Some(NetFault::Disconnect) => {
                self.inner.close();
                Err(TransportError::Closed)
            }
        }
    }

    fn recv(&mut self) -> Result<Option<Frame>, TransportError> {
        self.inner.recv()
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.inner.send_bytes(bytes)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback;

    #[test]
    fn quiet_plan_is_transparent() {
        let (c, mut s) = loopback();
        let mut chaos = ChaosTransport::new(c, NetFaultPlan::quiet());
        for _ in 0..32 {
            chaos.send(&Frame::Goodbye).unwrap();
        }
        let mut got = 0;
        while let Some(f) = s.recv().unwrap() {
            assert_eq!(f, Frame::Goodbye);
            got += 1;
        }
        assert_eq!(got, 32);
        assert_eq!(chaos.plan().injected(), 0);
    }

    #[test]
    fn fault_budget_bounds_injections() {
        let (c, mut s) = loopback();
        let plan = NetFaultPlan::focused(7, NetFault::Drop, 1000).with_max_faults(5);
        let mut chaos = ChaosTransport::new(c, plan);
        for _ in 0..64 {
            chaos.send(&Frame::Goodbye).unwrap();
        }
        assert_eq!(chaos.plan().injected(), 5);
        assert_eq!(chaos.plan().count(NetFault::Drop), 5);
        // The 59 post-budget sends all arrive.
        let mut got = 0;
        while s.recv().unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, 59);
    }

    #[test]
    fn delay_reorders_across_the_next_send() {
        let (c, mut s) = loopback();
        let plan = NetFaultPlan::focused(7, NetFault::Delay, 1000).with_max_faults(1);
        let mut chaos = ChaosTransport::new(c, plan);
        chaos.send(&Frame::Ping { nonce: 1 }).unwrap(); // delayed
        chaos.send(&Frame::Ping { nonce: 2 }).unwrap(); // undelayed, flushes
        assert_eq!(s.recv().unwrap(), Some(Frame::Ping { nonce: 2 }));
        assert_eq!(s.recv().unwrap(), Some(Frame::Ping { nonce: 1 }));
    }

    #[test]
    fn corrupt_damages_exactly_one_frame() {
        let (c, mut s) = loopback();
        let plan = NetFaultPlan::focused(7, NetFault::Corrupt, 1000).with_max_faults(1);
        let mut chaos = ChaosTransport::new(c, plan);
        chaos.send(&Frame::Goodbye).unwrap();
        chaos.send(&Frame::Goodbye).unwrap();
        // First frame decodes to an error, second is intact.
        assert!(matches!(s.recv(), Err(TransportError::Frame(_))));
        assert_eq!(s.recv().unwrap(), Some(Frame::Goodbye));
    }

    #[test]
    fn partial_write_tears_the_stream() {
        let (c, mut s) = loopback();
        let plan = NetFaultPlan::focused(7, NetFault::PartialWrite, 1000).with_max_faults(1);
        let mut chaos = ChaosTransport::new(c, plan);
        assert_eq!(
            chaos.send(&Frame::Flush { tenant: "t".into() }),
            Err(TransportError::Closed)
        );
        assert_eq!(s.recv(), Err(TransportError::Closed));
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = NetFaultPlan::hostile(42);
        let mut b = NetFaultPlan::hostile(42);
        for _ in 0..200 {
            assert_eq!(a.draw(), b.draw());
        }
    }
}
