//! Frame transports: how `HDSW` frames move between a client and the
//! serving front-end.
//!
//! The [`Transport`] trait abstracts the byte pipe; everything above it
//! (the [`SessionManager`](crate::SessionManager), the serve loop) is
//! transport-agnostic. Two implementations ship:
//!
//! * [`loopback`] — an in-process pair backed by shared byte queues.
//!   The default for tests and benches: deterministic, no sockets, and
//!   it still exercises the full encode → reassemble → decode path.
//! * `TcpTransport` (behind the `net` feature) — blocking `std::net`
//!   TCP, one frame stream per connection. No external dependencies.

use std::sync::{Arc, Mutex};

use crate::wire::{decode_stream, Frame, FrameBuffer, FrameError};

/// Errors moving frames over a transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed the connection mid-frame.
    Closed,
    /// The byte stream did not parse as a frame.
    Frame(FrameError),
    /// An I/O error from the underlying pipe (TCP only).
    Io(String),
    /// A read deadline lapsed with no complete frame.
    TimedOut,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => f.write_str("transport closed"),
            TransportError::Frame(e) => write!(f, "frame error: {e}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::TimedOut => f.write_str("transport read timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

/// A bidirectional frame pipe.
pub trait Transport {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] / [`TransportError::Io`] when the
    /// pipe is gone.
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError>;

    /// Receives the next frame. `Ok(None)` means the stream ended
    /// cleanly (loopback: queue empty; TCP: orderly shutdown between
    /// frames).
    ///
    /// # Errors
    ///
    /// [`TransportError::Frame`] for malformed bytes,
    /// [`TransportError::Closed`] for a tear mid-frame,
    /// [`TransportError::TimedOut`] when a read deadline lapses.
    fn recv(&mut self) -> Result<Option<Frame>, TransportError>;

    /// Sends raw bytes, bypassing the frame encoder. This is the
    /// fault-injection seam: a [`crate::ChaosTransport`] mangles a
    /// frame's encoding and pushes the damaged bytes through here, so
    /// corruption and partial writes traverse the same pipe as real
    /// traffic.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] / [`TransportError::Io`] when the
    /// pipe is gone.
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Tears the connection down. Bytes already in flight stay
    /// deliverable; the peer sees `Closed` mid-frame or a clean end of
    /// stream between frames. Idempotent.
    fn close(&mut self);
}

/// One direction of a loopback pair: a byte queue plus a closed flag.
/// Bytes queued before the close stay deliverable, exactly like data
/// buffered in a kernel socket when the peer resets.
#[derive(Default)]
struct PipeState {
    bytes: Vec<u8>,
    closed: bool,
}

/// Shared byte queue between the two ends of a loopback pair.
type Pipe = Arc<Mutex<PipeState>>;

/// One end of an in-process transport pair.
pub struct LoopbackTransport {
    out: Pipe,
    inbox: Pipe,
    reassembly: FrameBuffer,
}

/// Creates a connected in-process pair: frames sent on one end are
/// received on the other, byte-serialized through the real wire codec.
#[must_use]
pub fn loopback() -> (LoopbackTransport, LoopbackTransport) {
    let a_to_b: Pipe = Arc::new(Mutex::new(PipeState::default()));
    let b_to_a: Pipe = Arc::new(Mutex::new(PipeState::default()));
    (
        LoopbackTransport {
            out: Arc::clone(&a_to_b),
            inbox: Arc::clone(&b_to_a),
            reassembly: FrameBuffer::default(),
        },
        LoopbackTransport {
            out: b_to_a,
            inbox: a_to_b,
            reassembly: FrameBuffer::default(),
        },
    )
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.send_bytes(&frame.encode())
    }

    fn recv(&mut self) -> Result<Option<Frame>, TransportError> {
        let closed = {
            let mut inbox = self.inbox.lock().map_err(|_| TransportError::Closed)?;
            self.reassembly.extend_from_slice(&inbox.bytes);
            inbox.bytes.clear();
            inbox.closed
        };
        if let Some(frame) = decode_stream(&mut self.reassembly)? {
            return Ok(Some(frame));
        }
        // Torn mid-frame: the connection died with a partial frame
        // buffered and no more bytes can ever arrive.
        if closed && !self.reassembly.is_empty() {
            return Err(TransportError::Closed);
        }
        Ok(None)
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let mut out = self.out.lock().map_err(|_| TransportError::Closed)?;
        if out.closed {
            return Err(TransportError::Closed);
        }
        out.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn close(&mut self) {
        for pipe in [&self.out, &self.inbox] {
            if let Ok(mut state) = pipe.lock() {
                state.closed = true;
            }
        }
    }
}

/// Blocking TCP transport over `std::net` (feature `net`).
#[cfg(feature = "net")]
pub mod tcp {
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    use super::{Transport, TransportError};
    use crate::wire::{decode_stream, Frame, FrameBuffer};

    /// One `HDSW` frame stream over a TCP connection.
    pub struct TcpTransport {
        stream: TcpStream,
        reassembly: FrameBuffer,
    }

    impl TcpTransport {
        /// Wraps an accepted or connected stream.
        #[must_use]
        pub fn new(stream: TcpStream) -> Self {
            TcpTransport {
                stream,
                reassembly: FrameBuffer::default(),
            }
        }

        /// Connects to a listening server.
        ///
        /// # Errors
        ///
        /// [`TransportError::Io`] when the connection fails.
        pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, TransportError> {
            let stream = TcpStream::connect(addr).map_err(|e| TransportError::Io(e.to_string()))?;
            Ok(TcpTransport::new(stream))
        }

        /// Sets (or clears, with `None`) the read deadline: a `recv`
        /// with no complete frame inside it returns
        /// [`TransportError::TimedOut`] instead of blocking forever —
        /// what lets the serve loop send keepalives and drop dead
        /// peers.
        ///
        /// # Errors
        ///
        /// [`TransportError::Io`] when the socket rejects the option.
        pub fn set_read_deadline(
            &mut self,
            deadline: Option<Duration>,
        ) -> Result<(), TransportError> {
            self.stream
                .set_read_timeout(deadline)
                .map_err(|e| TransportError::Io(e.to_string()))
        }

        /// Half-closes the write side so the peer's `recv` sees a clean
        /// end of stream after draining buffered frames.
        ///
        /// # Errors
        ///
        /// [`TransportError::Io`] when the shutdown fails.
        pub fn finish_sending(&mut self) -> Result<(), TransportError> {
            self.stream
                .shutdown(std::net::Shutdown::Write)
                .map_err(|e| TransportError::Io(e.to_string()))
        }
    }

    impl Transport for TcpTransport {
        fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
            self.send_bytes(&frame.encode())
        }

        fn recv(&mut self) -> Result<Option<Frame>, TransportError> {
            loop {
                if let Some(frame) = decode_stream(&mut self.reassembly)? {
                    return Ok(Some(frame));
                }
                let mut chunk = [0u8; 4096];
                let n = match self.stream.read(&mut chunk) {
                    Ok(n) => n,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        return Err(TransportError::TimedOut);
                    }
                    Err(e) => return Err(TransportError::Io(e.to_string())),
                };
                if n == 0 {
                    // Orderly shutdown: clean only between frames.
                    if self.reassembly.is_empty() {
                        return Ok(None);
                    }
                    return Err(TransportError::Closed);
                }
                self.reassembly.extend_from_slice(&chunk[..n]);
            }
        }

        fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
            self.stream
                .write_all(bytes)
                .map_err(|e| TransportError::Io(e.to_string()))
        }

        fn close(&mut self) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WIRE_VERSION;

    #[test]
    fn loopback_round_trips_frames_in_order() {
        let (mut client, mut server) = loopback();
        let frames = vec![
            Frame::hello(),
            Frame::Flush {
                tenant: "alpha".into(),
            },
        ];
        for f in &frames {
            client.send(f).unwrap();
        }
        assert_eq!(server.recv().unwrap(), Some(frames[0].clone()));
        assert_eq!(server.recv().unwrap(), Some(frames[1].clone()));
        assert_eq!(server.recv().unwrap(), None);
        // And the reverse direction.
        server
            .send(&Frame::HelloAck {
                version: WIRE_VERSION,
                backend: None,
            })
            .unwrap();
        assert_eq!(
            client.recv().unwrap(),
            Some(Frame::HelloAck {
                version: WIRE_VERSION,
                backend: None,
            })
        );
    }

    #[test]
    fn close_between_frames_reads_clean_but_refuses_sends() {
        let (mut client, mut server) = loopback();
        client.send(&Frame::Goodbye).unwrap();
        client.close();
        // The frame sent before the close still arrives...
        assert_eq!(server.recv().unwrap(), Some(Frame::Goodbye));
        // ...the empty stream ends quietly...
        assert_eq!(server.recv().unwrap(), None);
        // ...and both ends now refuse writes.
        assert_eq!(
            client.send(&Frame::Goodbye),
            Err(TransportError::Closed),
            "sender side"
        );
        assert_eq!(
            server.send(&Frame::GoodbyeAck { drained: 0 }),
            Err(TransportError::Closed),
            "receiver side"
        );
    }

    #[test]
    fn close_mid_frame_is_a_torn_read() {
        let (mut client, mut server) = loopback();
        let blob = Frame::Flush {
            tenant: "alpha".into(),
        }
        .encode();
        // Deliver only half the frame, then kill the connection.
        client.send_bytes(&blob[..blob.len() / 2]).unwrap();
        client.close();
        assert_eq!(server.recv(), Err(TransportError::Closed));
    }
}
