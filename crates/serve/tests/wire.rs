//! Property tests for the `HDSW` wire codec: arbitrary frames
//! round-trip exactly; truncated or corrupted bytes produce typed
//! [`FrameError`]s, never panics; foreign handshakes are rejected
//! cleanly.

use hds_backend::BackendKind;
use hds_serve::wire::{decode_stream, MAGIC};
use hds_serve::{Frame, FrameError, RejectCode, ShardSummary, TenantStats, WIRE_VERSION};
use hds_store::TenantRecord;
use hds_telemetry::events::ServeBudgetKind;
use hds_trace::{AccessKind, Addr, DataRef, Pc};
use hds_vulcan::{Event, ProcId, Procedure};
use proptest::prelude::*;

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        any::<u32>().prop_map(|p| Event::Enter(ProcId(p))),
        any::<u32>().prop_map(|p| Event::BackEdge(ProcId(p))),
        any::<u32>().prop_map(|p| Event::Exit(ProcId(p))),
        any::<u32>().prop_map(Event::Work),
        (any::<u32>(), any::<u64>(), any::<bool>()).prop_map(|(pc, addr, store)| Event::Access(
            DataRef::new(Pc(pc), Addr(addr)),
            if store {
                AccessKind::Store
            } else {
                AccessKind::Load
            }
        )),
        any::<u64>().prop_map(|a| Event::Prefetch(Addr(a))),
        any::<u32>().prop_map(Event::Thread),
    ]
}

fn tenant_strategy() -> impl Strategy<Value = String> {
    any::<u64>().prop_map(|n| format!("tenant-{}", n % 64))
}

fn procedures_strategy() -> impl Strategy<Value = Vec<Procedure>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u32>(), 0..6)),
        0..4,
    )
    .prop_map(|procs| {
        procs
            .into_iter()
            .map(|(n, pcs)| {
                Procedure::new(
                    format!("proc-{}", n % 32),
                    pcs.into_iter().map(Pc).collect(),
                )
            })
            .collect()
    })
}

fn tenant_stats_strategy() -> impl Strategy<Value = Vec<TenantStats>> {
    proptest::collection::vec(
        (
            tenant_strategy(),
            any::<u32>(),
            any::<bool>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            (any::<u64>(), any::<u64>()),
        ),
        0..5,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(
                |(tenant, shard, live, finished, queued, consumed, (snaps, tail))| TenantStats {
                    tenant,
                    shard,
                    live,
                    finished,
                    queued_chunks: queued,
                    events_consumed: consumed,
                    snapshots: snaps,
                    tail_events: tail,
                },
            )
            .collect()
    })
}

fn shard_summaries_strategy() -> impl Strategy<Value = Vec<ShardSummary>> {
    proptest::collection::vec(
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        0..5,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(shard, mailbox, live, frames, events)| ShardSummary {
                shard,
                mailbox_depth: mailbox,
                live_sessions: live,
                frames,
                events,
            })
            .collect()
    })
}

fn record_strategy() -> impl Strategy<Value = TenantRecord> {
    (
        tenant_strategy(),
        any::<u64>(),
        any::<u8>(),
        procedures_strategy(),
        prop_oneof![
            Just(None),
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(Some)
        ],
        proptest::collection::vec(event_strategy(), 0..20),
    )
        .prop_map(
            |(tenant, stamp, backend, procedures, snapshot, tail)| TenantRecord {
                tenant,
                stamp,
                backend,
                procedures,
                snapshot,
                tail,
            },
        )
}

fn backend_strategy() -> impl Strategy<Value = Option<BackendKind>> {
    prop_oneof![
        Just(None),
        Just(Some(BackendKind::DynPref)),
        Just(Some(BackendKind::Pangloss)),
        Just(Some(BackendKind::Triangel)),
    ]
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            prop_oneof![Just(String::new()), tenant_strategy()],
            any::<u8>(),
            backend_strategy()
        )
            .prop_map(|(token, features, backend)| Frame::Hello {
                version: WIRE_VERSION,
                token,
                features,
                backend,
            }),
        backend_strategy().prop_map(|backend| Frame::HelloAck {
            version: WIRE_VERSION,
            backend,
        }),
        (tenant_strategy(), procedures_strategy())
            .prop_map(|(tenant, procedures)| Frame::OpenSession { tenant, procedures }),
        (
            tenant_strategy(),
            any::<u64>(),
            proptest::collection::vec(event_strategy(), 0..50)
        )
            .prop_map(|(tenant, seq, events)| Frame::TraceChunk {
                tenant,
                seq,
                events: events.into()
            }),
        tenant_strategy().prop_map(|tenant| Frame::Flush { tenant }),
        tenant_strategy().prop_map(|tenant| Frame::Evict { tenant }),
        tenant_strategy().prop_map(|tenant| Frame::Resume { tenant }),
        (tenant_strategy(), tenant_strategy(), any::<u64>()).prop_map(
            |(tenant, report_json, image_digest)| Frame::Report {
                tenant,
                report_json,
                image_digest
            }
        ),
        (tenant_strategy(), any::<u64>(), any::<u64>()).prop_map(|(tenant, budget, observed)| {
            Frame::Busy {
                tenant,
                budget,
                observed,
            }
        }),
        (tenant_strategy(), any::<u64>(), any::<u64>(), 0u8..4u8).prop_map(
            |(tenant, budget, observed, k)| Frame::Shed {
                tenant,
                kind: match k {
                    0 => ServeBudgetKind::LiveSessions,
                    1 => ServeBudgetKind::TenantQueue,
                    2 => ServeBudgetKind::GlobalBytes,
                    _ => ServeBudgetKind::RetryStorm,
                },
                budget,
                observed,
            }
        ),
        (0usize..RejectCode::ALL.len(), tenant_strategy()).prop_map(|(c, detail)| Frame::Reject {
            code: RejectCode::ALL[c],
            detail,
        }),
        (tenant_strategy(), any::<u64>()).prop_map(|(tenant, seq)| Frame::Ack { tenant, seq }),
        Just(Frame::Goodbye),
        any::<u64>().prop_map(|drained| Frame::GoodbyeAck { drained }),
        any::<u64>().prop_map(|nonce| Frame::Ping { nonce }),
        any::<u64>().prop_map(|nonce| Frame::Pong { nonce }),
        prop_oneof![Just(String::new()), tenant_strategy()]
            .prop_map(|tenant| Frame::Introspect { tenant }),
        record_strategy().prop_map(|record| Frame::Migrate { record }),
        (tenant_strategy(), any::<bool>())
            .prop_map(|(tenant, detach)| Frame::Export { tenant, detach }),
        record_strategy().prop_map(|record| Frame::Exported { record }),
        (
            any::<u64>(),
            any::<u64>(),
            tenant_stats_strategy(),
            shard_summaries_strategy()
        )
            .prop_map(|(clock, queued_bytes, tenants, shards)| Frame::Stats {
                clock,
                queued_bytes,
                tenants,
                shards,
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity on every frame kind.
    #[test]
    fn frames_round_trip(frame in frame_strategy()) {
        let blob = frame.encode();
        prop_assert_eq!(Frame::decode(&blob), Ok(frame));
    }

    /// Truncating an encoded frame anywhere yields a typed error —
    /// never a panic, never a silent partial parse.
    #[test]
    fn truncation_is_a_typed_error(frame in frame_strategy(), cut_fraction in 0.0f64..1.0) {
        let blob = frame.encode();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = (blob.len() as f64 * cut_fraction) as usize;
        if cut >= blob.len() {
            return Ok(());
        }
        match Frame::decode(&blob[..cut]) {
            Ok(parsed) => prop_assert!(false, "truncated frame parsed as {parsed:?}"),
            Err(e) => prop_assert_eq!(e, FrameError::Truncated),
        }
    }

    /// Flipping any single byte of a valid frame either still decodes
    /// (the flip hit a don't-care bit such as a string byte) or fails
    /// with a typed error. It never panics.
    #[test]
    fn corrupt_one_byte_never_panics(frame in frame_strategy(), pos in any::<usize>(), flip in 1u8..=255) {
        let mut blob = frame.encode().to_vec();
        let pos = pos % blob.len();
        blob[pos] ^= flip;
        let _ = Frame::decode(&blob); // Ok or Err both fine; no panic.
    }

    /// Arbitrary bytes through the stream reassembler: typed error or
    /// clean partial-frame wait, never a panic.
    #[test]
    fn stream_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
        let mut buf = hds_serve::wire::FrameBuffer::default();
        buf.extend_from_slice(&bytes);
        // Drain until a parse error or the reassembler wants more bytes.
        while let Ok(Some(_)) = decode_stream(&mut buf) {}
    }
}

/// Recomputes the FNV-1a checksum trailer after a deliberate byte
/// mutation, so the test reaches the decode error it aims at instead
/// of (correctly) tripping `FrameError::Damaged` first.
fn reseal(blob: &mut [u8]) {
    let crc_at = blob.len() - 4;
    let mut h: u32 = 0x811c_9dc5;
    for &b in &blob[4..crc_at] {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    blob[crc_at..].copy_from_slice(&h.to_le_bytes());
}

#[test]
fn version_mismatch_hello_is_rejected_cleanly() {
    // A future-versioned Hello: well-formed frame, unsupported version.
    // Layout: length prefix (4) + kind (1) + magic (4) + version.
    let mut blob = Frame::hello().encode().to_vec();
    let version_at = 9;
    blob[version_at] = WIRE_VERSION + 7;
    reseal(&mut blob);
    assert_eq!(
        Frame::decode(&blob),
        Err(FrameError::UnsupportedVersion(WIRE_VERSION + 7))
    );
    // And a foreign magic is BadMagic, checked before the version.
    let mut foreign = Frame::hello().encode().to_vec();
    foreign[5] = b'Z';
    reseal(&mut foreign);
    assert_eq!(Frame::decode(&foreign), Err(FrameError::BadMagic));
    assert_eq!(MAGIC, b"HDSW");
    // Without resealing, the same flip is caught as in-flight damage.
    let mut damaged = Frame::hello().encode().to_vec();
    damaged[version_at] = WIRE_VERSION + 7;
    assert!(matches!(
        Frame::decode(&damaged),
        Err(FrameError::Damaged { .. })
    ));
}

/// A pre-backend (v2) peer's `Hello` carries no trailing backend
/// byte. Stripping the byte from a modern encoding — and fixing the
/// length prefix and checksum, exactly the bytes an old encoder
/// produced — must decode as `backend: None`, not an error.
#[test]
fn hello_without_backend_byte_decodes_as_none() {
    for frame in [
        Frame::Hello {
            version: WIRE_VERSION,
            token: "s3cret".into(),
            features: 1,
            backend: Some(BackendKind::Pangloss),
        },
        Frame::HelloAck {
            version: WIRE_VERSION,
            backend: Some(BackendKind::Triangel),
        },
    ] {
        let with = frame.encode().to_vec();
        let mut without = with.clone();
        without.remove(with.len() - 5); // the backend byte sits just before the checksum
        let len = u32::from_le_bytes(without[..4].try_into().unwrap()) - 1;
        without[..4].copy_from_slice(&len.to_le_bytes());
        reseal(&mut without);
        let decoded = Frame::decode(&without).expect("backend-less frame still decodes");
        match decoded {
            Frame::Hello { backend, .. } | Frame::HelloAck { backend, .. } => {
                assert_eq!(backend, None);
            }
            other => panic!("decoded as {other:?}"),
        }
        // And the byte really is optional on the way out too: encoding
        // with `None` yields exactly the stripped (legacy) bytes.
        let none = match frame {
            Frame::Hello {
                version,
                token,
                features,
                ..
            } => Frame::Hello {
                version,
                token,
                features,
                backend: None,
            },
            Frame::HelloAck { version, .. } => Frame::HelloAck {
                version,
                backend: None,
            },
            _ => unreachable!(),
        };
        assert_eq!(none.encode().to_vec(), without);
    }
}

/// A backend code outside the known set is a typed payload error, not
/// a panic and not a silent default.
#[test]
fn unknown_backend_code_is_a_typed_error() {
    let mut blob = Frame::Hello {
        version: WIRE_VERSION,
        token: "s3cret".into(),
        features: 0,
        backend: Some(BackendKind::DynPref),
    }
    .encode()
    .to_vec();
    let backend_at = blob.len() - 5;
    blob[backend_at] = 7;
    reseal(&mut blob);
    assert!(matches!(
        Frame::decode(&blob),
        Err(FrameError::BadPayload(_))
    ));
}

#[test]
fn zero_event_chunk_round_trips() {
    // The degenerate-but-legal heartbeat chunk: no events at all.
    let frame = Frame::TraceChunk {
        tenant: "t".into(),
        seq: 1,
        events: Vec::new().into(),
    };
    assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
}

#[test]
fn max_varint_boundaries_round_trip() {
    // u64::MAX needs the full ten-byte LEB128 encoding; every varint
    // field must survive it.
    for frame in [
        Frame::TraceChunk {
            tenant: "t".into(),
            seq: u64::MAX,
            events: Vec::new().into(),
        },
        Frame::Ack {
            tenant: "t".into(),
            seq: u64::MAX,
        },
        Frame::Report {
            tenant: "t".into(),
            report_json: "{}".into(),
            image_digest: u64::MAX,
        },
        Frame::GoodbyeAck { drained: u64::MAX },
        Frame::Ping { nonce: u64::MAX },
        Frame::Pong { nonce: u64::MAX },
    ] {
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }
}

#[test]
fn every_reject_code_survives_the_wire() {
    for code in RejectCode::ALL {
        let frame = Frame::Reject {
            code,
            detail: format!("detail for {code}"),
        };
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }
}
