//! Criterion bench: the `HDSW` chunk path, one 4,000-event chunk at a
//! time.
//!
//! The chunk is the serve benchmark's unit of traffic: 4,000 events of
//! a synthetic tenant shaped like the serve workload's (96 streams over
//! a 24-stream hot core, 64 KB of noise). Four cases:
//!
//! * `encode` — `Frame::encode` of the `TraceChunk` frame, checksum
//!   trailer included;
//! * `decode` — `Frame::decode` of its bytes;
//! * `loopback_send_recv` — one `send` and one `recv` across a loopback
//!   pair: encode, the pipe, reassembly and decode;
//! * `drain_64_queued` — `decode_stream` pulling 64 such frames, queued
//!   back to back, out of one reassembly buffer (the copy that queues
//!   them is inside the timing).
//!
//! Each prints events per second; 1,000 divided by the Melem/s figure
//! is nanoseconds per event.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hds_serve::wire::{decode_stream, FrameBuffer};
use hds_serve::{loopback, Frame, Transport};
use hds_vulcan::ProgramSource;
use hds_workloads::{SyntheticConfig, SyntheticWorkload};

const CHUNK_EVENTS: usize = 4_000;
const QUEUED: usize = 64;

fn chunk() -> Frame {
    let mut program = SyntheticWorkload::new(SyntheticConfig {
        name: "tenant-000".into(),
        seed: 0x517e_c0de,
        total_refs: 20_000,
        stream_len: (10, 18),
        hot_fraction: 0.65,
        noise_blocks: 1 << 11,
        proc_count: 6,
        pcs_per_stream: 8,
        phase_groups: 1,
        ..SyntheticConfig::default()
    });
    // Skip the start-up so the chunk is from the steady stream.
    for _ in 0..CHUNK_EVENTS {
        program.next_event();
    }
    let events: Vec<_> = std::iter::from_fn(|| program.next_event())
        .take(CHUNK_EVENTS)
        .collect();
    assert_eq!(events.len(), CHUNK_EVENTS);
    Frame::TraceChunk {
        tenant: "tenant-000".into(),
        seq: 2,
        events,
    }
}

fn bench(c: &mut Criterion) {
    let frame = chunk();
    let blob = frame.encode();
    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(20);
    group.throughput(Throughput::Elements(CHUNK_EVENTS as u64));

    group.bench_function("encode", |b| b.iter(|| black_box(&frame).encode()));
    group.bench_function("decode", |b| {
        b.iter(|| Frame::decode(black_box(&blob)).expect("clean frame"));
    });
    let (mut tx, mut rx) = loopback();
    group.bench_function("loopback_send_recv", |b| {
        b.iter(|| {
            tx.send(black_box(&frame)).expect("open pipe");
            rx.recv().expect("clean frame").expect("one frame")
        });
    });

    let queued = blob.repeat(QUEUED);
    group.throughput(Throughput::Elements((QUEUED * CHUNK_EVENTS) as u64));
    group.bench_function("drain_64_queued", |b| {
        b.iter(|| {
            let mut inbox = FrameBuffer::default();
            inbox.extend_from_slice(black_box(&queued));
            let mut frames = 0;
            while let Some(frame) = decode_stream(&mut inbox).expect("clean frames") {
                black_box(frame);
                frames += 1;
            }
            assert_eq!(frames, QUEUED);
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
