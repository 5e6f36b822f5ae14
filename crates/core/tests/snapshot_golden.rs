//! Phase-boundary snapshot bytes, pinned by digest.
//!
//! Each test runs the six test-scale paper programs through a
//! checkpointing `Optimize(StreamTail)` session under one configuration
//! and folds every `HDSSNAP2` capture into an FNV-1a-64 digest: a
//! capture is read from `latest_snapshot()` each time
//! `snapshots_taken()` grows. The configurations are a plain session;
//! one with a `MetricsRecorder`, whose prefetches are tagged, so some
//! captures carry tracked prefetches still pending; one with budget
//! guards, an accuracy policy and a prefetch-queue cap under windowed
//! scheduling, whose captures carry the guard state; and one with
//! background analysis, whose captures often carry a request in flight.
//! Every reference drains the outcome queue, so no capture carries an
//! outcome; the unit tests in `snapshot.rs` cover that field.
//!
//! The digest covers the magic, the version and the payload after its
//! leading config fingerprint. The fingerprint hashes the `Debug` text
//! of the configuration with std's `DefaultHasher`, so it moves with
//! any new config field or toolchain; it is checked against
//! `config_fingerprint` instead, and the checksum is checked by
//! re-validating every capture with `Snapshot::from_bytes`.

use hds_core::{
    config_fingerprint, AnalysisConcurrency, Observer, OptimizerConfig, PrefetchPolicy,
    PrefetchScheduling, RunMode, Session, SessionBuilder, Snapshot,
};
use hds_guard::{AccuracyConfig, GuardConfig};
use hds_telemetry::MetricsRecorder;
use hds_trace::codec::take_varint;
use hds_trace::hash::Fnv64;
use hds_workloads::{suite, Scale};

const MODE: RunMode = RunMode::Optimize(PrefetchPolicy::StreamTail);
/// Magic, version digit and CRC-32.
const HEADER_LEN: usize = 12;

/// Folds one capture into `h`: its length, then every byte but the
/// checksum and the config fingerprint, after checking both.
fn fold(h: &mut Fnv64, snap: &Snapshot, fingerprint: u64) {
    let bytes = snap.as_bytes();
    Snapshot::from_bytes(bytes.to_vec()).expect("a capture validates");
    let mut payload = &bytes[HEADER_LEN..];
    assert_eq!(take_varint(&mut payload), Ok(fingerprint));
    h.write_u64(bytes.len() as u64);
    h.write_bytes(&bytes[..8]);
    h.write_bytes(payload);
}

/// Runs every test-scale program through a checkpointing session made
/// by `build`, hands each finished session's observer to `inspect`, and
/// returns the number of captures and their digest.
fn captures<O: Observer>(
    config: &OptimizerConfig,
    build: impl Fn(SessionBuilder) -> Session<O>,
    mut inspect: impl FnMut(&O),
) -> (u64, u64) {
    let fingerprint = config_fingerprint(config, MODE);
    let mut h = Fnv64::new();
    let mut total = 0;
    for mut program in suite(Scale::Test) {
        let mut session = build(
            SessionBuilder::new(config.clone())
                .procedures(program.procedures())
                .checkpoints(),
        );
        let mut seen = 0;
        while let Some(e) = program.next_event() {
            session.on_event(e);
            if session.snapshots_taken() > seen {
                seen += 1;
                assert_eq!(session.snapshots_taken(), seen, "one capture per event");
                let snap = session.latest_snapshot().expect("a boundary captured");
                fold(&mut h, snap, fingerprint);
            }
        }
        assert!(seen > 0, "{} reached no phase boundary", program.name());
        inspect(session.observer());
        total += seen;
    }
    (total, h.finish())
}

fn plain(config: &OptimizerConfig) -> (u64, u64) {
    captures(config, |b| b.mode(MODE).build(), |_| {})
}

#[test]
fn plain_captures_match_the_pinned_bytes() {
    let got = plain(&OptimizerConfig::test_scale());
    assert_eq!(
        got,
        (37, 7_039_783_802_884_265_347),
        "plain snapshot bytes moved"
    );
}

#[test]
fn observed_captures_match_the_pinned_bytes() {
    let config = OptimizerConfig::test_scale();
    let mut tagged = 0;
    let got = captures(
        &config,
        |b| b.observer(MetricsRecorder::new()).mode(MODE).build(),
        |rec| tagged += rec.prefetches_issued(),
    );
    assert!(tagged > 0, "nothing was tagged");
    assert_eq!(
        got,
        (37, 10_772_188_231_357_640_373),
        "observed snapshot bytes moved"
    );
}

#[test]
fn guarded_windowed_captures_match_the_pinned_bytes() {
    let mut config = OptimizerConfig::test_scale();
    config.scheduling = PrefetchScheduling::Windowed { degree: 1 };
    config.guard = GuardConfig::default()
        .with_max_prefetch_queue(4)
        .with_accuracy(AccuracyConfig::new());
    assert_eq!(
        plain(&config),
        (37, 16_393_691_243_300_970_944),
        "guarded snapshot bytes moved"
    );
}

#[test]
fn background_captures_match_the_pinned_bytes() {
    let mut config = OptimizerConfig::test_scale();
    config.concurrency = AnalysisConcurrency::Background;
    assert_eq!(
        plain(&config),
        (37, 7_587_147_351_933_947_841),
        "background snapshot bytes moved"
    );
}
