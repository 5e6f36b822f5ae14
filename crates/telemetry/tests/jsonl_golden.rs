//! The JSONL schema, pinned: one exact line per non-span event kind.
//!
//! Each line fixes the `event` tag (first), the field order, the
//! lower-case `fate`/`guard`/`kind` labels, and `cycle_end`'s running
//! prefetch-quality ratios. Spans write nothing: `JobOutcome.events`
//! counts JSONL records, so a span line would change it.

use hds_telemetry::events::{
    AnalysisApplied, AnalysisHandoff, AnalysisStarved, ClusterMigrated, ClusterOwnerRestarted,
    ClusterRehomed, CycleEnd, CycleStart, Deoptimize, DfsmBuilt, Event, GuardKind, GuardTripped,
    PhaseKind, PhaseTransition, PrefetchFate, PrefetchIssued, PrefetchOutcome, RecoveryGaveUp,
    RecoveryReplay, RecoveryRestart, RecoverySnapshot, ServeBudgetKind, ServeBusy,
    ServeSessionEvicted, ServeSessionOpened, ServeSessionResumed, ServeShardPump, ServeShed,
    SpanEvent, SpanKind, StoreCompacted, StoreExpired, StoreFaultObserved, StoreLoaded,
    StoreSpilled, StreamDetected,
};
use hds_telemetry::{JsonlSink, Observer};

/// Every non-span event kind once. The one outcome is late, so the
/// `cycle_end` ratios read accuracy 0, coverage 1, timeliness 0.
fn emit_all(sink: &mut JsonlSink<Vec<u8>>) {
    sink.on(&Event::PhaseTransition(PhaseTransition {
        at_cycle: 10,
        at_check: 2,
        to: PhaseKind::Hibernating,
        opt_cycle: 1,
        duty_cycle: 0.25,
    }));
    sink.on(&Event::CycleStart(CycleStart {
        opt_cycle: 1,
        at_cycle: 20,
    }));
    sink.on(&Event::StreamDetected(StreamDetected {
        opt_cycle: 1,
        stream_id: 3,
        len: 12,
        head_len: 2,
    }));
    sink.on(&Event::DfsmBuilt(DfsmBuilt {
        opt_cycle: 1,
        states: 9,
        address_checks: 4,
        streams: 2,
        procs_modified: 3,
    }));
    sink.on(&Event::PrefetchIssued(PrefetchIssued {
        stream_id: 3,
        addr: 0x1048,
        block: 0x41,
        at_cycle: 1000,
        at_ref: 30,
    }));
    sink.on(&Event::PrefetchOutcome(PrefetchOutcome {
        stream_id: 3,
        block: 0x41,
        fate: PrefetchFate::Late,
        issued_at_cycle: 1000,
        resolved_at_cycle: 1090,
        resolved_at_ref: 40,
    }));
    sink.on(&Event::CycleEnd(CycleEnd {
        opt_cycle: 1,
        at_cycle: 2000,
        traced_refs: 500,
        hot_streams: 5,
        streams_used: 2,
        dfsm_states: 9,
        dfsm_checks: 4,
        procs_modified: 3,
        grammar_size: 77,
    }));
    sink.on(&Event::Deoptimize(Deoptimize {
        at_cycle: 2100,
        opt_cycle: 1,
        partial: true,
        stream_id: Some(3),
    }));
    sink.on(&Event::GuardTripped(GuardTripped {
        guard: GuardKind::DfsmStates,
        budget: 64,
        observed: 65,
        opt_cycle: 1,
        at_cycle: 2200,
    }));
    sink.on(&Event::AnalysisHandoff(AnalysisHandoff {
        opt_cycle: 2,
        at_cycle: 3000,
        trace_len: 42,
    }));
    sink.on(&Event::AnalysisApplied(AnalysisApplied {
        opt_cycle: 2,
        handoff_at_cycle: 3000,
        at_cycle: 3080,
        lag_cycles: 80,
    }));
    sink.on(&Event::AnalysisStarved(AnalysisStarved {
        opt_cycle: 3,
        handoff_at_cycle: 4000,
        at_cycle: 4200,
        lag_cycles: 200,
    }));
    sink.on(&Event::RecoverySnapshot(RecoverySnapshot {
        opt_cycle: 3,
        at_cycle: 4300,
        events_consumed: 81,
        bytes: 2048,
    }));
    sink.on(&Event::RecoveryReplay(RecoveryReplay {
        events_consumed: 90,
        rolled_forward: true,
    }));
    sink.on(&Event::RecoveryRestart(RecoveryRestart {
        attempt: 1,
        resumed_at_event: 81,
        backoff_cycles: 1000,
    }));
    sink.on(&Event::RecoveryGaveUp(RecoveryGaveUp {
        restarts: 4,
        crashes: 5,
    }));
    sink.on(&Event::ServeSessionOpened(ServeSessionOpened {
        tenant: 0xbeef,
        shard: 2,
        backend: 1,
    }));
    sink.on(&Event::ServeSessionEvicted(ServeSessionEvicted {
        tenant: 0xbeef,
        shard: 2,
        snapshot_bytes: 256,
        tail_events: 7,
    }));
    sink.on(&Event::ServeSessionResumed(ServeSessionResumed {
        tenant: 0xbeef,
        shard: 2,
        replayed_events: 7,
    }));
    sink.on(&Event::ServeShed(ServeShed {
        tenant: 0xbeef,
        shard: 2,
        kind: ServeBudgetKind::TenantQueue,
        budget: 4,
        observed: 5,
    }));
    sink.on(&Event::ServeBusy(ServeBusy {
        tenant: 0xcafe,
        shard: 1,
        budget: 2,
        observed: 2,
    }));
    sink.on(&Event::ServeShardPump(ServeShardPump {
        shard: 1,
        queued: 5,
        frames: 5,
        events: 40,
    }));
    sink.on(&Event::StoreSpilled(StoreSpilled {
        tenant: 0xbeef,
        bytes: 300,
    }));
    sink.on(&Event::StoreLoaded(StoreLoaded {
        tenant: 0xbeef,
        bytes: 300,
    }));
    sink.on(&Event::StoreCompacted(StoreCompacted {
        kept: 6,
        dropped: 2,
    }));
    sink.on(&Event::StoreExpired(StoreExpired { tenant: 0xdead }));
    sink.on(&Event::StoreFault(StoreFaultObserved {
        tenant: 0xbeef,
        action: 1,
    }));
    sink.on(&Event::ClusterMigrated(ClusterMigrated {
        tenant: 0xbeef,
        from_owner: 0,
        to_owner: 1,
        replayed_chunks: 3,
    }));
    sink.on(&Event::ClusterRehomed(ClusterRehomed {
        tenant: 0xbeef,
        from_owner: 1,
        to_owner: 2,
        replayed_chunks: 4,
    }));
    sink.on(&Event::ClusterOwnerRestarted(ClusterOwnerRestarted {
        owner: 2,
        tenants: 3,
    }));
}

const GOLDEN: [&str; 30] = [
    r#"{"event":"phase_transition","at_cycle":10,"at_check":2,"to":"Hibernating","opt_cycle":1,"duty_cycle":0.25}"#,
    r#"{"event":"cycle_start","opt_cycle":1,"at_cycle":20}"#,
    r#"{"event":"stream_detected","opt_cycle":1,"stream_id":3,"len":12,"head_len":2}"#,
    r#"{"event":"dfsm_built","opt_cycle":1,"states":9,"address_checks":4,"streams":2,"procs_modified":3}"#,
    r#"{"event":"prefetch_issued","stream_id":3,"addr":4168,"block":65,"at_cycle":1000,"at_ref":30}"#,
    r#"{"event":"prefetch_outcome","stream_id":3,"block":65,"fate":"late","issued_at_cycle":1000,"resolved_at_cycle":1090,"resolved_at_ref":40}"#,
    r#"{"event":"cycle_end","opt_cycle":1,"at_cycle":2000,"traced_refs":500,"hot_streams":5,"streams_used":2,"dfsm_states":9,"dfsm_checks":4,"procs_modified":3,"grammar_size":77,"prefetch_accuracy":0.0,"prefetch_coverage":1.0,"prefetch_timeliness":0.0}"#,
    r#"{"event":"deoptimize","at_cycle":2100,"opt_cycle":1,"partial":true,"stream_id":3}"#,
    r#"{"event":"guard_tripped","guard":"dfsm_states","budget":64,"observed":65,"opt_cycle":1,"at_cycle":2200}"#,
    r#"{"event":"analysis_handoff","opt_cycle":2,"at_cycle":3000,"trace_len":42}"#,
    r#"{"event":"analysis_applied","opt_cycle":2,"handoff_at_cycle":3000,"at_cycle":3080,"lag_cycles":80}"#,
    r#"{"event":"analysis_starved","opt_cycle":3,"handoff_at_cycle":4000,"at_cycle":4200,"lag_cycles":200}"#,
    r#"{"event":"recovery_snapshot","opt_cycle":3,"at_cycle":4300,"events_consumed":81,"bytes":2048}"#,
    r#"{"event":"recovery_replay","events_consumed":90,"rolled_forward":true}"#,
    r#"{"event":"recovery_restart","attempt":1,"resumed_at_event":81,"backoff_cycles":1000}"#,
    r#"{"event":"recovery_gave_up","restarts":4,"crashes":5}"#,
    r#"{"event":"serve_session_opened","tenant":48879,"shard":2,"backend":1}"#,
    r#"{"event":"serve_session_evicted","tenant":48879,"shard":2,"snapshot_bytes":256,"tail_events":7}"#,
    r#"{"event":"serve_session_resumed","tenant":48879,"shard":2,"replayed_events":7}"#,
    r#"{"event":"serve_shed","tenant":48879,"shard":2,"kind":"tenant_queue","budget":4,"observed":5}"#,
    r#"{"event":"serve_busy","tenant":51966,"shard":1,"budget":2,"observed":2}"#,
    r#"{"event":"serve_shard_pump","shard":1,"queued":5,"frames":5,"events":40}"#,
    r#"{"event":"store_spilled","tenant":48879,"bytes":300}"#,
    r#"{"event":"store_loaded","tenant":48879,"bytes":300}"#,
    r#"{"event":"store_compacted","kept":6,"dropped":2}"#,
    r#"{"event":"store_expired","tenant":57005}"#,
    r#"{"event":"store_fault","tenant":48879,"action":1}"#,
    r#"{"event":"cluster_migrated","tenant":48879,"from_owner":0,"to_owner":1,"replayed_chunks":3}"#,
    r#"{"event":"cluster_rehomed","tenant":48879,"from_owner":1,"to_owner":2,"replayed_chunks":4}"#,
    r#"{"event":"cluster_owner_restarted","owner":2,"tenants":3}"#,
];

#[test]
fn every_event_kind_writes_its_pinned_line() {
    let mut sink = JsonlSink::new(Vec::new());
    emit_all(&mut sink);
    assert_eq!(sink.records(), GOLDEN.len() as u64);
    let text = String::from_utf8(sink.into_inner().expect("in-memory flush")).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    for (got, want) in lines.iter().zip(GOLDEN) {
        assert_eq!(*got, want);
    }
    assert_eq!(lines.len(), GOLDEN.len());
}

#[test]
fn spans_write_nothing() {
    let mut sink = JsonlSink::new(Vec::new());
    sink.on(&Event::Span(
        SpanEvent::begin(SpanKind::Profile, 0).with_args(1, 2),
    ));
    sink.on(&Event::Span(
        SpanEvent::instant(SpanKind::Store, 5).on_track(3),
    ));
    assert_eq!(sink.records(), 0);
    assert!(sink.into_inner().expect("in-memory flush").is_empty());
}
