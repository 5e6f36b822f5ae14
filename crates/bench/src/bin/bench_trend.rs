//! Bench-trend gate: compares the freshly generated `results/BENCH_*`
//! files against the committed baselines (`git show HEAD:results/...`)
//! and fails when any gated metric falls below [`MIN_RATIO`] of its
//! baseline. [`GATES`] lists what is gated, one row per metric family:
//!
//! * serving throughput (events/s) per shard count;
//! * hostile-network goodput (events per poll) per fault class and for
//!   the hostile mix — goodput falls when retry/recovery takes more
//!   polls to deliver the same events;
//! * per-backend session throughput (events/s);
//! * durable-store operation throughput (spills, loads, recovery
//!   scans, compactions per second);
//! * router goodput (events per poll) per fleet size — polls are
//!   deterministic scheduler rounds, so any extra router ↔ owner
//!   round-trip drops this figure immediately.
//!
//! The comparison is deliberately coarse — a 20% guardrail against
//! accidental quadratic blowups, not a microbenchmark — because both
//! numbers come from the same host in the same `make verify` run.
//! When either side is unavailable (no fresh file, no git, no baseline
//! in the committed tree yet) a file is skipped with a note: absence of
//! evidence is not a regression. A gate row that resolves no
//! `(key, metric)` pair on files that do exist fails: that is a renamed
//! field, not a pass.
//!
//! Run: `cargo run --release -p hds-bench --bin bench_trend`

use std::process::Command;

use hds_bench::print_table;
use serde::Value;

/// Fresh results must stay at or above this fraction of the baseline.
const MIN_RATIO: f64 = 0.8;

/// One gated metric family: in `results/<file>`, every object of the
/// `rows` field (an array of objects, or a single object) contributes
/// one `(key, metric)` pair.
struct Gate {
    file: &'static str,
    rows: &'static str,
    key: &'static str,
    metric: &'static str,
}

const GATES: [Gate; 6] = [
    Gate {
        file: "BENCH_serve.json",
        rows: "per_shards",
        key: "shards",
        metric: "events_per_s",
    },
    Gate {
        file: "BENCH_net.json",
        rows: "per_class",
        key: "fault",
        metric: "goodput_events_per_poll",
    },
    Gate {
        file: "BENCH_net.json",
        rows: "hostile",
        key: "fault",
        metric: "goodput_events_per_poll",
    },
    Gate {
        file: "BENCH_prefetch.json",
        rows: "per_backend",
        key: "backend",
        metric: "events_per_s",
    },
    Gate {
        file: "BENCH_store.json",
        rows: "per_op",
        key: "op",
        metric: "ops_per_s",
    },
    Gate {
        file: "BENCH_cluster.json",
        rows: "per_owners",
        key: "owners",
        metric: "goodput_events_per_poll",
    },
];

/// The `(key, metric)` pairs `gate` selects out of a results document.
fn pairs(doc: &Value, gate: &Gate) -> Vec<(String, f64)> {
    let rows = match doc.get(gate.rows) {
        Some(Value::Arr(rows)) => rows.as_slice(),
        Some(row) => std::slice::from_ref(row),
        None => &[],
    };
    rows.iter()
        .filter_map(|row| {
            let key = match row.get(gate.key)? {
                Value::Str(s) => s.clone(),
                Value::U64(n) => n.to_string(),
                _ => return None,
            };
            #[allow(clippy::cast_precision_loss)]
            let metric = match row.get(gate.metric)? {
                Value::F64(v) => *v,
                Value::U64(n) => *n as f64,
                _ => return None,
            };
            Some((key, metric))
        })
        .collect()
}

fn baseline_blob(path: &str) -> Option<String> {
    let out = Command::new("git")
        .args(["show", &format!("HEAD:{path}")])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Fresh and committed JSON for one results file, with a skip note on
/// either absence.
fn load_pair(path: &str) -> Option<(Value, Value)> {
    let Ok(current_text) = std::fs::read_to_string(path) else {
        println!("bench-trend: no fresh {path}; skipping (run its producer first)");
        return None;
    };
    let Some(baseline_text) = baseline_blob(path) else {
        println!("bench-trend: no committed {path} at HEAD; skipping");
        return None;
    };
    let current = serde_json::parse_value_str(&current_text)
        .unwrap_or_else(|e| panic!("fresh {path} parses: {e:?}"));
    let baseline = serde_json::parse_value_str(&baseline_text)
        .unwrap_or_else(|e| panic!("committed {path} parses: {e:?}"));
    Some((current, baseline))
}

fn main() {
    println!(
        "bench-trend: fresh results vs HEAD (fail below {:.0}% of baseline)",
        MIN_RATIO * 100.0
    );
    let mut rows = Vec::new();
    let mut failures = 0u32;
    for gate in &GATES {
        let path = format!("results/{}", gate.file);
        let Some((current, baseline)) = load_pair(&path) else {
            continue;
        };
        let baseline = pairs(&baseline, gate);
        let compared = rows.len();
        for (key, cur) in pairs(&current, gate) {
            let Some((_, base)) = baseline.iter().find(|(k, _)| *k == key) else {
                continue;
            };
            let ratio = cur / base;
            let ok = ratio >= MIN_RATIO;
            failures += u32::from(!ok);
            rows.push(vec![
                gate.file.to_string(),
                format!("{} {key}", gate.key),
                gate.metric.to_string(),
                format!("{base:.2}"),
                format!("{cur:.2}"),
                format!("{ratio:.2}x"),
                if ok { "ok" } else { "REGRESSED" }.to_string(),
            ]);
        }
        if rows.len() == compared {
            println!(
                "bench-trend: {path} has no comparable {}[].{{{}, {}}} rows",
                gate.rows, gate.key, gate.metric
            );
            failures += 1;
        }
    }
    print_table(
        &[
            "file", "row", "metric", "baseline", "current", "ratio", "status",
        ],
        &rows,
    );
    assert!(
        failures == 0,
        "{failures} gated row(s) regressed below {:.0}% of baseline or resolved nothing",
        MIN_RATIO * 100.0
    );
    println!("bench-trend: every compared metric within budget");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every gate row must resolve on the committed results: a renamed
    /// field or row array would otherwise gate nothing.
    #[test]
    fn every_gate_row_resolves_on_the_committed_results() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for gate in &GATES {
            let text = std::fs::read_to_string(dir.join(gate.file))
                .unwrap_or_else(|e| panic!("reading {}: {e}", gate.file));
            let doc = serde_json::parse_value_str(&text)
                .unwrap_or_else(|e| panic!("{} parses: {e:?}", gate.file));
            assert!(
                !pairs(&doc, gate).is_empty(),
                "{} resolves no ({}, {}) pairs under {}",
                gate.file,
                gate.key,
                gate.metric,
                gate.rows
            );
        }
    }
}
