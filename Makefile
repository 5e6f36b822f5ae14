# Developer entry points. `make verify` is the tier-1 gate: it must stay
# green on every commit.

CARGO ?= cargo

.PHONY: verify build test clippy bench-smoke telemetry-demo chaos bench-par bench-recover serve-smoke trace-smoke bench-prefetch bench-store bench-cluster bench-trend

## Tier-1 gate: release build, full test suite, clippy clean, the chaos
## sweeps (optimizer faults, supervised kills, hostile network, durable
## store, cluster: every schedule reconciles or is byte-identical), the
## parallel-runner smoke (bit-identical + speedup + worker-lag stats),
## the recovery benchmark (checkpoint neutrality + snapshot sizes), the
## serving-layer smoke (sharded == sequential, graceful shedding), the
## flight-recorder smoke (tracing is bit-identical and crash dumps
## land), the prefetch-backend benchmark (per-backend determinism +
## seeded A/B reproducibility), the durable-store benchmark, the
## cluster benchmark (router goodput + migration latency), and the
## bench-trend gate (every gated BENCH_*.json metric vs the committed
## baselines).
verify: build test clippy chaos bench-par bench-recover serve-smoke trace-smoke bench-prefetch bench-store bench-cluster bench-trend

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

## One fast pass over every Criterion bench (includes observer_overhead,
## the zero-overhead-when-off check).
bench-smoke:
	$(CARGO) bench -p hds-bench

## Chaos sweeps, all five in one run (a few seconds), zero panics:
## 100 seeded optimizer fault schedules (exact telemetry
## reconciliation, failed-edit runs degrade to the analyze baseline),
## 100 supervised kill schedules (every recovered lineage bit-identical
## to its crash-free twin), 104 hostile-network schedules, 124
## durable-store kill/bit-rot/full-disk schedules, and 72 cluster
## kill/re-home/churn/mid-handoff schedules (all byte-identical to
## standalone sessions). Writes results/BENCH_guard.json and
## results/BENCH_net.json.
chaos:
	$(CARGO) run --release -p hds-bench --bin chaos -- --test-scale

## Recovery benchmark: checkpointing timing-neutrality, snapshot sizes,
## and a supervised kill-schedule sweep. Writes results/BENCH_recover.json.
bench-recover:
	$(CARGO) run --release -p hds-bench --bin bench_recover

## Parallel suite-runner smoke: the fig11 matrix sequentially vs 4
## workers — asserts bit-identical outcomes, measures the speedup, and
## profiles background-analysis worker lag. Writes
## results/BENCH_parallel.json.
bench-par:
	$(CARGO) run --release -p hds-bench --bin bench_parallel -- --test-scale

## Serving front-end smoke: open-loop load at 1/2/8 shards — asserts
## per-tenant reports bit-identical to standalone sessions, measures
## throughput and queue-depth quantiles, and demonstrates typed load
## shedding under a tight budget. Writes results/BENCH_serve.json.
serve-smoke:
	$(CARGO) run --release -p hds-bench --bin bench_serve -- --test-scale

## Flight-recorder smoke: every benchmark traced vs untraced (reports
## and image digests bit-identical, spans well nested, export parses),
## plus a forced supervised crash leaving a flightdump-*.json black
## box. Writes results/BENCH_trace.json.
trace-smoke:
	$(CARGO) run --release -p hds-bench --bin bench_trace -- --test-scale

## Prefetch-backend benchmark: every BackendKind through the full
## online session path — asserts bit-identical reports across reruns
## and that the seeded A/B split reproduces exact per-tenant arms.
## Writes results/BENCH_prefetch.json.
bench-prefetch:
	$(CARGO) run --release -p hds-bench --bin bench_prefetch -- --test-scale

## Durable-store benchmark: spill/load/recovery-scan/compaction
## throughput and compaction write amplification. Writes
## results/BENCH_store.json.
bench-store:
	$(CARGO) run --release -p hds-bench --bin bench_store -- --test-scale

## Cluster benchmark: router goodput (deterministic events per poll) at
## 2/4/8 owners plus migration latency in polls vs the crash-free twin.
## Writes results/BENCH_cluster.json.
bench-cluster:
	$(CARGO) run --release -p hds-bench --bin bench_cluster -- --test-scale

## Bench-trend gate: the freshly written results/BENCH_serve.json,
## results/BENCH_net.json, results/BENCH_prefetch.json,
## results/BENCH_store.json, and results/BENCH_cluster.json (chaos,
## serve-smoke, bench-prefetch, bench-store, and bench-cluster run
## first under `make verify`) against the committed baselines, one
## gate-table row per metric family — fails if serving throughput,
## network goodput, backend throughput, store throughput, or router
## goodput fell below 80% of HEAD's; skips a file with a note when
## either side is missing.
bench-trend:
	$(CARGO) run --release -p hds-bench --bin bench_trend

## Live telemetry walkthrough: per-cycle table, counter reconciliation,
## per-stream prefetch quality, Prometheus dump. Fast smoke scale; drop
## --test-scale for the paper-scale run.
telemetry-demo:
	$(CARGO) run --release -p hds-bench --bin telemetry_demo -- --test-scale
