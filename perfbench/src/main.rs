//! `perfbench`: the repository's benchmark. One command runs one of
//! two seeded workloads in one process on one thread, checks every
//! output, and prints the end-to-end metrics — or, with `--trace 1`,
//! the per-layer ledger — ending with one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_resident --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for what each workload exercises and how
//! each metric is defined.

mod affinity;
mod fleet;
mod ledger;
mod paper;
mod probe;
mod programs;
mod report;
mod serve;
mod stats;
mod workloads;

use std::process::ExitCode;

use ledger::Ledger;
use report::{peak_rss_mb, result_line, Measured, END_TO_END, PER_LAYER};

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Which workload.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measured work to aim for.
    pub seconds: f64,
    /// Print the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["paper_suite", "serve_resident"];

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn measure(opts: &Opts, ledger: Option<&mut Ledger>) -> Measured {
    match opts.workload.as_str() {
        "paper_suite" => paper::run(opts, ledger),
        _ => workloads::run(opts, ledger),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ledger = opts.trace.then(Ledger::default);
    let m = measure(&opts, ledger.as_mut());
    let rss = peak_rss_mb();
    if rss <= 0.0 {
        eprintln!("perfbench: no peak resident set size in /proc/self/status");
        return ExitCode::FAILURE;
    }
    let e2e = match m.end_to_end(rss) {
        Ok(values) => values,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &m.problems {
        println!("FAILED CHECK: {p}");
    }
    #[allow(clippy::cast_precision_loss)]
    let failed_ratio = stats::ratio(m.failed as f64, m.attempted as f64);
    println!(
        "{} seed {}: {} repetitions of {} events; {} chunks, {:.3} s busy; {} set-ups; failed {}/{} (failed_ratio {failed_ratio})",
        opts.workload,
        opts.seed,
        m.reps,
        m.events_per_rep,
        m.chunks(),
        m.busy_s(),
        m.setup_s().len(),
        m.failed,
        m.attempted,
    );
    let best = m.best_chunk_ms();
    let quantiles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995]
        .iter()
        .filter_map(|&q| stats::percentile(best, q).ok())
        .map(|v| format!("{v:.3}"))
        .collect();
    println!(
        "  {} chunks at their fastest, ms at p10 p25 p50 p75 p90 p95 p98 p99 p99.5: {}",
        best.len(),
        quantiles.join(" ")
    );
    let mut sorted = m.setup_s().to_vec();
    sorted.sort_by(f64::total_cmp);
    let setups: Vec<String> = [0.0, 0.1, 0.5, 0.9, 1.0]
        .iter()
        .filter_map(|&q| {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_precision_loss
            )]
            let i = (sorted.len().checked_sub(1)? as f64 * q).round() as usize;
            Some(format!("{:.6}", sorted[i]))
        })
        .collect();
    println!("  set-up s at min p10 p50 p90 max: {}", setups.join(" "));
    let raw = m.raw_end_to_end(rss);
    println!("  {:<18} {:>16} {:>16}", "metric", "reported", "unfiltered");
    for (((name, unit), value), raw) in END_TO_END.iter().zip(&e2e).zip(&raw) {
        println!("  {name:<18} {value:>16.6} {raw:>16.6} {unit}");
    }
    let correct = m.failed == 0 && m.problems.is_empty();
    let (names, values) = match ledger.as_mut() {
        Some(ledger) => {
            print!("{}", ledger.table());
            let values = ledger.values();
            for ((name, unit), value) in PER_LAYER.iter().zip(&values) {
                println!("  {name:<30} {value:>16.6} {unit}");
            }
            (PER_LAYER, values)
        }
        None => (END_TO_END, e2e),
    };
    if let Some(((name, _), _)) = names.iter().zip(&values).find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        result_line(correct, m.attempted, m.failed, names, &values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(&args(
            "--workload serve_resident --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.trace),
            ("serve_resident", 7, true)
        );
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--workload paper_suite --trace 2")).is_err());
        assert!(parse(&args("--workload paper_suite --seed")).is_err());
    }

    #[test]
    fn workloads_are_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(serde::Value::Arr(items)) = doc.get("workloads") else {
            panic!("no workloads list");
        };
        let names: Vec<_> = items
            .iter()
            .map(|w| match w.get("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("workload name {other:?}"),
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
