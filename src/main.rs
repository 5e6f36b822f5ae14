//! `hds` — command-line front end for the dynamic hot-data-stream
//! prefetching system.
//!
//! ```text
//! hds run     --bench <name|all> --mode <mode> [--scale test|paper] [--static] [--headlen N] [--json]
//! hds streams --bench <name>  [--scale test|paper]        print detected hot data streams
//! hds dot     --bench <name>  [--scale test|paper]        emit the first cycle's DFSM as Graphviz DOT
//! hds profile --bench <name> --out <file>                 save a sampled profile (HDSP format)
//! hds analyze <file>                                       analyze a saved profile
//! hds list                                                 list benchmarks and modes
//! ```

use std::process::ExitCode;

use hds::bursty::{BurstyConfig, BurstyTracer, Phase, Signal};
use hds::dfsm::build as build_dfsm;
use hds::hotstream::{fast, AnalysisConfig};
use hds::optimizer::{
    CycleStrategy, OptimizerConfig, PrefetchPolicy, RunMode, RunReport, SessionBuilder,
};
use hds::sequitur::Sequitur;
use hds::trace::{DataRef, SymbolTable};
use hds::vulcan::Event;
use hds::workloads::{benchmark, Benchmark, Scale};

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Options {
    command: String,
    bench: String,
    mode: String,
    scale: Scale,
    static_strategy: bool,
    head_len: usize,
    json: bool,
    chop: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: args.first().cloned().unwrap_or_default(),
        bench: "all".into(),
        mode: "dyn-pref".into(),
        scale: Scale::Paper,
        static_strategy: false,
        head_len: 2,
        json: false,
        chop: false,
        out: None,
        positional: Vec::new(),
    };
    if opts.command.is_empty() {
        return Err("no command given".into());
    }
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {
                i += 1;
                opts.bench = args.get(i).ok_or("--bench needs a value")?.clone();
            }
            "--mode" => {
                i += 1;
                opts.mode = args.get(i).ok_or("--mode needs a value")?.clone();
            }
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("paper") => Scale::Paper,
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--static" => opts.static_strategy = true,
            "--headlen" => {
                i += 1;
                opts.head_len = args
                    .get(i)
                    .ok_or("--headlen needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --headlen: {e}"))?;
            }
            "--json" => opts.json = true,
            "--chop" => opts.chop = true,
            "--out" => {
                i += 1;
                opts.out = Some(args.get(i).ok_or("--out needs a value")?.clone());
            }
            other if !other.starts_with("--") => opts.positional.push(other.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn parse_mode(mode: &str) -> Result<RunMode, String> {
    Ok(match mode {
        "baseline" => RunMode::Baseline,
        "base" | "checks" => RunMode::ChecksOnly,
        "prof" | "profile" => RunMode::Profile,
        "hds" | "analyze" => RunMode::Analyze,
        "no-pref" => RunMode::Optimize(PrefetchPolicy::None),
        "seq-pref" => RunMode::Optimize(PrefetchPolicy::SequentialBlocks),
        "dyn-pref" => RunMode::Optimize(PrefetchPolicy::StreamTail),
        other => return Err(format!("unknown mode {other} (try `hds list`)")),
    })
}

fn parse_benches(bench: &str) -> Result<Vec<Benchmark>, String> {
    if bench == "all" {
        return Ok(Benchmark::ALL.to_vec());
    }
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == bench)
        .map(|b| vec![b])
        .ok_or_else(|| format!("unknown benchmark {bench} (try `hds list`)"))
}

/// The paper configuration with the command line's overrides, checked
/// by `OptimizerConfig::validate` so a bad flag is an error, not a
/// panic inside a session.
fn config_for(opts: &Options) -> Result<OptimizerConfig, String> {
    let mut config = OptimizerConfig::paper_scale();
    config.dfsm.head_len = opts.head_len;
    if opts.static_strategy {
        config.strategy = CycleStrategy::Static;
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let mode = parse_mode(&opts.mode)?;
    let config = config_for(opts)?;
    let mut reports: Vec<RunReport> = Vec::new();
    for which in parse_benches(&opts.bench)? {
        let mut w = benchmark(which, opts.scale);
        let procs = w.procedures();
        let baseline = SessionBuilder::new(config.clone())
            .procedures(procs)
            .baseline()
            .run(&mut *w);
        let mut w = benchmark(which, opts.scale);
        let procs = w.procedures();
        let report = SessionBuilder::new(config.clone())
            .procedures(procs)
            .mode(mode)
            .run(&mut *w);
        if !opts.json {
            println!(
                "{:<8} {:>9} refs  {:>12} cycles  {:+7.2}% vs baseline  {} opt cycles",
                report.name,
                report.refs,
                report.total_cycles,
                report.overhead_vs(&baseline),
                report.opt_cycles()
            );
        }
        reports.push(baseline);
        reports.push(report);
    }
    if opts.json {
        println!(
            "{}",
            serde_json_like(&reports).unwrap_or_else(|| "[]".to_string())
        );
    }
    Ok(())
}

/// The root crate avoids a hard serde_json dependency; reuse core's serde
/// derives through a tiny JSON writer when `--json` is requested.
fn serde_json_like(reports: &[RunReport]) -> Option<String> {
    // Plain data, no strings needing escapes beyond benchmark names
    // (alphanumeric); a hand-rolled writer is sufficient and dependency-free.
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"mode\":\"{}\",\"total_cycles\":{},\"refs\":{},\
             \"l1_misses\":{},\"l2_misses\":{},\"prefetches_issued\":{},\
             \"prefetches_useful\":{},\"opt_cycles\":{}}}",
            r.name,
            r.mode,
            r.total_cycles,
            r.refs,
            r.mem.l1_misses,
            r.mem.l2_misses,
            r.mem.prefetches_issued,
            r.mem.prefetches_useful,
            r.opt_cycles()
        ));
    }
    out.push(']');
    Some(out)
}

fn cmd_streams(opts: &Options) -> Result<(), String> {
    let benches = parse_benches(&opts.bench)?;
    for which in benches {
        let (streams, symbols, traced) = collect_streams(which, opts.scale)?;
        println!(
            "{}: {} hot data streams from {} traced refs",
            which,
            streams.len(),
            traced
        );
        for (i, s) in streams.iter().enumerate().take(20) {
            let refs = symbols.resolve_all(s);
            let preview: Vec<String> = refs.iter().take(3).map(ToString::to_string).collect();
            println!("  #{i:<3} len {:>3}  {} ...", refs.len(), preview.join(" "));
        }
        if streams.len() > 20 {
            println!("  ... and {} more", streams.len() - 20);
        }
    }
    Ok(())
}

/// Profiles the first awake phase of a benchmark, returning the detected
/// streams as symbol sequences plus the interning table.
#[allow(clippy::type_complexity)]
fn collect_streams(
    which: Benchmark,
    scale: Scale,
) -> Result<(Vec<Vec<hds::trace::Symbol>>, SymbolTable, u64), String> {
    let mut program = benchmark(which, scale);
    let b = OptimizerConfig::paper_scale().bursty;
    let mut tracer = BurstyTracer::new(BurstyConfig::new(
        b.n_check0,
        b.n_instr0,
        b.n_awake0,
        b.n_hibernate0,
    ));
    let mut symbols = SymbolTable::new();
    let mut sequitur = Sequitur::new();
    let mut traced = 0u64;
    let mut recording = false;
    while let Some(event) = program.next_event() {
        match event {
            Event::Enter(_) | Event::BackEdge(_) => match tracer.on_check() {
                Some(Signal::BurstBegin) if tracer.phase() == Phase::Awake => recording = true,
                Some(Signal::BurstEnd) => recording = false,
                Some(Signal::AwakeComplete) => break,
                _ => {}
            },
            Event::Access(r, _) if recording && tracer.should_record() => {
                traced += 1;
                sequitur.append(symbols.intern(r));
            }
            _ => {}
        }
    }
    let config = AnalysisConfig::paper_default(traced);
    let result = fast::analyze(&sequitur.grammar(), &config);
    Ok((
        result.streams.into_iter().map(|s| s.symbols).collect(),
        symbols,
        traced,
    ))
}

fn cmd_dot(opts: &Options) -> Result<(), String> {
    let config = config_for(opts)?;
    let benches = parse_benches(&opts.bench)?;
    let which = *benches.first().ok_or("no benchmark")?;
    let (streams, symbols, _) = collect_streams(which, opts.scale)?;
    let refs: Vec<Vec<DataRef>> = streams
        .iter()
        .map(|s| symbols.resolve_all(s))
        .filter(|s| s.len() > config.dfsm.head_len)
        .take(8) // keep the graph readable
        .collect();
    if refs.is_empty() {
        return Err("no streams long enough for a DFSM".into());
    }
    let dfsm =
        build_dfsm(&refs, &config.dfsm).map_err(|e| format!("DFSM construction failed: {e}"))?;
    println!("{}", dfsm.to_dot());
    Ok(())
}

/// Collects the first awake phase's profile as a raw trace buffer.
fn collect_profile(which: Benchmark, scale: Scale) -> hds::trace::TraceBuffer {
    let mut program = benchmark(which, scale);
    let b = OptimizerConfig::paper_scale().bursty;
    let mut tracer = BurstyTracer::new(BurstyConfig::new(
        b.n_check0,
        b.n_instr0,
        b.n_awake0,
        b.n_hibernate0,
    ));
    let mut buffer = hds::trace::TraceBuffer::new();
    while let Some(event) = program.next_event() {
        match event {
            Event::Enter(_) | Event::BackEdge(_) => match tracer.on_check() {
                Some(Signal::BurstBegin) if tracer.phase() == Phase::Awake => {
                    buffer.begin_burst();
                }
                Some(Signal::BurstEnd) if buffer.in_burst() => {
                    buffer.end_burst_discard_empty();
                }
                Some(Signal::AwakeComplete) => {
                    if buffer.in_burst() {
                        buffer.end_burst_discard_empty();
                    }
                    break;
                }
                _ => {}
            },
            Event::Access(r, _) if tracer.should_record() && buffer.in_burst() => {
                buffer.record(r);
            }
            _ => {}
        }
    }
    buffer
}

fn cmd_profile(opts: &Options) -> Result<(), String> {
    let benches = parse_benches(&opts.bench)?;
    let which = *benches.first().ok_or("no benchmark")?;
    let out = opts.out.as_ref().ok_or("profile needs --out <file>")?;
    let buffer = collect_profile(which, opts.scale);
    let blob = hds::trace::codec::encode_profile(&buffer);
    std::fs::write(out, &blob).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} ({} refs in {} bursts, {} bytes)",
        out,
        buffer.len(),
        buffer.bursts().count(),
        blob.len()
    );
    Ok(())
}

fn cmd_analyze(opts: &Options) -> Result<(), String> {
    let path = opts
        .positional
        .first()
        .ok_or("analyze needs a profile file argument")?;
    let blob = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let buffer =
        hds::trace::codec::decode_profile(&blob).map_err(|e| format!("decoding {path}: {e}"))?;
    let mut symbols = SymbolTable::new();
    let mut sequitur = Sequitur::new();
    for &r in buffer.refs() {
        sequitur.append(symbols.intern(r));
    }
    let mut config = AnalysisConfig::paper_default(buffer.len() as u64);
    if opts.chop {
        config = config.with_chopping();
    }
    let grammar = sequitur.grammar();
    let result = fast::analyze(&grammar, &config);
    println!(
        "{path}: {} refs, {} bursts, grammar size {}, {} hot data streams          (H = {}, {:.0}% of trace covered)",
        buffer.len(),
        buffer.bursts().count(),
        grammar.size(),
        result.streams.len(),
        config.heat_threshold,
        result.coverage(buffer.len() as u64) * 100.0
    );
    for (i, s) in result.streams.iter().enumerate().take(15) {
        let refs = symbols.resolve_all(&s.symbols);
        println!(
            "  #{i:<3} heat {:>6}  len {:>3}  starts {}",
            s.heat,
            refs.len(),
            refs[0]
        );
    }
    if result.streams.len() > 15 {
        println!("  ... and {} more", result.streams.len() - 15);
    }
    Ok(())
}

fn cmd_list() {
    println!(
        "benchmarks: all {}",
        Benchmark::ALL.map(|b| b.name()).join(" ")
    );
    println!("modes:      baseline base prof hds no-pref seq-pref dyn-pref");
    println!("commands:   run streams dot profile analyze list");
    println!("flags:      --scale test|paper  --static  --headlen N  --json  --chop  --out <file>");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        cmd_list();
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match opts.command.as_str() {
        "run" => cmd_run(&opts),
        "streams" => cmd_streams(&opts),
        "dot" => cmd_dot(&opts),
        "profile" => cmd_profile(&opts),
        "analyze" => cmd_analyze(&opts),
        "list" => {
            cmd_list();
            Ok(())
        }
        other => Err(format!("unknown command {other} (try `hds list`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let o = parse_args(&args(
            "run --bench mcf --mode seq-pref --scale test --static --headlen 3 --json --chop",
        ))
        .unwrap();
        assert_eq!(o.command, "run");
        assert_eq!(o.bench, "mcf");
        assert_eq!(o.mode, "seq-pref");
        assert_eq!(o.scale, Scale::Test);
        assert!(o.static_strategy);
        assert_eq!(o.head_len, 3);
        assert!(o.json);
        assert!(o.chop);
    }

    #[test]
    fn defaults_are_sensible() {
        let o = parse_args(&args("run")).unwrap();
        assert_eq!(o.bench, "all");
        assert_eq!(o.mode, "dyn-pref");
        assert_eq!(o.scale, Scale::Paper);
        assert!(!o.static_strategy);
    }

    #[test]
    fn rejects_unknown_flags_and_modes() {
        assert!(parse_args(&args("run --frobnicate")).is_err());
        assert!(parse_args(&args("run --bench")).is_err());
        assert!(parse_mode("warp-speed").is_err());
        assert!(parse_benches("gcc").is_err());
    }

    #[test]
    fn mode_parsing_covers_all_figure_bars() {
        for (name, expect) in [
            ("baseline", RunMode::Baseline),
            ("base", RunMode::ChecksOnly),
            ("prof", RunMode::Profile),
            ("hds", RunMode::Analyze),
            ("no-pref", RunMode::Optimize(PrefetchPolicy::None)),
            (
                "seq-pref",
                RunMode::Optimize(PrefetchPolicy::SequentialBlocks),
            ),
            ("dyn-pref", RunMode::Optimize(PrefetchPolicy::StreamTail)),
        ] {
            assert_eq!(parse_mode(name).unwrap(), expect);
        }
    }

    #[test]
    fn bench_parsing() {
        assert_eq!(parse_benches("all").unwrap().len(), 6);
        assert_eq!(parse_benches("vpr").unwrap(), vec![Benchmark::Vpr]);
    }

    #[test]
    fn zero_headlen_is_an_error_not_a_panic() {
        let want = Err("dfsm.head_len must be at least 1".to_string());
        assert_eq!(
            cmd_run(&parse_args(&args("run --headlen 0")).unwrap()),
            want
        );
        assert_eq!(
            cmd_dot(&parse_args(&args("dot --headlen 0")).unwrap()),
            want
        );
        let o = parse_args(&args("run --headlen 3 --static")).unwrap();
        let config = config_for(&o).unwrap();
        assert_eq!(config.dfsm.head_len, 3);
        assert_eq!(config.strategy, CycleStrategy::Static);
    }

    #[test]
    fn json_writer_emits_valid_shape() {
        let json = serde_json_like(&[]).unwrap();
        assert_eq!(json, "[]");
    }
}
