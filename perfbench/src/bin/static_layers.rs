//! Per-layer timing of the static checker, composed from each layer's
//! public entry point, one job:
//!
//! `parse` → `verify_module` → `Program::new` → `CallGraph::build` →
//! `DsaResult::analyze` → `TraceCollector::collect_root_counted` →
//! `StaticChecker::check_trace` → `Report::from_raw`
//!
//! ```text
//! static_layers [--report FILE] FILE.pir...
//! ```
//!
//! Each of five repetitions times the composition once and one
//! `deepmc::check_sources` call over the same texts (run with
//! `DEEPMC_JOBS=1`); the medians are printed as one JSON line. `coverage`
//! is the median over repetitions of the summed layer time over the
//! one-call time. `--report` writes the composed report as `deepmc check`
//! renders it, for comparison with the CLI's.

use deepmc::{DeepMcConfig, Report, StaticChecker};
use deepmc_analysis::{CallGraph, DsaResult, Program, TraceCollector};
use deepmc_models::PersistencyModel;
use deepmc_perfbench::{arg, median, positional, JsonLine};
use std::collections::BTreeMap;
use std::time::Instant;

const REPS: usize = 5;

/// One composed run: seconds per layer plus the counts it produced.
#[derive(Default)]
struct Run {
    secs: BTreeMap<&'static str, f64>,
    roots: u64,
    traces: u64,
    events: u64,
    paths_pruned: u64,
    events_truncated: u64,
    warnings_raw: u64,
    report: Report,
}

fn timed<T>(run: &mut Run, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *run.secs.entry(layer).or_default() += t.elapsed().as_secs_f64();
    out
}

fn compose(texts: &[String], config: &DeepMcConfig) -> Run {
    let mut run = Run::default();
    let modules: Vec<_> = timed(&mut run, "parse", || {
        texts.iter().map(|t| deepmc_pir::parse(t).expect("input parses")).collect()
    });
    timed(&mut run, "verify", || {
        for m in &modules {
            deepmc_pir::verify::verify_module(m).expect("input verifies");
        }
    });
    let program = timed(&mut run, "link", || Program::new(modules).expect("input links"));
    let cg = timed(&mut run, "callgraph", || CallGraph::build(&program));
    let dsa = timed(&mut run, "dsa", || DsaResult::analyze(&program, &cg));
    let checker = StaticChecker::new(config.clone());
    let (collector, roots) = timed(&mut run, "trace", || {
        let c = TraceCollector::new(&program, &dsa, config.trace.clone());
        let roots = c.analysis_roots(&cg);
        (c, roots)
    });
    run.roots = roots.len() as u64;
    let mut raw = Vec::new();
    for root in roots {
        let (traces, trunc) = timed(&mut run, "trace", || collector.collect_root_counted(root));
        run.traces += traces.len() as u64;
        run.events += traces.iter().map(|t| t.events.len() as u64).sum::<u64>();
        run.paths_pruned += trunc.paths_pruned;
        run.events_truncated += trunc.events_truncated;
        // The scan consumes the traces, so freeing them counts as rules
        // time, as it does inside the checker.
        timed(&mut run, "rules", || {
            for t in &traces {
                raw.extend(checker.check_trace(t));
            }
            drop(traces);
        });
    }
    run.warnings_raw = raw.len() as u64;
    run.report = timed(&mut run, "report", || Report::from_raw(raw));
    // Tearing down the analysis state is part of the one-call check too;
    // it is charged to the layers that built it.
    timed(&mut run, "trace", || drop(collector));
    timed(&mut run, "dsa", || drop(dsa));
    timed(&mut run, "callgraph", || drop(cg));
    timed(&mut run, "link", || drop(program));
    run
}

fn main() {
    let files = positional(&["report"]);
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap_or_else(|e| panic!("{f}: {e}")))
        .collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let config = DeepMcConfig::new(PersistencyModel::Strict);
    let srcs: Vec<&str> = texts.iter().map(String::as_str).collect();
    // The one-call library check reads its worker count from the
    // environment; the caller sets DEEPMC_JOBS=1.
    let mut one_call = Vec::new();
    let mut runs = Vec::new();
    let library = || {
        let t = Instant::now();
        let report = deepmc::check_sources(&srcs, &config).expect("library check");
        (t.elapsed().as_secs_f64(), report)
    };
    for rep in 0..REPS {
        // Alternate which side runs first, so warm-up and drift hit both.
        let (secs, lib) = if rep % 2 == 0 {
            runs.push(compose(&texts, &config));
            library()
        } else {
            let out = library();
            runs.push(compose(&texts, &config));
            out
        };
        one_call.push(secs);
        assert_eq!(lib.warnings, runs[0].report.warnings, "composition and library disagree");
    }
    let layer = |name: &str| median(&runs.iter().map(|r| r.secs[name]).collect::<Vec<_>>());
    let coverage: Vec<f64> =
        runs.iter().zip(&one_call).map(|(r, lib)| r.secs.values().sum::<f64>() / lib).collect();
    let first = &runs[0];
    if let Some(path) = arg("report") {
        std::fs::write(&path, first.report.to_string()).expect("write report");
    }
    JsonLine::default()
        .num("pir.parse_s", layer("parse"))
        .num("pir.parse_mib_per_s", bytes as f64 / (1 << 20) as f64 / layer("parse"))
        .num("pir.verify_s", layer("verify"))
        .num("analysis.link_s", layer("link"))
        .num("analysis.callgraph_s", layer("callgraph"))
        .num("analysis.roots", first.roots as f64)
        .num("analysis.dsa_s", layer("dsa"))
        .num("analysis.trace_s", layer("trace"))
        .num("analysis.traces", first.traces as f64)
        .num("analysis.trace_events", first.events as f64)
        .num("analysis.trace_events_per_s", first.events as f64 / layer("trace"))
        .num("analysis.paths_pruned", first.paths_pruned as f64)
        .num("analysis.events_truncated", first.events_truncated as f64)
        .num("deepmc.rules_s", layer("rules"))
        .num("deepmc.rules_events_per_s", first.events as f64 / layer("rules"))
        .num("deepmc.warnings_raw", first.warnings_raw as f64)
        .num("deepmc.report_s", layer("report"))
        .num("deepmc.warnings", first.report.warnings.len() as f64)
        .num("library_check_s", median(&one_call))
        .num("coverage", median(&coverage))
        .print();
}
