//! Observability-layer integration tests over the corpus.
//!
//! Three contracts are enforced here:
//!
//! 1. **Schema stability** — the `--metrics-out` snapshot for a fixed
//!    program is golden-filed (timings redacted). Any shape change must
//!    bump `METRICS_SCHEMA_VERSION` *and* regenerate the golden with
//!    `UPDATE_OBS_GOLDEN=1 cargo test -p deepmc-corpus --test
//!    observability`.
//! 2. **Structural determinism** — spans nest correctly (stack
//!    discipline with timestamp containment per worker), and the merged
//!    per-worker buffers produce identical counters and span multisets
//!    for `--jobs 1` vs `--jobs 4`.
//! 3. **Non-perturbation** — instrumented runs produce byte-identical
//!    reports and cache directories to uninstrumented runs, and the
//!    per-phase breakdown at `--jobs 1` sums to within 10% of the wall
//!    clock (the Table-9c acceptance bar).

use deepmc::{AnalysisCache, DeepMcConfig, StaticChecker};
use deepmc_analysis::Program;
use deepmc_corpus::Framework;
use deepmc_models::PersistencyModel;
use deepmc_obs::chrome::validate_chrome_trace;
use deepmc_obs::{Event, ObsData, Recorder};
use std::collections::BTreeMap;
use std::path::Path;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_metrics.json");
const FIXTURE: &str = include_str!("fixtures/obs_golden.pir");

fn fixture_program() -> Program {
    let m = deepmc_pir::parse(FIXTURE).expect("fixture parses");
    deepmc_pir::verify::verify_module(&m).expect("fixture verifies");
    Program::single(m)
}

/// Run one instrumented check and return the merged data.
fn record_check(
    program: &Program,
    model: PersistencyModel,
    cache: Option<&AnalysisCache>,
    jobs: usize,
) -> (ObsData, String) {
    let checker = StaticChecker::new(DeepMcConfig::new(model));
    let rec = Recorder::new();
    let report = {
        let _attach = rec.attach(0);
        let _total = deepmc_obs::span("total");
        checker.check_program_with_jobs(program, cache, jobs).0
    };
    (rec.finish(), report.to_string())
}

#[test]
fn metrics_snapshot_matches_golden() {
    let program = fixture_program();
    let (data, _) = record_check(&program, PersistencyModel::Strict, None, 1);
    let mut snapshot = data.metrics_snapshot("deepmc check");
    snapshot.redact_timings();
    let got = snapshot.to_json();
    if std::env::var("UPDATE_OBS_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file exists — generate with UPDATE_OBS_GOLDEN=1 \
         cargo test -p deepmc-corpus --test observability",
    );
    assert_eq!(
        got, want,
        "metrics snapshot shape or deterministic content changed; if intentional, \
         bump METRICS_SCHEMA_VERSION and regenerate with UPDATE_OBS_GOLDEN=1"
    );
    // A shape change without a version bump must not slip through a
    // regenerated golden: pin the version the golden was made with.
    let parsed: deepmc_obs::MetricsSnapshot =
        serde_json::from_str(want.trim_end()).expect("golden parses");
    assert_eq!(parsed.schema_version, deepmc_obs::METRICS_SCHEMA_VERSION);
}

/// Check stack discipline per worker: an event at depth `d` must have
/// `d` enclosing open spans, and a span must lie within its parent's
/// `[start, start+dur]` window.
fn assert_nesting(events: &[Event]) {
    let mut by_worker: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
    for e in events {
        by_worker.entry(e.worker).or_default().push(e);
    }
    for (worker, evs) in by_worker {
        // (start_us, end_us) of currently open spans, one per depth.
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for e in evs {
            assert!(
                (e.depth as usize) <= stack.len(),
                "worker {worker}: event `{}` at depth {} with only {} open span(s)",
                e.name,
                e.depth,
                stack.len()
            );
            stack.truncate(e.depth as usize);
            if let Some(&(pstart, pend)) = stack.last() {
                let end = e.start_us + e.dur_us.unwrap_or(0);
                assert!(
                    pstart <= e.start_us && end <= pend,
                    "worker {worker}: `{}` [{}..{end}] escapes its parent [{pstart}..{pend}]",
                    e.name,
                    e.start_us
                );
            }
            if let Some(dur) = e.dur_us {
                stack.push((e.start_us, e.start_us + dur));
            }
        }
    }
}

/// Multiset of span names, and the merged counters that are
/// schedule-independent.
fn structural_view(data: &ObsData) -> (BTreeMap<&'static str, usize>, BTreeMap<String, u64>) {
    let mut spans: BTreeMap<&'static str, usize> = BTreeMap::new();
    for e in &data.events {
        if e.is_span() {
            *spans.entry(e.name).or_insert(0) += 1;
        }
    }
    let deterministic = ["check.roots", "check.traces", "check.warnings_raw", "pool.items"];
    let counters = deterministic.iter().map(|&k| (k.to_string(), data.counter(k))).collect();
    (spans, counters)
}

#[test]
fn spans_nest_and_merge_deterministically_across_jobs() {
    let program = Framework::Pmdk.program();
    let (seq, rep_seq) = record_check(&program, Framework::Pmdk.model(), None, 1);
    let (par, rep_par) = record_check(&program, Framework::Pmdk.model(), None, 4);

    assert_nesting(&seq.events);
    assert_nesting(&par.events);

    // Merged buffers are grouped by ascending worker id.
    let workers: Vec<u32> = par.events.iter().map(|e| e.worker).collect();
    let mut sorted = workers.clone();
    sorted.sort_unstable();
    assert_eq!(workers, sorted, "merge must group events by worker id");

    // Structure is schedule-independent even though timings are not.
    assert_eq!(structural_view(&seq), structural_view(&par));
    assert_eq!(rep_seq, rep_par, "jobs must not change the report");

    // Per-root spans carry the executing worker: sequential runs record
    // everything on the driver, parallel runs on the driver (worker 0)
    // and its three helpers.
    assert!(seq.spans_of("traces").all(|e| e.worker == 0));
    assert!(par.spans_of("traces").all(|e| e.worker <= 3));
    // And a second parallel run merges to the same structure.
    let (par2, _) = record_check(&program, Framework::Pmdk.model(), None, 4);
    assert_eq!(structural_view(&par), structural_view(&par2));
}

#[test]
fn instrumentation_does_not_perturb_reports_or_cache() {
    let base = std::env::temp_dir().join(format!("deepmc-obs-perturb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for fw in Framework::ALL {
        let program = fw.program();
        let checker = StaticChecker::new(DeepMcConfig::new(fw.model()));
        let dir_plain = base.join(format!("{}-plain", fw.name()));
        let dir_inst = base.join(format!("{}-inst", fw.name()));
        let cache_plain = AnalysisCache::open(&dir_plain);
        let cache_inst = AnalysisCache::open(&dir_inst);

        let plain = checker.check_program_with_jobs(&program, Some(&cache_plain), 4).0;
        let rec = Recorder::new();
        let inst = {
            let _attach = rec.attach(0);
            let _total = deepmc_obs::span("total");
            checker.check_program_with_jobs(&program, Some(&cache_inst), 4).0
        };
        let data = rec.finish();

        assert_eq!(
            plain.to_string(),
            inst.to_string(),
            "{}: instrumented report must be byte-identical",
            fw.name()
        );
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&inst).unwrap(),
            "{}: instrumented JSON report must be byte-identical",
            fw.name()
        );
        assert_eq!(
            dir_snapshot(&dir_plain),
            dir_snapshot(&dir_inst),
            "{}: instrumented cache dir must be byte-identical",
            fw.name()
        );
        assert!(data.counter("check.roots") > 0, "{}: instrumentation recorded", fw.name());
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Sorted (file name, contents) snapshot of a cache directory.
fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("read"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn profile_phase_sum_covers_wall_time_at_jobs_1() {
    // The Table-9c acceptance bar: across the four corpus frameworks at
    // --jobs 1, the top-level phases must sum to within 10% of the wall
    // clock — no large unattributed gaps in the pipeline.
    // Program construction happens outside the recorder: the CLI covers
    // its parse with a dedicated span; here only checker time is walled.
    let programs: Vec<(PersistencyModel, Program)> =
        Framework::ALL.iter().map(|fw| (fw.model(), fw.program())).collect();
    let rec = Recorder::new();
    {
        let _attach = rec.attach(0);
        let _total = deepmc_obs::span("total");
        for (model, program) in &programs {
            let checker = StaticChecker::new(DeepMcConfig::new(*model));
            std::hint::black_box(checker.check_program_with_jobs(program, None, 1));
        }
    }
    let data = rec.finish();
    let wall = data.wall_us();
    let covered: u64 = data
        .events
        .iter()
        .filter(|e| e.is_span() && e.depth == 1 && e.worker == 0)
        .map(|e| e.dur_us.unwrap())
        .sum();
    assert!(wall > 0);
    let coverage = covered as f64 / wall as f64;
    assert!(
        (0.9..=1.01).contains(&coverage),
        "top-level phases cover {:.1}% of wall time (need within 10%)",
        coverage * 100.0
    );
}

#[test]
fn chrome_trace_is_loadable_and_carries_worker_ids() {
    let program = Framework::Pmdk.program();
    let (data, _) = record_check(&program, Framework::Pmdk.model(), None, 4);
    let json = data.chrome_trace();
    let n = validate_chrome_trace(&json).expect("chrome trace is well-formed");
    assert!(n > data.events.len(), "all events plus metadata records present");
    // Every pool.job span reaches the trace, on a lane below --jobs: the
    // caller is lane 0 and its helpers 1..=3. (On a saturated machine the
    // caller can drain the whole queue before a helper starts, so no
    // helper lane is guaranteed to appear.)
    let jobs = data.spans_of("pool.job").count();
    assert!(jobs > 0 && jobs as u64 == data.counter("pool.items"), "one span per pool item");
    assert_eq!(json.matches(r#""name":"pool.job""#).count(), jobs, "every pool.job is exported");
    assert!(data.spans_of("pool.job").all(|e| e.worker < 4), "lanes bounded by --jobs");
    // Every worker that recorded anything gets its own trace lane.
    let mut lanes: Vec<u32> = data.events.iter().map(|e| e.worker).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for w in lanes {
        assert!(json.contains(&format!("\"tid\":{w}")), "worker {w} appears as a trace lane");
    }
}

#[test]
fn zero_cost_when_disabled_smoke() {
    // No recorder attached: the checker must run and record nothing
    // globally (there is no global state to leak into).
    assert!(!deepmc_obs::active());
    let program = fixture_program();
    let checker = StaticChecker::new(DeepMcConfig::new(PersistencyModel::Strict));
    let report = checker.check_program(&program);
    assert!(!report.warnings.is_empty(), "fixture has a seeded bug");
    assert!(!deepmc_obs::active());
}
