//! Property test: the parallel checker is observationally identical to
//! the sequential one.
//!
//! For randomly generated call-heavy programs (many analysis roots
//! sharing randomly buggy callees — the shape the shared-queue fan-out
//! and the shared trace collector have to get right), checking with
//! `--jobs 1` and with 4–8 workers must produce
//!
//! * byte-identical rendered and JSON reports, and
//! * byte-identical incremental-cache directories (same file names, same
//!   contents — no temporary file may be left behind, and the stored
//!   records must not depend on which worker computed them).
//!
//! A third, instrumented leg runs the same parallel check with a
//! `deepmc-obs` recorder attached: the observability layer must not
//! perturb either artifact.

use deepmc::{AnalysisCache, DeepMcConfig, StaticChecker};
use deepmc_analysis::Program;
use deepmc_models::PersistencyModel;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One generated callee: writes a field and either persists it (clean)
/// or forgets to (buggy — one UnflushedWrite per reaching root).
#[derive(Debug, Clone)]
struct Callee {
    buggy: bool,
}

/// One generated root: calls a non-empty sequence of callees (repeats
/// allowed — every call site is walked, none is deduplicated).
#[derive(Debug, Clone)]
struct Root {
    calls: Vec<usize>,
}

#[derive(Debug, Clone)]
struct GenProgram {
    callees: Vec<Callee>,
    roots: Vec<Root>,
}

/// The vendored proptest has no `prop_flat_map`, so callee indices are
/// generated as raw `u64`s and reduced modulo the callee count here.
fn gen_program() -> impl Strategy<Value = GenProgram> {
    let callees = proptest::collection::vec(any::<bool>().prop_map(|buggy| Callee { buggy }), 2..6);
    let roots = proptest::collection::vec(
        proptest::collection::vec(any::<u64>(), 1..5)
            .prop_map(|calls| Root { calls: calls.into_iter().map(|c| c as usize).collect() }),
        2..6,
    );
    (callees, roots).prop_map(|(callees, roots)| {
        let n = callees.len();
        let roots = roots
            .into_iter()
            .map(|r| Root { calls: r.calls.into_iter().map(|c| c % n).collect() })
            .collect();
        GenProgram { callees, roots }
    })
}

/// Render the generated shape as PIR source. Every root allocates its
/// own object and passes it to each callee it calls.
fn pir(g: &GenProgram) -> String {
    let mut src = String::from("module gen\nfile \"gen.c\"\nstruct s { a: i64, b: i64 }\n");
    for (i, c) in g.callees.iter().enumerate() {
        writeln!(src, "fn callee_{i}(%p: ptr s) {{\nentry:").unwrap();
        writeln!(src, "  store %p.a, {}", i + 1).unwrap();
        if !c.buggy {
            writeln!(src, "  flush %p.a\n  fence").unwrap();
        }
        writeln!(src, "  ret\n}}").unwrap();
    }
    // Every call site gets its own allocation: a clean callee's flush
    // must not retroactively persist an earlier buggy store to a shared
    // object, which would invalidate the warning-count model below.
    for (r, root) in g.roots.iter().enumerate() {
        writeln!(src, "fn root_{r}() {{\nentry:").unwrap();
        for (j, c) in root.calls.iter().enumerate() {
            writeln!(src, "  %x{j} = palloc s\n  call callee_{c}(%x{j})").unwrap();
        }
        writeln!(src, "  ret\n}}").unwrap();
    }
    src
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

/// Callees no root calls — each is a call-graph root of its own and
/// counts toward `check.roots`.
fn uncalled(g: &GenProgram) -> usize {
    let called: std::collections::HashSet<usize> =
        g.roots.iter().flat_map(|r| r.calls.iter().copied()).collect();
    (0..g.callees.len()).filter(|i| !called.contains(i)).count()
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Filter the default panic banner for chaos-injected panics so the
/// chaos proptest below doesn't spray one backtrace notice per injected
/// panic; every other panic still prints normally.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied());
            if msg.is_some_and(|m| m.contains("chaos:")) {
                return;
            }
            prev(info);
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_check_equals_sequential(g in gen_program(), jobs in 4usize..=8) {
        let src = pir(&g);
        let module = deepmc_pir::parse(&src).expect("generated PIR parses");
        let program = Program::single(module);
        let checker = StaticChecker::new(DeepMcConfig::new(PersistencyModel::Strict));

        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let base = std::env::temp_dir().join(format!("deepmc-pd-{}-{case}", std::process::id()));
        let dir_seq = base.join("seq");
        let dir_par = base.join("par");
        let dir_obs = base.join("obs");

        let cache_seq = AnalysisCache::open(&dir_seq);
        let cache_par = AnalysisCache::open(&dir_par);
        let cache_obs = AnalysisCache::open(&dir_obs);
        let (rep_seq, _) = checker.check_program_with_jobs(&program, Some(&cache_seq), 1);
        let (rep_par, _) = checker.check_program_with_jobs(&program, Some(&cache_par), jobs);
        // Instrumented leg: same parallel run with a recorder attached.
        let rec = deepmc_obs::Recorder::new();
        let (rep_obs, _) = {
            let _attach = rec.attach(0);
            let _total = deepmc_obs::span("total");
            checker.check_program_with_jobs(&program, Some(&cache_obs), jobs)
        };
        let obs_data = rec.finish();

        let text_eq = rep_seq.to_string() == rep_par.to_string();
        let json_eq = serde_json::to_string(&rep_seq).unwrap()
            == serde_json::to_string(&rep_par).unwrap();
        let cache_eq = dir_snapshot(&dir_seq) == dir_snapshot(&dir_par);
        let obs_text_eq = rep_seq.to_string() == rep_obs.to_string();
        let obs_cache_eq = dir_snapshot(&dir_seq) == dir_snapshot(&dir_obs);
        let _ = std::fs::remove_dir_all(&base);

        prop_assert!(text_eq, "jobs={jobs}: rendered report differs from sequential");
        prop_assert!(json_eq, "jobs={jobs}: JSON report differs from sequential");
        prop_assert!(cache_eq, "jobs={jobs}: cache directory differs from sequential");
        prop_assert!(obs_text_eq, "jobs={jobs}: instrumented report differs from sequential");
        prop_assert!(obs_cache_eq, "jobs={jobs}: instrumented cache dir differs from sequential");
        prop_assert!(
            obs_data.counter("check.roots") == g.roots.len() as u64 + uncalled(&g) as u64,
            "instrumented run recorded every analysis root"
        );

        // Sanity: the generator must exercise the interesting case often
        // enough — every (root, distinct buggy callee) pair is one
        // warning; repeat calls dedup on (class, file, line, root). A
        // buggy callee no root calls is a call-graph root of its own and
        // warns once under itself.
        let called: std::collections::HashSet<usize> =
            g.roots.iter().flat_map(|r| r.calls.iter().copied()).collect();
        let expected: usize = g
            .roots
            .iter()
            .map(|r| {
                r.calls
                    .iter()
                    .filter(|&&c| g.callees[c].buggy)
                    .collect::<std::collections::HashSet<_>>()
                    .len()
            })
            .sum::<usize>()
            + g.callees
                .iter()
                .enumerate()
                .filter(|(i, c)| c.buggy && !called.contains(i))
                .count();
        prop_assert!(
            rep_seq.warnings.len() == expected,
            "one UnflushedWrite per (root, buggy callee) pair: expected {expected}\n{src}\n{rep_seq}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos leg: inject panics into a random subset of the generated
    /// roots. The run must *complete* — every surviving root's warnings
    /// present, one `RootFailure` per panicked root, `degraded` set —
    /// and the degraded report must stay byte-identical between jobs=1
    /// and jobs=4..8 (panic isolation must not make the outcome
    /// schedule-dependent).
    #[test]
    fn chaos_panics_degrade_deterministically(
        g in gen_program(),
        jobs in 4usize..=8,
        mask in any::<u64>(),
    ) {
        quiet_chaos_panics();
        let src = pir(&g);
        let module = deepmc_pir::parse(&src).expect("generated PIR parses");
        let program = Program::single(module);
        let panicked: Vec<usize> =
            (0..g.roots.len()).filter(|r| mask & (1u64 << r) != 0).collect();
        let mut config = DeepMcConfig::new(PersistencyModel::Strict);
        for &r in &panicked {
            config = config.with_chaos_panic(format!("root_{r}"));
        }
        let checker = StaticChecker::new(config);

        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let base = std::env::temp_dir().join(format!("deepmc-chaos-{}-{case}", std::process::id()));
        let dir_seq = base.join("seq");
        let dir_par = base.join("par");
        let cache_seq = AnalysisCache::open(&dir_seq);
        let cache_par = AnalysisCache::open(&dir_par);
        let (rep_seq, _) = checker.check_program_with_jobs(&program, Some(&cache_seq), 1);
        let (rep_par, _) = checker.check_program_with_jobs(&program, Some(&cache_par), jobs);

        let text_eq = rep_seq.to_string() == rep_par.to_string();
        let json_eq = serde_json::to_string(&rep_seq).unwrap()
            == serde_json::to_string(&rep_par).unwrap();
        let cache_eq = dir_snapshot(&dir_seq) == dir_snapshot(&dir_par);
        let _ = std::fs::remove_dir_all(&base);

        prop_assert!(text_eq, "jobs={jobs}: degraded rendered report differs from sequential");
        prop_assert!(json_eq, "jobs={jobs}: degraded JSON report differs from sequential");
        prop_assert!(cache_eq, "jobs={jobs}: cache directory differs under chaos");

        // Exactly one RootFailure per panicked root, in root order, each
        // carrying the injected payload.
        prop_assert!(
            rep_seq.failures.len() == panicked.len(),
            "expected {} RootFailures, got {}\n{rep_seq}",
            panicked.len(),
            rep_seq.failures.len()
        );
        for (f, &r) in rep_seq.failures.iter().zip(&panicked) {
            prop_assert!(f.root == format!("root_{r}"), "failure order: {} vs root_{r}", f.root);
            prop_assert!(f.panic.contains("chaos:"), "payload lost: {}", f.panic);
        }
        prop_assert!(rep_seq.degraded != panicked.is_empty(), "degraded iff K > 0");

        // Surviving roots still contribute every warning they would have:
        // N−K roots' distinct-buggy-callee pairs plus uncalled buggy
        // callees (their own call-graph roots, never chaos targets).
        let called: std::collections::HashSet<usize> =
            g.roots.iter().flat_map(|r| r.calls.iter().copied()).collect();
        let expected: usize = g
            .roots
            .iter()
            .enumerate()
            .filter(|(r, _)| !panicked.contains(r))
            .map(|(_, root)| {
                root.calls
                    .iter()
                    .filter(|&&c| g.callees[c].buggy)
                    .collect::<std::collections::HashSet<_>>()
                    .len()
            })
            .sum::<usize>()
            + g.callees
                .iter()
                .enumerate()
                .filter(|(i, c)| c.buggy && !called.contains(i))
                .count();
        prop_assert!(
            rep_seq.warnings.len() == expected,
            "surviving roots keep their warnings: expected {expected}\n{src}\n{rep_seq}"
        );
    }

    /// Budget leg: a tight deterministic step budget must degrade roots
    /// to partial results *identically* for any worker count — the step
    /// accounting is designed to be schedule-independent, and this is the
    /// end-to-end check of that property.
    #[test]
    fn step_budget_degrades_deterministically(
        g in gen_program(),
        jobs in 4usize..=8,
        limit in 1u64..12,
    ) {
        let src = pir(&g);
        let module = deepmc_pir::parse(&src).expect("generated PIR parses");
        let program = Program::single(module);
        let mut config = DeepMcConfig::new(PersistencyModel::Strict);
        config.trace.max_walk_steps = Some(limit);
        let checker = StaticChecker::new(config);

        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let base = std::env::temp_dir().join(format!("deepmc-budget-{}-{case}", std::process::id()));
        let dir_seq = base.join("seq");
        let dir_par = base.join("par");
        let cache_seq = AnalysisCache::open(&dir_seq);
        let cache_par = AnalysisCache::open(&dir_par);
        let (rep_seq, _) = checker.check_program_with_jobs(&program, Some(&cache_seq), 1);
        let (rep_par, _) = checker.check_program_with_jobs(&program, Some(&cache_par), jobs);

        let text_eq = rep_seq.to_string() == rep_par.to_string();
        let json_eq = serde_json::to_string(&rep_seq).unwrap()
            == serde_json::to_string(&rep_par).unwrap();
        let cache_eq = dir_snapshot(&dir_seq) == dir_snapshot(&dir_par);
        let _ = std::fs::remove_dir_all(&base);

        prop_assert!(text_eq, "jobs={jobs} limit={limit}: budgeted report differs");
        prop_assert!(json_eq, "jobs={jobs} limit={limit}: budgeted JSON differs");
        prop_assert!(cache_eq, "jobs={jobs} limit={limit}: budgeted cache dir differs");
        if rep_seq.degraded {
            prop_assert!(
                rep_seq.notes.iter().any(|n| n.contains("analysis budget exceeded")),
                "degraded budget run must carry the truncation note\n{rep_seq}"
            );
        }
    }
}
