//! Report determinism and cache equivalence over the corpus.
//!
//! Two properties, each over all four frameworks:
//!
//! * Running the checker twice produces byte-identical reports (rendered
//!   and JSON forms) — warnings that share a dedup key must not make the
//!   surviving representative depend on iteration order.
//! * A warm run against the on-disk cache reproduces the cold run's
//!   report byte-for-byte, with every root served from the cache — by a
//!   replay of the whole pack when the program is unchanged.

use deepmc::{AnalysisCache, DeepMcConfig, StaticChecker};
use deepmc_corpus::Framework;

fn render(report: &deepmc::Report) -> (String, String) {
    (report.to_string(), serde_json::to_string(report).expect("report serializes"))
}

#[test]
fn repeated_checks_are_byte_identical() {
    for fw in Framework::ALL {
        let (text1, json1) = render(&fw.check());
        let (text2, json2) = render(&fw.check());
        assert_eq!(text1, text2, "{}: rendered report differs between runs", fw.name());
        assert_eq!(json1, json2, "{}: JSON report differs between runs", fw.name());
    }
}

/// A check against `cache`: whether it ran the analysis (built the DSA)
/// rather than replaying a whole pack, its rendered report and its stats.
fn recorded_check(
    program: &deepmc_analysis::Program,
    fw: Framework,
    cache: &AnalysisCache,
) -> (bool, String, deepmc::CacheRunStats) {
    let checker = StaticChecker::new(DeepMcConfig::new(fw.model()));
    let rec = deepmc_obs::Recorder::new();
    let (report, stats) = {
        let _a = rec.attach(0);
        checker.check_program_cached(program, Some(cache))
    };
    (rec.finish().spans_of("dsa").count() > 0, report.to_string(), stats)
}

/// A warm run of the unchanged program replays the pack the cold run
/// wrote, without an analysis. A change that moves no root key (a module's
/// name is in no key) runs the analysis, hits every root, and rewrites the
/// pack, which the next run replays whole.
#[test]
fn warm_cache_run_is_byte_identical_and_all_hits() {
    for fw in Framework::ALL {
        let dir = std::env::temp_dir().join(format!(
            "deepmc-determinism-{}-{}",
            fw.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        let program = fw.program();
        let (analyzed, cold, stats) = recorded_check(&program, fw, &cache);
        assert!(analyzed && stats.hits == 0, "{}: cold run must analyze, not hit", fw.name());
        assert!(stats.stores > 0, "{}: cold run must populate the cache", fw.name());
        let roots = stats.misses;
        // The cached report matches the plain uncached pipeline.
        assert_eq!(cold, fw.check().to_string(), "{}: cached pipeline diverges", fw.name());

        let mut modules = fw.modules();
        modules[0].name.push_str("_renamed");
        let renamed = deepmc_analysis::Program::new(modules).expect("renamed modules link");
        for (program, analyzes) in [(&program, false), (&renamed, true), (&renamed, false)] {
            let (analyzed, warm, stats) = recorded_check(program, fw, &cache);
            assert_eq!(analyzed, analyzes, "{}: analyzed", fw.name());
            assert_eq!((stats.hits, stats.misses), (roots, 0), "{}: warm run missed", fw.name());
            assert_eq!(cold, warm, "{}: warm-cache report differs from cold", fw.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
