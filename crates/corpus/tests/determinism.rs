//! Report determinism and cache equivalence over the corpus.
//!
//! Two properties, each over all four frameworks:
//!
//! * Running the checker twice produces byte-identical reports (rendered
//!   and JSON forms) — warnings that share a dedup key must not make the
//!   surviving representative depend on iteration order.
//! * A warm run against the on-disk cache reproduces the cold run's
//!   report byte-for-byte, with every root served from the cache.

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
        let checker = StaticChecker::new(DeepMcConfig::new(fw.model()));
        let program = fw.program();

        let (cold, cold_stats) = checker.check_program_cached(&program, Some(&cache));
        assert_eq!(cold_stats.hits, 0, "{}: cold run must not hit", fw.name());
        assert!(cold_stats.stores > 0, "{}: cold run must populate the cache", fw.name());

        let (warm, warm_stats) = checker.check_program_cached(&program, Some(&cache));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            cold.to_string(),
            warm.to_string(),
            "{}: warm-cache report differs from cold",
            fw.name()
        );
        assert_eq!(warm_stats.misses, 0, "{}: warm run re-analyzed a root", fw.name());
        assert!(warm_stats.hit_rate() > 0.99, "{}: warm hit rate below 100%", fw.name());

        // And the cached report still matches the plain uncached pipeline.
        assert_eq!(
            cold.to_string(),
            fw.check().to_string(),
            "{}: cached pipeline diverges from the uncached one",
            fw.name()
        );
    }
}
