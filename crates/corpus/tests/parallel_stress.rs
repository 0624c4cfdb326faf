//! Stress: 100 parallel checks with randomized pool sizes over the
//! corpus, every one byte-identical to the sequential report.
//!
//! The shared-queue fan-out has no deterministic schedule — which worker
//! checks which root varies run to run — so a single parallel-vs-
//! sequential comparison can pass by luck. Hammering the checker with
//! randomized worker counts (seeded LCG, cycling through the four
//! frameworks) makes a schedule-dependent merge bug overwhelmingly likely
//! to surface as a report diff.

use deepmc::{DeepMcConfig, StaticChecker};
use deepmc_corpus::Framework;

#[test]
fn hundred_parallel_checks_match_sequential() {
    let programs: Vec<_> = Framework::ALL.iter().map(|fw| fw.program()).collect();
    let checkers: Vec<_> =
        Framework::ALL.iter().map(|fw| StaticChecker::new(DeepMcConfig::new(fw.model()))).collect();
    let baselines: Vec<String> = programs
        .iter()
        .zip(&checkers)
        .map(|(p, c)| c.check_program_with_jobs(p, None, 1).0.to_string())
        .collect();

    // Deterministic worker counts from a seeded LCG (Knuth MMIX).
    let mut state: u64 = 0xDEE9_AC00;
    for i in 0..100 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let jobs = 1 + ((state >> 33) as usize) % 8;
        let f = i % Framework::ALL.len();
        let report = checkers[f].check_program_with_jobs(&programs[f], None, jobs).0;
        assert_eq!(
            report.to_string(),
            baselines[f],
            "run {i}: {} with --jobs {jobs} diverged from sequential",
            Framework::ALL[f].name()
        );
    }
}
