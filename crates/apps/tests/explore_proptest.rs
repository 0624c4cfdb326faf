//! Property-based check of the pruned crash-state explorer: for *any*
//! sweep seed, script length, fault mix, and app, `--prune` must report
//! exactly the same verdicts — bug attributions, fault attributions, and
//! the violation list — as the exhaustive sweep, and must do so
//! byte-identically at any worker count.

use nvm_apps::crashsweep::{sweep_app, SweepApp, SweepConfig};
use nvm_runtime::FaultConfig;
use proptest::prelude::*;

fn apps() -> impl Strategy<Value = SweepApp> {
    prop_oneof![Just(SweepApp::Memcached), Just(SweepApp::Redis), Just(SweepApp::NStore)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pruning is a pure optimization: the set of failing crash states
    /// (counter for counter, violation for violation) matches the
    /// exhaustive sweep's on generated configs, with and without the
    /// seeded bug, and the pruned output itself is identical at
    /// `--jobs 1` and `--jobs 4`.
    #[test]
    fn pruned_sweep_reports_the_same_failing_states(
        app in apps(),
        seed in 1..1_000u64,
        steps in 6..10u64,
        inject_bug in any::<bool>(),
        torn in prop_oneof![Just(0.0f64), Just(0.25f64)],
        drop_flush in prop_oneof![Just(0.0f64), Just(0.08f64)],
        poison in prop_oneof![Just(0.0f64), Just(0.005f64)],
    ) {
        let base = SweepConfig {
            seed,
            steps,
            random_seeds: 1,
            fault: FaultConfig {
                torn_store_rate: torn,
                dropped_flush_rate: drop_flush,
                poison_rate: poison,
                ..Default::default()
            },
            inject_bug,
            oracle: true,
            jobs: 1,
            ..Default::default()
        };
        let exhaustive = sweep_app(&base, app);
        let pruned = sweep_app(&SweepConfig { prune: true, ..base }, app);

        prop_assert_eq!(exhaustive.images_checked, pruned.images_checked);
        prop_assert_eq!(exhaustive.records_dropped, pruned.records_dropped);
        prop_assert_eq!(exhaustive.flushes_dropped, pruned.flushes_dropped);
        prop_assert_eq!(exhaustive.fault_attributed, pruned.fault_attributed);
        prop_assert_eq!(exhaustive.bug_attributed, pruned.bug_attributed);
        prop_assert_eq!(&exhaustive.violations, &pruned.violations);
        prop_assert_eq!(
            pruned.states_explored + pruned.states_pruned,
            pruned.images_checked
        );

        let pruned_par = sweep_app(&SweepConfig { prune: true, jobs: 4, ..base }, app);
        prop_assert_eq!(pruned.to_string(), pruned_par.to_string());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Memcached collapses crash points across steps, so its class
    /// context must cover everything the rollback oracle reads. Long
    /// scripts with the seeded bug and the oracle on are where a key
    /// acked at one barrier is rewritten with an older value before the
    /// next: the pruned sweep must still match the exhaustive one.
    #[test]
    fn pruned_memcached_matches_exhaustive_on_long_buggy_scripts(
        seed in 1..1_000u64,
        steps in 64..=96u64,
    ) {
        let base = SweepConfig {
            seed,
            steps,
            inject_bug: true,
            oracle: true,
            jobs: 1,
            ..Default::default()
        };
        let exhaustive = sweep_app(&base, SweepApp::Memcached);
        let pruned = sweep_app(&SweepConfig { prune: true, ..base }, SweepApp::Memcached);
        prop_assert_eq!(exhaustive.images_checked, pruned.images_checked);
        prop_assert_eq!(exhaustive.bug_attributed, pruned.bug_attributed);
        prop_assert_eq!(exhaustive.fault_attributed, pruned.fault_attributed);
        prop_assert_eq!(&exhaustive.violations, &pruned.violations);
    }
}
