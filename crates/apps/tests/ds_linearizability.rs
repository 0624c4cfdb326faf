//! Property-based linearization-prefix check of the DS corpus: for *any*
//! generated operation history, crashing after every step of a clean
//! structure and recovering must land on a state the history could have
//! linearized to inside the operation's durability window. The seeded
//! crash-visible variants must keep failing that oracle on the same
//! histories, and the whole sweep must be byte-identical at any worker
//! count.

use nvm_apps::ds::{expected, DsOp};
use nvm_apps::{ds_sweep_script, DsKind, DsSweepConfig};
use proptest::prelude::*;

fn kinds() -> impl Strategy<Value = DsKind> {
    prop_oneof![
        Just(DsKind::Treiber),
        Just(DsKind::MsQueue),
        Just(DsKind::Harris),
        Just(DsKind::Comb),
        Just(DsKind::Clevel),
    ]
}

/// Generated op histories: adds biased 3:1 over removes (the vendored
/// `prop_oneof!` is equal-weight, so the bias is by repetition), keys
/// from a small range so removes actually hit and slots get reused.
fn scripts() -> impl Strategy<Value = Vec<DsOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1..=6u64).prop_map(DsOp::Add),
            (1..=6u64).prop_map(DsOp::Add),
            (1..=6u64).prop_map(DsOp::Add),
            (1..=6u64).prop_map(DsOp::Remove),
        ],
        8..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clean structures recover to a linearization prefix from every
    /// crash point of every generated history — zero oracle violations —
    /// and the pruned sweep agrees with the exhaustive one byte for byte
    /// at `--jobs 1` and `--jobs 4`.
    #[test]
    fn clean_recovery_is_a_linearization_prefix(
        kind in kinds(),
        script in scripts(),
    ) {
        let mut cfg = DsSweepConfig::new(kind, None);
        cfg.steps = script.len() as u64;
        cfg.oracle = true;
        let exhaustive = ds_sweep_script(&cfg, &script);
        prop_assert!(
            exhaustive.violations.is_empty(),
            "{}: {}",
            kind.name(),
            exhaustive.summary()
        );

        cfg.prune = true;
        let pruned = ds_sweep_script(&cfg, &script);
        prop_assert!(pruned.violations.is_empty(), "{}", pruned.summary());
        prop_assert_eq!(exhaustive.images_checked, pruned.images_checked);

        cfg.jobs = 4;
        let pruned_par = ds_sweep_script(&cfg, &script);
        prop_assert_eq!(pruned.summary(), pruned_par.summary());
    }

    /// The crash-visible seeded variants stay caught on generated
    /// histories too, not just the canonical script. A short suffix
    /// guarantees every bug's trigger exists regardless of what was
    /// generated: keys 7/8 are outside the generated range, so the adds
    /// always take effect, the remove completes with the structure still
    /// non-empty (arming the double-apply replay), and padding to a batch
    /// boundary makes the combiner persist the suffix.
    #[test]
    fn crash_visible_bugs_fail_the_oracle_on_any_history(
        kind in kinds(),
        prefix in scripts(),
    ) {
        let mut script = prefix;
        script.extend([DsOp::Add(7), DsOp::Add(8), DsOp::Remove(7)]);
        while !(script.len() as u64).is_multiple_of(kind.batch()) {
            script.push(DsOp::Add(7));
        }
        for &bug in kind.seeded_bugs() {
            if !expected(Some(bug)).crash {
                continue;
            }
            let mut cfg = DsSweepConfig::new(kind, Some(bug));
            cfg.steps = script.len() as u64;
            cfg.oracle = true;
            let out = ds_sweep_script(&cfg, &script);
            prop_assert!(
                !out.violations.is_empty(),
                "{}/{} survived the oracle: {}",
                kind.name(),
                bug.name(),
                out.summary()
            );
        }
    }
}
