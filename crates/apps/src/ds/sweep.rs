//! The DS corpus as a crash target.
//!
//! For every prefix of a deterministic operation script, the shared
//! explorer ([`crate::explore`]) runs the prefix against a fresh
//! structure, crashes under every [`CrashPolicy`], reboots, runs the
//! structure's recovery, and validates the recovered contents:
//!
//! * with `oracle` — the linearization-prefix oracle: the recovered state
//!   must equal the canonical model state at some point inside the
//!   operation's durability window (`[batch-floor(s), s]`; the window is
//!   a single point for the per-op structures and the current batch for
//!   the combining queue, which only acks at batch close);
//! * without — a membership-only check: every recovered element must have
//!   been added by the executed prefix.
//!
//! A step's class context is what that check reads besides the image:
//! the model states of its durability window, or the added set. With
//! `prune`, crash points with equal images and contexts share one
//! validated representative; the pruned outcome is
//! violation-for-violation identical to the exhaustive one at every
//! worker count, and only the explored/pruned split differs.

use super::{model_states, DsBug, DsInstance, DsKind, DsOp};
use crate::crashsweep::{policy_name, SweepSession};
use crate::explore::{explore, mix, CrashTarget};
use crate::tracker::NoopTracker;
use deepmc_obs as obs;
use nvm_runtime::{CrashImage, CrashPolicy, PmemHeap, PmemPool, PoolConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Configuration for one structure × variant sweep.
#[derive(Debug, Clone)]
pub struct DsSweepConfig {
    pub kind: DsKind,
    pub bug: Option<DsBug>,
    /// Script seed (drives [`super::ds_script`]).
    pub seed: u64,
    /// Script length; every prefix `1..=steps` is crashed.
    pub steps: u64,
    /// Collapse equivalent crash states before validating.
    pub prune: bool,
    /// Linearization-prefix oracle (vs membership-only).
    pub oracle: bool,
    /// Worker threads (0 = auto).
    pub jobs: usize,
}

impl DsSweepConfig {
    pub fn new(kind: DsKind, bug: Option<DsBug>) -> DsSweepConfig {
        DsSweepConfig { kind, bug, seed: 0xD5, steps: 24, prune: false, oracle: false, jobs: 1 }
    }
}

/// One failed crash-recovery validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsViolation {
    pub step: u64,
    pub policy: String,
    pub detail: String,
}

/// Aggregate result of one sweep.
#[derive(Debug, Clone)]
pub struct DsSweepOutcome {
    pub kind: DsKind,
    pub bug: Option<DsBug>,
    pub steps: u64,
    /// Crash images validated (directly or via a class representative).
    pub images_checked: u64,
    /// Images actually recovered (class representatives).
    pub states_explored: u64,
    /// Images whose verdict was propagated from a representative.
    pub states_pruned: u64,
    pub violations: Vec<DsViolation>,
}

impl DsSweepOutcome {
    /// Deterministic one-sweep render (used for jobs-parity assertions).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "ds sweep: kind={} variant={} steps={} images={} explored={} pruned={} violations={}\n",
            self.kind.name(),
            super::variant_name(self.bug),
            self.steps,
            self.images_checked,
            self.states_explored,
            self.states_pruned,
            self.violations.len(),
        );
        for v in &self.violations {
            let _ = writeln!(s, "  violation step={} policy={} {}", v.step, v.policy, v.detail);
        }
        s
    }
}

/// One structure variant and its operation script, as a crash target.
struct DsTarget<'a> {
    cfg: &'a DsSweepConfig,
    script: &'a [DsOp],
    /// `models[t]`: the canonical state after the first `t` operations.
    models: Vec<Vec<u64>>,
    /// Every element the script adds.
    added: BTreeSet<u64>,
    /// The crash policies every step is subjected to, in canonical order.
    policies: [CrashPolicy; 4],
}

impl DsTarget<'_> {
    /// The durability window for a crash at step `s`: operations up to the
    /// last acknowledged batch are guaranteed; in-flight ones may or may
    /// not have landed.
    fn window(&self, s: u64) -> (u64, u64) {
        (s - s % self.cfg.kind.batch(), s)
    }
}

impl CrashTarget for DsTarget<'_> {
    type Run = ();
    /// `Some(detail)` when the recovered image failed the check.
    type Verdict = Option<String>;

    fn name(&self) -> &'static str {
        self.cfg.kind.name()
    }

    fn crash_points(&self) -> usize {
        self.script.len()
    }

    fn policies(&self) -> &[CrashPolicy] {
        &self.policies
    }

    fn replay(&self, s: usize) -> (PmemPool, ()) {
        let pool = PmemPool::new(PoolConfig { size: 1 << 20, shards: 8, ..Default::default() });
        {
            let heap = PmemHeap::open(&pool);
            let inst = DsInstance::create(self.cfg.kind, self.cfg.bug, &heap);
            let t = NoopTracker;
            let batch = self.cfg.kind.batch();
            for (i, &op) in self.script[..s].iter().enumerate() {
                let seq = i as u64 + 1;
                inst.apply(op, &t, None, 0, seq);
                if seq.is_multiple_of(batch) {
                    inst.batch_end(&t, None, 0, seq);
                }
            }
        }
        (pool, ())
    }

    fn context(&self, s: usize, _: &()) -> u64 {
        let (floor, hi) = self.window(s as u64);
        let mut words: Vec<u64> = vec![self.cfg.oracle as u64, floor, hi];
        let mut digest_state = |state: &[u64]| {
            words.push(state.len() as u64);
            words.extend_from_slice(state);
        };
        if self.cfg.oracle {
            for t in floor..=hi {
                digest_state(&self.models[t as usize]);
            }
        } else {
            digest_state(&self.added.iter().copied().collect::<Vec<u64>>());
        }
        mix(&words)
    }

    fn validate(&self, s: usize, _: usize, img: &CrashImage, _: &()) -> Option<String> {
        let pool = img.reboot(8);
        let heap = PmemHeap::open(&pool);
        let inst = DsInstance::recover(self.cfg.kind, self.cfg.bug, &heap);
        let got = inst.contents();
        if self.cfg.oracle {
            let (floor, hi) = self.window(s as u64);
            if !(floor..=hi).any(|t| self.models[t as usize] == got) {
                return Some(format!(
                    "recovered {:?} is no linearization prefix in [{floor}, {hi}] (expected around {:?})",
                    got, self.models[hi as usize]
                ));
            }
        } else if let Some(orphan) = got.iter().find(|v| !self.added.contains(v)) {
            return Some(format!("recovered element {orphan} was never added"));
        }
        None
    }
}

/// Sweep using the canonical deterministic script for `cfg.seed`.
pub fn ds_sweep(cfg: &DsSweepConfig) -> DsSweepOutcome {
    let script = super::ds_script(cfg.seed, cfg.steps);
    ds_sweep_script(cfg, &script)
}

/// Sweep an explicit operation history (the proptest entry point).
pub fn ds_sweep_script(cfg: &DsSweepConfig, script: &[DsOp]) -> DsSweepOutcome {
    let _span = obs::span_lazy("ds.sweep", || {
        vec![
            ("kind", cfg.kind.name().to_string()),
            ("variant", super::variant_name(cfg.bug).to_string()),
        ]
    });
    let target = DsTarget {
        cfg,
        script,
        models: model_states(cfg.kind, script),
        added: script
            .iter()
            .filter_map(|op| if let DsOp::Add(v) = op { Some(*v) } else { None })
            .collect(),
        policies: [
            CrashPolicy::Pessimistic,
            CrashPolicy::PendingOnly,
            CrashPolicy::Optimistic,
            CrashPolicy::Random(cfg.seed ^ 0xD5_CA5),
        ],
    };
    let mut outcome = DsSweepOutcome {
        kind: cfg.kind,
        bug: cfg.bug,
        steps: script.len() as u64,
        images_checked: 0,
        states_explored: 0,
        states_pruned: 0,
        violations: Vec::new(),
    };
    let pols = &target.policies;
    let run = explore(&target, cfg.prune, cfg.jobs, &SweepSession::default(), |s, _, verdicts| {
        for (policy, verdict) in pols.iter().zip(verdicts) {
            outcome.images_checked += 1;
            if let Some(detail) = verdict {
                outcome.violations.push(DsViolation {
                    step: s as u64,
                    policy: policy_name(policy),
                    detail: detail.clone(),
                });
            }
        }
    });
    outcome.states_explored = run.explored;
    outcome.states_pruned = outcome.images_checked - run.explored;
    obs::counter("ds.images_checked", outcome.images_checked);
    obs::counter("ds.explored", outcome.states_explored);
    obs::counter("ds.pruned", outcome.states_pruned);
    obs::counter("ds.violations", outcome.violations.len() as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(kind: DsKind, bug: Option<DsBug>, prune: bool, oracle: bool) -> DsSweepOutcome {
        let mut cfg = DsSweepConfig::new(kind, bug);
        cfg.prune = prune;
        cfg.oracle = oracle;
        ds_sweep(&cfg)
    }

    #[test]
    fn clean_variants_have_zero_violations_under_oracle() {
        for kind in DsKind::ALL {
            let out = sweep(kind, None, false, true);
            assert!(out.violations.is_empty(), "{}: {}", kind.name(), out.summary());
        }
    }

    #[test]
    fn crash_seeded_bugs_are_caught_and_strand_race_is_crash_clean() {
        for kind in DsKind::ALL {
            for &bug in kind.seeded_bugs() {
                let out = sweep(kind, Some(bug), false, true);
                let e = super::super::expected(Some(bug));
                assert_eq!(
                    !out.violations.is_empty(),
                    e.crash,
                    "{}/{}: {}",
                    kind.name(),
                    bug.name(),
                    out.summary()
                );
            }
        }
    }

    #[test]
    fn pruned_sweep_matches_exhaustive_and_actually_prunes() {
        for kind in DsKind::ALL {
            for bug in kind.variants() {
                let ex = sweep(kind, bug, false, true);
                let pr = sweep(kind, bug, true, true);
                assert_eq!(
                    ex.violations,
                    pr.violations,
                    "{}/{}",
                    kind.name(),
                    super::super::variant_name(bug)
                );
                assert_eq!(ex.images_checked, pr.images_checked);
                assert!(
                    pr.states_pruned > 0,
                    "{}/{} pruned nothing ({} images)",
                    kind.name(),
                    super::super::variant_name(bug),
                    pr.images_checked
                );
            }
        }
    }

    #[test]
    fn jobs_do_not_change_the_summary() {
        for prune in [false, true] {
            let mut cfg = DsSweepConfig::new(DsKind::MsQueue, Some(DsBug::SkipCheckpointFence));
            cfg.prune = prune;
            cfg.oracle = true;
            cfg.jobs = 1;
            let one = ds_sweep(&cfg).summary();
            cfg.jobs = 4;
            let four = ds_sweep(&cfg).summary();
            assert_eq!(one, four, "prune={prune}");
        }
    }
}
