//! The crash explorer: one engine for every crash target.
//!
//! DeepMC confirms a reported bug by building the crash state the bug
//! implies and running the program's recovery on it (§6.2); WITCHER
//! automates that loop. Here every crash target — the three apps of
//! [`crate::crashsweep`] and the five structures of [`crate::ds`] — is a
//! [`CrashTarget`], and [`explore`] is the only code that enumerates its
//! crash points, keys them into equivalence classes, elects
//! representatives, fans the work out, journals it and propagates
//! verdicts.
//!
//! A crash point is a `(step, policy)` pair: replay the first `step`
//! operations onto a fresh pool, then take the crash image that `policy`
//! leaves. Two crash points validate identically whenever
//!
//! 1. their persisted pool images are identical
//!    ([`nvm_runtime::CrashImage::content_hash`] — durable bytes plus
//!    permanent poison; transient poison is excluded because recovery
//!    reads through retries), and
//! 2. their steps have the same *class context*: a digest of everything
//!    else the target's validation reads ([`CrashTarget::context`]).
//!
//! Every step is replayed once, in either mode. With pruning off,
//! every crash point is its own class: each step is replayed and all its
//! images are validated in the same job. With pruning on, exploration
//! runs over the shared analysis pool in windows of [`WINDOW`] steps, in
//! canonical order. Phase A (probe) replays every step of the window,
//! takes every crash image and keys it — no reboot, no recovery — and
//! keeps the step's run and the images that could represent a class
//! (each key's first image within the step, unless an earlier window
//! already elected that key). Representatives are then elected in
//! canonical (step, policy) order against every key seen so far, so the
//! assignment is the same for every worker count. Phase B (validate)
//! validates each representative from its kept image, with no second
//! replay, and the window's images are dropped before the next window
//! is probed; keeping every step's images instead would grow with the
//! script. In both modes every policy is still *applied* in order, so a
//! fault plan's RNG stream — which advances per application — stays the
//! same as when every image is validated. The merge hands each crash
//! point its representative's verdict, in canonical order, to the
//! target's fold, which relabels it with the member's own step and
//! policy.
//!
//! Each validated step is journaled as one [`StepRecord`]: the `clwb`s
//! its replay dropped plus its representatives' verdicts. An interrupted
//! run resumes from the journal in either mode (the config fingerprint
//! covers the prune flag, so the modes never replay each other's
//! journals).

use crate::crashsweep::SweepSession;
use deepmc_analysis::pool::{resolve_jobs, run_indexed};
use deepmc_obs as obs;
use nvm_runtime::{CrashImage, CrashPolicy, PmemPool};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A program the explorer can crash, recover and judge.
pub(crate) trait CrashTarget: Sync {
    /// What a replayed prefix leaves besides its pool. A pruned
    /// exploration keeps it from the probe to the validation of the step.
    type Run: Send;
    /// The verdict on one crash image.
    type Verdict: Serialize + for<'de> Deserialize<'de> + Send;

    /// The name the journal files this target's steps under.
    fn name(&self) -> &'static str;
    /// Crash points per policy: the explorer crashes after every step
    /// `1..=crash_points()`.
    fn crash_points(&self) -> usize;
    /// The policies applied at every crash point, in canonical order.
    fn policies(&self) -> &[CrashPolicy];
    /// Replay the first `step` operations onto a fresh pool.
    fn replay(&self, step: usize) -> (PmemPool, Self::Run);
    /// The step's class context: a digest of everything besides the
    /// image that validation reads.
    fn context(&self, step: usize, run: &Self::Run) -> u64;
    /// Reboot one crash image, recover it and judge the result.
    fn validate(
        &self,
        step: usize,
        policy: usize,
        img: &CrashImage,
        run: &Self::Run,
    ) -> Self::Verdict;
}

/// FNV-1a over the little-endian bytes of `words`.
pub(crate) fn mix(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One validated step: the `clwb`s its replay dropped and the verdicts
/// of the representatives it owns. The journal's only entry kind.
#[derive(Serialize, Deserialize)]
struct StepRecord<V> {
    flushes_dropped: u64,
    reps: Vec<Rep<V>>,
}

/// A representative's verdict, by policy index.
#[derive(Serialize, Deserialize)]
struct Rep<V> {
    policy: usize,
    verdict: V,
}

/// What one validation job produced for a step.
enum Validated<V> {
    /// Session cancelled before the step started.
    Skipped,
    /// Replayed from the journal.
    Resumed(StepRecord<V>),
    /// Freshly validated.
    Computed(StepRecord<V>),
}

impl<V> Validated<V> {
    /// The step's record, if it has one; counts a resumed step.
    fn record(self, resumed: &mut u64) -> Option<StepRecord<V>> {
        match self {
            Validated::Skipped => None,
            Validated::Resumed(record) => {
                *resumed += 1;
                Some(record)
            }
            Validated::Computed(record) => Some(record),
        }
    }
}

/// Run one step's validation job: skip it once the session is cancelled,
/// take it from the journal when the journal holds it, and otherwise
/// `compute` it and journal the record.
fn validated<T: CrashTarget>(
    target: &T,
    session: &SweepSession<'_>,
    step: usize,
    compute: impl FnOnce() -> StepRecord<T::Verdict>,
) -> Validated<T::Verdict> {
    if session.is_cancelled() {
        return Validated::Skipped;
    }
    if let Some(journal) = session.journal {
        if let Some(record) = journal.lookup(target.name(), step as u64) {
            obs::counter("sweep.resumed_steps", 1);
            return Validated::Resumed(record);
        }
    }
    let _s = obs::span_lazy("explore.validate", || vec![("step", step.to_string())]);
    let record = compute();
    if let Some(journal) = session.journal {
        let journaled = journal.append(target.name(), step as u64, &record);
        if session.trip_after.is_some_and(|t| journaled >= t) {
            session.cancel();
        }
    }
    Validated::Computed(record)
}

/// Work counts of one exploration.
#[derive(Default)]
pub(crate) struct Explored {
    /// Crash images actually recovered and validated.
    pub(crate) explored: u64,
    /// Steps replayed from the journal.
    pub(crate) resumed: u64,
    /// Steps left out because the session was cancelled.
    pub(crate) skipped: u64,
}

/// Steps per window of a pruned exploration. A window's images are held
/// from its probe to its validation, so the window bounds that memory.
const WINDOW: usize = 64;

/// What phase A keeps of one replayed step.
struct Probe<R> {
    /// Class key per policy.
    keys: Vec<u64>,
    flushes_dropped: u64,
    run: R,
    /// The images that may represent their class: each key's first image
    /// within the step, unless an earlier window elected that key.
    images: Vec<(usize, CrashImage)>,
}

/// Explore every crash point of `target` and hand each completed step to
/// `fold` in step order, with the `clwb`s the fault plan dropped while
/// its prefix ran and one verdict per policy.
pub(crate) fn explore<T: CrashTarget>(
    target: &T,
    prune: bool,
    jobs: usize,
    session: &SweepSession<'_>,
    mut fold: impl FnMut(usize, u64, &[&T::Verdict]),
) -> Explored {
    let total = target.crash_points();
    if session.is_cancelled() {
        return Explored { skipped: total as u64, ..Default::default() };
    }
    let jobs = resolve_jobs(jobs);
    if prune {
        pruned(target, jobs, session, &mut fold)
    } else {
        exhaustive(target, jobs, session, &mut fold)
    }
}

/// Every crash point is its own class: each step is replayed once and
/// all its images are validated in the same job.
fn exhaustive<T: CrashTarget>(
    target: &T,
    jobs: usize,
    session: &SweepSession<'_>,
    fold: &mut impl FnMut(usize, u64, &[&T::Verdict]),
) -> Explored {
    let total = target.crash_points();
    let pols = target.policies();
    let results = run_indexed(jobs, (1..=total).collect(), |_, step| {
        validated(target, session, step, || {
            let (pool, run) = target.replay(step);
            let flushes_dropped = pool.stats().dropped_flushes;
            let reps = (pols.iter().enumerate())
                .map(|(pi, policy)| {
                    let verdict = target.validate(step, pi, &policy.apply(&pool), &run);
                    Rep { policy: pi, verdict }
                })
                .collect();
            StepRecord { flushes_dropped, reps }
        })
    });
    let mut ex = Explored::default();
    for (step, result) in (1..=total).zip(results) {
        let Some(record) = result.record(&mut ex.resumed) else {
            ex.skipped += 1;
            continue;
        };
        let verdict_of =
            |pi| record.reps.iter().find(|rep| rep.policy == pi).map(|rep| &rep.verdict);
        match (0..pols.len()).map(verdict_of).collect::<Option<Vec<_>>>() {
            Some(verdicts) => {
                fold(step, record.flushes_dropped, &verdicts);
                ex.explored += pols.len() as u64;
            }
            None => ex.skipped += 1,
        }
    }
    ex
}

/// Crash points with equal class keys share one validated representative.
/// Windows of [`WINDOW`] steps run in canonical order, each in three
/// parts: probe every step, elect representatives against every key seen
/// so far, then validate the window's representatives from the images
/// the probe kept.
fn pruned<T: CrashTarget>(
    target: &T,
    jobs: usize,
    session: &SweepSession<'_>,
    fold: &mut impl FnMut(usize, u64, &[&T::Verdict]),
) -> Explored {
    let total = target.crash_points();
    let pols = target.policies();
    let mut ex = Explored::default();
    // Each class key's representative, and each representative's verdict.
    let mut first: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut verdicts: HashMap<(usize, usize), T::Verdict> = HashMap::new();
    let mut explored: HashSet<(usize, usize)> = HashSet::new();
    for lo in (1..=total).step_by(WINDOW) {
        let steps: Vec<usize> = (lo..=total.min(lo + WINDOW - 1)).collect();
        // Phase A: replay, image and key every step of the window — no
        // reboot, no recovery. Probes land in step order for any worker
        // count.
        let probed = run_indexed(jobs, steps.clone(), |_, step| {
            if session.is_cancelled() {
                return None;
            }
            let _s = obs::span_lazy("explore.probe", || vec![("step", step.to_string())]);
            let (pool, run) = target.replay(step);
            let flushes_dropped = pool.stats().dropped_flushes;
            let context = target.context(step, &run);
            let mut keys: Vec<u64> = Vec::with_capacity(pols.len());
            let mut images = Vec::new();
            for (pi, policy) in pols.iter().enumerate() {
                let img = policy.apply(&pool);
                let key = mix(&[img.content_hash(), context]);
                if !keys.contains(&key) && !first.contains_key(&key) {
                    images.push((pi, img));
                }
                keys.push(key);
            }
            Some(Probe { keys, flushes_dropped, run, images })
        });
        let Some(probes) = probed.into_iter().collect::<Option<Vec<_>>>() else {
            // Cancelled mid-probe: this window and the rest go unexplored.
            ex.skipped += (total + 1 - lo) as u64;
            break;
        };

        // Elect in canonical (step, policy) order, so the assignment — and
        // therefore the journal and the output — is the same for every
        // worker count.
        let mut reps_of: Vec<(Vec<(usize, usize)>, u64)> = Vec::with_capacity(steps.len());
        let mut owners = Vec::new();
        for (&step, probe) in steps.iter().zip(probes) {
            let reps: Vec<(usize, usize)> = (probe.keys.iter().enumerate())
                .map(|(pi, &key)| *first.entry(key).or_insert((step, pi)))
                .collect();
            let images: Vec<(usize, CrashImage)> =
                probe.images.into_iter().filter(|&(pi, _)| reps[pi] == (step, pi)).collect();
            if !images.is_empty() {
                owners.push((step, probe.flushes_dropped, probe.run, images));
            }
            reps_of.push((reps, probe.flushes_dropped));
        }

        // Phase B: validate each representative from its kept image, with
        // no second replay. The images go with the jobs.
        let owner_steps: Vec<usize> = owners.iter().map(|&(step, ..)| step).collect();
        let results = run_indexed(jobs, owners, |_, (step, flushes_dropped, run, images)| {
            validated(target, session, step, || {
                let reps = (images.iter())
                    .map(|(pi, img)| Rep {
                        policy: *pi,
                        verdict: target.validate(step, *pi, img, &run),
                    })
                    .collect();
                StepRecord { flushes_dropped, reps }
            })
        });
        for (step, result) in owner_steps.into_iter().zip(results) {
            if let Some(record) = result.record(&mut ex.resumed) {
                verdicts
                    .extend(record.reps.into_iter().map(|rep| ((step, rep.policy), rep.verdict)));
            }
        }

        // Merge: hand every crash point its representative's verdict in
        // canonical order. A step any of whose representatives is missing
        // (cancelled before validation) counts as skipped.
        for (&step, (reps, flushes_dropped)) in steps.iter().zip(&reps_of) {
            match reps.iter().map(|rep| verdicts.get(rep)).collect::<Option<Vec<_>>>() {
                Some(step_verdicts) => {
                    explored.extend(reps.iter().copied());
                    fold(step, *flushes_dropped, &step_verdicts);
                }
                None => ex.skipped += 1,
            }
        }
        if session.is_cancelled() {
            ex.skipped += (total + 1 - lo - steps.len()) as u64;
            break;
        }
    }
    ex.explored = explored.len() as u64;
    let images = (total - ex.skipped as usize) * pols.len();
    obs::progress::add_pruned(images as u64 - ex.explored);
    ex
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_runtime::{PAddr, PoolConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A target whose steps repeat every seven, so classes span windows,
    /// and whose last store stays dirty, so the policies' images differ.
    /// It counts its replays per step.
    struct Counting {
        replays: Vec<AtomicUsize>,
        policies: [CrashPolicy; 3],
    }

    impl CrashTarget for Counting {
        type Run = u64;
        type Verdict = u64;

        fn name(&self) -> &'static str {
            "counting"
        }

        fn crash_points(&self) -> usize {
            self.replays.len()
        }

        fn policies(&self) -> &[CrashPolicy] {
            &self.policies
        }

        fn replay(&self, step: usize) -> (PmemPool, u64) {
            self.replays[step - 1].fetch_add(1, Ordering::Relaxed);
            let pool = PmemPool::new(PoolConfig { size: 1 << 14, shards: 2, ..Default::default() });
            let v = step as u64 % 7;
            pool.write_u64(PAddr(0), v);
            pool.persist(PAddr(0), 8);
            pool.write_u64(PAddr(64), v + 1);
            (pool, v % 3)
        }

        fn context(&self, _: usize, run: &u64) -> u64 {
            *run
        }

        fn validate(&self, _: usize, _: usize, img: &CrashImage, run: &u64) -> u64 {
            img.read_u64(PAddr(0)) * 100 + img.read_u64(PAddr(64)) * 10 + run
        }
    }

    #[test]
    fn every_crash_point_is_replayed_once_in_either_mode() {
        let points = 2 * WINDOW + 22;
        let mut folds = Vec::new();
        for prune in [false, true] {
            let target = Counting {
                replays: (0..points).map(|_| AtomicUsize::new(0)).collect(),
                policies: [
                    CrashPolicy::Pessimistic,
                    CrashPolicy::Optimistic,
                    CrashPolicy::PendingOnly,
                ],
            };
            let mut folded = Vec::new();
            let ex = explore(&target, prune, 2, &SweepSession::default(), |step, dropped, vs| {
                folded.push((step, dropped, vs.iter().map(|v| **v).collect::<Vec<u64>>()));
            });
            for (i, n) in target.replays.iter().enumerate() {
                let n = n.load(Ordering::Relaxed);
                assert_eq!(n, 1, "prune={prune}: step {} replayed {n} times", i + 1);
            }
            assert_eq!(ex.skipped, 0);
            assert_eq!(folded.len(), points);
            if prune {
                assert!(ex.explored < points as u64, "classes collapse across steps");
            }
            folds.push(folded);
        }
        assert_eq!(folds[0], folds[1], "pruning changes no verdict");
    }
}
