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
//! With pruning off, every crash point is its own class and the probe
//! phase is skipped: each step is replayed once and all its images are
//! validated. With pruning on, exploration runs in two phases over the
//! shared analysis pool. Phase A (probe) replays every step, takes every
//! crash image and keys it — no reboot, no recovery. Representatives are
//! elected in canonical (step, policy) order, so the assignment is the
//! same for every worker count. Phase B (validate) replays again only
//! the steps that own a representative and validates just those images.
//! In both modes every policy is still *applied* in order, so a fault
//! plan's RNG stream — which advances per application — stays the same
//! as when every image is validated. The merge hands each crash point
//! its representative's verdict, in canonical order, to the target's
//! fold, which relabels it with the member's own step and policy.
//!
//! Each validated step is journaled as one [`StepRecord`]: the `clwb`s
//! its replay dropped plus its representatives' verdicts. An interrupted
//! run resumes from the journal in either mode (the config fingerprint
//! covers the prune flag, so the modes never replay each other's
//! journals).

use crate::crashsweep::SweepSession;
use deepmc_analysis::pool::{resolve_jobs_request, run_indexed};
use deepmc_obs as obs;
use nvm_runtime::{CrashImage, CrashPolicy, PmemPool};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A program the explorer can crash, recover and judge.
pub(crate) trait CrashTarget: Sync {
    /// What a replayed prefix leaves besides its pool.
    type Run;
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

/// What one phase-B pool job produced for a representative-owning step.
enum Validated<V> {
    /// Session cancelled before the step started.
    Skipped,
    /// Replayed from the journal.
    Resumed(StepRecord<V>),
    /// Freshly validated.
    Computed(StepRecord<V>),
}

/// Work counts of one exploration.
pub(crate) struct Explored {
    /// Crash images actually recovered and validated.
    pub(crate) explored: u64,
    /// Steps replayed from the journal.
    pub(crate) resumed: u64,
    /// Steps left out because the session was cancelled.
    pub(crate) skipped: u64,
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
    let pols = target.policies();
    if session.is_cancelled() {
        return Explored { explored: 0, resumed: 0, skipped: total as u64 };
    }
    let jobs = resolve_jobs_request(jobs);

    // Phase A (pruned only): key every crash point, no recovery. Probes
    // land in step order regardless of worker count.
    let mut probes: Vec<(Vec<u64>, u64)> = Vec::new();
    if prune {
        let probed = run_indexed(jobs, (1..=total).collect(), |_, step| {
            if session.is_cancelled() {
                return None;
            }
            let _s = obs::span_lazy("explore.probe", || vec![("step", step.to_string())]);
            let (pool, run) = target.replay(step);
            let flushes_dropped = pool.stats().dropped_flushes;
            let context = target.context(step, &run);
            let keys =
                pols.iter().map(|p| mix(&[p.apply(&pool).content_hash(), context])).collect();
            Some((keys, flushes_dropped))
        });
        if probed.iter().any(Option::is_none) {
            // Cancelled mid-probe: nothing was validated or journaled.
            return Explored { explored: 0, resumed: 0, skipped: total as u64 };
        }
        probes = probed.into_iter().flatten().collect();
    }

    // Elect representatives in canonical (step, policy) order, so the
    // assignment — and therefore the journal and the output — is the
    // same for every worker count. Unpruned, each point represents itself.
    let mut rep_of: Vec<Vec<(usize, usize)>> = Vec::with_capacity(total);
    let mut owned: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut first: HashMap<u64, (usize, usize)> = HashMap::new();
    for step in 1..=total {
        let mut reps = Vec::with_capacity(pols.len());
        for pi in 0..pols.len() {
            let rep = match probes.get(step - 1) {
                Some((keys, _)) => *first.entry(keys[pi]).or_insert((step, pi)),
                None => (step, pi),
            };
            if rep == (step, pi) {
                owned.entry(step).or_default().push(pi);
            }
            reps.push(rep);
        }
        rep_of.push(reps);
    }

    // Phase B: replay only the steps that own a representative and
    // validate just those images. Every policy is still applied in order.
    let owners: Vec<(usize, Vec<usize>)> = owned.into_iter().collect();
    let results = run_indexed(jobs, owners.clone(), |_, (step, rep_pis)| {
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
        let (pool, run) = target.replay(step);
        let flushes_dropped = pool.stats().dropped_flushes;
        let mut reps = Vec::with_capacity(rep_pis.len());
        for (pi, policy) in pols.iter().enumerate() {
            let img = policy.apply(&pool);
            if rep_pis.contains(&pi) {
                reps.push(Rep { policy: pi, verdict: target.validate(step, pi, &img, &run) });
            }
        }
        let record = StepRecord { flushes_dropped, reps };
        if let Some(journal) = session.journal {
            let journaled = journal.append(target.name(), step as u64, &record);
            if session.trip_after.is_some_and(|t| journaled >= t) {
                session.cancel();
            }
        }
        Validated::Computed(record)
    });
    let mut resumed = 0u64;
    let mut records: HashMap<usize, StepRecord<T::Verdict>> = HashMap::new();
    for ((step, _), result) in owners.iter().zip(results) {
        let record = match result {
            Validated::Skipped => continue,
            Validated::Resumed(record) => {
                resumed += 1;
                record
            }
            Validated::Computed(record) => record,
        };
        records.insert(*step, record);
    }

    // Merge: hand every crash point its representative's verdict in
    // canonical order. A step any of whose representatives is missing
    // (cancelled before validation) counts as skipped.
    let verdict_of = |&(step, pi): &(usize, usize)| {
        let record = records.get(&step)?;
        record.reps.iter().find(|rep| rep.policy == pi).map(|rep| &rep.verdict)
    };
    let mut skipped = 0u64;
    let mut explored: HashSet<(usize, usize)> = HashSet::new();
    for (idx, reps) in rep_of.iter().enumerate() {
        let step = idx + 1;
        let Some(verdicts) = reps.iter().map(verdict_of).collect::<Option<Vec<_>>>() else {
            skipped += 1;
            continue;
        };
        let flushes_dropped = match probes.get(idx) {
            Some(&(_, dropped)) => dropped,
            None => records[&step].flushes_dropped,
        };
        explored.extend(reps.iter().copied());
        fold(step, flushes_dropped, &verdicts);
    }
    let explored = explored.len() as u64;
    if prune {
        let images = (total - skipped as usize) * pols.len();
        obs::progress::add_pruned(images as u64 - explored);
    }
    Explored { explored, resumed, skipped }
}
