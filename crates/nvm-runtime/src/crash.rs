//! Crash-state simulation and recovery validation.
//!
//! A crash freezes the durable image plus an *arbitrary subset* of
//! not-yet-durable cache lines (eviction order is unpredictable). The
//! policies here drive [`crate::PmemPool::crash_image`]:
//!
//! * [`CrashPolicy::Pessimistic`] — nothing un-fenced survives (adversarial
//!   for durability bugs: lost-update consequences show).
//! * [`CrashPolicy::Optimistic`] — everything survives (adversarial for
//!   ordering bugs: later writes persist while earlier ones were *assumed*).
//! * [`CrashPolicy::PendingOnly`] — issued `clwb`s complete, dirty lines
//!   vanish (models a crash right after the flush queue drains).
//! * [`CrashPolicy::Random`] — each line flips a seeded coin; used by the
//!   crash-consistency fuzz example and proptests.
//!
//! This is the stand-in for the paper's manual bug validation ("we manually
//! reproduced and validated all these 24 new bugs", §5.1): run the buggy
//! program, crash it under a policy, and check the recovered state for
//! consistency.

use crate::pool::{Line, PAddr, PmemPool, CACHE_LINE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How not-yet-durable lines behave at the crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    Pessimistic,
    Optimistic,
    PendingOnly,
    /// Seeded per-line coin flip.
    Random(u64),
}

impl CrashPolicy {
    /// Take a crash image of `pool` under this policy.
    pub fn apply(self, pool: &PmemPool) -> CrashImage {
        match self {
            CrashPolicy::Pessimistic => pool.crash_image(&mut |_, _| false),
            CrashPolicy::Optimistic => pool.crash_image(&mut |_, _| true),
            CrashPolicy::PendingOnly => pool.crash_image(&mut |_, pending| pending),
            CrashPolicy::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                pool.crash_image(&mut |_, _| rng.gen_bool(0.5))
            }
        }
    }
}

/// A frozen post-crash durable image, readable like a pool. It is stored
/// sparsely: the pool size plus its non-zero cache lines in ascending
/// line order (every other byte is zero), so building, hashing and
/// rebooting an image cost O(non-zero lines), not O(pool). It also
/// carries the set of cache lines the crash left poisoned (media errors):
/// rebooting transfers them to the new pool, where reads fail until
/// scrubbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashImage {
    /// Size in bytes of the pool the image was taken from.
    size: u64,
    /// (global line index, bytes) of every non-zero line, ascending.
    lines: Vec<(u64, Line)>,
    /// (global line index, transient?) pairs.
    poisoned: Vec<(u64, bool)>,
}

impl CrashImage {
    /// An image of a `size`-byte pool whose non-zero content is `lines`
    /// (distinct lines inside the pool, in any order; all-zero lines are
    /// dropped).
    pub fn from_lines(
        size: u64,
        mut lines: Vec<(u64, Line)>,
        poisoned: Vec<(u64, bool)>,
    ) -> CrashImage {
        lines.retain(|(_, bytes)| *bytes != [0; CACHE_LINE as usize]);
        lines.sort_unstable_by_key(|&(line, _)| line);
        assert!(lines.windows(2).all(|w| w[0].0 < w[1].0), "a line is listed twice");
        assert!(
            lines.last().is_none_or(|&(line, _)| (line + 1) * CACHE_LINE <= size),
            "a line lies outside the {size}-byte pool"
        );
        CrashImage { size, lines, poisoned }
    }

    /// Lines the crash poisoned.
    pub fn poisoned(&self) -> &[(u64, bool)] {
        &self.poisoned
    }

    /// Content hash of the *durable* identity of this crash state: the
    /// image bytes plus the set of permanently poisoned lines. Two images
    /// with equal hashes recover identically, so crash-state explorers may
    /// collapse them into one equivalence class. The bytes enter as the
    /// size and the sparse line list, which determine them exactly.
    ///
    /// Transient poison is deliberately excluded: it clears after a single
    /// failed read, and every recovery path reads through
    /// [`crate::PmemPool::read_reliable`] with at least one retry, so it
    /// can never alter what recovery adopts or drops. Hashing it would
    /// split logically identical crash states into distinct classes.
    pub fn content_hash(&self) -> u64 {
        // FNV-1a over 8-byte words.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.size);
        mix(self.lines.len() as u64);
        for (line, bytes) in &self.lines {
            mix(*line);
            for c in bytes.chunks_exact(8) {
                mix(u64::from_le_bytes(c.try_into().unwrap()));
            }
        }
        let mut durable_poison: Vec<u64> = self
            .poisoned
            .iter()
            .filter(|&&(_, transient)| !transient)
            .map(|&(line, _)| line)
            .collect();
        durable_poison.sort_unstable();
        mix(0x9E37_79B9_7F4A_7C15 ^ durable_poison.len() as u64);
        for line in durable_poison {
            mix(line);
        }
        h
    }

    /// The non-zero lines of the image, ascending by line index.
    pub fn lines(&self) -> &[(u64, Line)] {
        &self.lines
    }

    /// Size in bytes of the imaged pool.
    pub fn len(&self) -> usize {
        self.size as usize
    }

    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        assert!(
            addr.0.checked_add(buf.len() as u64).is_some_and(|end| end <= self.size),
            "crash image read out of range: {addr:?}+{}",
            buf.len()
        );
        let mut off = addr.0;
        let mut next = self.lines.partition_point(|&(line, _)| line < off / CACHE_LINE);
        let mut rest = buf;
        while !rest.is_empty() {
            let at = (off % CACHE_LINE) as usize;
            let n = rest.len().min(CACHE_LINE as usize - at);
            match self.lines.get(next) {
                Some((line, bytes)) if *line == off / CACHE_LINE => {
                    rest[..n].copy_from_slice(&bytes[at..at + n]);
                    next += 1;
                }
                _ => rest[..n].fill(0),
            }
            off += n as u64;
            rest = &mut rest[n..];
        }
    }

    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Boot a fresh pool whose durable *and* visible images equal this
    /// crash image — i.e. restart the machine from the crashed DIMM. The
    /// image's lines are installed directly as clean; then its poison set
    /// is applied.
    pub fn reboot(&self, shards: usize) -> PmemPool {
        let pool =
            PmemPool::new(crate::PoolConfig { size: self.size, shards, ..Default::default() });
        pool.install_clean(&self.lines);
        for &(line, transient) in &self.poisoned {
            pool.poison_line(line, transient);
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 1 << 14, shards: 2, ..Default::default() })
    }

    #[test]
    fn policies_differ_on_unfenced_data() {
        let p = pool();
        p.write_u64(PAddr(0), 11); // dirty
        p.write_u64(PAddr(64), 22);
        p.flush(PAddr(64), 8); // pending
        assert_eq!(CrashPolicy::Pessimistic.apply(&p).read_u64(PAddr(0)), 0);
        assert_eq!(CrashPolicy::Pessimistic.apply(&p).read_u64(PAddr(64)), 0);
        assert_eq!(CrashPolicy::Optimistic.apply(&p).read_u64(PAddr(0)), 11);
        assert_eq!(CrashPolicy::Optimistic.apply(&p).read_u64(PAddr(64)), 22);
        let pending_only = CrashPolicy::PendingOnly.apply(&p);
        assert_eq!(pending_only.read_u64(PAddr(0)), 0);
        assert_eq!(pending_only.read_u64(PAddr(64)), 22);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let p = pool();
        for i in 0..32 {
            p.write_u64(PAddr(i * 64), i + 1);
        }
        let a = CrashPolicy::Random(7).apply(&p);
        let b = CrashPolicy::Random(7).apply(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn content_hash_tracks_bytes_and_permanent_poison_only() {
        let p = pool();
        p.write_u64(PAddr(64), 42);
        p.persist(PAddr(64), 8);
        let base = CrashPolicy::Pessimistic.apply(&p);
        let h = base.content_hash();
        assert_eq!(h, base.content_hash(), "hash is a pure function of the image");

        // Different bytes -> different class.
        p.write_u64(PAddr(64), 43);
        p.persist(PAddr(64), 8);
        assert_ne!(CrashPolicy::Pessimistic.apply(&p).content_hash(), h);

        // Transient poison is scratch state: same class as the clean image.
        let with_poison =
            |poison| CrashImage::from_lines(base.len() as u64, base.lines().to_vec(), poison);
        let transient = with_poison(vec![(3, true), (9, true)]);
        assert_eq!(transient.content_hash(), h, "transient poison must not split classes");

        // Permanent poison changes what recovery can read -> new class.
        let permanent = with_poison(vec![(3, false)]);
        assert_ne!(permanent.content_hash(), h);

        // Permanent poison order is irrelevant.
        let a = with_poison(vec![(3, false), (9, false)]);
        let b = with_poison(vec![(9, false), (3, false)]);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn reboot_installs_lines_clean_without_pool_traffic() {
        let p = pool();
        p.write_u64(PAddr(64), 3);
        p.write_u64(PAddr(8192 + 8), 4);
        let img = CrashPolicy::Optimistic.apply(&p);
        let rebooted = img.reboot(2);
        assert_eq!(rebooted.read_u64(PAddr(64)), 3);
        assert_eq!(rebooted.read_u64(PAddr(8192 + 8)), 4);
        assert_eq!(rebooted.non_durable_lines(), 0);
        let s = rebooted.stats();
        assert_eq!((s.stores, s.flushes, s.fences, s.lines_written_back), (0, 0, 0, 0));
        // Crashing the rebooted pool gives back the same image.
        assert_eq!(CrashPolicy::Pessimistic.apply(&rebooted), img);
    }

    #[test]
    fn reboot_restores_durable_state() {
        let p = pool();
        p.write_u64(PAddr(128), 99);
        p.persist(PAddr(128), 8);
        let img = CrashPolicy::Pessimistic.apply(&p);
        let rebooted = img.reboot(2);
        assert_eq!(rebooted.read_u64(PAddr(128)), 99);
        assert_eq!(rebooted.non_durable_lines(), 0);
    }
}

/// Systematic crash exploration (in the spirit of Yat's exhaustive testing,
/// which the paper compares against): run a workload repeatedly, crash it
/// at every step under several eviction policies, and check a user
/// invariant on every recovered image.
///
/// The driver returns `true` when it executed to completion (no more crash
/// points); the invariant receives the crash image and the step at which
/// the crash hit.
pub struct CrashMatrix {
    /// Random eviction seeds to try per crash point (in addition to the
    /// deterministic pessimistic/optimistic/pending policies).
    pub random_seeds: u64,
    /// Upper bound on crash points to explore.
    pub max_steps: u64,
}

impl Default for CrashMatrix {
    fn default() -> Self {
        CrashMatrix { random_seeds: 8, max_steps: 256 }
    }
}

/// Result of a matrix sweep.
#[derive(Debug, Clone, Default)]
pub struct CrashMatrixReport {
    pub crash_points: u64,
    pub images_checked: u64,
    /// (step, policy description) of every invariant violation.
    pub violations: Vec<(u64, String)>,
}

impl CrashMatrix {
    /// `run(step)` must execute the workload on a fresh pool, crashing
    /// before `step`, and return `None` if the workload finished before
    /// reaching `step` (ending the sweep) or `Some(pool)` at a crash.
    /// `invariant(image)` returns `Err(reason)` on an inconsistent state.
    pub fn sweep(
        &self,
        mut run: impl FnMut(u64) -> Option<PmemPool>,
        mut invariant: impl FnMut(&CrashImage) -> Result<(), String>,
    ) -> CrashMatrixReport {
        let mut report = CrashMatrixReport::default();
        for step in 0..self.max_steps {
            let Some(pool) = run(step) else { break };
            report.crash_points += 1;
            let mut policies: Vec<(String, CrashPolicy)> = vec![
                ("pessimistic".into(), CrashPolicy::Pessimistic),
                ("optimistic".into(), CrashPolicy::Optimistic),
                ("pending-only".into(), CrashPolicy::PendingOnly),
            ];
            for seed in 0..self.random_seeds {
                policies.push((format!("random({seed})"), CrashPolicy::Random(seed)));
            }
            for (name, policy) in policies {
                let image = policy.apply(&pool);
                report.images_checked += 1;
                if let Err(reason) = invariant(&image) {
                    report.violations.push((step, format!("{name}: {reason}")));
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod matrix_tests {
    use super::*;
    use crate::heap::PmemHeap;
    use crate::pool::PoolConfig;
    use crate::tx::TxManager;

    /// A transactional two-field update is atomic under the full matrix.
    #[test]
    fn matrix_validates_transactional_atomicity() {
        let run = |step: u64| -> Option<PmemPool> {
            let pool = PmemPool::new(PoolConfig { size: 1 << 16, shards: 2, ..Default::default() });
            let heap = PmemHeap::open(&pool);
            let log = heap.alloc(4096);
            let obj = heap.alloc(64);
            let txm = TxManager::new(&pool, log, 4096);
            // The "workload", with a crash check between every operation.
            let mut op = 0u64;
            let mut crashed = false;
            let mut guard = |crashed: &mut bool| {
                if op == step {
                    *crashed = true;
                }
                op += 1;
                !*crashed
            };
            'work: {
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj, 5);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj.offset(8), 5);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.persist(obj, 16);
                if !guard(&mut crashed) {
                    break 'work;
                }
                txm.begin();
                if !guard(&mut crashed) {
                    break 'work;
                }
                txm.add(obj, 16).unwrap();
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj, 3);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj.offset(8), 7);
                if !guard(&mut crashed) {
                    break 'work;
                }
                txm.commit();
            }
            if crashed {
                Some(pool)
            } else {
                None
            }
        };
        let obj_base = 64 + 4096;
        let invariant = |img: &CrashImage| -> Result<(), String> {
            let log_base = crate::pool::PAddr(64);
            let a = img.read_u64(crate::pool::PAddr(obj_base));
            let b = img.read_u64(crate::pool::PAddr(obj_base + 8));
            // Recovery first (roll back active log), THEN check.
            let pool = img.reboot(2);
            let txm = TxManager::attach(&pool, log_base, 4096);
            txm.recover();
            let a = if txm.depth() == 0 { pool.read_u64(crate::pool::PAddr(obj_base)) } else { a };
            let b =
                if txm.depth() == 0 { pool.read_u64(crate::pool::PAddr(obj_base + 8)) } else { b };
            let valid = [(0, 0), (5, 0), (0, 5), (5, 5), (3, 7)];
            if valid.contains(&(a, b)) {
                Ok(())
            } else {
                Err(format!("torn state a={a} b={b}"))
            }
        };
        let report = CrashMatrix::default().sweep(run, invariant);
        assert!(report.crash_points >= 7, "{report:?}");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// A non-transactional two-field update is caught as torn by the
    /// matrix (the fields are on different cache lines).
    #[test]
    fn matrix_catches_non_atomic_updates() {
        let run = |step: u64| -> Option<PmemPool> {
            let pool = PmemPool::new(PoolConfig { size: 1 << 16, shards: 2, ..Default::default() });
            let heap = PmemHeap::open(&pool);
            let obj = heap.alloc(128); // two cache lines
            let mut op = 0u64;
            let mut crashed = false;
            let mut guard = |crashed: &mut bool| {
                if op == step {
                    *crashed = true;
                }
                op += 1;
                !*crashed
            };
            'work: {
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj, 1);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.persist(obj, 8);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj.offset(64), 1);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.persist(obj.offset(64), 8);
            }
            if crashed {
                Some(pool)
            } else {
                None
            }
        };
        let obj_base = 64;
        let invariant = |img: &CrashImage| -> Result<(), String> {
            let a = img.read_u64(crate::pool::PAddr(obj_base));
            let b = img.read_u64(crate::pool::PAddr(obj_base + 64));
            // Pretend the application requires a == b always.
            if a == b {
                Ok(())
            } else {
                Err(format!("a={a} b={b}"))
            }
        };
        let report = CrashMatrix::default().sweep(run, invariant);
        assert!(!report.violations.is_empty(), "the torn intermediate state must be observable");
    }
}
