//! Crash-state simulation: crash policies and the images they take.
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
//! consistency. The crash explorer in `nvm-apps` does that systematically:
//! every crash point under every policy, rebooted and recovered.

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
    /// [`crate::PmemPool::read_lines`] or [`crate::PmemPool::read_reliable`]
    /// with at least one retry, so it can never alter what recovery adopts
    /// or drops. Hashing it would
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
