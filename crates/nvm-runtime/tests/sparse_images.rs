//! Sparse crash images over lazily paged pools, pinned against the dense
//! algorithms they replaced.
//!
//! `DensePool` is the reference: whole visible and durable byte arrays,
//! one state per cache line, and a fault engine that draws from the same
//! seeded RNG, in the same order, as `nvm_runtime::FaultPlan`. Its
//! `crash_image` walks every line of the pool and copies whole images;
//! `dense_hash` folds every byte; `dense_reboot` writes, flushes and
//! fences the whole image into a fresh pool. Random write / flush / fence
//! / CAS sequences run on a real pool and on the reference side by side,
//! with spans that straddle lines, pages and shards, pool sizes that are
//! not page multiples, and torn stores, dropped flushes and poison; every
//! crash image taken along the way must agree.

use nvm_runtime::{
    CrashImage, CrashPolicy, FaultConfig, FaultStats, PAddr, PmemError, PmemPool, PoolConfig,
    CACHE_LINE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const LINE: usize = CACHE_LINE as usize;
const PAGE: u64 = 4096;

/// (line, transient?) pairs, as `CrashImage::poisoned` lists them.
type Poison = Vec<(u64, bool)>;

#[derive(Debug, Clone, Copy, PartialEq)]
enum St {
    Clean,
    Dirty,
    Pending,
}

struct TornMark {
    start: usize,
    old: Vec<u8>,
    split: usize,
}

/// The reference fault engine: `FaultPlan`'s RNG draws in its order.
struct DenseFaults {
    cfg: FaultConfig,
    rng: StdRng,
    torn: HashMap<u64, TornMark>,
    stats: FaultStats,
}

impl DenseFaults {
    fn on_store(&mut self, line: u64, start: usize, old: &[u8]) {
        self.torn.remove(&line);
        if old.len() < 2 || self.cfg.torn_store_rate <= 0.0 {
            return;
        }
        if self.rng.gen_bool(self.cfg.torn_store_rate) {
            let split = self.rng.gen_range(1..old.len());
            self.torn.insert(line, TornMark { start, old: old.to_vec(), split });
            self.stats.torn_marks += 1;
        }
    }

    fn drop_flush(&mut self) -> bool {
        if self.cfg.dropped_flush_rate <= 0.0 {
            return false;
        }
        let dropped = self.rng.gen_bool(self.cfg.dropped_flush_rate);
        self.stats.dropped_flushes += dropped as u64;
        dropped
    }

    fn poison_lines(&mut self, total_lines: u64) -> Poison {
        if self.cfg.poison_rate <= 0.0 || total_lines < 2 {
            return Vec::new();
        }
        let expected = (total_lines as f64 * self.cfg.poison_rate).ceil() as u64;
        let mut out: Poison = Vec::new();
        for _ in 0..expected {
            let line = self.rng.gen_range(1..total_lines);
            if out.iter().any(|&(l, _)| l == line) {
                continue;
            }
            out.push((line, self.rng.gen_bool(self.cfg.transient_rate)));
        }
        self.stats.poisoned_lines += out.len() as u64;
        out
    }
}

/// The dense pool model the paged pool replaced.
struct DensePool {
    visible: Vec<u8>,
    durable: Vec<u8>,
    state: Vec<St>,
    faults: DenseFaults,
    clean_flushes: u64,
    lines_written_back: u64,
}

impl DensePool {
    fn new(size: u64, cfg: FaultConfig) -> DensePool {
        DensePool {
            visible: vec![0; size as usize],
            durable: vec![0; size as usize],
            state: vec![St::Clean; size as usize / LINE],
            faults: DenseFaults {
                cfg,
                rng: StdRng::seed_from_u64(cfg.seed),
                torn: HashMap::new(),
                stats: FaultStats::default(),
            },
            clean_flushes: 0,
            lines_written_back: 0,
        }
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        let end = addr + data.len();
        let mut seg = addr;
        while seg < end {
            let line = seg / LINE;
            let seg_end = end.min((line + 1) * LINE);
            self.faults.on_store(line as u64, seg, &self.visible[seg..seg_end]);
            seg = seg_end;
        }
        self.visible[addr..end].copy_from_slice(data);
        self.state[addr / LINE..=(end - 1) / LINE].fill(St::Dirty);
    }

    fn flush(&mut self, addr: usize, len: usize) {
        for line in addr / LINE..=(addr + len - 1) / LINE {
            match self.state[line] {
                St::Clean | St::Pending => self.clean_flushes += 1,
                St::Dirty if self.faults.drop_flush() => {}
                St::Dirty => self.state[line] = St::Pending,
            }
        }
    }

    fn fence(&mut self) {
        for line in 0..self.state.len() {
            if self.state[line] == St::Pending {
                let (a, b) = (line * LINE, (line + 1) * LINE);
                self.durable[a..b].copy_from_slice(&self.visible[a..b]);
                self.state[line] = St::Clean;
                self.faults.torn.remove(&(line as u64));
                self.lines_written_back += 1;
            }
        }
    }

    fn read_u64(&self, addr: usize) -> u64 {
        u64::from_le_bytes(self.visible[addr..addr + 8].try_into().unwrap())
    }

    /// The dense `crash_image`: copy the whole durable image, then ask the
    /// policy about every dirty or pending line in ascending order.
    fn crash_image(&mut self, policy: CrashPolicy) -> (Vec<u8>, Poison) {
        let mut rng = match policy {
            CrashPolicy::Random(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        let mut image = self.durable.clone();
        for line in 0..self.state.len() {
            let pending = match self.state[line] {
                St::Clean => continue,
                St::Dirty => false,
                St::Pending => true,
            };
            let survives = match policy {
                CrashPolicy::Pessimistic => false,
                CrashPolicy::Optimistic => true,
                CrashPolicy::PendingOnly => pending,
                CrashPolicy::Random(_) => rng.as_mut().unwrap().gen_bool(0.5),
            };
            if survives {
                let (a, b) = (line * LINE, (line + 1) * LINE);
                image[a..b].copy_from_slice(&self.visible[a..b]);
                if let Some(mark) = self.faults.torn.get(&(line as u64)) {
                    image[mark.start + mark.split..mark.start + mark.old.len()]
                        .copy_from_slice(&mark.old[mark.split..]);
                    self.faults.stats.torn_applied += 1;
                }
            }
        }
        let poisoned = self.faults.poison_lines(self.state.len() as u64);
        (image, poisoned)
    }
}

/// The dense `content_hash`: FNV-1a over every 8-byte word of the
/// image, then the sorted permanent poison.
fn dense_hash(bytes: &[u8], poisoned: &[(u64, bool)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for c in bytes.chunks_exact(8) {
        mix(u64::from_le_bytes(c.try_into().unwrap()));
    }
    let perm = permanent(poisoned);
    mix(0x9E37_79B9_7F4A_7C15 ^ perm.len() as u64);
    for line in perm {
        mix(line);
    }
    h
}

fn permanent(poisoned: &[(u64, bool)]) -> Vec<u64> {
    let mut lines: Vec<u64> =
        poisoned.iter().filter(|&&(_, transient)| !transient).map(|&(l, _)| l).collect();
    lines.sort_unstable();
    lines
}

/// The dense `reboot`: write, flush and fence the whole image into a
/// fresh pool, then apply the poison.
fn dense_reboot(bytes: &[u8], poisoned: &[(u64, bool)], shards: usize) -> PmemPool {
    let pool = PmemPool::new(PoolConfig { size: bytes.len() as u64, shards, ..Default::default() });
    pool.write(PAddr(0), bytes);
    pool.flush(PAddr(0), bytes.len() as u64);
    pool.fence();
    for &(line, transient) in poisoned {
        pool.poison_line(line, transient);
    }
    pool
}

/// Per-line read results of a pool (media errors included), in order.
fn read_lines(pool: &PmemPool, lines: u64) -> Vec<Result<Vec<u8>, PmemError>> {
    (0..lines)
        .map(|line| {
            let mut buf = vec![0u8; LINE];
            pool.try_read(PAddr(line * CACHE_LINE), &mut buf).map(|()| buf)
        })
        .collect()
}

/// Where an operation lands: near a random byte, a page boundary or a
/// shard boundary, so spans straddle all three.
#[derive(Debug, Clone, Copy)]
struct Spot {
    anchor: u8,
    pos: u64,
    delta: u64,
}

impl Spot {
    /// A span start for `len` bytes inside a pool of `size` bytes split
    /// into shards of `shard_bytes`.
    fn addr(self, size: u64, shard_bytes: u64, len: u64) -> u64 {
        let base = match self.anchor {
            0 => self.pos % size,
            1 => self.pos % size.div_ceil(PAGE) * PAGE,
            _ => self.pos % size.div_ceil(shard_bytes) * shard_bytes,
        };
        (base + self.delta).saturating_sub(96).min(size - len)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Write { at: Spot, len: u64, fill: u8 },
    Flush { at: Spot, len: u64 },
    Fence,
    Cas { at: Spot, hit: bool, new: u64 },
    Crash { random: u64, reboot_shards: usize },
}

fn spot() -> impl Strategy<Value = Spot> {
    (0u8..3, any::<u64>(), 0u64..192).prop_map(|(anchor, pos, delta)| Spot { anchor, pos, delta })
}

fn op() -> impl Strategy<Value = Op> {
    // Writes are listed twice so that they are twice as likely.
    prop_oneof![
        (spot(), 1u64..200, prop_oneof![Just(0u8), any::<u8>()])
            .prop_map(|(at, len, fill)| Op::Write { at, len, fill }),
        (spot(), 1u64..200, prop_oneof![Just(0u8), any::<u8>()])
            .prop_map(|(at, len, fill)| Op::Write { at, len, fill }),
        (spot(), 1u64..300).prop_map(|(at, len)| Op::Flush { at, len }),
        Just(Op::Fence),
        (spot(), any::<bool>(), any::<u64>()).prop_map(|(at, hit, new)| Op::Cas { at, hit, new }),
        (any::<u64>(), 1usize..6)
            .prop_map(|(random, reboot_shards)| Op::Crash { random, reboot_shards }),
    ]
}

fn rate(choices: [f64; 3]) -> impl Strategy<Value = f64> {
    prop_oneof![Just(choices[0]), Just(choices[1]), Just(choices[2])]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under every policy the sparse image reads byte for byte like the
    /// dense one, with the same poison; hashes collide exactly when
    /// (bytes, permanent poison) agree; a rebooted pool reads back the
    /// image and its poison with nothing left non-durable; and the fault
    /// counters and RNG stream stay in step with the reference.
    #[test]
    fn sparse_images_match_the_dense_reference(
        size_lines in 64u64..1600,
        shards in 1usize..6,
        fault_seed in any::<u64>(),
        torn in rate([0.0, 0.3, 1.0]),
        drop_flush in rate([0.0, 0.0, 0.2]),
        poison in rate([0.0, 0.01, 0.05]),
        ops in proptest::collection::vec(op(), 1..48),
    ) {
        let fault = FaultConfig {
            seed: fault_seed,
            torn_store_rate: torn,
            dropped_flush_rate: drop_flush,
            poison_rate: poison,
            transient_rate: 0.5,
        };
        let pool = PmemPool::with_faults(
            PoolConfig { size: size_lines * CACHE_LINE, shards, ..Default::default() },
            fault,
        );
        let size = pool.size();
        let shard_bytes = size / shards as u64;
        let mut dense = DensePool::new(size, fault);
        // (dense bytes, poison, sparse hash) of every image taken.
        let mut images: Vec<(Vec<u8>, Poison, u64)> = Vec::new();
        for op in ops.iter().copied().chain([Op::Crash { random: 7, reboot_shards: shards }]) {
            match op {
                Op::Write { at, len, fill } => {
                    let addr = at.addr(size, shard_bytes, len);
                    let data: Vec<u8> =
                        (0..len).map(|i| fill.wrapping_mul(i as u8 | 1)).collect();
                    pool.write(PAddr(addr), &data);
                    dense.write(addr as usize, &data);
                }
                Op::Flush { at, len } => {
                    let addr = at.addr(size, shard_bytes, len);
                    pool.flush(PAddr(addr), len);
                    dense.flush(addr as usize, len as usize);
                }
                Op::Fence => {
                    pool.fence();
                    dense.fence();
                }
                Op::Cas { at, hit, new } => {
                    let addr = at.addr(size, shard_bytes, 8) & !7;
                    let current = dense.read_u64(addr as usize);
                    let expected = if hit { current } else { current ^ 1 };
                    let won = pool.cas_u64(PAddr(addr), expected, new).is_ok();
                    prop_assert_eq!(won, hit);
                    if hit {
                        dense.write(addr as usize, &new.to_le_bytes());
                    }
                }
                Op::Crash { random, reboot_shards } => {
                    let policies = [
                        CrashPolicy::Pessimistic,
                        CrashPolicy::Optimistic,
                        CrashPolicy::PendingOnly,
                        CrashPolicy::Random(random),
                        CrashPolicy::Random(random ^ 0x5bd1),
                    ];
                    for policy in policies {
                        let img = policy.apply(&pool);
                        let (bytes, poisoned) = dense.crash_image(policy);
                        prop_assert_eq!(img.len() as u64, size);
                        let mut sparse = vec![0xAAu8; size as usize];
                        img.read(PAddr(0), &mut sparse);
                        prop_assert!(sparse == bytes, "{policy:?}: image bytes differ");
                        prop_assert_eq!(img.poisoned(), &poisoned[..], "{:?}: poison", policy);
                        prop_assert!(img.lines().iter().all(|(_, l)| *l != [0u8; LINE]));

                        let rebooted = img.reboot(reboot_shards);
                        let reference = dense_reboot(&bytes, &poisoned, reboot_shards);
                        prop_assert_eq!(rebooted.size(), reference.size());
                        prop_assert_eq!(rebooted.non_durable_lines(), 0);
                        prop_assert_eq!(
                            rebooted.poisoned_line_count(),
                            reference.poisoned_line_count()
                        );
                        prop_assert_eq!(
                            CrashPolicy::Pessimistic.apply(&rebooted).lines(),
                            img.lines()
                        );
                        let lines = rebooted.size() / CACHE_LINE;
                        let got = read_lines(&rebooted, lines);
                        prop_assert!(got == read_lines(&reference, lines), "{policy:?}: reboot");
                        for (line, read) in got.iter().enumerate() {
                            if let Ok(read) = read {
                                let a = (line * LINE).min(bytes.len());
                                let want = &bytes[a..bytes.len().min(a + LINE)];
                                prop_assert_eq!(&read[..want.len()], want);
                            }
                        }
                        images.push((bytes, poisoned, img.content_hash()));
                    }
                    prop_assert_eq!(pool.fault_stats(), Some(dense.faults.stats));
                }
            }
            let stats = pool.stats();
            prop_assert_eq!(stats.clean_flushes, dense.clean_flushes);
            prop_assert_eq!(stats.dropped_flushes, dense.faults.stats.dropped_flushes);
            prop_assert_eq!(stats.lines_written_back, dense.lines_written_back);
            let dirty = dense.state.iter().filter(|s| **s != St::Clean).count() as u64;
            prop_assert_eq!(pool.non_durable_lines(), dirty);
        }
        for (i, (bytes_a, poison_a, hash_a)) in images.iter().enumerate() {
            let dense_a = dense_hash(bytes_a, poison_a);
            for (bytes_b, poison_b, hash_b) in &images[i + 1..] {
                let same = bytes_a == bytes_b && permanent(poison_a) == permanent(poison_b);
                prop_assert_eq!(hash_a == hash_b, same);
                prop_assert_eq!(dense_a == dense_hash(bytes_b, poison_b), same);
            }
        }
    }
}

/// An image keeps exactly its non-zero lines, whatever page or shard they
/// sit on, and rebuilding it from those lines in any order, with zero
/// lines mixed in, gives an equal image and hash: the sparse form is
/// canonical.
#[test]
fn sparse_form_is_canonical() {
    let pool = PmemPool::new(PoolConfig {
        size: 3 * PAGE + 5 * CACHE_LINE,
        shards: 3,
        ..Default::default()
    });
    pool.write(PAddr(PAGE - 10), &[3u8; 20]); // straddles a page boundary
    pool.write_u64(PAddr(2 * PAGE + 64), 11);
    pool.write_u64(PAddr(128), 9);
    pool.write_u64(PAddr(128), 0); // stored to, but zero again
    let img = CrashPolicy::Optimistic.apply(&pool);
    let lines: Vec<u64> = img.lines().iter().map(|&(line, _)| line).collect();
    assert_eq!(lines, vec![63, 64, 129]);
    let mut shuffled = img.lines().to_vec();
    shuffled.reverse();
    shuffled.push((100, [0; LINE]));
    let again = CrashImage::from_lines(img.len() as u64, shuffled, Vec::new());
    assert_eq!(again, img);
    assert_eq!(again.content_hash(), img.content_hash());
}

/// The same line content at another position is another image.
#[test]
fn hash_separates_moved_lines() {
    let (x, y) = ([1u8; LINE], [2u8; LINE]);
    let image = |lines: Vec<(u64, [u8; LINE])>| CrashImage::from_lines(PAGE, lines, Vec::new());
    let variants = [
        image(vec![(5, x)]),
        image(vec![(6, x)]),
        image(vec![(1, x), (2, y)]),
        image(vec![(1, y), (2, x)]),
        image(vec![(1, x)]),
        image(Vec::new()),
    ];
    for (i, a) in variants.iter().enumerate() {
        for b in &variants[i + 1..] {
            assert_ne!(a.content_hash(), b.content_hash(), "{:?} vs {:?}", a.lines(), b.lines());
        }
    }
}
