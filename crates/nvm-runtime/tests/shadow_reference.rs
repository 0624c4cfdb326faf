//! The direct-mapped shadow memory and its detector, pinned against the
//! hash-mapped ones they replaced.
//!
//! `RefDetector` is the reference: each 8-byte cell's history is a `Vec`
//! in a `HashMap`, strands sit in a `Vec`, a lock acquire joins a cloned
//! lock clock, and reports are deduplicated by a linear scan. Random
//! sequential calls (strands with and without a parent, ends, barriers,
//! lock pairs over a few lock ids, reads and writes of 0–64 bytes whose
//! spans straddle cells and 4 KiB pages, some above 256 MiB) run on both
//! side by side; every call's fresh reports, the ordered report list and
//! the shadowed-cell count must agree. A threaded test checks that an
//! unsynchronised write-after-write is never lost.

use nvm_runtime::{RaceDetector, RaceKind, RaceReport, StrandId, VectorClock};
use proptest::prelude::*;
use std::collections::HashMap;

const GRAIN: u64 = 8;
const HISTORY: usize = 4;
const PAGE: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Access {
    strand: u32,
    epoch: u32,
    is_write: bool,
}

/// The reference cell: history in a `Vec`, oldest first.
#[derive(Default)]
struct RefCell {
    accesses: Vec<Access>,
}

impl RefCell {
    fn record(&mut self, access: Access) {
        if access.is_write {
            self.accesses.clear();
            self.accesses.push(access);
        } else {
            if let Some(a) =
                self.accesses.iter_mut().find(|a| !a.is_write && a.strand == access.strand)
            {
                a.epoch = access.epoch;
                return;
            }
            if self.accesses.len() == HISTORY {
                let evict = self.accesses.iter().position(|a| !a.is_write).unwrap_or(0);
                self.accesses.remove(evict);
            }
            self.accesses.push(access);
        }
    }
}

struct RefStrand {
    clock: VectorClock,
    epoch: u32,
    ended: bool,
}

/// The reference detector, sequential.
#[derive(Default)]
struct RefDetector {
    cells: HashMap<u64, RefCell>,
    strands: Vec<RefStrand>,
    base: VectorClock,
    locks: HashMap<u64, VectorClock>,
    reports: Vec<RaceReport>,
}

impl RefDetector {
    fn strand_begin(&mut self, parent: Option<StrandId>) -> StrandId {
        let idx = self.strands.len();
        let mut clock = self.base.clone();
        if let Some(p) = parent {
            clock.join(&self.strands[p.0 as usize].clock);
        }
        let epoch = clock.tick(idx).max(1);
        clock.set(idx, epoch);
        self.strands.push(RefStrand { clock, epoch, ended: false });
        StrandId(idx as u32)
    }

    fn strand_end(&mut self, s: StrandId) {
        self.strands[s.0 as usize].ended = true;
    }

    fn global_barrier(&mut self) {
        for s in self.strands.iter().filter(|s| s.ended) {
            self.base.join(&s.clock);
        }
    }

    fn lock_acquire(&mut self, s: StrandId, lock: u64) {
        if let Some(lc) = self.locks.get(&lock).cloned() {
            self.strands[s.0 as usize].clock.join(&lc);
        }
    }

    fn lock_release(&mut self, s: StrandId, lock: u64) {
        let strand = &mut self.strands[s.0 as usize];
        let clock = strand.clock.clone();
        self.locks.entry(lock).and_modify(|lc| lc.join(&clock)).or_insert(clock);
        strand.epoch = strand.clock.tick(s.0 as usize);
    }

    fn on_access(&mut self, s: StrandId, addr: u64, len: u64, is_write: bool) -> Vec<RaceReport> {
        if len == 0 {
            return Vec::new();
        }
        let strand = &self.strands[s.0 as usize];
        let access = Access { strand: s.0, epoch: strand.epoch, is_write };
        let mut found = Vec::new();
        for cell_idx in addr / GRAIN..=(addr + len - 1) / GRAIN {
            let cell = self.cells.entry(cell_idx).or_default();
            for a in &cell.accesses {
                if a.strand == s.0
                    || (!is_write && !a.is_write)
                    || strand.clock.knows(a.strand as usize, a.epoch)
                {
                    continue;
                }
                let kind = if is_write && a.is_write {
                    RaceKind::WriteAfterWrite
                } else {
                    RaceKind::ReadAfterWrite
                };
                found.push(RaceReport {
                    kind,
                    addr: cell_idx * GRAIN,
                    first: StrandId(a.strand),
                    second: s,
                });
            }
            cell.record(access);
        }
        let mut fresh = Vec::new();
        for r in found {
            if !self.reports.contains(&r) {
                self.reports.push(r.clone());
                fresh.push(r);
            }
        }
        fresh
    }
}

/// Span starts close to each other, so strands collide: near 0, across a
/// page boundary, across a page boundary above 256 MiB, and far above.
const BASES: [u64; 4] = [0, PAGE - 64, (256 << 20) + 3 * PAGE - 64, (1 << 40) + PAGE - 64];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `parent` picks an existing strand (modulo the count) when given.
    Begin {
        parent: Option<usize>,
    },
    End {
        strand: usize,
    },
    Barrier,
    Acquire {
        strand: usize,
        lock: u64,
    },
    Release {
        strand: usize,
        lock: u64,
    },
    Access {
        strand: usize,
        region: usize,
        off: u64,
        len: u64,
        is_write: bool,
    },
}

fn op() -> impl Strategy<Value = Op> {
    // Mostly accesses (listed four times), and mostly reads (three in
    // four), so that cells fill their history with readers of many strands
    // and eviction decides what a later write reports.
    let access = || {
        (any::<usize>(), 0..BASES.len(), 0u64..96, 0u64..=64, 0u8..4).prop_map(
            |(strand, region, off, len, kind)| Op::Access {
                strand,
                region,
                off,
                len,
                is_write: kind == 0,
            },
        )
    };
    let begin = || proptest::option::of(any::<usize>()).prop_map(|parent| Op::Begin { parent });
    prop_oneof![
        begin(),
        begin(),
        any::<usize>().prop_map(|strand| Op::End { strand }),
        Just(Op::Barrier),
        (any::<usize>(), 0u64..3).prop_map(|(strand, lock)| Op::Acquire { strand, lock }),
        (any::<usize>(), 0u64..3).prop_map(|(strand, lock)| Op::Release { strand, lock }),
        access(),
        access(),
        access(),
        access(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn direct_mapped_detector_matches_the_reference(ops in proptest::collection::vec(op(), 1..160)) {
        let d = RaceDetector::new();
        let mut r = RefDetector::default();
        let mut strands: Vec<StrandId> = Vec::new();
        for op in ops {
            // Every op but `Begin` and `Barrier` needs a strand to name.
            let pick = |strands: &[StrandId], i: usize| strands[i % strands.len()];
            match op {
                Op::Barrier => {
                    d.global_barrier();
                    r.global_barrier();
                }
                Op::Begin { parent } => {
                    let parent = parent.filter(|_| !strands.is_empty()).map(|p| pick(&strands, p));
                    let id = d.strand_begin(parent);
                    prop_assert_eq!(id, r.strand_begin(parent));
                    strands.push(id);
                }
                _ if strands.is_empty() => {
                    strands.push(d.strand_begin(None));
                    r.strand_begin(None);
                }
                Op::End { strand } => {
                    d.strand_end(pick(&strands, strand));
                    r.strand_end(pick(&strands, strand));
                }
                Op::Acquire { strand, lock } => {
                    d.lock_acquire(pick(&strands, strand), lock);
                    r.lock_acquire(pick(&strands, strand), lock);
                }
                Op::Release { strand, lock } => {
                    d.lock_release(pick(&strands, strand), lock);
                    r.lock_release(pick(&strands, strand), lock);
                }
                Op::Access { strand, region, off, len, is_write } => {
                    let (s, addr) = (pick(&strands, strand), BASES[region] + off);
                    prop_assert_eq!(
                        d.on_access(s, addr, len, is_write),
                        r.on_access(s, addr, len, is_write),
                        "fresh reports of {:?}", op
                    );
                }
            }
            prop_assert_eq!(d.reports(), r.reports.clone());
            prop_assert_eq!(d.shadow_cells(), r.cells.len());
        }
    }
}

/// Two strands write one cell with no synchronisation. Each cell's
/// check-then-record is atomic, so whichever write lands second sees the
/// first: a write-after-write is reported on every run.
#[test]
fn unsynchronised_writers_always_race() {
    for run in 0..200 {
        let d = RaceDetector::new();
        let (a, b) = (d.strand_begin(None), d.strand_begin(None));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for strand in [a, b] {
                let (d, start) = (&d, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..16 {
                        d.on_access(strand, 64, 8, true);
                    }
                });
            }
        });
        let reports = d.reports();
        assert!(
            reports.iter().any(|r| r.kind == RaceKind::WriteAfterWrite && r.addr == 64),
            "run {run}: {reports:?}"
        );
    }
}
