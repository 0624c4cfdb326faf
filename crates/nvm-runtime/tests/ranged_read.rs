//! `PmemPool::read_lines`, the one-pass ranged read that recovery scans
//! use, pinned against the per-line reads it replaced.
//!
//! The reference reads the same range one cache line at a time with
//! `read_reliable(.., 2)` on an identically built pool. Pools get random
//! contents, written so that some pages stay unallocated, and random
//! transient and permanent poison; ranges straddle lines, pages and
//! shards and cross missing pages. Both sides must read equal bytes on
//! every readable line, fail the same lines, and leave an equal poison
//! set behind.

use nvm_runtime::{PAddr, PmemError, PmemPool, PoolConfig, CACHE_LINE};
use proptest::prelude::*;

/// A pool of `lines` cache lines over `shards` shards, with `writes`
/// stored and then `poison` applied (a later store would scrub it).
fn build(lines: u64, shards: usize, writes: &[(u64, Vec<u8>)], poison: &[(u64, bool)]) -> PmemPool {
    let pool = PmemPool::new(PoolConfig { size: lines * CACHE_LINE, shards, ..Default::default() });
    for (at, data) in writes {
        let at = at % pool.size();
        let n = data.len().min((pool.size() - at) as usize);
        pool.write(PAddr(at), &data[..n]);
    }
    for &(line, transient) in poison {
        pool.poison_line(line % (pool.size() / CACHE_LINE), transient);
    }
    pool
}

/// The range read one line at a time with two retries per line: the
/// bytes, and the lines that stayed unreadable.
fn per_line(pool: &PmemPool, addr: u64, len: usize) -> (Vec<u8>, Vec<u64>) {
    let mut buf = vec![0u8; len];
    let mut failed = Vec::new();
    let mut off = addr;
    while off < addr + len as u64 {
        let end = ((off / CACHE_LINE + 1) * CACHE_LINE).min(addr + len as u64);
        let slot = &mut buf[(off - addr) as usize..(end - addr) as usize];
        match pool.read_reliable(PAddr(off), slot, 2) {
            Ok(()) => {}
            Err(PmemError::MediaError { line, .. }) => failed.push(line),
            Err(e) => panic!("{e}"),
        }
        off = end;
    }
    (buf, failed)
}

/// Every line's poison, found by one read per line: `Some(transient)`
/// for a poisoned line. Reading clears transient poison, so this is the
/// last look at a pool.
fn poison_set(pool: &PmemPool) -> Vec<Option<bool>> {
    let mut b = [0u8; 1];
    (0..pool.size() / CACHE_LINE)
        .map(|line| match pool.try_read(PAddr(line * CACHE_LINE), &mut b) {
            Ok(()) => None,
            Err(PmemError::MediaError { transient, .. }) => Some(transient),
            Err(e) => panic!("{e}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ranged_read_matches_per_line_reliable_reads(
        lines in 40u64..400,
        shards in 1usize..5,
        writes in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 1..600)),
            0..10,
        ),
        poison in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..30),
        start in any::<u64>(),
        len in any::<u64>(),
    ) {
        let ranged = build(lines, shards, &writes, &poison);
        let reference = build(lines, shards, &writes, &poison);
        let size = ranged.size();
        let addr = start % size;
        let len = (len % (size - addr + 1)) as usize;

        let mut buf = vec![0xA5u8; len];
        let failed = ranged.read_lines(PAddr(addr), &mut buf).unwrap();
        let (want, want_failed) = per_line(&reference, addr, len);

        prop_assert_eq!(&failed, &want_failed, "the same lines stay unreadable");
        for (i, (got, want)) in buf.iter().zip(&want).enumerate() {
            let line = (addr + i as u64) / CACHE_LINE;
            if failed.contains(&line) {
                prop_assert_eq!(*got, 0, "a failed line reads as zeros");
            } else {
                prop_assert_eq!(got, want, "byte {} of line {}", addr + i as u64, line);
            }
        }
        prop_assert_eq!(ranged.poisoned_line_count(), reference.poisoned_line_count());
        prop_assert_eq!(poison_set(&ranged), poison_set(&reference));
    }
}

#[test]
fn out_of_range_reads_fail_before_touching_poison() {
    let pool = build(64, 2, &[], &[(10, true)]);
    let mut buf = vec![0u8; 2 * CACHE_LINE as usize];
    let at = pool.size() - CACHE_LINE;
    assert!(matches!(pool.read_lines(PAddr(at), &mut buf), Err(PmemError::OutOfRange { .. })));
    assert_eq!(pool.poisoned_line_count(), 1);
    let mut all = vec![0u8; pool.size() as usize];
    assert_eq!(pool.read_lines(PAddr(0), &mut all), Ok(vec![]));
    assert_eq!(pool.poisoned_line_count(), 0, "the full read cleared the transient line");
}
