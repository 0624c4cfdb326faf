//! Property-based tests of the runtime substrate's core invariants:
//! cache-line state machine, crash-image semantics, and transaction
//! atomicity under arbitrary operation sequences and crash points.

use nvm_runtime::{CrashPolicy, PAddr, PmemHeap, PmemPool, PoolConfig, TxManager};
use proptest::prelude::*;

const POOL_SIZE: u64 = 1 << 14;
const SLOTS: u64 = POOL_SIZE / 64;

/// One pool operation.
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    Write { slot: u64, value: u64 },
    Flush { slot: u64 },
    Fence,
    Persist { slot: u64 },
}

fn op_strategy() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0..SLOTS, any::<u64>()).prop_map(|(slot, value)| PoolOp::Write { slot, value }),
        (0..SLOTS).prop_map(|slot| PoolOp::Flush { slot }),
        Just(PoolOp::Fence),
        (0..SLOTS).prop_map(|slot| PoolOp::Persist { slot }),
    ]
}

fn apply(pool: &PmemPool, op: PoolOp) {
    match op {
        PoolOp::Write { slot, value } => pool.write_u64(PAddr(slot * 64), value),
        PoolOp::Flush { slot } => pool.flush(PAddr(slot * 64), 8),
        PoolOp::Fence => pool.fence(),
        PoolOp::Persist { slot } => pool.persist(PAddr(slot * 64), 8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Model-based check: a reference model tracking (visible, durable,
    /// state) per slot agrees with the pool on every crash policy.
    #[test]
    fn pool_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        #[derive(Clone, Copy, PartialEq)]
        enum St { Clean, Dirty, Pending }
        let pool = PmemPool::new(PoolConfig { size: POOL_SIZE, shards: 4, ..Default::default() });
        let mut visible = vec![0u64; SLOTS as usize];
        let mut durable = vec![0u64; SLOTS as usize];
        let mut state = vec![St::Clean; SLOTS as usize];
        for &op in &ops {
            apply(&pool, op);
            match op {
                PoolOp::Write { slot, value } => {
                    visible[slot as usize] = value;
                    state[slot as usize] = St::Dirty;
                }
                PoolOp::Flush { slot } => {
                    if state[slot as usize] == St::Dirty {
                        state[slot as usize] = St::Pending;
                    }
                }
                PoolOp::Fence => {
                    for s in 0..SLOTS as usize {
                        if state[s] == St::Pending {
                            durable[s] = visible[s];
                            state[s] = St::Clean;
                        }
                    }
                }
                PoolOp::Persist { slot } => {
                    let s = slot as usize;
                    if state[s] != St::Clean {
                        // persist = flush + fence; fence drains every
                        // pending slot.
                        state[s] = St::Pending;
                    }
                    for s2 in 0..SLOTS as usize {
                        if state[s2] == St::Pending {
                            durable[s2] = visible[s2];
                            state[s2] = St::Clean;
                        }
                    }
                }
            }
        }
        // Visible image always matches.
        for s in 0..SLOTS {
            prop_assert_eq!(pool.read_u64(PAddr(s * 64)), visible[s as usize]);
        }
        // Pessimistic crash: exactly the reference durable image.
        let img = CrashPolicy::Pessimistic.apply(&pool);
        for s in 0..SLOTS {
            prop_assert_eq!(img.read_u64(PAddr(s * 64)), durable[s as usize]);
        }
        // Optimistic crash: exactly the visible image.
        let img = CrashPolicy::Optimistic.apply(&pool);
        for s in 0..SLOTS {
            prop_assert_eq!(img.read_u64(PAddr(s * 64)), visible[s as usize]);
        }
        // Any crash image is a per-line mix of visible and durable.
        let img = CrashPolicy::Random(1234).apply(&pool);
        for s in 0..SLOTS {
            let v = img.read_u64(PAddr(s * 64));
            prop_assert!(
                v == visible[s as usize] || v == durable[s as usize],
                "slot {s}: {v} is neither visible nor durable"
            );
        }
        // Non-durable line count agrees with the reference.
        let expected = state.iter().filter(|s| **s != St::Clean).count() as u64;
        prop_assert_eq!(pool.non_durable_lines(), expected);
    }

    /// Transaction atomicity: random logged updates crashed at a random
    /// point recover to either the initial or the committed state — never
    /// a mix (checked per logged field, since uncommitted-but-evicted
    /// partial states are rolled back by recovery).
    #[test]
    fn tx_recovery_is_atomic(
        values in proptest::collection::vec(any::<u64>(), 1..6),
        crash_after_commit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pool = PmemPool::new(PoolConfig { size: POOL_SIZE, shards: 4, ..Default::default() });
        let heap = PmemHeap::open(&pool);
        let log = heap.alloc(4096);
        // Each value gets its own cache line.
        let objs: Vec<PAddr> = values.iter().map(|_| heap.alloc(64)).collect();
        for (o, _) in objs.iter().zip(&values) {
            pool.write_u64(*o, 1);
            pool.persist(*o, 8);
        }
        let txm = TxManager::new(&pool, log, 4096);
        txm.begin();
        for (o, v) in objs.iter().zip(&values) {
            txm.add(*o, 8).unwrap();
            pool.write_u64(*o, *v);
        }
        if crash_after_commit {
            txm.commit();
        }
        // Crash under an arbitrary eviction order; reboot; recover.
        let img = CrashPolicy::Random(seed).apply(&pool);
        let p2 = img.reboot(4);
        let txm2 = TxManager::attach(&p2, log, 4096);
        txm2.recover();
        let recovered: Vec<u64> = objs.iter().map(|o| p2.read_u64(*o)).collect();
        if crash_after_commit {
            prop_assert_eq!(&recovered, &values, "committed state must survive");
        } else {
            prop_assert!(
                recovered.iter().all(|&v| v == 1),
                "uncommitted tx must roll back completely: {recovered:?}"
            );
        }
    }

    /// The heap never hands out overlapping blocks, across arbitrary
    /// alloc/free interleavings, including requests above the largest
    /// size class (2 MiB), which must never be capped.
    #[test]
    fn heap_blocks_never_overlap(
        ops in proptest::collection::vec(prop_oneof![
            (1u64..200).prop_map(Some),   // alloc of this size
            Just(None),                    // free the oldest live block
            ((2u64 << 20) - 64..(5u64 << 20)).prop_map(Some),
        ], 1..40)
    ) {
        let pool = PmemPool::new(PoolConfig { size: 24 << 20, shards: 4, ..Default::default() });
        let heap = PmemHeap::open(&pool);
        let mut live: Vec<(PAddr, u64)> = Vec::new();
        for op in ops {
            match op {
                Some(size) => {
                    let a = heap.alloc(size);
                    if a.is_null() {
                        continue;
                    }
                    prop_assert!(a.0 + size <= pool.size(), "{a:?}+{size} runs past the pool");
                    // No overlap with any live block.
                    for &(b, bsize) in &live {
                        let a_end = a.0 + size;
                        let b_end = b.0 + bsize;
                        prop_assert!(
                            a_end <= b.0 || b_end <= a.0,
                            "block {a:?}+{size} overlaps {b:?}+{bsize}"
                        );
                    }
                    live.push((a, size));
                }
                None => {
                    if !live.is_empty() {
                        let (a, size) = live.remove(0);
                        heap.free(a, size);
                    }
                }
            }
        }
    }
}
