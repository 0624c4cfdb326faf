//! Unit costs of the crash explorers' layers, measured by calling the
//! public primitives on the sweep workload's own script and pools.
//!
//! ```text
//! crash_layers --seed N --steps N
//! ```
//!
//! For each app the full `sweep_script(seed, steps)` is replayed on a
//! fresh 4 MiB fault-injecting pool (no fault rates set), then the end
//! state is crashed under every policy the sweep uses; each image is
//! hashed, rebooted and recovered. One `ds_sweep` per structure (clean
//! variant, pruned, with the oracle, as `deepmc check --ds` runs it)
//! times the data-structure explorer. Prints one JSON line of means.

use deepmc_perfbench::{arg_or, JsonLine};
use nvm_apps::ds::{ds_sweep, DsKind, DsSweepConfig};
use nvm_apps::memcached::Memcached;
use nvm_apps::nstore::NStore;
use nvm_apps::recovery::RecoveryReport;
use nvm_apps::redis::Redis;
use nvm_apps::tracker::NoopTracker;
use nvm_apps::workloads::{sweep_script, ClientCtx, ScriptOp};
use nvm_runtime::{CrashPolicy, FaultConfig, PmemHeap, PmemPool, PoolConfig};
use std::time::Instant;

const SHARDS: usize = 8;
const LOG_BYTES: u64 = 1 << 16;
/// Replays per app; every replay is crashed under each policy.
const REPS: usize = 5;

#[derive(Default)]
struct Totals {
    replay_s: f64,
    replay_ops: u64,
    image_s: f64,
    hash_s: f64,
    reboot_s: f64,
    recover_s: f64,
    images: u64,
    /// Recoveries that dropped records although no fault was injected.
    bad_recoveries: u64,
}

fn fresh_pool(seed: u64) -> PmemPool {
    PmemPool::with_faults(
        PoolConfig { size: 4 << 20, shards: SHARDS, ..Default::default() },
        FaultConfig { seed, ..Default::default() },
    )
}

/// Replay `ops` on `pool` as app `app` ("memcached" | "redis" | "nstore").
fn replay(app: &str, pool: &PmemPool, ops: &[ScriptOp]) {
    let heap = PmemHeap::open(pool);
    let noop = NoopTracker;
    let ctx = ClientCtx { id: 0, tracker: &noop, strand: None };
    match app {
        "memcached" => {
            let mc = Memcached::new(pool, &heap, SHARDS);
            for op in ops {
                match *op {
                    ScriptOp::Set { key, val } => {
                        mc.set(key, val, &noop, &ctx);
                    }
                    ScriptOp::Del { key } => {
                        mc.set(key, 0xDEAD, &noop, &ctx);
                    }
                    ScriptOp::Barrier => mc.epoch_barrier(&noop),
                }
            }
        }
        "redis" => {
            let r = Redis::new(pool, &heap, SHARDS, LOG_BYTES);
            for op in ops {
                match *op {
                    ScriptOp::Set { key, val } => r.set(key, val, &noop, None),
                    ScriptOp::Del { key } => {
                        r.del(key, &noop, None);
                    }
                    ScriptOp::Barrier => {}
                }
            }
        }
        _ => {
            let db = NStore::new(pool, &heap, SHARDS, LOG_BYTES);
            for op in ops {
                match *op {
                    ScriptOp::Set { key, val } => {
                        db.put(key, [val, val ^ 1, val ^ 2, val ^ 3], &noop, None)
                    }
                    ScriptOp::Del { key } => db.put(key, [7; 4], &noop, None),
                    ScriptOp::Barrier => {}
                }
            }
        }
    }
}

fn recover(app: &str, pool: &PmemPool) -> RecoveryReport {
    let heap = PmemHeap::open(pool);
    match app {
        "memcached" => Memcached::recover(pool, &heap, SHARDS).1,
        "redis" => Redis::recover(pool, &heap, SHARDS, LOG_BYTES).1,
        _ => NStore::recover(pool, &heap, SHARDS, LOG_BYTES).1,
    }
}

fn main() {
    let seed = arg_or("seed", 1u64);
    let steps = arg_or("steps", 32u64);
    let ops = sweep_script(seed, steps);
    let policies = [
        CrashPolicy::Pessimistic,
        CrashPolicy::Optimistic,
        CrashPolicy::PendingOnly,
        CrashPolicy::Random(seed),
    ];
    let mut t = Totals::default();
    for app in ["memcached", "redis", "nstore"] {
        for _ in 0..REPS {
            let start = Instant::now();
            let pool = fresh_pool(seed);
            replay(app, &pool, &ops);
            t.replay_s += start.elapsed().as_secs_f64();
            t.replay_ops += ops.len() as u64;
            for policy in policies {
                let s = Instant::now();
                let img = policy.apply(&pool);
                t.image_s += s.elapsed().as_secs_f64();
                let s = Instant::now();
                std::hint::black_box(img.content_hash());
                t.hash_s += s.elapsed().as_secs_f64();
                let s = Instant::now();
                let rebooted = img.reboot(SHARDS);
                t.reboot_s += s.elapsed().as_secs_f64();
                let s = Instant::now();
                let report = recover(app, &rebooted);
                t.recover_s += s.elapsed().as_secs_f64();
                t.images += 1;
                if report.dropped() > 0 {
                    t.bad_recoveries += 1;
                }
            }
        }
    }
    let mut ds_s = 0.0;
    let mut ds_violations = 0usize;
    for kind in DsKind::ALL {
        let mut cfg = DsSweepConfig::new(kind, None);
        cfg.prune = true;
        cfg.oracle = true;
        let s = Instant::now();
        ds_violations += ds_sweep(&cfg).violations.len();
        ds_s += s.elapsed().as_secs_f64();
    }
    let per_image_us = |secs: f64| secs / t.images as f64 * 1e6;
    JsonLine::default()
        .num("apps.replay_op_us", t.replay_s / t.replay_ops as f64 * 1e6)
        .num("nvmrt.crash_image_us", per_image_us(t.image_s))
        .num("nvmrt.class_hash_us", per_image_us(t.hash_s))
        .num("nvmrt.reboot_us", per_image_us(t.reboot_s))
        .num("apps.recover_us", per_image_us(t.recover_s))
        .num("ds.sweep_s", ds_s / DsKind::ALL.len() as f64)
        .num("failed", (t.bad_recoveries + ds_violations as u64) as f64)
        .print();
}
