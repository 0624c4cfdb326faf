//! Byte-identity of the crash explorers' output against golden files.
//!
//! The other explorer tests compare pruned with exhaustive runs and one
//! worker count with another, so a change that moved both sides alike
//! would pass them. These goldens pin the exact rows instead:
//!
//! * `sweep()` rows, exhaustive and pruned, with the benchmark's flags
//!   (every app, 32 steps, 3+2 policies, oracle, seeded bugs) at seeds
//!   1–3;
//! * the same for the faulted smoke run (20 steps, torn 0.3, drop-flush
//!   0.1, poison 0.005, oracle) at seeds 1–2;
//! * the same with poison alone at 0.02 (32 steps, oracle, seeded bugs)
//!   at seeds 1–2, so that every recovery's drop-and-scrub path for log
//!   slots and records on poisoned lines runs on nearly every image;
//! * `DsSweepOutcome::summary()` for all 17 DS cells, exhaustive and
//!   pruned, with the oracle on.
//!
//! Regenerate with `UPDATE_REPORT_GOLDEN=1 cargo test -p nvm-apps --test
//! explorer_golden` after an *intentional* output change, and name every
//! changed line in CHANGES.md.

use nvm_apps::crashsweep::{sweep, SweepApp, SweepConfig};
use nvm_apps::ds::{ds_sweep, variant_name, DsKind, DsSweepConfig};
use nvm_runtime::FaultConfig;
use std::fmt::Write as _;
use std::path::PathBuf;

fn assert_golden(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_REPORT_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); regenerate with UPDATE_REPORT_GOLDEN=1", path.display())
    });
    assert_eq!(rendered, golden, "{name}: explorer output differs from the golden");
}

/// Every app's rows at each seed, exhaustive then pruned.
fn render_sweeps(base: SweepConfig, seeds: &[u64]) -> String {
    let mut out = String::new();
    for &seed in seeds {
        for prune in [false, true] {
            let cfg = SweepConfig { seed, prune, ..base };
            let _ =
                writeln!(out, "== seed {seed}, {}", if prune { "pruned" } else { "exhaustive" });
            for outcome in sweep(&cfg, &SweepApp::ALL) {
                out.push_str(&outcome.to_string());
            }
        }
    }
    out
}

#[test]
fn benchmark_sweeps_match_golden() {
    let base = SweepConfig {
        steps: 32,
        random_seeds: 2,
        inject_bug: true,
        oracle: true,
        jobs: 2,
        ..Default::default()
    };
    assert_golden("sweep_benchmark.txt", &render_sweeps(base, &[1, 2, 3]));
}

#[test]
fn faulted_smoke_sweeps_match_golden() {
    let base = SweepConfig {
        steps: 20,
        random_seeds: 2,
        fault: FaultConfig {
            torn_store_rate: 0.3,
            dropped_flush_rate: 0.1,
            poison_rate: 0.005,
            ..Default::default()
        },
        oracle: true,
        jobs: 2,
        ..Default::default()
    };
    assert_golden("sweep_faulted.txt", &render_sweeps(base, &[1, 2]));
}

#[test]
fn poisoned_sweeps_match_golden() {
    let base = SweepConfig {
        steps: 32,
        random_seeds: 2,
        fault: FaultConfig { poison_rate: 0.02, ..Default::default() },
        inject_bug: true,
        oracle: true,
        jobs: 2,
        ..Default::default()
    };
    assert_golden("sweep_poisoned.txt", &render_sweeps(base, &[1, 2]));
}

#[test]
fn ds_sweeps_match_golden() {
    let mut out = String::new();
    for kind in DsKind::ALL {
        for bug in kind.variants() {
            for prune in [false, true] {
                let mut cfg = DsSweepConfig::new(kind, bug);
                cfg.prune = prune;
                cfg.oracle = true;
                cfg.jobs = 2;
                let _ = writeln!(
                    out,
                    "== {}/{}, {}",
                    kind.name(),
                    variant_name(bug),
                    if prune { "pruned" } else { "exhaustive" }
                );
                out.push_str(&ds_sweep(&cfg).summary());
            }
        }
    }
    assert_golden("ds_summary.txt", &out);
}
