//! Flag-parity matrix for the long-running subcommands.
//!
//! Every subcommand that can run long enough to care about telemetry
//! (`check`, `crashsweep`, and both `crashsweep --prune` exploration
//! paths) must accept the full shared observability flag set:
//! `--profile`, `--progress`, `--trace-out`, `--metrics-out`,
//! `--ledger`, and `--build-id`. A subcommand that forgets one falls
//! through to `usage()` and exits 2, which this matrix turns into a
//! named failure — so adding a new long-running subcommand without
//! wiring `ObsOpts` through it breaks the build here, not in the field.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_deepmc");

/// Tiny clean program so `check` legs exit 0 quickly.
const FIXTURE: &str = "module m\nfile \"m.c\"\nstruct s { a: i64 }\n\
                       fn main() {\nentry:\n  %r = palloc s\n  store %r.a, 1\n  \
                       flush %r.a\n  fence\n  ret\n}\n";

struct Ctx {
    dir: PathBuf,
    fixture: PathBuf,
}

impl Ctx {
    fn new(tag: &str) -> Ctx {
        let dir =
            std::env::temp_dir().join(format!("deepmc-cli-matrix-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let fixture = dir.join("m.pir");
        std::fs::write(&fixture, FIXTURE).expect("write fixture");
        Ctx { dir, fixture }
    }

    /// The base argv of every long-running subcommand invocation. Kept
    /// tiny (`--steps 2 --seeds 1`, one app) so the whole matrix runs in
    /// seconds.
    fn subcommands(&self) -> Vec<(&'static str, Vec<String>)> {
        let f = self.fixture.to_string_lossy().into_owned();
        let sweep = |extra: &[&str]| {
            let mut v = vec![
                "crashsweep".to_string(),
                "--app".into(),
                "memcached".into(),
                "--steps".into(),
                "2".into(),
                "--seeds".into(),
                "1".into(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        vec![
            ("check", vec!["check".to_string(), "-strict".into(), "--no-cache".into(), f]),
            (
                "check --ds",
                vec![
                    "check".to_string(),
                    "--ds".into(),
                    "treiber".into(),
                    "--steps".into(),
                    "4".into(),
                ],
            ),
            ("crashsweep", sweep(&[])),
            ("crashsweep --prune", sweep(&["--prune"])),
            ("crashsweep --prune --oracle", sweep(&["--prune", "--oracle"])),
        ]
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Every (subcommand, observability flag) pair parses and runs. Exit 2
/// is the usage path — the one a forgotten flag takes.
#[test]
fn every_long_running_subcommand_accepts_every_obs_flag() {
    let ctx = Ctx::new("flags");
    let flag_sets: Vec<Vec<String>> = vec![
        vec!["--profile".into()],
        vec!["--progress".into()],
        vec!["--trace-out".into(), ctx.dir.join("t.json").to_string_lossy().into_owned()],
        vec!["--metrics-out".into(), ctx.dir.join("m.json").to_string_lossy().into_owned()],
        vec!["--ledger".into(), ctx.dir.join("l.jsonl").to_string_lossy().into_owned()],
        vec!["--build-id".into(), "matrix-test".into()],
    ];
    for (name, base) in ctx.subcommands() {
        for flags in &flag_sets {
            let mut args = base.clone();
            args.extend(flags.iter().cloned());
            let out = Command::new(BIN).args(&args).output().expect("spawn deepmc");
            let code = out.status.code().expect("exit code");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_ne!(code, 2, "`deepmc {name}` rejected {flags:?} (usage exit):\n{stderr}");
            assert!(
                !stderr.contains("USAGE:"),
                "`deepmc {name}` printed usage for {flags:?}:\n{stderr}"
            );
        }
    }
}

/// All the flags together, plus side-effect checks: the trace, metrics,
/// and ledger files must actually appear for every subcommand.
#[test]
fn combined_obs_flags_produce_artifacts_everywhere() {
    let ctx = Ctx::new("artifacts");
    for (name, base) in ctx.subcommands() {
        let tag = name.replace([' ', '-'], "_");
        let trace = ctx.dir.join(format!("{tag}.trace.json"));
        let metrics = ctx.dir.join(format!("{tag}.metrics.json"));
        let ledger = ctx.dir.join(format!("{tag}.ledger.jsonl"));
        let mut args = base.clone();
        for extra in [
            "--profile",
            "--progress",
            "--trace-out",
            &trace.to_string_lossy(),
            "--metrics-out",
            &metrics.to_string_lossy(),
            "--ledger",
            &ledger.to_string_lossy(),
            "--build-id",
            "matrix-test",
        ] {
            args.push(extra.to_string());
        }
        let out = Command::new(BIN).args(&args).output().expect("spawn deepmc");
        let code = out.status.code().expect("exit code");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(code, 2, "`deepmc {name}` combined flags hit usage:\n{stderr}");
        for (what, path) in [("trace", &trace), ("metrics", &metrics), ("ledger", &ledger)] {
            assert!(
                path.exists(),
                "`deepmc {name}` did not write the {what} file {}:\n{stderr}",
                path.display()
            );
        }
        // The ledger record must carry the flagged build id and the
        // true exit code.
        let loaded = deepmc_obs::ledger::load(&ledger).expect("ledger loads");
        assert_eq!(loaded.records.len(), 1, "{name}: one run, one record");
        assert_eq!(loaded.records[0].build_id, "matrix-test");
        assert_eq!(loaded.records[0].exit_code, i32::from(code as u8));
        assert_eq!(loaded.rejected, 0);
        assert!(!loaded.torn);
    }
}

/// `--progress` is presentation-only: report bytes on stdout, the
/// metrics snapshot (timings redacted), and the sweep journal are
/// byte-identical with and without it, at `--jobs 1` and `--jobs 4`
/// (where the snapshot's worker count is bounded, not compared).
#[test]
fn progress_flag_never_perturbs_outputs() {
    let ctx = Ctx::new("progress");
    let run = |extra: &[&str], tag: &str| -> (Vec<u8>, String, deepmc_obs::MetricsSnapshot) {
        let journal = ctx.dir.join(format!("{tag}.journal"));
        let metrics = ctx.dir.join(format!("{tag}.metrics.json"));
        let mut args = vec![
            "crashsweep".to_string(),
            "--app".into(),
            "memcached".into(),
            "--steps".into(),
            "3".into(),
            "--seeds".into(),
            "1".into(),
            "--inject-bug".into(),
            "--journal".into(),
            journal.to_string_lossy().into_owned(),
            "--metrics-out".into(),
            metrics.to_string_lossy().into_owned(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = Command::new(BIN).args(&args).output().expect("spawn deepmc");
        assert_ne!(out.status.code(), Some(2), "usage error in progress leg {tag}");
        // The journal is a keyed resume log: workers append completed
        // steps in finish order, so the *line set* is the determinism
        // contract, not the byte order.
        let journal_text = std::fs::read_to_string(&journal).expect("journal written");
        let mut lines: Vec<&str> = journal_text.lines().collect();
        lines.sort_unstable();
        let mut snap: deepmc_obs::MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics).expect("metrics written"))
                .expect("metrics parse");
        snap.redact_timings();
        (out.stdout, lines.join("\n"), snap)
    };
    let q1 = run(&["--jobs", "1"], "q1");
    let p1 = run(&["--progress", "--jobs", "1"], "p1");
    let q4 = run(&["--jobs", "4"], "q4");
    let p4 = run(&["--progress", "--jobs", "4"], "p4");
    for (tag, got) in [("p1", &p1), ("q4", &q4), ("p4", &p4)] {
        assert_eq!(q1.0, got.0, "{tag}: stdout report differs from quiet jobs=1");
        assert_eq!(q1.1, got.1, "{tag}: sweep journal differs from quiet jobs=1");
    }
    // At --jobs 1 every step runs on the calling thread, so the whole
    // redacted snapshot is deterministic: --progress must not change it.
    assert_eq!(q1.2.to_json(), p1.2.to_json(), "jobs=1: --progress changed the redacted metrics");
    // At --jobs 4, which pool worker ran which step is a scheduling fact,
    // like a timing: a crash step takes microseconds, so the caller can
    // drain the queue before a helper thread has started. The worker
    // count then differs between two identical runs, so bound it and
    // compare the rest of the snapshot exactly.
    let scheduled = |tag: &str, mut snap: deepmc_obs::MetricsSnapshot| -> String {
        assert!(
            (1..=4).contains(&snap.workers),
            "{tag}: {} workers recorded events; --jobs 4 allows the caller plus 3 helpers",
            snap.workers
        );
        snap.workers = 0;
        snap.to_json()
    };
    assert_eq!(
        scheduled("q4", q4.2),
        scheduled("p4", p4.2),
        "jobs=4: --progress changed the redacted metrics"
    );
}

/// Same contract for the DS-corpus matrix: the verdict table on stdout
/// is byte-identical with and without `--progress`, at `--jobs 1` and
/// `--jobs 4`, and every run of the full matrix exits 0 (all cells match
/// the registered ground truth).
#[test]
fn check_ds_is_deterministic_across_progress_and_jobs() {
    let run = |extra: &[&str]| -> Vec<u8> {
        // 12 steps is the shortest canonical script that arms every
        // seeded bug (the double-apply replay needs a completed dequeue
        // with the queue still non-empty).
        let mut args =
            vec!["check".to_string(), "--ds".into(), "all".into(), "--steps".into(), "12".into()];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = Command::new(BIN).args(&args).output().expect("spawn deepmc");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "check --ds all failed ({extra:?}):\n{stderr}");
        out.stdout
    };
    let q1 = run(&["--jobs", "1"]);
    let p1 = run(&["--progress", "--jobs", "1"]);
    let q4 = run(&["--jobs", "4"]);
    let p4 = run(&["--progress", "--jobs", "4"]);
    assert_eq!(q1, p1, "--progress changed the jobs=1 verdict table");
    assert_eq!(q1, q4, "worker count changed the verdict table");
    assert_eq!(q4, p4, "--progress changed the jobs=4 verdict table");
}

/// The benchmark's traced `check` runs read the analysis cache's hit and
/// miss counts from one stderr line, with the pattern
/// `cache: (\d+) hit\(s\), (\d+) miss\(es\)`; rewording or dropping that
/// line turns those two metrics null. Run from the context directory so
/// the default cache lands inside it: a cold run of the one-root fixture
/// misses once, and a warm rerun hits once.
#[test]
fn verbose_check_prints_the_cache_line() {
    let ctx = Ctx::new("cache-line");
    let run = || -> String {
        let out = Command::new(BIN)
            .current_dir(&ctx.dir)
            .args(["check", "-strict", "--jobs", "1", "--verbose"])
            .arg(&ctx.fixture)
            .output()
            .expect("spawn deepmc");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "check failed:\n{stderr}");
        stderr
    };
    let cold = run();
    assert!(cold.contains("cache: 0 hit(s), 1 miss(es)"), "cold run:\n{cold}");
    let warm = run();
    assert!(warm.contains("cache: 1 hit(s), 0 miss(es)"), "warm run:\n{warm}");
}

/// Six analysis roots, three of them with an unflushed store, sharing one
/// callee.
const MULTI_ROOT: &str = "module m\nfile \"m.c\"\nstruct s { a: i64, b: i64 }\n\
                          fn leaf(%p: ptr s) {\nentry:\n  store %p.a, 1\n  ret\n}\n\
                          fn clean_a() {\nentry:\n  %r = palloc s\n  store %r.a, 1\n  \
                          flush %r.a\n  fence\n  ret\n}\n\
                          fn clean_b() {\nentry:\n  %r = palloc s\n  store %r.b, 2\n  \
                          flush %r.b\n  fence\n  ret\n}\n\
                          fn clean_c() {\nentry:\n  %r = palloc s\n  ret\n}\n\
                          fn buggy_a() {\nentry:\n  %r = palloc s\n  call leaf(%r)\n  ret\n}\n\
                          fn buggy_b() {\nentry:\n  %r = palloc s\n  call leaf(%r)\n  \
                          store %r.b, 3\n  ret\n}\n\
                          fn buggy_c() {\nentry:\n  %r = palloc s\n  store %r.b, 4\n  ret\n}\n";

/// The analysis cache is one pack file per program: a cold multi-root
/// check leaves exactly that file behind (no per-root entries, claim or
/// temporary files). Two checks started together on one cache directory
/// each print the reference report with its exit code, and the pack the
/// last one wrote serves every root of a third run.
#[test]
fn cache_is_one_pack_file_and_concurrent_checks_agree() {
    let ctx = Ctx::new("pack");
    let src = ctx.dir.join("multi.pir");
    std::fs::write(&src, MULTI_ROOT).expect("write multi-root fixture");
    let check = |extra: &[&str]| {
        let mut cmd = Command::new(BIN);
        cmd.current_dir(&ctx.dir).args(["check", "-strict", "--jobs", "2"]).args(extra).arg(&src);
        cmd
    };
    let reference = check(&["--no-cache"]).output().expect("spawn deepmc");
    assert_eq!(reference.status.code(), Some(1), "the fixture has warnings");

    let cold = check(&["--verbose", "--cache-dir", "cold"]).output().expect("spawn deepmc");
    let stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(stderr.contains("cache: 0 hit(s), 6 miss(es), 6 store(s)"), "cold run:\n{stderr}");
    assert_eq!(cold.stdout, reference.stdout);
    let files: Vec<String> = std::fs::read_dir(ctx.dir.join("cold"))
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files.len(), 1, "one pack, no entry, claim or temporary files: {files:?}");
    assert!(files[0].ends_with(".bin"), "{files:?}");

    // Both processes are started before either is waited for.
    let racers: Vec<_> = (0..2)
        .map(|_| {
            check(&["--cache-dir", "shared"])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn deepmc")
        })
        .collect();
    for racer in racers {
        let out = racer.wait_with_output().expect("wait for deepmc");
        assert_eq!(out.status.code(), reference.status.code());
        assert_eq!(out.stdout, reference.stdout, "a concurrent check printed another report");
    }
    let third = check(&["--verbose", "--cache-dir", "shared"]).output().expect("spawn deepmc");
    let stderr = String::from_utf8_lossy(&third.stderr);
    assert!(stderr.contains("6 hit(s), 0 miss(es)"), "third run:\n{stderr}");
    assert_eq!(third.stdout, reference.stdout);
}

/// Module `i` of an eight-file program: an unflushed store in `f{i}`, and
/// a root that also calls the previous module's root.
fn chain_module(i: usize) -> String {
    let call_prev = if i > 0 { format!("  call root{}()\n", i - 1) } else { String::new() };
    format!(
        "module m{i}\nfile \"m{i}.c\"\nstruct s{i} {{ a: i64, b: i64 }}\n\
         fn f{i}(%p: ptr s{i}) {{\nentry:\n  store %p.a, {i}\n  ret\n}}\n\
         fn root{i}() {{\nentry:\n  %r = palloc s{i}\n  call f{i}(%r)\n  store %r.b, 1\n  \
         flush %r.b\n  fence\n{call_prev}  ret\n}}\n"
    )
}

/// Each input file is parsed and verified as a job of the worker pool, yet
/// the front end's verdict does not depend on the schedule: with two bad
/// files late in the argument list, every `--jobs` prints the one line of
/// the earlier bad file and exits 2, and a clean program prints the same
/// report at every `--jobs`.
#[test]
fn front_end_is_deterministic_across_jobs() {
    const PARSE_ERROR: &str = "module bad\nfn broken( {\n";
    const VERIFY_ERROR: &str = "module bad\nfn g() {\nentry:\n  epoch_end\n  ret\n}\n";
    const PARSE_LINE: &str = "parse error at line 3: expected `%param`, found `{`";
    const VERIFY_LINE: &str = "verify error in `g` (line 4): epoch_end without epoch_begin";
    let ctx = Ctx::new("front-end");
    let write_program = |name: &str, bad: &[(usize, &str)]| -> Vec<PathBuf> {
        let dir = ctx.dir.join(name);
        std::fs::create_dir_all(&dir).expect("create program dir");
        (0..8)
            .map(|i| {
                let path = dir.join(format!("m{i}.pir"));
                let text = bad.iter().find(|(b, _)| *b == i).map(|(_, t)| t.to_string());
                std::fs::write(&path, text.unwrap_or_else(|| chain_module(i))).expect("write");
                path
            })
            .collect()
    };
    let check = |files: &[PathBuf], jobs: &str| {
        Command::new(BIN)
            .current_dir(&ctx.dir)
            .args(["check", "-strict", "--no-cache", "--jobs", jobs])
            .args(files)
            .output()
            .expect("spawn deepmc")
    };

    for (name, bad, first) in [
        ("parse-first", [(5, PARSE_ERROR), (7, VERIFY_ERROR)], PARSE_LINE),
        ("verify-first", [(5, VERIFY_ERROR), (7, PARSE_ERROR)], VERIFY_LINE),
    ] {
        let files = write_program(name, &bad);
        let want = format!("{}: {first}\n", files[5].display());
        for jobs in ["1", "2", "4"] {
            let out = check(&files, jobs);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} --jobs {jobs}:\n{stderr}");
            assert_eq!(stderr, want, "{name} --jobs {jobs}");
            assert!(out.stdout.is_empty(), "{name} --jobs {jobs} printed a report");
        }
    }

    let files = write_program("clean", &[]);
    let reference = check(&files, "1");
    assert_eq!(reference.status.code(), Some(1), "the program has warnings");
    assert!(!reference.stdout.is_empty());
    for jobs in ["2", "4"] {
        let out = check(&files, jobs);
        assert_eq!(out.status.code(), reference.status.code(), "--jobs {jobs}");
        assert_eq!(out.stdout, reference.stdout, "--jobs {jobs} printed another report");
    }
}
