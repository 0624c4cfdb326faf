//! The `deepmc` command-line tool.
//!
//! ```text
//! deepmc check  (-strict|-epoch|-strand) [--json] [--violations-only|--performance-only]
//!               [--suppress DB.json] [--no-cache] [--cache-dir DIR] [--jobs N]
//!               [--root-timeout SECS] [--max-walk-steps N] [--chaos-panic ROOT]
//!               [--profile] [--verbose] [--progress] [--trace-out FILE]
//!               [--metrics-out FILE] [--ledger FILE] [--build-id ID] FILE...
//! deepmc check  --ds STRUCTURE|all [--steps N] [--jobs N] [--profile] [--progress]
//!               [--trace-out FILE] [--metrics-out FILE] [--ledger FILE] [--build-id ID]
//! deepmc fix    (-strict|-epoch|-strand) FILE... [-o DIR]
//! deepmc dynamic ENTRY FILE...            # strand-model dynamic check of one execution
//! deepmc run     ENTRY FILE...            # execute on the simulated NVM runtime
//! deepmc crashsweep [--app all|memcached|redis|nstore] [--steps N] [--seeds N] [--seed S]
//!                   [--torn R] [--drop-flush R] [--poison R] [--inject-bug] [--jobs N]
//!                   [--prune] [--oracle] [--journal FILE] [--resume] [--profile]
//!                   [--progress] [--trace-out FILE] [--metrics-out FILE] [--ledger FILE]
//!                   [--build-id ID]
//! deepmc stats show    [--ledger FILE] [--tool NAME] [N]
//! deepmc stats diff    [--ledger FILE] [--threshold PCT] [A B]
//! deepmc stats regress --baseline FILE [--ledger FILE] [--max-p50-pct N]
//!                      [--max-p99-pct N] [--min-us N]
//! deepmc stats flame   [--ledger FILE] [--out FILE] [N]
//! deepmc dsg FUNCTION FILE...             # Graphviz of the function's data structure graph
//! deepmc rules                            # print the checking-rule catalog
//! ```
//!
//! `--jobs N` (or `DEEPMC_JOBS`) sizes the worker pool for `check` and
//! `crashsweep`; `--jobs 0` (the default) means all available cores.
//! Reports are byte-identical for any worker count.
//!
//! `crashsweep --prune` collapses crash states with identical persisted
//! images (and identical oracle-relevant history) into equivalence
//! classes and validates one representative each; the report is
//! identical to the exhaustive sweep's, with an explored/pruned split.
//! `--oracle` adds the output-equivalence oracles (rollback-past-ack and
//! prefix-cut) on top of the base invariants.
//!
//! Observability (`check` and `crashsweep`): `--profile` prints a
//! per-phase breakdown and counter summary to stderr, `--trace-out FILE`
//! writes a Chrome-trace JSON (load in Perfetto or `chrome://tracing`;
//! spans carry worker ids), `--metrics-out FILE` writes a versioned JSON
//! metrics snapshot (schema v2: per-phase p50/p90/p99/max latency
//! percentiles), `--ledger FILE` appends one fingerprinted
//! [`deepmc_obs::LedgerRecord`] per run (config digest, `--build-id`,
//! counters, percentiles, folded stacks, exit code) to an append-only
//! JSONL ledger, and `--progress` renders a throttled heartbeat on
//! stderr (steps done/total, classes pruned, ETA). All observability
//! output goes to stderr or the named files — the report on stdout is
//! byte-identical with or without instrumentation. `deepmc stats`
//! queries the ledger: `show`/`diff`/`regress` (the CI gate)/`flame`.
//!
//! Exit code is 0 when no warnings (or for `run` on success), 1
//! when warnings were reported, 2 on usage or input errors, and 3 when
//! the run *completed but degraded*: some analysis roots panicked or ran
//! over their `--root-timeout`/`--max-walk-steps` budget (the report
//! carries the surviving warnings plus a `FAILED root` line per lost
//! root), or a crash sweep was interrupted before finishing (rerun with
//! `--resume` to pick up from the journal). Exit 3 takes precedence over
//! exit 1 so CI can distinguish "complete verdict" from "partial
//! verdict".

use deepmc::{CheckError, DeepMcConfig, Report, StaticChecker};
use deepmc_analysis::Program;
use deepmc_interp::{InterpConfig, NoHooks, Outcome, Session};
use deepmc_models::PersistencyModel;
use deepmc_obs as obs;
use nvm_runtime::{PmemHeap, PmemPool, PoolConfig, TxManager};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "deepmc — detect deep memory persistency bugs in NVM programs\n\n\
         USAGE:\n  \
         deepmc check  (-strict|-epoch|-strand) [--json] [--violations-only|--performance-only] [--suppress DB.json] [--no-cache] [--cache-dir DIR] [--jobs N] [--root-timeout SECS] [--max-walk-steps N] [--chaos-panic ROOT] [--profile] [--verbose] [--progress] [--trace-out FILE] [--metrics-out FILE] [--ledger FILE] [--build-id ID] FILE...\n  \
         deepmc check  --ds STRUCTURE|all [--steps N] [--jobs N] [--profile] [--progress] [--trace-out FILE] [--metrics-out FILE] [--ledger FILE] [--build-id ID]   # DS-corpus detection matrix\n  \
         deepmc fix    (-strict|-epoch|-strand) FILE... [-o DIR]\n  \
         deepmc dynamic ENTRY FILE...\n  \
         deepmc run ENTRY FILE...\n  \
         deepmc crashsweep [--app all|memcached|redis|nstore] [--steps N] [--seeds N] [--seed S] [--torn R] [--drop-flush R] [--poison R] [--inject-bug] [--jobs N] [--prune] [--oracle] [--journal FILE] [--resume] [--profile] [--progress] [--trace-out FILE] [--metrics-out FILE] [--ledger FILE] [--build-id ID]\n  \
         deepmc stats show    [--ledger FILE] [--tool NAME] [N]              # percentile table (default: latest record)\n  \
         deepmc stats diff    [--ledger FILE] [--threshold PCT] [A B]        # deltas between two records (default: last two)\n  \
         deepmc stats regress --baseline FILE [--ledger FILE] [--max-p50-pct N] [--max-p99-pct N] [--min-us N]  # CI gate, exit 1 on regression\n  \
         deepmc stats flame   [--ledger FILE] [--out FILE] [N]               # collapsed stacks (inferno/flamegraph.pl format)\n  \
         deepmc dsg FUNCTION FILE...          # Graphviz of the function's data structure graph\n  \
         deepmc rules"
    );
    ExitCode::from(2)
}

/// Observability flags shared by every long-running subcommand
/// (`check`, `crashsweep` and its `--prune` exploration paths). The CLI
/// matrix test in `tests/cli_matrix.rs` fails when a subcommand forgets
/// one of these.
#[derive(Default)]
struct ObsOpts {
    profile: bool,
    verbose: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    progress: bool,
    ledger: Option<String>,
    build_id: Option<String>,
}

impl ObsOpts {
    fn enabled(&self) -> bool {
        self.profile
            || self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.ledger.is_some()
    }

    /// Consume one flag if it belongs to this group. `Ok(true)` if
    /// consumed, `Ok(false)` if not ours, `Err(())` on a missing value.
    fn parse(&mut self, a: &str, it: &mut std::slice::Iter<'_, String>) -> Result<bool, ()> {
        match a {
            "--profile" => self.profile = true,
            "--verbose" => self.verbose = true,
            "--progress" => self.progress = true,
            "--trace-out" => self.trace_out = Some(it.next().ok_or(())?.clone()),
            "--metrics-out" => self.metrics_out = Some(it.next().ok_or(())?.clone()),
            "--ledger" => self.ledger = Some(it.next().ok_or(())?.clone()),
            "--build-id" => self.build_id = Some(it.next().ok_or(())?.clone()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn recorder(&self) -> Option<obs::Recorder> {
        self.enabled().then(obs::Recorder::new)
    }

    /// Install the live-progress heartbeat when `--progress` was given.
    /// Strictly stderr presentation — reports, journals, and cache dirs
    /// are byte-identical with it on or off.
    fn progress_guard(&self, label: &'static str) -> Option<obs::progress::ProgressGuard> {
        self.progress.then(|| obs::progress::install(label))
    }

    /// The build id recorded in ledger entries: `--build-id`, then the
    /// `DEEPMC_BUILD_ID` environment (CI sets it to a git describe), then
    /// `"dev"`.
    fn build_id(&self) -> String {
        self.build_id
            .clone()
            .or_else(|| std::env::var("DEEPMC_BUILD_ID").ok())
            .unwrap_or_else(|| "dev".to_string())
    }

    /// Finish the recorder and write every requested output. Profile
    /// summaries go to stderr and machine output to the named files
    /// (plus the append-only ledger), so the report on stdout is
    /// untouched. `exit_code` is the code the process is about to exit
    /// with — compute it *before* calling this so the ledger records it.
    fn emit(
        &self,
        recorder: Option<obs::Recorder>,
        tool: &str,
        config_digest: &str,
        exit_code: i32,
    ) -> Result<(), String> {
        let Some(rec) = recorder else { return Ok(()) };
        let data = rec.finish();
        if self.profile {
            eprint!("{}", data.profile_summary(tool));
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, data.chrome_trace())
                .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, data.metrics_snapshot(tool).to_json())
                .map_err(|e| format!("cannot write metrics `{path}`: {e}"))?;
        }
        if let Some(path) = &self.ledger {
            let record = obs::LedgerRecord::from_data(
                tool,
                &self.build_id(),
                config_digest,
                exit_code,
                &data,
            );
            obs::ledger::append(std::path::Path::new(path), &record)
                .map_err(|e| format!("cannot append to ledger `{path}`: {e}"))?;
        }
        Ok(())
    }
}

/// Digest of the run configuration recorded in ledger entries, so
/// `stats` can refuse to compare runs with different configs. FNV-1a
/// over the argv, NUL-separated.
fn config_digest(cmd: &str, args: &[String]) -> String {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(cmd.as_bytes());
    for a in args {
        // Ledger/build-id plumbing must not change the digest: the same
        // analysis config recorded into two different ledgers is still
        // the same run configuration.
        bytes.push(0);
        bytes.extend_from_slice(a.as_bytes());
    }
    format!("{:016x}", obs::ledger::fnv1a(&bytes))
}

/// Strip flags that only steer telemetry output from a digest argv.
fn digest_args(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ledger" | "--build-id" | "--trace-out" | "--metrics-out" => {
                let _ = it.next();
            }
            "--profile" | "--verbose" | "--progress" => {}
            other => out.push(other.to_string()),
        }
    }
    out
}

/// Read, parse and verify every input file through the front end at
/// `jobs` (`0`: `DEEPMC_JOBS`, then all cores). The error names the first
/// failing file in argument order.
fn load_modules(paths: &[String], jobs: usize) -> Result<Vec<deepmc_pir::Module>, String> {
    if paths.is_empty() {
        return Err("no input files".into());
    }
    deepmc::parse_and_verify(paths, jobs, |p| std::fs::read_to_string(p).map_err(CheckError::Read))
        .map_err(|(i, e)| match e {
            CheckError::Read(e) => format!("cannot read `{}`: {e}", paths[i]),
            e => format!("{}: {e}", paths[i]),
        })
}

/// The exit code a report maps to, computed separately from printing so
/// the ledger can record it before the report is emitted.
fn report_code(report: &Report) -> u8 {
    if report.degraded {
        // "Completed but partial" outranks "has warnings": a degraded
        // report may be missing warnings, so CI must not read exit 0/1 as
        // a complete verdict.
        3
    } else if report.warnings.is_empty() {
        0
    } else {
        1
    }
}

fn print_report(report: &Report, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(report).expect("report serializes"));
    } else {
        print!("{report}");
    }
}

fn report_exit(report: &Report, json: bool) -> ExitCode {
    print_report(report, json);
    ExitCode::from(report_code(report))
}

/// Silence the default panic banner for `--chaos-panic`-injected panics.
/// The pool's `catch_unwind` already converts them into `RootFailure`s;
/// without this, each injected panic would still splat a backtrace notice
/// on stderr and drown the real diagnostics.
fn quiet_chaos_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&'static str>().copied());
        if msg.is_some_and(|m| m.contains("chaos:")) {
            return;
        }
        prev(info);
    }));
}

/// `deepmc check --ds STRUCTURE|all` — run the concurrent persistent
/// data-structure corpus through all three validators and compare every
/// cell against the registered ground truth:
///
/// * **static**: the variant's PIR protocol model under the Epoch-model
///   static checker (one operation is one epoch — see
///   `nvm_apps::ds::pir`);
/// * **dynamic**: the same model executed under the Strand model with
///   the happens-before detector;
/// * **crash**: the pruned crash sweep (`--prune --oracle` semantics)
///   over the Rust implementation's canonical operation script.
///
/// The verdict table on stdout is deterministic for any `--jobs` value.
/// Exit 0 when every cell matches the expected matrix, 1 on any
/// mismatch, 2 on usage errors.
fn cmd_check_ds(args: &[String]) -> ExitCode {
    use nvm_apps::ds::{self, DsKind, DsSweepConfig};
    let mut target: Option<String> = None;
    let mut steps = 24u64;
    let mut jobs = 0usize;
    let mut obs_opts = ObsOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match obs_opts.parse(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(()) => return usage(),
        }
        match a.as_str() {
            "--ds" => match it.next() {
                Some(t) => target = Some(t.clone()),
                None => return usage(),
            },
            "--steps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => steps = n,
                _ => return usage(),
            },
            // 0 is a valid request: "use all cores" (resolve_jobs).
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage(),
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let kinds: Vec<DsKind> = match target.as_deref() {
        Some("all") => DsKind::ALL.to_vec(),
        Some(name) => match DsKind::from_name(name) {
            Some(k) => vec![k],
            None => {
                eprintln!(
                    "unknown structure `{name}` (expected all, {})",
                    DsKind::ALL.map(DsKind::name).join(", ")
                );
                return ExitCode::from(2);
            }
        },
        None => return usage(),
    };
    let recorder = obs_opts.recorder();
    let attach = recorder.as_ref().map(|r| r.attach(0));
    let progress = obs_opts.progress_guard("ds");
    let total_span = obs::span("total");
    let hit = |b: bool| if b { "hit" } else { "clean" };
    let static_config = DeepMcConfig::new(PersistencyModel::Epoch);
    let mut lines = Vec::new();
    let mut cells = 0u64;
    let mut mismatches = 0u64;
    for &kind in &kinds {
        for bug in kind.variants() {
            let src = ds::pir::pir_model(kind, bug);

            let static_span = obs::span("ds.static");
            let got_static = match deepmc::check_source(&src, &static_config) {
                Ok(r) => r
                    .warnings
                    .iter()
                    .any(|w| w.class.severity() == deepmc_models::Severity::Violation),
                Err(e) => {
                    eprintln!(
                        "{}/{}: static check failed: {e}",
                        kind.name(),
                        ds::variant_name(bug)
                    );
                    return ExitCode::from(2);
                }
            };
            drop(static_span);

            let dynamic_span = obs::span("ds.dynamic");
            let module = match deepmc_pir::parse(&src) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{}/{}: model parse failed: {e}", kind.name(), ds::variant_name(bug));
                    return ExitCode::from(2);
                }
            };
            let got_dynamic = match deepmc::dynamic::check_dynamic(
                std::slice::from_ref(&module),
                "main",
                PersistencyModel::Strand,
            ) {
                Ok(r) => !r.warnings.is_empty(),
                Err(e) => {
                    eprintln!(
                        "{}/{}: dynamic check failed: {e}",
                        kind.name(),
                        ds::variant_name(bug)
                    );
                    return ExitCode::from(2);
                }
            };
            drop(dynamic_span);

            let crash_span = obs::span("ds.crash");
            let mut cfg = DsSweepConfig::new(kind, bug);
            cfg.steps = steps;
            cfg.prune = true;
            cfg.oracle = true;
            cfg.jobs = jobs;
            let sweep = ds::ds_sweep(&cfg);
            let got_crash = !sweep.violations.is_empty();
            drop(crash_span);

            let e = ds::expected(bug);
            let ok = got_static == e.static_ && got_dynamic == e.dynamic && got_crash == e.crash;
            cells += 1;
            if !ok {
                mismatches += 1;
            }
            lines.push(format!(
                "{}/{}: static={} dynamic={} crash={} {}",
                kind.name(),
                ds::variant_name(bug),
                hit(got_static),
                hit(got_dynamic),
                hit(got_crash),
                if ok {
                    "ok".to_string()
                } else {
                    format!(
                        "MISMATCH (expected static={} dynamic={} crash={})",
                        hit(e.static_),
                        hit(e.dynamic),
                        hit(e.crash)
                    )
                },
            ));
        }
    }
    drop(total_span);
    drop(progress);
    drop(attach);
    let code: u8 = if mismatches > 0 { 1 } else { 0 };
    let digest = config_digest("check-ds", &digest_args(args));
    if let Err(e) = obs_opts.emit(recorder, "deepmc check --ds", &digest, i32::from(code)) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    println!(
        "ds corpus: {} structure(s), {} cell(s), steps={steps}, pruned sweep with oracle",
        kinds.len(),
        cells
    );
    for line in &lines {
        println!("{line}");
    }
    println!("ds corpus verdict: {} cell(s), {} mismatch(es)", cells, mismatches);
    ExitCode::from(code)
}

fn cmd_check(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--ds") {
        return cmd_check_ds(args);
    }
    let mut model: Option<PersistencyModel> = None;
    let mut json = false;
    let mut violations_only = false;
    let mut performance_only = false;
    let mut suppress_db: Option<String> = None;
    let mut no_cache = false;
    let mut cache_dir = deepmc::cache::DEFAULT_CACHE_DIR.to_string();
    let mut jobs = 0usize;
    let mut root_timeout_secs: Option<u64> = None;
    let mut max_walk_steps: Option<u64> = None;
    let mut chaos_roots: Vec<String> = Vec::new();
    let mut obs_opts = ObsOpts::default();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match obs_opts.parse(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(()) => return usage(),
        }
        match a.as_str() {
            "--suppress" => match it.next() {
                Some(path) => suppress_db = Some(path.clone()),
                None => return usage(),
            },
            "--no-cache" => no_cache = true,
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = dir.clone(),
                None => return usage(),
            },
            // 0 is a valid request: "use all cores" (resolve_jobs).
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage(),
            },
            "--root-timeout" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => root_timeout_secs = Some(n),
                _ => return usage(),
            },
            "--max-walk-steps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => max_walk_steps = Some(n),
                _ => return usage(),
            },
            "--chaos-panic" => match it.next() {
                Some(root) => chaos_roots.push(root.clone()),
                None => return usage(),
            },
            "-strict" | "-epoch" | "-strand" => match a.parse() {
                Ok(m) => model = Some(m),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--violations-only" => violations_only = true,
            "--performance-only" => performance_only = true,
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                return usage();
            }
            file => files.push(file.to_string()),
        }
    }
    let Some(model) = model else {
        eprintln!("specify the intended persistency model: -strict, -epoch, or -strand");
        return ExitCode::from(2);
    };
    let mut config = DeepMcConfig::new(model);
    if violations_only {
        config = config.violations_only();
    }
    if performance_only {
        config = config.performance_only();
    }
    config.trace.root_timeout = root_timeout_secs.map(std::time::Duration::from_secs);
    config.trace.max_walk_steps = max_walk_steps;
    if !chaos_roots.is_empty() {
        quiet_chaos_panics();
        for root in chaos_roots {
            config = config.with_chaos_panic(root);
        }
    }
    let recorder = obs_opts.recorder();
    let attach = recorder.as_ref().map(|r| r.attach(0));
    let progress = obs_opts.progress_guard("check");
    let total_span = obs::span("total");
    let parse_span = obs::span("parse");
    let modules = match load_modules(&files, jobs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let program = match Program::new(modules) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    drop(parse_span);
    let cache = (!no_cache).then(|| deepmc::AnalysisCache::open(&cache_dir));
    let (mut report, stats) =
        StaticChecker::new(config).check_program_with_jobs(&program, cache.as_ref(), jobs);
    if !no_cache && (obs_opts.verbose || obs_opts.profile) {
        // Stats go to stderr so the report on stdout stays byte-identical
        // between cold and warm runs. Routed through the obs note
        // emitter: printed once even if this path re-runs, and recorded
        // as an event when instrumented. (The same numbers are always
        // available as cache.* counters via --metrics-out/--profile.)
        obs::note(
            "cache.stats",
            &format!(
                "cache: {} hit(s), {} miss(es), {} store(s), {} quarantined, {} trace(s) ({} hit rate, dir {})",
                stats.hits,
                stats.misses,
                stats.stores,
                stats.quarantined,
                stats.traces,
                format_args!("{:.0}%", stats.hit_rate() * 100.0),
                cache_dir,
            ),
        );
    }
    if let Some(path) = suppress_db {
        let db = match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| deepmc::suppress::SuppressionDb::from_json(&s).map_err(|e| e.to_string()))
        {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot load suppression db `{path}`: {e}");
                return ExitCode::from(2);
            }
        };
        let (surviving, suppressed) = db.apply(&report);
        if !suppressed.is_empty() {
            eprintln!("({} warning(s) suppressed by {path})", suppressed.len());
        }
        report = surviving;
    }
    drop(total_span);
    drop(progress);
    drop(attach);
    // The exit code is part of the ledger record, so compute it before
    // emitting telemetry; the report itself prints after (stdout and
    // stderr are separate channels, so report bytes are unaffected).
    let code = report_code(&report);
    let digest = config_digest("check", &digest_args(args));
    if let Err(e) = obs_opts.emit(recorder, "deepmc check", &digest, i32::from(code)) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    print_report(&report, json);
    ExitCode::from(code)
}

fn cmd_fix(args: &[String]) -> ExitCode {
    let mut model: Option<PersistencyModel> = None;
    let mut out_dir: Option<String> = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-strict" | "-epoch" | "-strand" => model = a.parse().ok(),
            "-o" => match it.next() {
                Some(d) => out_dir = Some(d.clone()),
                None => return usage(),
            },
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                return usage();
            }
            file => files.push(file.to_string()),
        }
    }
    let Some(model) = model else {
        eprintln!("specify the intended persistency model: -strict, -epoch, or -strand");
        return ExitCode::from(2);
    };
    let modules = match load_modules(&files, 0) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let config = DeepMcConfig::new(model);
    let (fixed, report, applied) = deepmc::fixer::fix_until_stable(modules, &config, 8);
    eprintln!("applied {applied} fix(es); {} warning(s) remain", report.warnings.len());
    for (path, module) in files.iter().zip(&fixed) {
        let text = deepmc_pir::print(module);
        match &out_dir {
            None => {
                println!("// ===== fixed: {path} =====");
                println!("{text}");
            }
            Some(dir) => {
                let name = std::path::Path::new(path)
                    .file_name()
                    .map(|n| n.to_string_lossy().to_string())
                    .unwrap_or_else(|| "out.pir".into());
                let out = std::path::Path::new(dir).join(name);
                if let Err(e) = std::fs::write(&out, text) {
                    eprintln!("cannot write {}: {e}", out.display());
                    return ExitCode::from(2);
                }
                eprintln!("wrote {}", out.display());
            }
        }
    }
    if report.warnings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_dynamic(args: &[String]) -> ExitCode {
    let Some((entry, files)) = args.split_first() else { return usage() };
    let modules = match load_modules(files, 0) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match deepmc::dynamic::check_dynamic(&modules, entry, PersistencyModel::Strand) {
        Ok(report) => report_exit(&report, false),
        Err(e) => {
            eprintln!("execution failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some((entry, files)) = args.split_first() else { return usage() };
    let modules = match load_modules(files, 0) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let pool = PmemPool::new(PoolConfig { size: 64 << 20, shards: 16, ..Default::default() });
    let result = {
        let heap = PmemHeap::open(&pool);
        let log = heap.alloc(1 << 20);
        let txm = TxManager::new(&pool, log, 1 << 20);
        let config = InterpConfig::default();
        let session = Session {
            modules: &modules,
            pool: &pool,
            heap: &heap,
            txm: &txm,
            hooks: &NoHooks,
            config,
        };
        session.run(entry, &[])
    };
    match result {
        Ok(Outcome::Finished(v)) => {
            let stats = pool.stats();
            println!("finished: {v:?}");
            println!(
                "pmem stats: {} stores ({} B), {} loads, {} flushes ({} wasted), \
                 {} fences, {} lines written back, {} lines left non-durable",
                stats.stores,
                stats.bytes_stored,
                stats.loads,
                stats.flushes,
                stats.clean_flushes,
                stats.fences,
                stats.lines_written_back,
                pool.non_durable_lines()
            );
            ExitCode::SUCCESS
        }
        Ok(Outcome::Crashed { step }) => {
            println!("crashed at injected step {step}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("execution failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_crashsweep(args: &[String]) -> ExitCode {
    use nvm_apps::crashsweep::{sweep_session, SweepApp, SweepConfig, SweepJournal, SweepSession};
    let mut cfg = SweepConfig::default();
    let mut apps: Vec<SweepApp> = SweepApp::ALL.to_vec();
    let mut journal_path: Option<String> = None;
    let mut resume = false;
    let mut obs_opts = ObsOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match obs_opts.parse(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(()) => return usage(),
        }
        let mut numeric = |target: &mut u64| match it.next().and_then(|v| v.parse().ok()) {
            Some(n) => {
                *target = n;
                true
            }
            None => false,
        };
        match a.as_str() {
            "--app" => match it.next().map(String::as_str) {
                Some("all") => apps = SweepApp::ALL.to_vec(),
                Some("memcached") => apps = vec![SweepApp::Memcached],
                Some("redis") => apps = vec![SweepApp::Redis],
                Some("nstore") => apps = vec![SweepApp::NStore],
                _ => return usage(),
            },
            "--steps" => {
                if !numeric(&mut cfg.steps) {
                    return usage();
                }
            }
            "--seeds" => {
                if !numeric(&mut cfg.random_seeds) {
                    return usage();
                }
            }
            "--seed" => {
                if !numeric(&mut cfg.seed) {
                    return usage();
                }
            }
            // 0 is a valid request: "use all cores" (resolve_jobs).
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cfg.jobs = n,
                None => return usage(),
            },
            "--torn" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) => cfg.fault.torn_store_rate = r,
                None => return usage(),
            },
            "--drop-flush" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) => cfg.fault.dropped_flush_rate = r,
                None => return usage(),
            },
            "--poison" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) => cfg.fault.poison_rate = r,
                None => return usage(),
            },
            "--inject-bug" => cfg.inject_bug = true,
            "--prune" => cfg.prune = true,
            "--oracle" => cfg.oracle = true,
            "--journal" => match it.next() {
                Some(p) => journal_path = Some(p.clone()),
                None => return usage(),
            },
            "--resume" => resume = true,
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    cfg.fault.seed = cfg.seed;
    println!(
        "crash sweep: {} step(s), {}+{} eviction policies, faults: torn={} drop-flush={} poison={}{}{}{}",
        cfg.steps,
        3,
        cfg.random_seeds,
        cfg.fault.torn_store_rate,
        cfg.fault.dropped_flush_rate,
        cfg.fault.poison_rate,
        if cfg.inject_bug { ", seeded bugs injected" } else { "" },
        if cfg.prune { ", pruned exploration" } else { "" },
        if cfg.oracle { ", output-equivalence oracles" } else { "" }
    );
    // A cooperative interrupt point for CI and tests: the first N fresh
    // steps in canonical step order run, whatever the worker count, and
    // then the session cancels itself, exactly as a Ctrl-C handler would —
    // the journal stays flushed, and the run exits 3 with partial results.
    let trip_after =
        std::env::var("DEEPMC_SWEEP_INTERRUPT_AFTER").ok().and_then(|v| v.parse::<u64>().ok());
    let journal = if journal_path.is_some() || resume || trip_after.is_some() {
        let path = journal_path.unwrap_or_else(|| ".deepmc-sweep.journal".to_string());
        match SweepJournal::open(&path, &cfg, &apps, resume) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("cannot open sweep journal `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let session = SweepSession::new(journal.as_ref(), trip_after);
    let recorder = obs_opts.recorder();
    let run = {
        let _attach = recorder.as_ref().map(|r| r.attach(0));
        let _progress = obs_opts.progress_guard(if cfg.prune { "explore" } else { "sweep" });
        let _total = obs::span("total");
        sweep_session(&cfg, &apps, &session)
    };
    // Decide the exit code (and the FAIL lines that go with it) before
    // emitting telemetry, so the ledger records the code the process
    // actually exits with.
    let mut failed = false;
    let mut bug_missed: Vec<&str> = Vec::new();
    for outcome in &run.outcomes {
        // With the bug injected the sweep is *supposed* to catch it: the
        // run succeeds only if every loss is attributed. An interrupted
        // (partial) run skips this check — exit 3 already says the
        // verdict is incomplete.
        failed |= !outcome.violations.is_empty();
        if !run.interrupted() && cfg.inject_bug && outcome.bug_attributed == 0 {
            bug_missed.push(outcome.app);
            failed = true;
        }
    }
    let code: u8 = if run.interrupted() {
        3
    } else if failed {
        1
    } else {
        0
    };
    let digest = config_digest("crashsweep", &digest_args(args));
    if let Err(e) = obs_opts.emit(recorder, "deepmc crashsweep", &digest, i32::from(code)) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    if run.resumed_steps > 0 {
        eprintln!("resumed: {} step(s) replayed from the journal", run.resumed_steps);
    }
    for outcome in &run.outcomes {
        print!("{outcome}");
        if bug_missed.contains(&outcome.app) {
            println!("  FAIL: injected bug was not observed");
        }
    }
    if run.interrupted() {
        eprintln!(
            "sweep interrupted: {} step(s) not executed; rerun with --resume to continue",
            run.skipped_steps
        );
    }
    ExitCode::from(code)
}

/// `deepmc stats` — query the run ledger: `show` a percentile table,
/// `diff` two records, `regress` against a baseline (the CI gate), or
/// emit a `flame`graph in collapsed-stack format.
fn cmd_stats(args: &[String]) -> ExitCode {
    use deepmc::stats;
    let Some((verb, rest)) = args.split_first() else {
        eprintln!(
            "usage: deepmc stats (show|diff|regress|flame) [--ledger PATH] [--tool NAME] ..."
        );
        return ExitCode::from(2);
    };
    let mut ledger_path = obs::ledger::DEFAULT_LEDGER_PATH.to_string();
    let mut baseline_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut tool: Option<String> = None;
    let mut threshold = 25.0f64;
    let mut policy = stats::RegressPolicy::default();
    let mut selectors: Vec<i64> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ledger" => match it.next() {
                Some(p) => ledger_path = p.clone(),
                None => return usage(),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => return usage(),
            },
            "--tool" => match it.next() {
                Some(t) => tool = Some(t.clone()),
                None => return usage(),
            },
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = t,
                None => return usage(),
            },
            "--max-p50-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => policy.max_p50_pct = t,
                None => return usage(),
            },
            "--max-p99-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => policy.max_p99_pct = t,
                None => return usage(),
            },
            "--min-us" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => policy.min_us = t,
                None => return usage(),
            },
            // Record selectors: integers, negative = from the end
            // (`-1` is the latest record).
            sel if sel.parse::<i64>().is_ok() => selectors.push(sel.parse().unwrap()),
            other => {
                eprintln!("unknown stats argument `{other}`");
                return usage();
            }
        }
    }
    let load = |path: &str| -> Result<Vec<obs::LedgerRecord>, String> {
        let loaded = obs::ledger::load(std::path::Path::new(path))?;
        if loaded.rejected > 0 {
            obs::warning(
                "ledger.rejected",
                &format!(
                    "{}: {} damaged record(s) rejected (fingerprint mismatch or unparsable)",
                    path, loaded.rejected
                ),
            );
        }
        if loaded.torn {
            obs::warning(
                "ledger.torn",
                &format!("{path}: dropped a torn trailing record (interrupted append)"),
            );
        }
        Ok(loaded.records)
    };
    let current = match load(&ledger_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let current: Vec<obs::LedgerRecord> =
        stats::filter_tool(&current, tool.as_deref()).into_iter().cloned().collect();
    let pick = |sel: i64| stats::select(&current, sel).cloned();
    match verb.as_str() {
        "show" => {
            let sel = selectors.first().copied().unwrap_or(-1);
            match pick(sel) {
                Ok(r) => {
                    print!("{}", stats::render_show(&r));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        "diff" => {
            let (sa, sb) = match selectors[..] {
                [a, b] => (a, b),
                [] => (-2, -1),
                _ => {
                    eprintln!("stats diff takes exactly two record selectors (or none for the last two runs)");
                    return ExitCode::from(2);
                }
            };
            match (pick(sa), pick(sb)) {
                (Ok(a), Ok(b)) => {
                    print!("{}", stats::render_diff(&a, &b, threshold));
                    ExitCode::SUCCESS
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        "regress" => {
            let Some(baseline_path) = baseline_path else {
                eprintln!("stats regress requires --baseline LEDGER");
                return ExitCode::from(2);
            };
            let baseline = match load(&baseline_path) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let baseline: Vec<obs::LedgerRecord> =
                stats::filter_tool(&baseline, tool.as_deref()).into_iter().cloned().collect();
            let base = match stats::select(&baseline, -1) {
                Ok(r) => r.clone(),
                Err(e) => {
                    eprintln!("baseline {baseline_path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let cur = match pick(selectors.first().copied().unwrap_or(-1)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let outcome = stats::regress(&base, &cur, &policy);
            print!("{}", outcome.report);
            if outcome.failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "flame" => {
            let r = match pick(selectors.first().copied().unwrap_or(-1)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let folded = obs::flame::to_folded(&r.stacks);
            match out_path {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, folded) {
                        eprintln!("cannot write flamegraph `{path}`: {e}");
                        return ExitCode::from(2);
                    }
                    eprintln!("wrote {} stack(s) to {path}", r.stacks.len());
                }
                None => print!("{folded}"),
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown stats verb `{other}` (expected show, diff, regress, or flame)");
            ExitCode::from(2)
        }
    }
}

fn cmd_dsg(args: &[String]) -> ExitCode {
    let Some((func, files)) = args.split_first() else { return usage() };
    let modules = match load_modules(files, 0) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let program = match Program::new(modules) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(fr) = program.resolve(func) else {
        eprintln!("unknown function `{func}`");
        return ExitCode::from(2);
    };
    let cg = deepmc_analysis::CallGraph::build(&program);
    let dsa = deepmc_analysis::DsaResult::analyze(&program, &cg);
    print!("{}", dsa.graph(fr).to_dot(&program, fr, func));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "check" => cmd_check(rest),
            "fix" => cmd_fix(rest),
            "dynamic" => cmd_dynamic(rest),
            "run" => cmd_run(rest),
            "crashsweep" => cmd_crashsweep(rest),
            "stats" => cmd_stats(rest),
            "dsg" => cmd_dsg(rest),
            "rules" => {
                for rule in deepmc_models::RULES {
                    println!(
                        "[{:?}] {} — {}",
                        rule.analysis,
                        rule.class.table1_label(),
                        rule.statement
                    );
                }
                ExitCode::SUCCESS
            }
            _ => usage(),
        },
        None => usage(),
    }
}
