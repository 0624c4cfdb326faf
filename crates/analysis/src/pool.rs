//! Fan-out for embarrassingly-parallel analysis loops.
//!
//! The static checker's per-root pipeline and the crash explorer share
//! one shape: a statically known list of independent work items whose
//! results are merged in item order. [`run_indexed_caught`] runs such a
//! list on the calling thread plus up to `jobs - 1` scoped helper
//! threads. Every worker, the caller included, takes the next item from
//! one shared queue until the queue is empty, so a slow item holds back
//! only the worker running it. Each worker keeps its results tagged with
//! the item index and the caller puts them back in item order, so
//! callers observe a deterministic, schedule-independent result vector.
//!
//! Each job body runs under [`std::panic::catch_unwind`]: a panicking
//! item becomes an `Err(message)` in the result slot of
//! [`run_indexed_caught`] while every other item completes normally.
//! [`run_indexed`] keeps the legacy contract — it re-raises the first
//! panic (in item order) after all workers have drained — so callers
//! that cannot represent partial failure still behave as the same loop
//! would have sequentially.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::Mutex;

/// Resolve a user-facing `--jobs N` request: a positive `N` is taken
/// literally; `0` defers to the `DEEPMC_JOBS` environment variable, then
/// to the machine's available parallelism. Always at least 1.
///
/// Every CLI that exposes a `--jobs` flag routes through this helper so
/// `0` behaves identically everywhere. An unparsable `DEEPMC_JOBS` warns
/// (stderr + obs layer) and falls back to the next source — a typo must
/// not silently serialize or misconfigure the run.
pub fn resolve_jobs(requested: usize) -> usize {
    resolve_jobs_with_env(requested, std::env::var("DEEPMC_JOBS").ok().as_deref())
}

/// [`resolve_jobs`] with the environment value injected, so the fallback
/// and warning paths are unit-testable without touching process env.
pub fn resolve_jobs_with_env(requested: usize, env: Option<&str>) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(v) = env {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => deepmc_obs::warning(
                "jobs.env_unparsable",
                &format!(
                    "DEEPMC_JOBS={v:?} is not a positive integer; \
                     falling back to available parallelism"
                ),
            ),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Render a panic payload as a human-readable message. Panics raised via
/// `panic!("...")` carry a `String` or `&'static str`; anything else gets
/// a stable placeholder so degraded reports stay deterministic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `f` over every item on up to `jobs` workers, returning the results
/// in item order regardless of which worker computed what.
///
/// The calling thread is one of the workers, so with `jobs <= 1` (`0`
/// acts as 1) or a single item no thread starts and the items run on the
/// caller, in order.
///
/// A panicking item re-raises out of this function (first in item order)
/// once all workers have drained; use [`run_indexed_caught`] to receive
/// panics as per-item `Err` values instead.
pub fn run_indexed<T, R>(jobs: usize, items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    run_indexed_caught(jobs, items, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("analysis worker panicked: {msg}")))
        .collect()
}

/// [`run_indexed`] with per-item panic isolation: each job body runs
/// under `catch_unwind`, so a panicking item yields `Err(message)` in its
/// result slot while every other item completes. The result vector is in
/// item order and independent of the worker count — the degraded-output
/// determinism the checker's report contract relies on.
pub fn run_indexed_caught<T, R>(
    jobs: usize,
    items: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
{
    let n = items.len();
    // Progress (when a --progress sink is installed): each batch adds
    // its items to the declared total, each completed item ticks.
    // Strictly stderr presentation; results are untouched.
    deepmc_obs::progress::add_total(n as u64);
    let queue = Mutex::new(items.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            // Take the item in a statement of its own: the queue guard
            // must drop before the job runs, or the workers run in turn.
            let next = queue.lock().next();
            let Some((i, item)) = next else { return done };
            deepmc_obs::counter("pool.items", 1);
            let r = {
                let _s = deepmc_obs::span_lazy("pool.job", || vec![("index", i.to_string())]);
                catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(panic_message)
            };
            deepmc_obs::progress::tick(1);
            done.push((i, r));
        }
    };
    let drain = &drain;
    // If the caller is recording, helpers attach to the same recorder
    // under worker ids 1, 2, … (the caller thread is worker 0), so spans
    // carry the worker that ran them.
    let recorder = deepmc_obs::Recorder::current();
    let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..jobs.min(n))
            .map(|w| {
                let recorder = recorder.clone();
                s.spawn(move || {
                    let _attach = recorder.as_ref().map(|r| r.attach(w as u32));
                    drain()
                })
            })
            .collect();
        let own = drain();
        let helped = helpers
            .into_iter()
            .flat_map(|h| h.join().expect("pool helper panicked outside a job body"));
        for (i, r) in own.into_iter().chain(helped) {
            out[i] = Some(r);
        }
    });
    out.into_iter().map(|r| r.expect("every work item produces exactly one result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Every worker count the pool must treat alike (0 acts as 1; 200
    /// exceeds every item count) crossed with the item counts at its
    /// edges: none, one, two, and many more than the workers.
    const JOBS: [usize; 6] = [0, 1, 2, 3, 8, 200];
    const ITEMS: [usize; 4] = [0, 1, 2, 97];

    #[test]
    fn results_are_in_item_order_for_any_worker_count() {
        for n in ITEMS {
            let items: Vec<u64> = (0..n as u64).collect();
            let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
            for jobs in JOBS {
                let got = run_indexed(jobs, items.clone(), |_, x| x * x);
                assert_eq!(got, expect, "jobs={jobs} items={n}");
            }
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        for (jobs, n) in JOBS.iter().flat_map(|&j| ITEMS.map(|n| (j, n))).chain([(4, 1000)]) {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let got = run_indexed(jobs, (0..n).collect::<Vec<usize>>(), |i, item| {
                hits[item].fetch_add(1, Ordering::Relaxed);
                assert_eq!(i, item);
                i
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "jobs={jobs} items={n}");
            assert_eq!(got.len(), n);
        }
    }

    #[test]
    fn index_matches_item_position() {
        let got = run_indexed(3, vec!["a", "b", "c", "d"], |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn imbalanced_items_complete_in_order() {
        // One item is vastly heavier; the other workers keep taking the
        // rest from the shared queue meanwhile.
        let got = run_indexed(4, (0..32u64).collect::<Vec<_>>(), |_, x| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(got, (1..=32u64).collect::<Vec<_>>());
    }

    #[test]
    fn two_jobs_of_one_batch_run_at_the_same_time() {
        // Each job waits, with a deadline, until the other has started.
        // A pool that runs its jobs one after another (say, one holding
        // the queue lock through a job) times both waits out.
        let started = (std::sync::Mutex::new(0usize), std::sync::Condvar::new());
        let met = run_indexed(2, vec![(); 2], |_, ()| {
            let (count, cv) = &started;
            let mut count = count.lock().expect("no job panics while holding the count");
            *count += 1;
            cv.notify_all();
            let waited = cv
                .wait_timeout_while(count, Duration::from_secs(5), |c| *c < 2)
                .expect("no job panics while holding the count");
            !waited.1.timed_out()
        });
        assert_eq!(met, vec![true, true], "both jobs of the batch were running at once");
    }

    /// Suppress the default panic hook's stderr noise for panics whose
    /// payload is marked as intentional test chaos.
    fn quiet_chaos_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let chaotic = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("chaos:"))
                    .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.contains("chaos:")))
                    .unwrap_or(false);
                if !chaotic {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn caught_panics_become_err_slots_in_item_order() {
        quiet_chaos_panics();
        for n in ITEMS.into_iter().chain([16]) {
            for jobs in JOBS {
                let got = run_indexed_caught(jobs, (0..n as u64).collect::<Vec<_>>(), |_, x| {
                    if x % 5 == 0 {
                        panic!("chaos: item {x}");
                    }
                    x * 2
                });
                assert_eq!(got.len(), n, "jobs={jobs} items={n}");
                for (i, r) in got.iter().enumerate() {
                    if i % 5 == 0 {
                        assert_eq!(r.as_ref().unwrap_err(), &format!("chaos: item {i}"));
                    } else {
                        assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2));
                    }
                }
            }
        }
    }

    #[test]
    fn caught_results_are_identical_across_worker_counts() {
        quiet_chaos_panics();
        let run = |jobs| {
            run_indexed_caught(jobs, (0..64u32).collect::<Vec<_>>(), |_, x| {
                if x % 7 == 3 {
                    panic!("chaos: {x}");
                }
                x + 1
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn caught_static_str_payload_is_preserved() {
        quiet_chaos_panics();
        let got = run_indexed_caught(2, vec![0, 1], |_, x| {
            if x == 1 {
                panic!("chaos: static payload");
            }
            x
        });
        assert_eq!(got[0], Ok(0));
        assert_eq!(got[1], Err("chaos: static payload".to_string()));
    }

    #[test]
    fn run_indexed_reraises_job_panics() {
        quiet_chaos_panics();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(2, vec![0u8, 1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("chaos: boom");
                }
                x
            })
        }));
        let msg = panic_message(caught.unwrap_err());
        assert!(msg.contains("chaos: boom"), "re-raised message carries payload: {msg}");
    }

    #[test]
    fn resolve_jobs_prefers_explicit() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
    }

    #[test]
    fn resolve_jobs_treats_zero_as_all_cores() {
        // Positive requests are taken literally.
        assert_eq!(resolve_jobs_with_env(5, None), 5);
        // `--jobs 0` falls back through DEEPMC_JOBS, then available
        // parallelism.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_jobs_with_env(0, None), cores);
    }

    #[test]
    fn resolve_jobs_env_precedence() {
        // Explicit beats env; a valid env beats the machine default.
        assert_eq!(resolve_jobs_with_env(2, Some("7")), 2);
        assert_eq!(resolve_jobs_with_env(0, Some("7")), 7);
        assert_eq!(resolve_jobs_with_env(0, Some(" 5 ")), 5, "whitespace tolerated");
    }

    #[test]
    fn resolve_jobs_unparsable_env_warns_and_falls_back() {
        let fallback = resolve_jobs_with_env(0, None);
        for bad in ["banana", "", "-2", "0", "4.5"] {
            let rec = deepmc_obs::Recorder::new();
            let got = {
                let _a = rec.attach(0);
                resolve_jobs_with_env(0, Some(bad))
            };
            assert_eq!(got, fallback, "DEEPMC_JOBS={bad:?} falls back, not silently serializes");
            let data = rec.finish();
            let warn = data
                .events
                .iter()
                .find(|e| e.cat == "warn" && e.name == "jobs.env_unparsable")
                .unwrap_or_else(|| panic!("DEEPMC_JOBS={bad:?} must record a warning"));
            assert!(warn.args[0].1.contains("DEEPMC_JOBS"), "warning names the variable");
        }
    }

    #[test]
    fn pool_records_jobs_when_attached() {
        for n in ITEMS {
            for jobs in JOBS {
                let rec = deepmc_obs::Recorder::new();
                {
                    let _a = rec.attach(0);
                    let got = run_indexed(jobs, (0..n as u64).collect::<Vec<_>>(), |_, x| x);
                    assert_eq!(got.len(), n);
                }
                let data = rec.finish();
                let tag = format!("jobs={jobs} items={n}");
                assert_eq!(data.counter("pool.items"), n as u64, "{tag}: items counted once");
                assert_eq!(data.spans_of("pool.job").count(), n, "{tag}: one span per job");
                // The caller is worker 0 and helpers are 1, 2, …: at most
                // one worker per item, and jobs 0 acts as 1.
                let lanes = jobs.clamp(1, n.max(1)) as u32;
                assert!(data.spans_of("pool.job").all(|e| e.worker < lanes), "{tag}");
            }
        }
    }

    #[test]
    fn pool_counts_inline_jobs_on_caller_thread() {
        let rec = deepmc_obs::Recorder::new();
        {
            let _a = rec.attach(0);
            run_indexed(1, vec![1, 2, 3], |_, x| x);
        }
        let data = rec.finish();
        assert_eq!(data.counter("pool.items"), 3);
        assert!(data.spans_of("pool.job").all(|e| e.worker == 0));
    }
}
