//! Structured observability for the DeepMC pipeline: spans, counters,
//! and event streams, with Chrome-trace and versioned-metrics export.
//!
//! The design constraints come straight from the determinism contract of
//! the checker (reports and cache directories must be byte-identical at
//! any worker count, instrumented or not):
//!
//! * **Zero-cost when disabled.** Instrumentation sites call free
//!   functions ([`span`], [`counter`], [`instant`]) that check one
//!   thread-local `Option` and return immediately when no recorder is
//!   attached. No global registry, no atomics on the fast path, no
//!   allocation.
//! * **Thread-safe with deterministic merge.** Each attached thread
//!   buffers its own events and counters; buffers flush into the shared
//!   [`Recorder`] when the [`AttachGuard`] drops, and [`Recorder::finish`]
//!   merges them sorted by worker id (stable, so same-worker buffers keep
//!   flush order) and sums counters into a sorted map. Event *structure*
//!   (names, counts, nesting, worker attribution) is deterministic for a
//!   deterministic workload; only timestamps vary run to run.
//! * **No output-channel interference.** The layer never writes to
//!   stdout. Human profile summaries go to stderr, machine output goes to
//!   caller-named files, so report byte-determinism is untouched.
//!
//! Usage shape (the CLI does exactly this):
//!
//! ```
//! let recorder = deepmc_obs::Recorder::new();
//! {
//!     let _attach = recorder.attach(0); // this thread is worker 0
//!     let _total = deepmc_obs::span("total");
//!     deepmc_obs::counter("widgets", 3);
//! }
//! let data = recorder.finish();
//! assert_eq!(data.counter("widgets"), 3);
//! ```
//!
//! Worker threads spawned mid-run pick up the recorder via
//! [`Recorder::current`] on the spawning thread and attach with their own
//! worker id — see `deepmc_analysis::pool::run_indexed`.

pub mod chrome;
pub mod flame;
pub mod hist;
pub mod ledger;
pub mod metrics;
pub mod progress;

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

pub use hist::Histogram;
pub use ledger::{LedgerRecord, StackSample, LEDGER_SCHEMA_VERSION};
pub use metrics::{CounterMetric, MetricsSnapshot, PhaseMetric, METRICS_SCHEMA_VERSION};

/// One recorded event: a completed span (`dur_us` is `Some`) or an
/// instant marker (`dur_us` is `None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event name (span/phase or marker name).
    pub name: &'static str,
    /// Category: `"phase"` for spans, `"mark"` for instants, `"warn"`
    /// for warnings.
    pub cat: &'static str,
    /// Worker id of the thread that recorded the event (0 = the
    /// driving/caller thread, which also runs pool jobs; pool helpers
    /// are 1-based).
    pub worker: u32,
    /// Span-nesting depth at the time the event was recorded (0 =
    /// top-level on its thread).
    pub depth: u32,
    /// Microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Span duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Free-form key/value annotations (root names, job indices, ...).
    pub args: Vec<(&'static str, String)>,
}

impl Event {
    /// True if this event is a (completed) span rather than an instant.
    pub fn is_span(&self) -> bool {
        self.dur_us.is_some()
    }
}

/// A per-thread buffer flushed into the recorder on detach.
struct Flushed {
    worker: u32,
    events: Vec<Event>,
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Histogram)>,
}

struct Inner {
    epoch: Instant,
    buffers: Mutex<Vec<Flushed>>,
}

/// A handle to one recording session. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

struct ThreadCtx {
    inner: Arc<Inner>,
    worker: u32,
    depth: u32,
    events: Vec<Event>,
    counters: Vec<(&'static str, u64)>,
    /// Direct latency samples ([`latency`]) for hot sites that are too
    /// frequent to record as events (pmem flush/fence).
    hists: Vec<(&'static str, Histogram)>,
}

/// The entry for `name` in a per-thread buffer, found by address: a
/// handful of names recur on hot paths, and the same name at two
/// addresses only splits its entry until [`Recorder::finish`] merges
/// by content.
fn entry<'a, T: Default>(slots: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T {
    let i = match slots.iter().position(|(k, _)| std::ptr::eq(*k, name)) {
        Some(i) => i,
        None => {
            slots.push((name, T::default()));
            slots.len() - 1
        }
    };
    &mut slots[i].1
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

impl Recorder {
    /// Start a new recording session; the epoch for all timestamps is
    /// now.
    pub fn new() -> Recorder {
        Recorder {
            inner: Arc::new(Inner { epoch: Instant::now(), buffers: Mutex::new(Vec::new()) }),
        }
    }

    /// Attach the current thread to this recorder as `worker`. All
    /// [`span`]/[`counter`]/[`instant`] calls on this thread are recorded
    /// until the returned guard drops, which flushes the thread's buffer.
    ///
    /// If the thread is already attached (to any recorder) this returns
    /// a no-op guard and leaves the existing attachment in place, so
    /// nested instrumented scopes compose instead of clobbering each
    /// other.
    pub fn attach(&self, worker: u32) -> AttachGuard {
        CTX.with(|c| {
            let mut slot = c.borrow_mut();
            if slot.is_some() {
                return AttachGuard { attached: false };
            }
            *slot = Some(ThreadCtx {
                inner: self.inner.clone(),
                worker,
                depth: 0,
                events: Vec::new(),
                counters: Vec::new(),
                hists: Vec::new(),
            });
            AttachGuard { attached: true }
        })
    }

    /// The recorder the current thread is attached to, if any. Spawning
    /// code captures this before creating worker threads so workers can
    /// attach under their own worker ids.
    pub fn current() -> Option<Recorder> {
        CTX.with(|c| c.borrow().as_ref().map(|ctx| Recorder { inner: ctx.inner.clone() }))
    }

    /// Merge all flushed buffers into one deterministic [`ObsData`]:
    /// buffers stable-sorted by worker id, events concatenated in flush
    /// order, counters summed. Call after every `AttachGuard` has
    /// dropped; events on still-attached threads are not included.
    pub fn finish(self) -> ObsData {
        let mut buffers = std::mem::take(&mut *self.inner.buffers.lock());
        buffers.sort_by_key(|b| b.worker);
        let mut events = Vec::new();
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for b in buffers {
            events.extend(b.events);
            for (k, v) in b.counters {
                *counters.entry(k).or_insert(0) += v;
            }
            for (k, h) in b.hists {
                hists.entry(k).or_default().merge(&h);
            }
        }
        ObsData { events, counters, hists }
    }
}

/// Guard returned by [`Recorder::attach`]; flushes the thread buffer on
/// drop.
pub struct AttachGuard {
    attached: bool,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if !self.attached {
            return;
        }
        if let Some(ctx) = CTX.with(|c| c.borrow_mut().take()) {
            debug_assert_eq!(ctx.depth, 0, "all spans must close before the attach guard drops");
            ctx.inner.buffers.lock().push(Flushed {
                worker: ctx.worker,
                events: ctx.events,
                counters: ctx.counters,
                hists: ctx.hists,
            });
        }
    }
}

/// True if the current thread is attached to a recorder. Use to skip
/// argument formatting that would otherwise allocate on disabled runs.
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

fn us_since(epoch: Instant) -> u64 {
    Instant::now().duration_since(epoch).as_micros() as u64
}

/// RAII span: records start on creation, duration on drop. A no-op when
/// the thread is not attached.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    idx: Option<usize>,
}

impl SpanGuard {
    /// A span guard that records nothing.
    pub fn disabled() -> SpanGuard {
        SpanGuard { idx: None }
    }
}

/// Open a span named `name` on the current thread.
pub fn span(name: &'static str) -> SpanGuard {
    span_args(name, Vec::new())
}

/// Open a span with key/value annotations.
pub fn span_args(name: &'static str, args: Vec<(&'static str, String)>) -> SpanGuard {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else {
            return SpanGuard { idx: None };
        };
        let start_us = us_since(ctx.inner.epoch);
        let idx = ctx.events.len();
        ctx.events.push(Event {
            name,
            cat: "phase",
            worker: ctx.worker,
            depth: ctx.depth,
            start_us,
            dur_us: Some(0),
            args,
        });
        ctx.depth += 1;
        SpanGuard { idx: Some(idx) }
    })
}

/// Open a span whose annotations are computed only when recording is
/// active — use when building the args would allocate.
pub fn span_lazy(
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> SpanGuard {
    if active() {
        span_args(name, args())
    } else {
        SpanGuard::disabled()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        CTX.with(|c| {
            let mut slot = c.borrow_mut();
            let Some(ctx) = slot.as_mut() else { return };
            ctx.depth = ctx.depth.saturating_sub(1);
            let end = us_since(ctx.inner.epoch);
            let ev = &mut ctx.events[idx];
            ev.dur_us = Some(end.saturating_sub(ev.start_us));
        });
    }
}

/// Record an instant event (a point on the timeline).
pub fn instant(name: &'static str) {
    instant_args(name, Vec::new());
}

/// Record an instant event with annotations.
pub fn instant_args(name: &'static str, args: Vec<(&'static str, String)>) {
    mark(name, "mark", args);
}

fn mark(name: &'static str, cat: &'static str, args: Vec<(&'static str, String)>) {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else { return };
        let start_us = us_since(ctx.inner.epoch);
        let ev =
            Event { name, cat, worker: ctx.worker, depth: ctx.depth, start_us, dur_us: None, args };
        ctx.events.push(ev);
    });
}

/// Record a latency sample (microseconds) into the named histogram on
/// the current thread's buffer, without creating an event. Use for hot
/// sites (pmem flush/fence) where one event per sample would swamp the
/// buffer; span durations are histogrammed automatically at merge time.
pub fn latency(name: &'static str, dur_us: u64) {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else { return };
        entry(&mut ctx.hists, name).record(dur_us);
    });
}

/// Add `delta` to the named counter on the current thread's buffer.
pub fn counter(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else { return };
        *entry(&mut ctx.counters, name) += delta;
    });
}

/// Warnings/notes already printed this process, keyed by FNV-1a of
/// `name \0 message`. Diagnostics that fire per work item (the
/// unparsable `DEEPMC_JOBS` warning fires once per jobs resolution,
/// i.e. potentially once per sweep step) reach stderr exactly once;
/// the obs event stream still records every occurrence.
static EMITTED: Mutex<Option<HashSet<u64>>> = Mutex::new(None);

fn first_emission(name: &str, message: &str) -> bool {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes().iter().chain([0u8].iter()).chain(message.as_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    EMITTED.lock().get_or_insert_with(HashSet::new).insert(h)
}

/// Surface a warning: printed to stderr (warnings must reach the user
/// even with no recorder attached) the *first* time a given
/// name/message pair occurs in this process, and recorded as a `"warn"`
/// event on every occurrence when a recorder is attached.
pub fn warning(name: &'static str, message: &str) {
    if first_emission(name, message) {
        eprintln!("deepmc: warning: {message}");
    }
    mark_owned_warn(name, message.to_string());
}

/// Surface an informational diagnostic (cache stats, resume notices):
/// printed to stderr once per unique name/message pair, recorded as a
/// `"mark"` event on every occurrence. Callers keep their own gating
/// (`--verbose`/`--profile`) — this only dedups the stderr side.
pub fn note(name: &'static str, message: &str) {
    if first_emission(name, message) {
        eprintln!("deepmc: {message}");
    }
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else { return };
        let start_us = us_since(ctx.inner.epoch);
        ctx.events.push(Event {
            name,
            cat: "mark",
            worker: ctx.worker,
            depth: ctx.depth,
            start_us,
            dur_us: None,
            args: vec![("message", message.to_string())],
        });
    });
}

fn mark_owned_warn(name: &'static str, message: String) {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else { return };
        let start_us = us_since(ctx.inner.epoch);
        ctx.events.push(Event {
            name,
            cat: "warn",
            worker: ctx.worker,
            depth: ctx.depth,
            start_us,
            dur_us: None,
            args: vec![("message", message)],
        });
    });
}

/// Aggregate per-phase totals over span events with a given name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_us: u64,
}

/// The merged output of a recording session.
#[derive(Debug, Clone, Default)]
pub struct ObsData {
    /// All events, grouped by worker id (ascending), flush order within
    /// a worker.
    pub events: Vec<Event>,
    /// Summed counters, sorted by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Direct latency histograms ([`latency`] sites), merged across
    /// workers, sorted by name.
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl ObsData {
    /// Value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All completed spans named `name`.
    pub fn spans_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.is_span() && e.name == name)
    }

    /// Per-phase (span-name) totals, sorted by name.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        let mut map: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for e in &self.events {
            if let Some(dur) = e.dur_us {
                let slot = map.entry(e.name).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += dur;
            }
        }
        map.into_iter()
            .map(|(name, (count, total_us))| PhaseTotal { name, count, total_us })
            .collect()
    }

    /// Latency histograms for every span family and direct-latency
    /// site, merged deterministically: span durations are folded into
    /// the histogram of their name (shard order does not matter — see
    /// the merge-law proptest), then [`latency`]-recorded histograms
    /// are merged in. A name appears through exactly one of the two
    /// paths (spans record events, `latency` records samples), so
    /// nothing is double-counted.
    pub fn histograms(&self) -> BTreeMap<&'static str, Histogram> {
        let mut out: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for e in &self.events {
            if let Some(dur) = e.dur_us {
                out.entry(e.name).or_default().record(dur);
            }
        }
        for (name, h) in &self.hists {
            out.entry(name).or_default().merge(h);
        }
        out
    }

    /// Number of distinct workers that recorded at least one event.
    pub fn workers(&self) -> u32 {
        let mut ids: Vec<u32> = self.events.iter().map(|e| e.worker).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len() as u32
    }

    /// Wall time: duration of the root `total` span if present, else the
    /// latest event end.
    pub fn wall_us(&self) -> u64 {
        if let Some(t) = self.spans_of("total").next() {
            return t.dur_us.unwrap_or(0);
        }
        self.events.iter().map(|e| e.start_us + e.dur_us.unwrap_or(0)).max().unwrap_or(0)
    }

    /// Render the Chrome-trace-format JSON for this data.
    pub fn chrome_trace(&self) -> String {
        chrome::chrome_trace(self)
    }

    /// Build the versioned metrics snapshot for this data.
    pub fn metrics_snapshot(&self, tool: &str) -> MetricsSnapshot {
        MetricsSnapshot::from_data(tool, self)
    }

    /// Human-readable per-phase breakdown + counters, for `--profile`.
    /// Written to stderr by callers, never stdout.
    pub fn profile_summary(&self, tool: &str) -> String {
        use std::fmt::Write as _;
        let wall = self.wall_us();
        let workers = self.workers().max(1);
        let mut out = String::new();
        writeln!(out, "== {tool} profile ==").unwrap();
        writeln!(out, "wall time: {:.3} ms, workers: {}", wall as f64 / 1000.0, workers).unwrap();
        writeln!(out, "{:<14} {:>7} {:>12} {:>10}", "phase", "count", "total ms", "% of wall")
            .unwrap();
        let mut phase_sum = 0u64;
        for p in self.phase_totals() {
            if p.name == "total" {
                continue;
            }
            // Only top-level phases partition the wall clock; nested and
            // per-worker spans are reported but excluded from the sum.
            let top_level = self.spans_of(p.name).all(|e| e.depth <= 1 && e.worker == 0);
            if top_level {
                phase_sum += p.total_us;
            }
            let pct = if wall > 0 { 100.0 * p.total_us as f64 / wall as f64 } else { 0.0 };
            writeln!(
                out,
                "{:<14} {:>7} {:>12.3} {:>9.1}%{}",
                p.name,
                p.count,
                p.total_us as f64 / 1000.0,
                pct,
                if top_level { "" } else { "  (per-worker)" }
            )
            .unwrap();
        }
        if wall > 0 {
            writeln!(
                out,
                "top-level phase sum: {:.3} ms ({:.1}% of wall)",
                phase_sum as f64 / 1000.0,
                100.0 * phase_sum as f64 / wall as f64
            )
            .unwrap();
        }
        // Per-worker job attribution from pool spans.
        let mut per_worker: BTreeMap<u32, u64> = BTreeMap::new();
        for e in self.spans_of("pool.job") {
            *per_worker.entry(e.worker).or_insert(0) += 1;
        }
        if !per_worker.is_empty() {
            let jobs: u64 = per_worker.values().sum();
            write!(out, "pool: {jobs} job(s); per-worker jobs:").unwrap();
            for (w, n) in &per_worker {
                write!(out, " {w}:{n}").unwrap();
            }
            writeln!(out).unwrap();
        }
        if !self.counters.is_empty() {
            writeln!(out, "counters:").unwrap();
            for (k, v) in &self.counters {
                writeln!(out, "  {k:<28} {v}").unwrap();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_name_at_two_addresses_merges_by_content() {
        let rec = Recorder::new();
        {
            let _g = rec.attach(0);
            let copy: &'static str = Box::leak(String::from("x.items").into_boxed_str());
            counter("x.items", 2);
            counter(copy, 3);
            latency("x.items", 1);
            latency(copy, 4);
        }
        let data = rec.finish();
        assert_eq!(data.counters.len(), 1);
        assert_eq!(data.counter("x.items"), 5);
        assert_eq!(data.hists["x.items"].count(), 2);
    }

    #[test]
    fn disabled_calls_are_noops() {
        assert!(!active());
        let _s = span("nothing");
        counter("nothing", 5);
        instant("nothing");
        // No recorder, nothing to observe; the test is that none of the
        // above panicked or leaked thread state.
        assert!(!active());
    }

    #[test]
    fn spans_nest_and_flush() {
        let rec = Recorder::new();
        {
            let _a = rec.attach(0);
            assert!(active());
            let _outer = span("outer");
            {
                let _inner = span("inner");
                counter("ticks", 2);
            }
            counter("ticks", 1);
        }
        assert!(!active());
        let data = rec.finish();
        assert_eq!(data.counter("ticks"), 3);
        let outer = data.spans_of("outer").next().expect("outer span");
        let inner = data.spans_of("inner").next().expect("inner span");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_us >= outer.start_us);
        assert!(
            inner.start_us + inner.dur_us.unwrap() <= outer.start_us + outer.dur_us.unwrap(),
            "inner span contained in outer"
        );
    }

    #[test]
    fn merge_is_sorted_by_worker_and_sums_counters() {
        let rec = Recorder::new();
        let mut handles = Vec::new();
        for w in (1..=4u32).rev() {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                let _a = rec.attach(w);
                let _s = span("work");
                counter("jobs", u64::from(w));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let data = rec.finish();
        assert_eq!(data.counter("jobs"), 1 + 2 + 3 + 4);
        let workers: Vec<u32> = data.events.iter().map(|e| e.worker).collect();
        let mut sorted = workers.clone();
        sorted.sort_unstable();
        assert_eq!(workers, sorted, "events grouped by ascending worker id");
        assert_eq!(data.workers(), 4);
    }

    #[test]
    fn nested_attach_is_a_noop_and_preserves_outer() {
        let rec = Recorder::new();
        let other = Recorder::new();
        {
            let _a = rec.attach(0);
            {
                let _b = other.attach(7); // no-op: thread already attached
                counter("c", 1);
            }
            // Outer attachment must still be live.
            assert!(active());
            counter("c", 1);
        }
        assert_eq!(rec.finish().counter("c"), 2);
        assert_eq!(other.finish().counter("c"), 0);
    }

    #[test]
    fn current_propagates_to_spawned_threads() {
        let rec = Recorder::new();
        let _a = rec.attach(0);
        let cur = Recorder::current().expect("attached");
        std::thread::spawn(move || {
            let _a = cur.attach(1);
            counter("spawned", 1);
        })
        .join()
        .unwrap();
        drop(_a);
        assert_eq!(rec.finish().counter("spawned"), 1);
    }

    #[test]
    fn warning_records_event_when_attached() {
        let rec = Recorder::new();
        {
            let _a = rec.attach(0);
            warning("test.warn", "something odd");
        }
        let data = rec.finish();
        let w = data.events.iter().find(|e| e.cat == "warn").expect("warn event");
        assert_eq!(w.name, "test.warn");
        assert_eq!(w.args[0].1, "something odd");
    }
}
