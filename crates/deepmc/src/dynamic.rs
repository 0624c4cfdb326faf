//! The dynamic checker (paper §4.4, Fig. 8 steps ⑤–⑥).
//!
//! For strand persistency, model violations are *data dependences between
//! concurrent strands* — invisible to purely static analysis when addresses
//! are input-dependent. DeepMC instruments persistent accesses inside
//! annotated regions and checks them at runtime with happens-before WAW/RAW
//! detection over shadow memory (the ThreadSanitizer customization of the
//! paper, here [`nvm_runtime::RaceDetector`]).
//!
//! [`DynamicChecker`] implements the interpreter's [`Hooks`]: each
//! instrumented access is forwarded to the detector, and any fresh
//! dependence report is attributed to the access's source location,
//! yielding [`Warning`]s in the same report format as the static checker.

use crate::report::{Report, Warning};
use deepmc_interp::{Hooks, InstrumentScope, InterpConfig, InterpError, Outcome, Session};
use deepmc_models::{BugClass, PersistencyModel};
use deepmc_obs as obs;
use deepmc_pir::{Module, SourceLoc};
use nvm_runtime::{PmemHeap, PmemPool, PoolConfig, RaceDetector, RaceKind, StrandId, TxManager};
use parking_lot::Mutex;

/// Runtime hook implementation feeding the happens-before detector.
pub struct DynamicChecker {
    detector: RaceDetector,
    model: PersistencyModel,
    warnings: Mutex<Vec<Warning>>,
}

impl DynamicChecker {
    pub fn new(model: PersistencyModel) -> DynamicChecker {
        DynamicChecker { detector: RaceDetector::new(), model, warnings: Mutex::new(Vec::new()) }
    }

    /// Warnings accumulated so far.
    pub fn report(&self) -> Report {
        Report::from_raw(self.warnings.lock().clone())
    }

    /// Number of shadow cells allocated (scales with persistent data
    /// touched inside annotated regions — the paper's scalability
    /// argument, §5.2).
    pub fn shadow_cells(&self) -> usize {
        self.detector.shadow_cells()
    }
}

impl Hooks for DynamicChecker {
    fn strand_begin(&self, parent: Option<StrandId>) -> Option<StrandId> {
        let strand = self.detector.strand_begin(parent);
        obs::counter("dynamic.strands", 1);
        if obs::active() {
            obs::instant_args("dynamic.strand_begin", vec![("strand", strand.0.to_string())]);
        }
        Some(strand)
    }

    fn strand_end(&self, strand: StrandId) {
        if obs::active() {
            obs::instant_args("dynamic.strand_end", vec![("strand", strand.0.to_string())]);
        }
        self.detector.strand_end(strand);
    }

    fn global_barrier(&self) {
        obs::counter("dynamic.barriers", 1);
        obs::instant("dynamic.barrier");
        self.detector.global_barrier();
    }

    fn access(
        &self,
        strand: Option<StrandId>,
        addr: u64,
        len: u64,
        is_write: bool,
        file: &str,
        func: &str,
        loc: SourceLoc,
    ) {
        let Some(strand) = strand else { return };
        obs::counter("dynamic.accesses", 1);
        if is_write {
            obs::counter("dynamic.writes", 1);
        }
        let cells_before = if obs::active() { self.detector.shadow_cells() } else { 0 };
        // Timed like pmem.flush/pmem.fence so "dynamic.hb_edge" shows up
        // as a latency family in the v2 metrics snapshot (p50/p90/p99 of
        // the per-access shadow-memory check), not just a counter.
        let t0 = obs::active().then(std::time::Instant::now);
        let fresh = self.detector.on_access(strand, addr, len, is_write);
        if let Some(t0) = t0 {
            obs::latency("dynamic.hb_edge", t0.elapsed().as_micros() as u64);
        }
        if obs::active() {
            let grown = self.detector.shadow_cells().saturating_sub(cells_before);
            obs::counter("dynamic.shadow_cells_allocated", grown as u64);
        }
        if fresh.is_empty() {
            return;
        }
        obs::counter("dynamic.hb_edges", fresh.len() as u64);
        if obs::active() {
            for r in &fresh {
                obs::instant_args(
                    "dynamic.hb_edge",
                    vec![
                        ("addr", format!("{:#x}", r.addr)),
                        (
                            "kind",
                            match r.kind {
                                RaceKind::WriteAfterWrite => "WAW".to_string(),
                                RaceKind::ReadAfterWrite => "RAW".to_string(),
                            },
                        ),
                        ("strands", format!("{}-{}", r.first.0, r.second.0)),
                    ],
                );
            }
        }
        let mut warnings = self.warnings.lock();
        for r in fresh {
            let kind = match r.kind {
                RaceKind::WriteAfterWrite => "WAW",
                RaceKind::ReadAfterWrite => "RAW",
            };
            warnings.push(Warning {
                file: file.to_string(),
                line: loc.line,
                class: BugClass::InterStrandDependency,
                function: func.to_string(),
                // Dynamic findings come from an execution, not a static
                // analysis root.
                root: String::new(),
                message: format!(
                    "{kind} dependence on persistent address {:#x} between concurrent \
                     strands {} and {}; dependent persists must share a strand or be \
                     ordered by a persist barrier",
                    r.addr, r.first.0, r.second.0
                ),
                model: self.model,
                dynamic: true,
                fix: None,
            });
        }
    }
}

/// One-call driver: execute `entry` in `modules` on a fresh simulated pool
/// with DeepMC's dynamic instrumentation (annotated regions only) and
/// return the dependence warnings.
pub fn check_dynamic(
    modules: &[Module],
    entry: &str,
    model: PersistencyModel,
) -> Result<Report, InterpError> {
    let pool = PmemPool::new(PoolConfig::default());
    let heap = PmemHeap::open(&pool);
    let log = heap.alloc(1 << 16);
    let txm = TxManager::new(&pool, log, 1 << 16);
    let checker = DynamicChecker::new(model);
    let session = Session {
        modules,
        pool: &pool,
        heap: &heap,
        txm: &txm,
        hooks: &checker,
        config: InterpConfig { scope: InstrumentScope::AnnotatedRegions, ..Default::default() },
    };
    let outcome = {
        let _s = obs::span("dynamic");
        session.run(entry, &[])?
    };
    debug_assert!(matches!(outcome, Outcome::Finished(_)));
    obs::counter("dynamic.shadow_cells", checker.shadow_cells() as u64);
    Ok(checker.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmc_pir::parse;

    fn check(src: &str) -> Report {
        let m = parse(src).unwrap();
        deepmc_pir::verify::verify_module(&m).unwrap();
        check_dynamic(std::slice::from_ref(&m), "main", PersistencyModel::Strand).unwrap()
    }

    #[test]
    fn dependent_strands_reported_at_runtime() {
        let r = check(
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  strand_begin
  loc 31
  store %x.a, 1
  flush %x.a
  fence
  strand_end
  strand_begin
  loc 40
  store %x.a, 2
  flush %x.a
  fence
  strand_end
  ret
}
"#,
        );
        assert_eq!(r.warnings.len(), 1, "{r}");
        let w = &r.warnings[0];
        assert_eq!(w.class, BugClass::InterStrandDependency);
        assert!(w.dynamic);
        assert_eq!(w.line, 40, "attributed to the second access");
        assert!(w.message.contains("WAW"));
    }

    #[test]
    fn raw_dependence_reported() {
        let r = check(
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  strand_begin
  store %x.a, 1
  strand_end
  strand_begin
  %v = load %x.a
  strand_end
  ret
}
"#,
        );
        assert_eq!(r.warnings.len(), 1, "{r}");
        assert!(r.warnings[0].message.contains("RAW"));
    }

    #[test]
    fn barrier_separated_strands_clean() {
        let r = check(
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  strand_begin
  store %x.a, 1
  flush %x.a
  strand_end
  fence
  strand_begin
  store %x.a, 2
  flush %x.a
  strand_end
  fence
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn disjoint_strands_clean() {
        let r = check(
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  strand_begin
  store %x.a, 1
  strand_end
  strand_begin
  store %x.b, 2
  strand_end
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn hb_edge_latency_appears_in_the_metrics_snapshot() {
        // Instrumented: every on_access check is timed into the
        // "dynamic.hb_edge" latency family, so the v2 metrics snapshot
        // carries its percentiles next to pmem.flush/pmem.fence — not
        // just the dynamic.accesses counter.
        let rec = obs::Recorder::new();
        {
            let _a = rec.attach(0);
            let r = check(
                r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  strand_begin
  store %x.a, 1
  strand_end
  strand_begin
  store %x.a, 2
  strand_end
  ret
}
"#,
            );
            assert_eq!(r.warnings.len(), 1, "{r}");
        }
        let m = rec.finish().metrics_snapshot("deepmc dynamic");
        let p = m
            .phases
            .iter()
            .find(|p| p.name == "dynamic.hb_edge")
            .expect("hb_edge latency family in the snapshot");
        assert_eq!(p.count, 2, "one timed sample per instrumented access");
        assert_eq!(m.counter("dynamic.accesses"), 2);
        assert_eq!(m.counter("dynamic.hb_edges"), 1);
    }

    #[test]
    fn accesses_outside_strands_not_tracked() {
        let r = check(
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  store %x.a, 2
  ret
}
"#,
        );
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn dynamic_addresses_caught_where_static_cannot() {
        // The two strands write the same array element through different
        // index expressions — statically unknown, dynamically equal.
        let r = check(
            r#"
module m
struct s { arr: [i64; 8] }
fn pick(%n: i64) -> i64 {
entry:
  %m = mul %n, 3
  %i = rem %m, 8
  ret %i
}
fn main() {
entry:
  %x = palloc s
  %i1 = call pick(8)
  %i2 = call pick(16)
  strand_begin
  store %x.arr[%i1], 1
  strand_end
  strand_begin
  store %x.arr[%i2], 2
  strand_end
  ret
}
"#,
        );
        // pick(8) = 24 % 8 = 0, pick(16) = 48 % 8 = 0: same element.
        assert_eq!(r.warnings.len(), 1, "{r}");
    }
}
