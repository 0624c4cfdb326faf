//! The instrumentation seam for applications (paper Fig. 8 step ⑤ at the
//! application level).
//!
//! Applications call [`Tracker::access`] for every persistent-memory
//! operation inside their annotated update regions, exactly where the IR
//! instrumenter would have inserted runtime-library calls. The baseline
//! build uses [`NoopTracker`]; the DeepMC build uses [`DeepMcTracker`],
//! which drives shadow memory and the happens-before detector. Comparing
//! the two is the Figure-12 measurement.

use nvm_runtime::{RaceDetector, RaceReport, StrandId};

/// Runtime-library interface for instrumented applications.
pub trait Tracker: Sync {
    /// A client's update region begins (a strand in the paper's terms).
    fn region_begin(&self) -> Option<StrandId> {
        None
    }

    /// The region ends.
    fn region_end(&self, _strand: StrandId) {}

    /// A persist barrier executed outside any region.
    fn barrier(&self) {}

    /// A persistent access within a region.
    fn access(&self, _strand: Option<StrandId>, _addr: u64, _len: u64, _is_write: bool) {}

    /// Lock synchronization mirror: the application acquired `lock`.
    fn lock_acquire(&self, _strand: Option<StrandId>, _lock: u64) {}

    /// The application released `lock`.
    fn lock_release(&self, _strand: Option<StrandId>, _lock: u64) {}

    /// True if this tracker records anything (lets hot paths skip
    /// argument setup).
    fn enabled(&self) -> bool {
        false
    }
}

/// The baseline: no instrumentation.
pub struct NoopTracker;

impl Tracker for NoopTracker {}

/// DeepMC's dynamic analysis: shadow segments + happens-before WAW/RAW
/// detection, restricted to persistent addresses inside update regions.
pub struct DeepMcTracker {
    detector: RaceDetector,
}

impl Default for DeepMcTracker {
    fn default() -> Self {
        DeepMcTracker::new()
    }
}

impl DeepMcTracker {
    pub fn new() -> DeepMcTracker {
        DeepMcTracker { detector: RaceDetector::new() }
    }

    /// Dependence reports collected so far.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.detector.reports()
    }

    /// Shadow cells allocated (scales with persistent data touched).
    pub fn shadow_cells(&self) -> usize {
        self.detector.shadow_cells()
    }
}

impl Tracker for DeepMcTracker {
    fn region_begin(&self) -> Option<StrandId> {
        Some(self.detector.strand_begin(None))
    }

    fn region_end(&self, strand: StrandId) {
        self.detector.strand_end(strand);
    }

    fn barrier(&self) {
        self.detector.global_barrier();
    }

    fn access(&self, strand: Option<StrandId>, addr: u64, len: u64, is_write: bool) {
        if let Some(strand) = strand {
            let _ = self.detector.on_access(strand, addr, len, is_write);
        }
    }

    fn lock_acquire(&self, strand: Option<StrandId>, lock: u64) {
        if let Some(strand) = strand {
            self.detector.lock_acquire(strand, lock);
        }
    }

    fn lock_release(&self, strand: Option<StrandId>, lock: u64) {
        if let Some(strand) = strand {
            self.detector.lock_release(strand, lock);
        }
    }

    fn enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracker_is_disabled() {
        let t = NoopTracker;
        assert!(!t.enabled());
        assert!(t.region_begin().is_none());
    }

    #[test]
    fn deepmc_tracker_tracks_and_detects() {
        let t = DeepMcTracker::new();
        assert!(t.enabled());
        let s1 = t.region_begin().unwrap();
        let s2 = t.region_begin().unwrap();
        t.access(Some(s1), 4096, 8, true);
        t.access(Some(s2), 4096, 8, true);
        assert_eq!(t.reports().len(), 1, "concurrent WAW detected");
        assert!(t.shadow_cells() > 0);
    }

    #[test]
    fn barrier_orders_regions() {
        let t = DeepMcTracker::new();
        let s1 = t.region_begin().unwrap();
        t.access(Some(s1), 0, 8, true);
        t.region_end(s1);
        t.barrier();
        let s2 = t.region_begin().unwrap();
        t.access(Some(s2), 0, 8, true);
        assert!(t.reports().is_empty());
    }
}
