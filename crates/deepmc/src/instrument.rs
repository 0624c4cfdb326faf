//! The program instrumenter (paper §4.4, Fig. 8 step ⑤).
//!
//! "Unlike existing dynamic analysis tools that annotate all memory
//! accesses in a program, DeepMC annotates only the essential memory
//! accesses for persistency": (1) DSA screens out objects that never live
//! in NVM, and (2) only accesses inside programmer-annotated strand/epoch
//! regions are tracked.
//!
//! This module computes the *instrumentation plan*: the exact set of
//! store/load sites whose execution must invoke the runtime library. The
//! interpreter applies the equivalent selection at runtime through
//! [`deepmc_interp::InstrumentScope`]; the plan makes the selection a
//! first-class, testable artifact and feeds the instrumentation-cost
//! ablation bench (how many sites each strategy instruments).

use deepmc_analysis::dsa::PersistKind;
use deepmc_analysis::{DsaResult, FuncRef, Program};
use deepmc_pir::{Inst, Terminator};
use std::collections::{HashMap, HashSet};

/// Which accesses the instrumenter selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanScope {
    /// Persistent accesses inside annotated strand regions (DeepMC).
    AnnotatedRegions,
    /// Every persistent access (what a non-selective NVM checker pays).
    AllPersistent,
    /// Every memory access (what a stock ThreadSanitizer pays).
    Everything,
}

/// One instrumented site: function, block index, instruction index.
pub type Site = (FuncRef, u32, u32);

/// The computed plan.
#[derive(Debug, Clone)]
pub struct InstrumentationPlan {
    pub scope: PlanScope,
    pub sites: HashSet<Site>,
    /// Total store/load instructions inspected (the denominator for the
    /// selectivity ratio).
    pub total_mem_ops: usize,
}

impl InstrumentationPlan {
    /// Fraction of memory operations instrumented.
    pub fn selectivity(&self) -> f64 {
        if self.total_mem_ops == 0 {
            0.0
        } else {
            self.sites.len() as f64 / self.total_mem_ops as f64
        }
    }

    /// Build the plan for `program` under `scope`.
    pub fn build(program: &Program, dsa: &DsaResult, scope: PlanScope) -> InstrumentationPlan {
        let mut sites = HashSet::new();
        let mut total = 0usize;
        for fr in program.defined_funcs() {
            let f = program.func(fr);
            let g = dsa.graph(fr);
            let in_region = strand_region_blocks(f);
            for bi in 0..f.blocks.len() {
                // Track the strand depth as it evolves *within* the block:
                // entry depth comes from the fixpoint, markers adjust it.
                let mut depth = in_region.get(&(bi as u32)).copied().unwrap_or(0);
                for (ii, si) in f.block_insts(bi).iter().enumerate() {
                    match &si.inst {
                        Inst::StrandBegin => depth += 1,
                        Inst::StrandEnd => depth = depth.saturating_sub(1),
                        Inst::Store { place, .. } | Inst::Load { place, .. } => {
                            total += 1;
                            let persistent = matches!(
                                g.local_persist(place.base),
                                PersistKind::Persistent | PersistKind::Unknown
                            );
                            let selected = match scope {
                                PlanScope::Everything => true,
                                PlanScope::AllPersistent => persistent,
                                PlanScope::AnnotatedRegions => persistent && depth > 0,
                            };
                            if selected {
                                sites.insert((fr, bi as u32, ii as u32));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        InstrumentationPlan { scope, sites, total_mem_ops: total }
    }
}

/// Strand-region depth at each block's *entry*, by fixpoint over the CFG
/// (the verifier guarantees consistent depths across joins).
fn strand_region_blocks(f: &deepmc_pir::Function) -> HashMap<u32, u32> {
    let mut depth_at: HashMap<u32, u32> = HashMap::new();
    let mut work = vec![(0u32, 0u32)];
    while let Some((bi, depth)) = work.pop() {
        if let Some(&d) = depth_at.get(&bi) {
            if d >= depth {
                continue;
            }
        }
        depth_at.insert(bi, depth);
        let b = &f.blocks[bi as usize];
        let mut d = depth;
        for si in f.insts_of(b) {
            match si.inst {
                Inst::StrandBegin => d += 1,
                Inst::StrandEnd => d = d.saturating_sub(1),
                _ => {}
            }
        }
        match &b.term.inst {
            Terminator::Ret { .. } => {}
            t => {
                for s in t.successors() {
                    work.push((s.0, d));
                }
            }
        }
    }
    depth_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmc_analysis::CallGraph;
    use deepmc_pir::parse;

    fn plan(src: &str, scope: PlanScope) -> InstrumentationPlan {
        let p = Program::single(parse(src).unwrap());
        let cg = CallGraph::build(&p);
        let dsa = DsaResult::analyze(&p, &cg);
        InstrumentationPlan::build(&p, &dsa, scope)
    }

    const SRC: &str = r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  %y = valloc s
  store %y.a, 1
  store %x.a, 1
  strand_begin
  store %x.b, 2
  %v = load %x.b
  store %y.b, 3
  strand_end
  ret
}
"#;

    #[test]
    fn annotated_regions_is_most_selective() {
        let annotated = plan(SRC, PlanScope::AnnotatedRegions);
        let persistent = plan(SRC, PlanScope::AllPersistent);
        let everything = plan(SRC, PlanScope::Everything);
        assert_eq!(everything.total_mem_ops, 5);
        assert_eq!(everything.sites.len(), 5);
        // Persistent: 3 accesses through %x (volatile %y excluded).
        assert_eq!(persistent.sites.len(), 3);
        // Annotated: only the two %x accesses inside the strand.
        assert_eq!(annotated.sites.len(), 2);
        assert!(annotated.selectivity() < persistent.selectivity());
        assert!(persistent.selectivity() < everything.selectivity());
    }

    #[test]
    fn region_depth_propagates_across_blocks() {
        let src = r#"
module m
struct s { a: i64 }
fn main(%c: i64) {
entry:
  %x = palloc s
  strand_begin
  br %c, inside, out
inside:
  store %x.a, 1
  jmp out
out:
  strand_end
  store %x.a, 2
  ret
}
"#;
        let p = plan(src, PlanScope::AnnotatedRegions);
        // Only the store in `inside` is within the region.
        assert_eq!(p.sites.len(), 1);
    }

    #[test]
    fn selectivity_of_empty_program_is_zero() {
        let p = plan("module m\nfn main() {\nentry:\n  ret\n}\n", PlanScope::Everything);
        assert_eq!(p.selectivity(), 0.0);
        assert_eq!(p.total_mem_ops, 0);
    }
}
