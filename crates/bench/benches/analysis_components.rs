//! Ablation benches for DeepMC's design choices (DESIGN.md §4):
//!
//! * instrumentation selectivity: annotated-regions-only vs all-persistent
//!   vs everything (the paper's §4.4 claim that selective instrumentation
//!   is what keeps overhead low);
//! * trace-collection bounds: the paper's loop bound 10 vs tighter/looser;
//! * DSA field sensitivity value: checking with full traces vs the
//!   cheaper flow-insensitive information alone is not possible — instead
//!   we measure DSA cost against the trace-collection cost it enables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deepmc::instrument::{InstrumentationPlan, PlanScope};
use deepmc::{DeepMcConfig, StaticChecker};
use deepmc_analysis::{CallGraph, DsaResult, Program, TraceCollector, TraceConfig};
use deepmc_models::PersistencyModel;
use nvm_runtime::RaceDetector;

fn corpus_program() -> Program {
    deepmc_corpus::Framework::Pmdk.program()
}

fn analysis_components(c: &mut Criterion) {
    let program = corpus_program();
    let cg = CallGraph::build(&program);
    let dsa = DsaResult::analyze(&program, &cg);

    // --- instrumentation-plan ablation ---------------------------------
    let mut group = c.benchmark_group("instrumentation_scope");
    for scope in [PlanScope::AnnotatedRegions, PlanScope::AllPersistent, PlanScope::Everything] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scope:?}")),
            &scope,
            |b, &scope| {
                b.iter(|| std::hint::black_box(InstrumentationPlan::build(&program, &dsa, scope)))
            },
        );
    }
    group.finish();

    // Cost of shadow tracking per simulated access volume: what the three
    // scopes would pay at runtime.
    let mut group = c.benchmark_group("shadow_tracking_cost");
    for (name, accesses) in
        [("annotated_only", 100u64), ("all_persistent", 400), ("everything", 1000)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(name), &accesses, |b, &n| {
            b.iter(|| {
                let d = RaceDetector::new();
                let s = d.strand_begin(None);
                for i in 0..n {
                    d.on_access(s, i * 8, 8, true);
                }
                std::hint::black_box(d.shadow_cells())
            })
        });
    }
    group.finish();

    // --- trace-bound ablation -------------------------------------------
    let mut group = c.benchmark_group("trace_loop_bound");
    for bound in [2usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(bound), &bound, |b, &bound| {
            let config = TraceConfig { loop_bound: bound, ..TraceConfig::default() };
            b.iter(|| {
                let tc = TraceCollector::new(&program, &dsa, config.clone());
                std::hint::black_box(tc.collect_program(&cg).len())
            })
        });
    }
    group.finish();

    // --- path-budget ablation --------------------------------------------
    let mut group = c.benchmark_group("trace_path_budget");
    for paths in [16usize, 128, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(paths), &paths, |b, &paths| {
            let config = TraceConfig { max_paths: paths, ..TraceConfig::default() };
            b.iter(|| {
                let tc = TraceCollector::new(&program, &dsa, config.clone());
                std::hint::black_box(tc.collect_program(&cg).len())
            })
        });
    }
    group.finish();

    // --- end-to-end per framework ----------------------------------------
    let mut group = c.benchmark_group("check_framework");
    group.sample_size(20);
    for fw in deepmc_corpus::Framework::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(fw.name()), &fw, |b, &fw| {
            let program = fw.program();
            b.iter(|| {
                let checker = StaticChecker::new(DeepMcConfig::new(PersistencyModel::Strict));
                std::hint::black_box(checker.check_program(&program))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, analysis_components);
criterion_main!(benches);
