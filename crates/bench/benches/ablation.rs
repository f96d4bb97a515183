//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! inductive template generation (observation-driven hole solving) versus a
//! blind grammar search bound, and the cost of the sound verification stage
//! relative to bounded checking.

use criterion::{criterion_group, criterion_main, Criterion};
use stng::guard::Budget;
use stng_bench::bench_stng;
use stng_corpus::all_kernels;
use stng_ir::lower::kernel_from_source;
use stng_pred::fixtures;
use stng_pred::vcgen::{analyze_loop_nest, generate_vcs};
use stng_solve::bounded::CheckSession;
use stng_solve::{BoundedChecker, ProverSession, SmtLite};
use stng_synth::postcond::PostcondSynthesizer;

fn print_ablation() {
    println!("\n=== Ablation: inductive templates and verification stages ===");
    // 1. Template-driven search-space size vs the unconstrained grammar.
    let kernels = all_kernels();
    let heat27 = kernels.iter().find(|k| k.name == "heat27").unwrap();
    let kernel = kernel_from_source(&heat27.source, 0).unwrap();
    let candidate = PostcondSynthesizer::new().synthesize(&kernel).unwrap();
    let template_bits = candidate.control_bits.total();
    // Without templates the synthesizer would have to pick, for every one of
    // the 27 reads, an arbitrary term from the grammar (array × 3 index
    // expressions × offsets) plus a weight — a conservative lower bound on
    // the blind encoding.
    let blind_bits = 27 * (3 * 4 + 8) + 3 * 4;
    println!(
        "heat27 search space: {template_bits} control bits with inductive templates vs >= {blind_bits} without"
    );

    // 2. Bounded checking vs sound verification on the running example.
    let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
    let nest = analyze_loop_nest(&kernel).unwrap();
    let vcs = generate_vcs(
        &nest,
        &kernel.assumptions,
        &fixtures::running_example_invariants(),
        &fixtures::running_example_post(),
    );
    let t0 = std::time::Instant::now();
    let cex = CheckSession::new(BoundedChecker::new(), kernel)
        .find_counterexample(&vcs)
        .unwrap();
    let bounded_time = t0.elapsed();
    let prover = SmtLite::new();
    let t1 = std::time::Instant::now();
    let (verdict, _) = prover.verify_all_session(&vcs, &Budget::unlimited(), &ProverSession::new());
    let prover_time = t1.elapsed();
    println!(
        "running example: bounded check clean={} in {:.3}ms, sound proof valid={} in {:.3}ms",
        cex.is_none(),
        bounded_time.as_secs_f64() * 1e3,
        verdict.is_valid(),
        prover_time.as_secs_f64() * 1e3
    );
}

fn bench_ablation(c: &mut Criterion) {
    print_ablation();
    let stng = bench_stng();
    let kernels = all_kernels();
    let akl83 = kernels.iter().find(|k| k.name == "akl83").unwrap().clone();
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("postcondition_only_akl83", |b| {
        let kernel = kernel_from_source(&akl83.source, 0).unwrap();
        b.iter(|| PostcondSynthesizer::new().synthesize(&kernel).unwrap().post)
    });
    group.bench_function("full_pipeline_akl83", |b| {
        b.iter(|| stng.lift_source(&akl83.source).unwrap().translated())
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
