//! E5/A2 — model-checking performance.
//!
//! The paper reports both counterexample traces "generated in less than a
//! minute on a 1.5 GHz AMD machine"; these benches time the same
//! verification problems and the A2 strategy ablation (BFS on one thread
//! vs. on all host CPUs vs. depth-bounded BFS).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tta_bench::seed_style_bfs;
use tta_core::{verify_cluster_with, CheckStrategy, ClusterConfig, ClusterModel};
use tta_guardian::CouplerAuthority;

fn bench_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_paper_configs");
    group.sample_size(10);
    for authority in [
        CouplerAuthority::Passive,
        CouplerAuthority::SmallShifting,
        CouplerAuthority::FullShifting,
    ] {
        let config = ClusterConfig::paper(authority);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{authority}")),
            &config,
            |b, config| b.iter(|| black_box(verify_cluster_with(config, CheckStrategy::Bfs))),
        );
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("counterexample_traces");
    group.sample_size(10);
    group.bench_function("trace1_cold_start_duplication", |b| {
        let config = ClusterConfig::paper_trace_cold_start();
        b.iter(|| black_box(verify_cluster_with(&config, CheckStrategy::Bfs)));
    });
    group.bench_function("trace2_cstate_duplication", |b| {
        let config = ClusterConfig::paper_trace_cstate();
        b.iter(|| black_box(verify_cluster_with(&config, CheckStrategy::Bfs)));
    });
    group.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategy_ablation_small_shifting");
    group.sample_size(10);
    let config = ClusterConfig::paper(CouplerAuthority::SmallShifting);
    group.bench_function("sequential_bfs", |b| {
        b.iter(|| black_box(verify_cluster_with(&config, CheckStrategy::Bfs)));
    });
    group.bench_function("parallel_bfs", |b| {
        b.iter(|| {
            black_box(verify_cluster_with(
                &config,
                CheckStrategy::ParallelBfs { threads: 0 },
            ))
        });
    });
    group.bench_function("bounded_bfs_depth20", |b| {
        b.iter(|| {
            black_box(verify_cluster_with(
                &config,
                CheckStrategy::Bounded { depth: 20 },
            ))
        });
    });
    group.finish();
}

fn bench_visited_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("visited_set_head_to_head");
    group.sample_size(10);
    let config = ClusterConfig::paper(CouplerAuthority::SmallShifting);
    group.bench_function("seed_mutex_sharded_clone_map", |b| {
        b.iter(|| black_box(seed_style_bfs(&ClusterModel::new(config))));
    });
    group.bench_function("arena_compact_codec", |b| {
        b.iter(|| black_box(verify_cluster_with(&config, CheckStrategy::Bfs)));
    });
    group.finish();
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_thread_sweep_small_shifting");
    group.sample_size(10);
    let config = ClusterConfig::paper(CouplerAuthority::SmallShifting);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                black_box(verify_cluster_with(
                    &config,
                    CheckStrategy::ParallelBfs { threads: t },
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_verification,
    bench_trace_generation,
    bench_strategies,
    bench_visited_set,
    bench_parallel_sweep
);
criterion_main!(benches);
