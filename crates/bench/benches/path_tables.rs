//! Criterion benchmark for the offline precomputation step of the PB
//! matcher: building the L2/L3/C2 path tables.
//!
//! Variants per dataset (quick scale):
//!
//! * `reference` — the retained pre-kernel builder (per-row graph
//!   materialization + traced greedy scan), the before/after baseline;
//! * `build` — [`PathTables::build`], the chain-propagation kernel.
//!
//! Both variants report a rows/second throughput next to the wall-clock
//! numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use tin_bench::{generate_dataset, ExperimentScale};
use tin_datasets::DatasetKind;
use tin_patterns::{reference::build_reference, PathTables, TablesConfig};

fn bench_config(c: &mut Criterion, group_name: &str, config: TablesConfig, kinds: &[DatasetKind]) {
    let scale = ExperimentScale::quick();
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for &kind in kinds {
        let graph = generate_dataset(kind, &scale);
        let rows = PathTables::build(&graph, &config).row_count();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(
            BenchmarkId::new("reference", kind.name()),
            &graph,
            |b, g| {
                b.iter(|| {
                    let t = build_reference(g, &config);
                    std::hint::black_box(t.l2.len() + t.l3.len() + t.c2.len())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("build", kind.name()), &graph, |b, g| {
            b.iter(|| std::hint::black_box(PathTables::build(g, &config).row_count()))
        });
    }
    group.finish();
}

fn bench_path_tables(c: &mut Criterion) {
    let cycles_only = TablesConfig {
        build_c2: false,
        ..TablesConfig::default()
    };
    // Cycle tables are affordable everywhere (the paper's default); the
    // chain table is only feasible for Prosper.
    bench_config(c, "path_tables/cycles_only", cycles_only, &DatasetKind::ALL);
    bench_config(
        c,
        "path_tables/with_chains",
        TablesConfig::default(),
        &[DatasetKind::Prosper],
    );
}

criterion_group!(benches, bench_path_tables);
criterion_main!(benches);
