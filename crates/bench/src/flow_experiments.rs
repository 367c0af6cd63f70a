//! Flow-method comparison experiments: Tables 6–8 and Figure 11, plus the
//! exact-engine comparison (sparse revised simplex against the network
//! simplex).
//!
//! [`flow_method_experiment`] and [`lp_engine_experiment`] evaluate the
//! subgraphs one after another on the calling thread, so no per-subgraph
//! timing contends with a second worker for the host's cores.

use crate::workloads::Workload;
use std::time::{Duration, Instant};
use tin_datasets::SeedSubgraph;
use tin_flow::{build_lp, build_mcf, compute_flow, DifficultyClass, FlowMethod};

/// Methods compared in the paper's runtime tables.
pub const TABLE_METHODS: [FlowMethod; 4] = [
    FlowMethod::Greedy,
    FlowMethod::Lp,
    FlowMethod::Pre,
    FlowMethod::PreSim,
];

/// Aggregated timing of one method over a set of subgraphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodTiming {
    /// The method.
    pub method: FlowMethod,
    /// Number of subgraphs included in the average.
    pub subgraphs: usize,
    /// Average runtime per subgraph.
    pub average: Duration,
    /// Total runtime over the set.
    pub total: Duration,
}

/// One of the paper's runtime tables (6, 7 or 8): average runtimes overall
/// and per difficulty class.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Dataset name.
    pub dataset: String,
    /// Timings over all subgraphs.
    pub all: Vec<MethodTiming>,
    /// Timings over class A subgraphs (greedy-soluble as-is).
    pub class_a: Vec<MethodTiming>,
    /// Timings over class B subgraphs (greedy-soluble after preprocessing).
    pub class_b: Vec<MethodTiming>,
    /// Timings over class C subgraphs (LP required after preprocessing).
    pub class_c: Vec<MethodTiming>,
    /// Number of subgraphs per class (A, B, C).
    pub class_sizes: (usize, usize, usize),
}

fn time_method(sub: &SeedSubgraph, method: FlowMethod) -> Duration {
    let start = Instant::now();
    let result = compute_flow(&sub.graph, sub.source, sub.sink, method)
        .expect("extracted subgraphs are valid flow DAGs");
    std::hint::black_box(result.flow);
    start.elapsed()
}

fn summarize(method: FlowMethod, durations: &[Duration]) -> MethodTiming {
    let total: Duration = durations.iter().sum();
    let average = if durations.is_empty() {
        Duration::ZERO
    } else {
        total / durations.len() as u32
    };
    MethodTiming {
        method,
        subgraphs: durations.len(),
        average,
        total,
    }
}

/// Classifies every subgraph (via the `PreSim` pipeline) and measures each
/// method on it, producing one of the paper's Tables 6–8.
pub fn flow_method_experiment(workload: &Workload) -> FlowTable {
    let mut timings: Vec<Vec<Duration>> = vec![Vec::new(); TABLE_METHODS.len()];
    let mut classes: Vec<DifficultyClass> = Vec::with_capacity(workload.subgraphs.len());
    for sub in &workload.subgraphs {
        let class = compute_flow(&sub.graph, sub.source, sub.sink, FlowMethod::PreSim)
            .expect("valid subgraph")
            .class
            .unwrap_or(DifficultyClass::C);
        classes.push(class);
        for (i, &method) in TABLE_METHODS.iter().enumerate() {
            timings[i].push(time_method(sub, method));
        }
    }

    let collect = |filter: Option<DifficultyClass>| -> Vec<MethodTiming> {
        TABLE_METHODS
            .iter()
            .enumerate()
            .map(|(i, &method)| {
                let durations: Vec<Duration> = timings[i]
                    .iter()
                    .zip(&classes)
                    .filter(|(_, &c)| filter.is_none_or(|f| c == f))
                    .map(|(d, _)| *d)
                    .collect();
                summarize(method, &durations)
            })
            .collect()
    };

    let count = |class: DifficultyClass| classes.iter().filter(|&&c| c == class).count();
    FlowTable {
        dataset: workload.kind.name().to_string(),
        all: collect(None),
        class_a: collect(Some(DifficultyClass::A)),
        class_b: collect(Some(DifficultyClass::B)),
        class_c: collect(Some(DifficultyClass::C)),
        class_sizes: (
            count(DifficultyClass::A),
            count(DifficultyClass::B),
            count(DifficultyClass::C),
        ),
    }
}

/// One bucket of Figure 11: subgraphs grouped by interaction count.
#[derive(Debug, Clone)]
pub struct BucketRow {
    /// Human-readable bucket label (`"<100"`, `"100-1000"`, `">1000"`).
    pub bucket: &'static str,
    /// Number of subgraphs falling in the bucket.
    pub subgraphs: usize,
    /// Average runtime per method.
    pub timings: Vec<MethodTiming>,
}

/// The interaction-count buckets used by Figure 11.
pub const BUCKETS: [(&str, usize, usize); 3] = [
    ("<100", 0, 100),
    ("100-1000", 100, 1000),
    (">1000", 1000, usize::MAX),
];

/// Groups the workload's subgraphs by interaction count and measures every
/// method per bucket (Figure 11).
pub fn bucket_experiment(workload: &Workload) -> Vec<BucketRow> {
    BUCKETS
        .iter()
        .map(|&(label, lo, hi)| {
            let subs: Vec<&SeedSubgraph> = workload
                .subgraphs
                .iter()
                .filter(|s| {
                    let n = s.interaction_count();
                    n >= lo && n < hi
                })
                .collect();
            let timings = TABLE_METHODS
                .iter()
                .map(|&method| {
                    let durations: Vec<Duration> =
                        subs.iter().map(|s| time_method(s, method)).collect();
                    summarize(method, &durations)
                })
                .collect();
            BucketRow {
                bucket: label,
                subgraphs: subs.len(),
                timings,
            }
        })
        .collect()
}

/// Per-engine aggregate over one row of the `lpsolvers` table.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStat {
    /// Average formulate+solve time per subgraph (formulation included: the
    /// network simplex skips the LP assembly entirely, and that saving is
    /// part of what the table is for).
    pub avg: Duration,
    /// Average basis-changing pivots per subgraph.
    pub pivots: f64,
    /// Average zero-step (degenerate) pivots per subgraph.
    pub degenerate_pivots: f64,
}

/// Engine timings over one difficulty class (or over all subgraphs).
#[derive(Debug, Clone)]
pub struct EngineClassRow {
    /// `"All"`, `"A"`, `"B"` or `"C"`.
    pub label: &'static str,
    /// Number of subgraphs in the row.
    pub subgraphs: usize,
    /// The sparse revised simplex on the Section 4.2.1 LP.
    pub sparse: EngineStat,
    /// The network simplex on the time-expanded min-cost circulation.
    pub netflow: EngineStat,
    /// Average LP constraint-matrix density over the row's subgraphs
    /// (balance rows only; 0 for an empty row).
    pub density: f64,
}

impl EngineClassRow {
    /// Runtime ratio `sparse / netflow` (`> 1` means the network simplex is
    /// faster); 0 for an empty row.
    pub fn speedup(&self) -> f64 {
        if self.netflow.avg > Duration::ZERO {
            self.sparse.avg.as_secs_f64() / self.netflow.avg.as_secs_f64()
        } else {
            0.0
        }
    }
}

/// Engine comparison: times a full formulate+solve per subgraph with the
/// sparse revised simplex and the network simplex, reported per difficulty
/// class (class C is where the exact solver dominates end-to-end runtime).
///
/// The sparse engine assembles the Section 4.2.1 LP via [`build_lp`] and
/// solves it; the network simplex emits the time-expanded min-cost
/// circulation directly ([`tin_flow::build_mcf`]) and never touches the LP
/// row/column machinery. Their optimal values are asserted to agree to
/// 1e-6 relative tolerance on every subgraph.
///
/// Both engine timings for one subgraph are taken back to back. Every
/// engine's time is the best of three repeated trials so one-shot allocator
/// and cold-cache noise (large on sub-100µs solves) does not drown the
/// signal — the same discipline Criterion applies in
/// `benches/lp_solver.rs`, applied uniformly across engines.
pub fn lp_engine_experiment(workload: &Workload) -> Vec<EngineClassRow> {
    #[derive(Clone, Copy)]
    struct Measurement {
        time: Duration,
        value: f64,
        pivots: usize,
        degenerate: usize,
        density: f64,
    }
    struct Sample {
        class: DifficultyClass,
        sparse: Measurement,
        netflow: Measurement,
    }
    const TRIALS: usize = 3;
    let best_of = |measure: &dyn Fn() -> Measurement| {
        (0..TRIALS)
            .map(|_| measure())
            .min_by_key(|m| m.time)
            .expect("at least one trial")
    };
    let samples: Vec<Sample> = workload
        .subgraphs
        .iter()
        .map(|sub| {
            let class = compute_flow(&sub.graph, sub.source, sub.sink, FlowMethod::PreSim)
                .expect("valid subgraph")
                .class
                .unwrap_or(DifficultyClass::C);
            let sparse = best_of(&|| {
                let start = Instant::now();
                let f = build_lp(&sub.graph, sub.source, sub.sink);
                let solution = f.problem.solve();
                assert!(solution.is_optimal(), "flow LP must be solvable");
                std::hint::black_box(solution.objective);
                Measurement {
                    time: start.elapsed(),
                    value: solution.objective,
                    pivots: solution.pivots,
                    degenerate: solution.degenerate_pivots,
                    density: solution.matrix_density,
                }
            });
            let netflow = best_of(&|| {
                let start = Instant::now();
                let f = build_mcf(&sub.graph, sub.source, sub.sink);
                let solution = f.problem.solve();
                assert!(solution.is_optimal(), "flow circulation must be solvable");
                let value = solution.flows[f.return_arc];
                std::hint::black_box(value);
                Measurement {
                    time: start.elapsed(),
                    value,
                    pivots: solution.pivots,
                    degenerate: solution.degenerate_pivots,
                    density: 0.0,
                }
            });
            assert!(
                (netflow.value - sparse.value).abs() <= 1e-6 * (1.0 + sparse.value.abs()),
                "engines disagree on a workload subgraph: sparse {} vs netflow {}",
                sparse.value,
                netflow.value
            );
            Sample {
                class,
                sparse,
                netflow,
            }
        })
        .collect();

    let row = |label: &'static str, filter: Option<DifficultyClass>| -> EngineClassRow {
        let picked: Vec<&Sample> = samples
            .iter()
            .filter(|s| filter.is_none_or(|f| s.class == f))
            .collect();
        let n = picked.len();
        let avg = |f: &dyn Fn(&Sample) -> f64| {
            if n == 0 {
                0.0
            } else {
                picked.iter().map(|s| f(s)).sum::<f64>() / n as f64
            }
        };
        let stat = |m: &dyn Fn(&Sample) -> Measurement| EngineStat {
            avg: Duration::from_secs_f64(avg(&|s| m(s).time.as_secs_f64())),
            pivots: avg(&|s| m(s).pivots as f64),
            degenerate_pivots: avg(&|s| m(s).degenerate as f64),
        };
        EngineClassRow {
            label,
            subgraphs: n,
            sparse: stat(&|s| s.sparse),
            netflow: stat(&|s| s.netflow),
            density: avg(&|s| s.sparse.density),
        }
    };
    vec![
        row("All", None),
        row("A", Some(DifficultyClass::A)),
        row("B", Some(DifficultyClass::B)),
        row("C", Some(DifficultyClass::C)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ExperimentScale;
    use tin_datasets::DatasetKind;

    fn tiny_workload() -> Workload {
        let scale = ExperimentScale {
            dataset_scale: 0.04,
            max_subgraphs: 8,
            max_subgraph_interactions: 150,
            seed: 7,
        };
        Workload::build(DatasetKind::Ctu13, &scale)
    }

    #[test]
    fn flow_table_covers_all_methods_and_classes() {
        let w = tiny_workload();
        let table = flow_method_experiment(&w);
        assert_eq!(table.all.len(), TABLE_METHODS.len());
        let (a, b, c) = table.class_sizes;
        assert_eq!(a + b + c, w.subgraphs.len());
        // All subgraphs are accounted for in the per-method averages.
        for t in &table.all {
            assert_eq!(t.subgraphs, w.subgraphs.len());
        }
        // Greedy is never slower than LP on average (sanity on the headline
        // shape; both averages are over the same subgraphs).
        let greedy = table
            .all
            .iter()
            .find(|t| t.method == FlowMethod::Greedy)
            .unwrap();
        let lp = table
            .all
            .iter()
            .find(|t| t.method == FlowMethod::Lp)
            .unwrap();
        assert!(greedy.average <= lp.average);
    }

    #[test]
    fn engine_comparison_covers_every_subgraph_and_agrees() {
        let w = tiny_workload();
        // The experiment itself asserts the two engines' optimal values
        // agree on every subgraph.
        let rows = lp_engine_experiment(&w);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "All");
        assert_eq!(rows[0].subgraphs, w.subgraphs.len());
        let by_class: usize = rows[1..].iter().map(|r| r.subgraphs).sum();
        assert_eq!(by_class, w.subgraphs.len());
        assert!(rows[0].sparse.avg > Duration::ZERO);
        assert!(rows[0].netflow.avg > Duration::ZERO);
        assert!(rows[0].speedup() > 0.0);
        // The flow LP is genuinely sparse on every non-trivial subgraph.
        assert!(rows[0].density < 0.5, "density {}", rows[0].density);
        // Empty rows report zeros rather than dividing by zero.
        for r in rows.iter().filter(|r| r.subgraphs == 0) {
            assert_eq!(r.speedup(), 0.0);
            assert_eq!(r.density, 0.0);
        }
    }

    #[test]
    fn buckets_partition_the_subgraphs() {
        let w = tiny_workload();
        let rows = bucket_experiment(&w);
        assert_eq!(rows.len(), 3);
        let total: usize = rows.iter().map(|r| r.subgraphs).sum();
        assert_eq!(total, w.subgraphs.len());
    }
}
