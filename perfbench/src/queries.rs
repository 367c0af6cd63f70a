//! The `queries` workload: the paper's offline analysis on a static graph of
//! each dataset shape, read-only, every flow solved cold.
//!
//! A run analyses a sequence of graph triples (one Bitcoin-, one CTU-13-
//! and one Prosper-shaped graph at the standard scale), each generated from
//! its own seed derived from the run's seed. Set-up loads a triple's logs,
//! extracts the seed subgraphs and builds the PB tables. One pass then
//! computes, per graph, the exact flow of every seed subgraph with
//! `compute_flow(PreSim)` and runs the pattern catalogue at an instance
//! cut-off, by PB where the tables provide the pattern and by GB where they
//! do not. One caller thread waits for each query before sending the next
//! (a closed loop). One graph's costs depend strongly on its seed; a run
//! over many triples keeps its figures steady from seed to seed.

use crate::log::Log;
use crate::trace::{beyond, percentile, push_counters, Call, Tracer};
use crate::{alloc, close_enough, work_dir, Ops, Outcome};
use std::time::Instant;
use tin_datasets::{
    extract_seed_subgraphs, load_reader, DatasetKind, ExtractConfig, LoaderConfig, SeedSubgraph,
};
use tin_flow::{
    build_mcf, compute_flow, greedy_flow_with, is_greedy_soluble, preprocess, simplify,
    DifficultyClass, FlowError, FlowMethod, GreedyScratch,
};
use tin_graph::{topological_order, GraphError, NodeId, TemporalGraph};
use tin_lp::LpStatus;
use tin_patterns::{
    search_gb, search_pb, PathTables, PatternId, PatternSearchResult, TablesConfig,
};

/// Log size, as a multiple of the generator's default: the standard scale
/// of the paper's reproduced tables.
const SCALE: f64 = 0.5;
/// Seed-subgraph extraction at the standard scale.
const EXTRACT: ExtractConfig = ExtractConfig {
    max_hops: 3,
    max_interactions: 1200,
    min_interactions: 4,
    max_subgraphs: 150,
};
/// Instance cut-off of every pattern query.
const INSTANCE_LIMIT: usize = 20_000;
/// Fewest triples a run analyses: enough pattern queries for 10 samples
/// beyond p90. The heap peak is taken over these, a fixed amount of work.
const MIN_TRIPLES: u64 = 8;

/// One static graph with its seed subgraphs and PB tables.
struct Dataset {
    kind: DatasetKind,
    graph: TemporalGraph,
    subgraphs: Vec<SeedSubgraph>,
    tables: PathTables,
}

/// The tables the paper builds: cycles everywhere, the chain table only for
/// Prosper Loans.
fn tables_config(kind: DatasetKind) -> TablesConfig {
    TablesConfig {
        build_l2: true,
        build_l3: true,
        build_c2: kind == DatasetKind::Prosper,
        max_rows: 5_000_000,
    }
}

/// The CSV logs of triple `round`.
fn generate(seed: u64, round: u64) -> Vec<(DatasetKind, Vec<u8>)> {
    DatasetKind::ALL
        .iter()
        .map(|&kind| {
            let sub_seed = seed.wrapping_mul(1 << 20).wrapping_add(round);
            (kind, Log::generate(kind, SCALE, sub_seed).to_csv())
        })
        .collect()
}

fn set_up(
    logs: &[(DatasetKind, Vec<u8>)],
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Result<Vec<Dataset>, String> {
    let mut out = Vec::with_capacity(logs.len());
    for (kind, csv) in logs {
        let span = tracer.open(Call::Load, 0);
        let loaded = load_reader(csv.as_slice(), &LoaderConfig::default());
        tracer.close(span);
        let graph = ops
            .check("load_reader", loaded)
            .ok_or("a generated log failed to load")?
            .graph;
        let span = tracer.open(Call::Extract, 0);
        let subgraphs = extract_seed_subgraphs(&graph, &EXTRACT);
        tracer.close(span);
        ops.ok();
        let span = tracer.open(Call::TablesBuild, 0);
        let tables = PathTables::build(&graph, &tables_config(*kind));
        tracer.close(span);
        ops.ok();
        out.push(Dataset {
            kind: *kind,
            graph,
            subgraphs,
            tables,
        });
    }
    Ok(out)
}

/// The steps of `compute_flow(PreSim)`, each a span: used by traced passes
/// so the pipeline's time is attributed stage by stage.
fn presim_traced(
    tracer: &mut Tracer,
    op: u32,
    g: &TemporalGraph,
    s: NodeId,
    t: NodeId,
    scratch: &mut GreedyScratch,
) -> Result<f64, FlowError> {
    let span = tracer.open(Call::TopoOrder, op);
    let order = topological_order(g);
    tracer.close(span);
    order.map_err(|_| FlowError::Graph(GraphError::NotADag))?;
    let greedy = |tracer: &mut Tracer, g: &TemporalGraph, s, t, scratch: &mut GreedyScratch| {
        let span = tracer.open(Call::Greedy, op);
        let flow = greedy_flow_with(g, s, t, scratch);
        tracer.close(span);
        flow
    };
    let soluble = |tracer: &mut Tracer, g: &TemporalGraph, s, t| {
        let span = tracer.open(Call::Solubility, op);
        let yes = is_greedy_soluble(g, s, t);
        tracer.close(span);
        yes
    };
    if soluble(tracer, g, s, t) {
        return Ok(greedy(tracer, g, s, t, scratch));
    }
    let span = tracer.open(Call::Preprocess, op);
    let pre = preprocess(g, s, t);
    tracer.close(span);
    let pre = pre?;
    if pre.is_zero_flow() {
        return Ok(0.0);
    }
    let (ps, pt) = (
        pre.source.expect("non-zero-flow outcome keeps the source"),
        pre.sink.expect("non-zero-flow outcome keeps the sink"),
    );
    if soluble(tracer, &pre.graph, ps, pt) {
        return Ok(greedy(tracer, &pre.graph, ps, pt, scratch));
    }
    let span = tracer.open(Call::Simplify, op);
    let sim = simplify(&pre.graph, ps, pt);
    tracer.close(span);
    if soluble(tracer, &sim.graph, sim.source, sim.sink) {
        return Ok(greedy(tracer, &sim.graph, sim.source, sim.sink, scratch));
    }
    let span = tracer.open(Call::BuildMcf, op);
    let f = build_mcf(&sim.graph, sim.source, sim.sink);
    tracer.close(span);
    let span = tracer.open(Call::NetflowSolve, op);
    let solution = f.problem.solve();
    tracer.close(span);
    if solution.status != LpStatus::Optimal {
        return Err(FlowError::LpFailed(solution.status));
    }
    Ok(solution.flows[f.return_arc])
}

/// One catalogue query: PB when the tables provide the pattern, else GB.
fn pattern_query(
    d: &Dataset,
    id: PatternId,
    tracer: &mut Tracer,
    op: u32,
) -> (PatternSearchResult, bool) {
    let span = tracer.open(Call::SearchPb, op);
    let pb = search_pb(&d.graph, &d.tables, id, INSTANCE_LIMIT);
    tracer.close(span);
    if let Some(answer) = pb {
        return (answer, true);
    }
    let span = tracer.open(Call::SearchGb, op);
    let gb = search_gb(&d.graph, id, INSTANCE_LIMIT);
    tracer.close(span);
    (gb, false)
}

/// What the PreSim pipeline did on the subgraphs, for the per-layer
/// counters.
#[derive(Default)]
struct PipelineCounts {
    subgraphs: u64,
    preprocessed_in: u64,
    preprocessed_out: u64,
    simplified_in: u64,
    simplified_out: u64,
    class_c: u64,
    solves: u64,
    pivots: u64,
}

/// What one pass over a triple measured and answered.
#[derive(Default)]
struct Pass {
    seconds: f64,
    flow_ms: Vec<f64>,
    pattern_ms: Vec<f64>,
    /// Per graph: each subgraph's flow, and each pattern's answer with
    /// whether PB gave it.
    flows: Vec<Vec<f64>>,
    answers: Vec<Vec<(PatternSearchResult, bool)>>,
}

/// Runs every query of one pass over `datasets`.
fn pass(
    datasets: &[Dataset],
    tracer: &mut Tracer,
    traced: bool,
    op: &mut u32,
    ops: &mut Ops,
    counts: &mut PipelineCounts,
) -> Pass {
    let mut p = Pass::default();
    let mut scratch = GreedyScratch::new();
    tracer.set(traced);
    for d in datasets {
        let mut flows = Vec::with_capacity(d.subgraphs.len());
        for sub in &d.subgraphs {
            let started = Instant::now();
            let root = tracer.open(Call::FlowQuery, *op);
            let flow = if traced {
                presim_traced(tracer, *op, &sub.graph, sub.source, sub.sink, &mut scratch)
            } else {
                compute_flow(&sub.graph, sub.source, sub.sink, FlowMethod::PreSim).map(|r| {
                    counts.record(&r);
                    r.flow
                })
            };
            tracer.close(root);
            let took = started.elapsed().as_secs_f64();
            p.seconds += took;
            p.flow_ms.push(took * 1e3);
            *op += 1;
            flows.push(ops.check("compute_flow", flow).unwrap_or(f64::NAN));
        }
        let mut answers = Vec::with_capacity(PatternId::ALL.len());
        for id in PatternId::ALL {
            let started = Instant::now();
            let root = tracer.open(Call::PatternQuery, *op);
            let answer = pattern_query(d, id, tracer, *op);
            tracer.close(root);
            let took = started.elapsed().as_secs_f64();
            p.seconds += took;
            p.pattern_ms.push(took * 1e3);
            *op += 1;
            ops.ok();
            answers.push(answer);
        }
        p.flows.push(flows);
        p.answers.push(answers);
    }
    tracer.set(false);
    p
}

/// The oracles, outside the timing: every subgraph's PreSim flow equals its
/// LP flow, and on one PB-answered pattern per graph (a different one each
/// triple) PB equals GB.
fn check(datasets: &[Dataset], p: &Pass, round: u64, mismatches: &mut Vec<String>) {
    for (g, d) in datasets.iter().enumerate() {
        for (i, sub) in d.subgraphs.iter().enumerate() {
            let presim = p.flows[g][i];
            match compute_flow(&sub.graph, sub.source, sub.sink, FlowMethod::Lp) {
                Ok(lp) if close_enough(presim, lp.flow) => {}
                Ok(lp) => mismatches.push(format!(
                    "{} subgraph {i}: PreSim {presim} != LP {}",
                    d.kind, lp.flow
                )),
                Err(e) => mismatches.push(format!("{} subgraph {i}: LP failed: {e}", d.kind)),
            }
        }
        let answers = &p.answers[g];
        let n = PatternId::ALL.len();
        let first = (round as usize + g) % n;
        let Some(i) = (0..n).map(|k| (first + k) % n).find(|&i| answers[i].1) else {
            continue;
        };
        let pb = &answers[i].0;
        let gb = search_gb(&d.graph, PatternId::ALL[i], INSTANCE_LIMIT);
        // A cut-off enumeration may stop on different instances in the two
        // orders, so only complete answers must match in flow.
        let same = pb.instances == gb.instances
            && pb.truncated == gb.truncated
            && (gb.truncated || close_enough(pb.total_flow, gb.total_flow));
        if !same {
            mismatches.push(format!(
                "{} {}: PB ({}, {}) != GB ({}, {})",
                d.kind,
                PatternId::ALL[i],
                pb.instances,
                pb.total_flow,
                gb.instances,
                gb.total_flow
            ));
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    let mut setups = Vec::with_capacity(64);
    let (mut flow_ms, mut pattern_ms) = (Vec::with_capacity(1 << 16), Vec::with_capacity(1 << 12));
    let mut counts = PipelineCounts::default();
    let (mut instances, mut rows, mut live, mut records) = (0u64, 0usize, 0usize, 0usize);
    let (mut busy_s, mut traced_s, mut plain_s) = (0.0, 0.0, 0.0);
    let mut peak_heap = None;
    let heap_base = alloc::reset_peak();
    let mut op = 0u32;
    let mut round = 0u64;
    loop {
        let logs = alloc::outside_peak(|| generate(seed, round));
        tracer.set(trace);
        let started = Instant::now();
        let datasets = set_up(&logs, &mut tracer, &mut outcome.ops)?;
        setups.push(started.elapsed().as_secs_f64());
        tracer.set(false);
        drop(logs);

        // A traced run makes each pass twice, untraced then traced, so the
        // tracing overhead is measured on identical work.
        let p = pass(
            &datasets,
            &mut tracer,
            false,
            &mut op,
            &mut outcome.ops,
            &mut counts,
        );
        if trace {
            let t = pass(
                &datasets,
                &mut tracer,
                true,
                &mut op,
                &mut outcome.ops,
                &mut counts,
            );
            traced_s += t.seconds;
            plain_s += p.seconds;
            let same = t.flows.iter().flatten().zip(p.flows.iter().flatten());
            if same.into_iter().any(|(a, b)| !close_enough(*a, *b)) {
                outcome
                    .mismatches
                    .push("the traced PreSim stages disagree with compute_flow".into());
            }
        }
        alloc::outside_peak(|| check(&datasets, &p, round, &mut outcome.mismatches));
        busy_s += p.seconds;
        flow_ms.extend_from_slice(&p.flow_ms);
        pattern_ms.extend_from_slice(&p.pattern_ms);
        instances += p
            .answers
            .iter()
            .flatten()
            .map(|a| a.0.instances as u64)
            .sum::<u64>();
        rows += datasets.iter().map(|d| d.tables.row_count()).sum::<usize>();
        live = live.max(datasets.iter().map(|d| d.graph.interaction_count()).sum());
        records += datasets
            .iter()
            .map(|d| d.graph.interaction_count())
            .sum::<usize>();
        drop(datasets);
        round += 1;
        if round == MIN_TRIPLES {
            peak_heap = Some(alloc::peak_since(heap_base));
        }
        if (busy_s >= seconds && round >= MIN_TRIPLES) || !outcome.mismatches.is_empty() {
            break;
        }
    }

    flow_ms.sort_by(f64::total_cmp);
    pattern_ms.sort_by(f64::total_cmp);
    setups.sort_by(f64::total_cmp);
    outcome.notes.push(format!(
        "{round} graph triples, {records} records, {} subgraph flows (p50 {:.1} us, p99 {:.1} us, \
         {} beyond p99), {} pattern queries ({} beyond p90) in {busy_s:.3} s of query time",
        flow_ms.len(),
        percentile(&flow_ms, 0.5) * 1e3,
        percentile(&flow_ms, 0.99) * 1e3,
        beyond(flow_ms.len(), 0.99),
        pattern_ms.len(),
        beyond(pattern_ms.len(), 0.90),
    ));
    let m = &mut outcome.metrics;
    if !trace {
        m.push("records_per_s", records as f64 / busy_s, "rec/s");
        m.push("op_p50_ms", percentile(&flow_ms, 0.50), "ms");
        m.push("op_p99_ms", percentile(&flow_ms, 0.99), "ms");
        m.push("pattern_query_p50_ms", percentile(&pattern_ms, 0.50), "ms");
        m.push("pattern_query_p90_ms", percentile(&pattern_ms, 0.90), "ms");
        let peak = peak_heap.unwrap_or_else(|| alloc::peak_since(heap_base));
        m.push("peak_heap_mb", peak as f64 / (1024.0 * 1024.0), "MB");
        m.push("setup_s", percentile(&setups, 0.5), "s");
        return Ok(outcome);
    }

    let summary = tracer.summary();
    summary.layer_metrics(m);
    let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let values = [
        (
            "tin_flow.preprocess_kept_frac",
            frac(counts.preprocessed_out, counts.preprocessed_in),
        ),
        (
            "tin_flow.simplify_kept_frac",
            frac(counts.simplified_out, counts.simplified_in),
        ),
        (
            "tin_flow.class_c_frac",
            frac(counts.class_c, counts.subgraphs),
        ),
        ("tin_lp.pivots", frac(counts.pivots, counts.solves)),
        (
            "tin_patterns.instances",
            frac(instances, pattern_ms.len() as u64),
        ),
        ("tin_patterns.rows", frac(rows as u64, round)),
        ("tin_graph.live_peak", live as f64),
        ("tin_datasets.records", frac(records as u64, round)),
        ("bench.unattributed_frac", summary.unattributed_frac()),
        (
            "bench.trace_overhead_frac",
            traced_s / plain_s.max(1e-12) - 1.0,
        ),
    ];
    push_counters(m, &values);
    if let Some((call, share)) = summary.largest_layer() {
        outcome.notes.push(format!(
            "largest self-time layer: {} ({:.1}% of query time)",
            call.name(),
            share * 100.0
        ));
    }
    if let Err(e) = tracer.write_tsv(&work_dir().join("trace-queries.tsv")) {
        outcome.notes.push(format!("trace not written: {e}"));
    }
    Ok(outcome)
}

impl PipelineCounts {
    fn record(&mut self, r: &tin_flow::FlowResult) {
        let s = &r.stats;
        self.subgraphs += 1;
        if let Some(after) = s.interactions_after_preprocess {
            self.preprocessed_in += s.interactions_input as u64;
            self.preprocessed_out += after as u64;
            if let Some(simplified) = s.interactions_after_simplify {
                self.simplified_in += after as u64;
                self.simplified_out += simplified as u64;
            }
        }
        if r.class == Some(DifficultyClass::C) {
            self.class_c += 1;
        }
        if let Some(pivots) = s.lp_pivots {
            self.solves += 1;
            self.pivots += pivots as u64;
        }
    }
}
