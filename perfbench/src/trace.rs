//! Spans around the library calls the benchmark makes, kept in memory and
//! summarised per call when the run ends.
//!
//! A span records the call, the enclosing span, the operation (batch or
//! query) it belongs to, its start and end, and the allocations made while
//! it was open. Operations are the root spans (`bench.*`); a call's self
//! time is its duration minus the part covered by its child spans.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Every timed call, plus the benchmark's own root spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    NextDelta,
    Load,
    Extract,
    GraphApply,
    TopoOrder,
    Append,
    AppendSync,
    WriteSnapshot,
    Recover,
    TablesApply,
    TablesBuild,
    SearchPb,
    SearchGb,
    SessionAdvance,
    SessionSolve,
    ColdSolve,
    Solubility,
    Preprocess,
    Simplify,
    Greedy,
    BuildMcf,
    NetflowSolve,
    /// Root: one feed batch.
    Batch,
    /// Root: one subgraph flow query.
    FlowQuery,
    /// Root: one pattern query.
    PatternQuery,
}

impl Call {
    /// The library calls, in the order their metrics are reported.
    pub const LAYERS: [Call; 22] = [
        Call::NextDelta,
        Call::Load,
        Call::Extract,
        Call::GraphApply,
        Call::TopoOrder,
        Call::Append,
        Call::AppendSync,
        Call::WriteSnapshot,
        Call::Recover,
        Call::TablesApply,
        Call::TablesBuild,
        Call::SearchPb,
        Call::SearchGb,
        Call::SessionAdvance,
        Call::SessionSolve,
        Call::ColdSolve,
        Call::Solubility,
        Call::Preprocess,
        Call::Simplify,
        Call::Greedy,
        Call::BuildMcf,
        Call::NetflowSolve,
    ];

    /// `<crate>.<call>`, the prefix of the call's metric names.
    pub fn name(self) -> &'static str {
        match self {
            Call::NextDelta => "tin_datasets.next_delta",
            Call::Load => "tin_datasets.load",
            Call::Extract => "tin_datasets.extract",
            Call::GraphApply => "tin_graph.apply",
            Call::TopoOrder => "tin_graph.topo_order",
            Call::Append => "tin_durable.append",
            Call::AppendSync => "tin_durable.append_sync",
            Call::WriteSnapshot => "tin_durable.write_snapshot",
            Call::Recover => "tin_durable.recover",
            Call::TablesApply => "tin_patterns.apply",
            Call::TablesBuild => "tin_patterns.build",
            Call::SearchPb => "tin_patterns.search_pb",
            Call::SearchGb => "tin_patterns.search_gb",
            Call::SessionAdvance => "tin_flow.session_advance",
            Call::SessionSolve => "tin_flow.session_solve",
            Call::ColdSolve => "tin_flow.cold_solve",
            Call::Solubility => "tin_flow.solubility",
            Call::Preprocess => "tin_flow.preprocess",
            Call::Simplify => "tin_flow.simplify",
            Call::Greedy => "tin_flow.greedy",
            Call::BuildMcf => "tin_flow.build_mcf",
            Call::NetflowSolve => "tin_lp.netflow_solve",
            Call::Batch => "bench.batch",
            Call::FlowQuery => "bench.flow_query",
            Call::PatternQuery => "bench.pattern_query",
        }
    }

    fn is_root(self) -> bool {
        matches!(self, Call::Batch | Call::FlowQuery | Call::PatternQuery)
    }
}

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    call: Call,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

/// A span opened by [`Tracer::open`]; close it with [`Tracer::close`].
#[must_use]
pub struct Open(u32);

/// The in-memory span recorder. While disabled, `open` and `close` record
/// nothing, so untraced stretches of a run pay one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off; only between operations.
    pub fn set(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for `call` inside the innermost open span.
    #[inline]
    pub fn open(&mut self, call: Call, op: u32) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let allocs = alloc::allocs();
        self.spans.push(Span {
            call,
            parent,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs,
        });
        self.stack.push(index);
        Open(index)
    }

    #[inline]
    pub fn close(&mut self, open: Open) {
        self.close_as(open, None);
    }

    /// Closes a span, renaming it when its kind is only known afterwards
    /// (an append that turned out to close a commit group).
    #[inline]
    pub fn close_as(&mut self, open: Open, call: Option<Call>) {
        if open.0 == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let allocs = alloc::allocs();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        if let Some(call) = call {
            span.call = call;
        }
    }

    /// Per-call totals and the root-span accounting.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut summary = Summary::default();
        for (i, span) in self.spans.iter().enumerate() {
            let dur = span.end_ns - span.start_ns;
            let self_ns = dur.saturating_sub(child_ns[i]);
            if span.call.is_root() {
                summary.root_ops += 1;
                summary.root_ns += dur;
                summary.root_self_ns += self_ns;
                continue;
            }
            let stats = summary.calls.entry(span.call).or_default();
            stats.durations_us.push(dur as f64 / 1e3);
            stats.allocs += span.allocs;
            if self.root_of(i).is_some() {
                stats.in_op_self_ns += self_ns;
            } else {
                stats.outside_self_ns += self_ns;
            }
        }
        for stats in summary.calls.values_mut() {
            stats.durations_us.sort_by(f64::total_cmp);
        }
        summary
    }

    fn root_of(&self, mut i: usize) -> Option<usize> {
        loop {
            let span = &self.spans[i];
            if span.call.is_root() {
                return Some(i);
            }
            if span.parent == NONE {
                return None;
            }
            i = span.parent as usize;
        }
    }

    /// Writes every span as one tab-separated line: call, operation,
    /// parent span, start and end (ns since the tracer was created),
    /// allocations.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tcall\top\tparent\tstart_ns\tend_ns\tallocs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.call.name(),
                s.op,
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        out.flush()
    }
}

/// One call's spans, summarised.
#[derive(Debug, Default)]
pub struct CallStats {
    /// Inclusive durations, sorted.
    pub durations_us: Vec<f64>,
    /// Allocations made inside the call's spans.
    pub allocs: u64,
    /// Self time of the spans inside an operation.
    pub in_op_self_ns: u64,
    /// Self time of the spans outside any operation (set-up, oracles,
    /// recovery).
    pub outside_self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Summary {
    pub calls: BTreeMap<Call, CallStats>,
    /// Traced operations (root spans).
    pub root_ops: u64,
    pub root_ns: u64,
    /// Root time no library call covers.
    pub root_self_ns: u64,
}

impl Summary {
    /// The per-layer metrics of every call in [`Call::LAYERS`]; a call the
    /// workload never makes reports zeros.
    pub fn layer_metrics(&self, out: &mut Metrics) {
        for call in Call::LAYERS {
            let name = call.name();
            let (busy_ms, p50, p99, allocs) = match self.calls.get(&call) {
                Some(s) if !s.durations_us.is_empty() => {
                    let n = s.durations_us.len() as f64;
                    // Self time per operation for calls made inside
                    // operations, per call for the others.
                    let busy_ms = if s.in_op_self_ns > 0 {
                        s.in_op_self_ns as f64 / 1e6 / self.root_ops.max(1) as f64
                    } else {
                        s.outside_self_ns as f64 / 1e6 / n
                    };
                    (
                        busy_ms,
                        percentile(&s.durations_us, 0.50),
                        percentile(&s.durations_us, 0.99),
                        s.allocs as f64 / n,
                    )
                }
                _ => (0.0, 0.0, 0.0, 0.0),
            };
            out.push(format!("{name}.busy_ms"), busy_ms, "ms");
            out.push(format!("{name}.p50_us"), p50, "us");
            out.push(format!("{name}.p99_us"), p99, "us");
            out.push(format!("{name}.allocs"), allocs, "count");
        }
    }

    /// Share of operation wall time no library call covers.
    pub fn unattributed_frac(&self) -> f64 {
        self.root_self_ns as f64 / self.root_ns.max(1) as f64
    }

    /// The call with the most self time inside operations, and its share of
    /// operation wall time.
    pub fn largest_layer(&self) -> Option<(Call, f64)> {
        self.calls
            .iter()
            .max_by_key(|(_, s)| s.in_op_self_ns)
            .filter(|(_, s)| s.in_op_self_ns > 0)
            .map(|(&c, s)| (c, s.in_op_self_ns as f64 / self.root_ns.max(1) as f64))
    }
}

/// Nearest-rank percentile of sorted samples (`0.0` when there are none).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile.
pub fn beyond(samples: usize, p: f64) -> usize {
    samples - ((p * samples as f64).ceil() as usize).min(samples)
}

/// The per-layer counters and their units. Counts are per operation (batch
/// or query) unless the README says otherwise.
const COUNTERS: [(&str, &str); 23] = [
    ("tin_flow.basis_hit_frac", "ratio"),
    ("tin_flow.warm_pivots", "count"),
    ("tin_flow.fallback_cold", "ratio"),
    ("tin_flow.compactions", "count"),
    ("tin_flow.preprocess_kept_frac", "ratio"),
    ("tin_flow.simplify_kept_frac", "ratio"),
    ("tin_flow.class_c_frac", "ratio"),
    ("tin_lp.pivots", "count"),
    ("tin_lp.cold_pivots", "count"),
    ("tin_patterns.refreshed_groups", "count"),
    ("tin_patterns.kernel_calls", "count"),
    ("tin_patterns.rebuild_frac", "ratio"),
    ("tin_patterns.garbage_frac", "ratio"),
    ("tin_patterns.instances", "count"),
    ("tin_patterns.rows", "count"),
    ("tin_durable.journal_bytes", "bytes"),
    ("tin_durable.snapshot_bytes", "bytes"),
    ("tin_durable.tail_frames", "count"),
    ("tin_graph.evicted", "count"),
    ("tin_graph.live_peak", "count"),
    ("tin_datasets.records", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// Pushes every declared counter, taking its value from `values` and zero
/// for the counters a workload does not have.
pub fn push_counters(m: &mut Metrics, values: &[(&str, f64)]) {
    for (name, _) in values {
        assert!(
            COUNTERS.iter().any(|(n, _)| n == name),
            "counter {name} is not declared"
        );
    }
    for (name, unit) in COUNTERS {
        let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
        m.push(name, value, unit);
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    pub items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.items.push((name.into(), value, unit));
    }
}
