//! The two feed workloads: time-ordered CSV logs arrive in small batches
//! through a sliding window covering half a log's span, and one caller
//! thread drives each batch through the pipeline before it reads the next
//! (a closed loop).
//!
//! Each batch runs, in `DurableStore::apply`'s order,
//! `DeltaStream::next_delta` → `TemporalGraph::apply` → `Journal::append`
//! (group commit) → `PathTables::apply`, then on `feed-flow`
//! `FlowSession::advance` + `solve` for the tracked pair, then one
//! `search_pb` query; every `SNAPSHOT_EVERY` batches of a feed it also
//! commits a snapshot.
//!
//! A run serves a sequence of independent feeds, each generated from its own
//! seed derived from the run's seed: a feed is set up, serves `LIFETIME`
//! batches, is checked and recovered, and the next one replaces it. One
//! feed's cost is dominated by a few rare, very slow flow solves whose
//! number depends on the log, so spreading a run over many logs keeps its
//! figures steady from seed to seed. Each log replays cyclically, each
//! cycle shifted by the log's period, so a feed never runs dry.

use crate::log::Log;
use crate::trace::{beyond, percentile, push_counters, Call, Tracer};
use crate::{alloc, close_enough, work_dir, Ops, Outcome};
use std::cell::RefCell;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};
use tin_datasets::{DatasetKind, DeltaStream, LoaderConfig};
use tin_durable::snapshot::{snapshot_path, write_snapshot};
use tin_durable::{compact_before, Journal, JournalConfig, Recovery};
use tin_flow::{build_mcf, FlowMethod, FlowSession, SessionStats};
use tin_graph::{NodeId, TemporalGraph};
use tin_lp::LpStatus;
use tin_patterns::{search_gb, search_pb, PathTables, PatternId, TablesConfig};

/// A batch is this share of one cycle of a feed's log.
const BATCH_FRACTION: f64 = 0.0025;
/// Times the first feed is set up; `setup_s` is the median over these and
/// every later feed's set-up.
const SETUPS: usize = 3;
/// Appends per journal fsync.
const GROUP_COMMIT: u32 = 16;
/// A feed's batches between its snapshots.
const SNAPSHOT_EVERY: u64 = 64;
/// Batches each feed serves before the next one replaces it: three and a
/// half snapshot intervals, so every retiring feed's recovery replays the
/// same journal tail.
const LIFETIME: u64 = 224;
/// A feed's batches between cold re-solves of its tracked flow (the session
/// oracle).
const COLD_CHECK_EVERY: u64 = 8;
/// A feed's batches between table-rebuild oracles (and at retirement).
const TABLE_CHECK_EVERY: u64 = 100;
/// Fewest batches a run makes: enough for 10 samples beyond p99. The heap
/// peak is taken over set-up and these batches, a fixed amount of work.
const MIN_BATCHES: u64 = 2240;
/// The query each batch answers, as `live_feed` does: 2-hop cycles.
const PATTERN: PatternId = PatternId::P2;
/// A traced run alternates traced and untraced stretches of this many
/// batches, so both see the same mix and their difference is the tracing
/// overhead.
const TRACE_CHUNK: u64 = 16;

/// One feed workload.
pub struct Spec {
    name: &'static str,
    kind: DatasetKind,
    /// Log size, as a multiple of the generator's default.
    scale: f64,
    tracks_flow: bool,
}

/// Bitcoin-shaped logs, one exact flow tracked per feed by a `FlowSession`.
pub const FEED_FLOW: Spec = Spec {
    name: "feed-flow",
    kind: DatasetKind::Bitcoin,
    scale: 0.125,
    tracks_flow: true,
};

/// CTU-13-shaped (hub-heavy) logs: the durable pattern monitor, no flow.
pub const FEED_PATTERNS: Spec = Spec {
    name: "feed-patterns",
    kind: DatasetKind::Ctu13,
    scale: 0.25,
    tracks_flow: false,
};

/// The rendered feed, topped up between batches so the reader never runs
/// dry: rendering is the load generator's cost and stays out of the timed
/// region.
struct FeedBuf {
    log: Rc<Log>,
    next_cycle: u64,
    bytes: Vec<u8>,
    read: usize,
    low_water: usize,
}

impl FeedBuf {
    fn new(log: Rc<Log>) -> Self {
        let mut first = Vec::new();
        log.render_cycle(0, &mut first);
        let low_water = first.len();
        let mut bytes = Vec::with_capacity(4 * low_water + 1024);
        log.render_header(&mut bytes);
        bytes.extend_from_slice(&first);
        let mut buf = FeedBuf {
            log,
            next_cycle: 1,
            bytes,
            read: 0,
            low_water,
        };
        buf.top_up();
        buf
    }

    /// Keeps at least one full cycle of unread bytes ahead of the reader.
    fn top_up(&mut self) {
        if self.bytes.len() - self.read >= self.low_water {
            return;
        }
        self.bytes.drain(..self.read);
        self.read = 0;
        self.log.render_cycle(self.next_cycle, &mut self.bytes);
        self.next_cycle += 1;
    }
}

struct FeedReader(Rc<RefCell<FeedBuf>>);

impl Read for FeedReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut buf = self.0.borrow_mut();
        let start = buf.read;
        let n = out.len().min(buf.bytes.len() - start);
        out[..n].copy_from_slice(&buf.bytes[start..start + n]);
        buf.read += n;
        Ok(n)
    }
}

/// One feed's generated input: its log, window, batch size, and the pair
/// it tracks.
struct Input {
    log: Rc<Log>,
    window: i64,
    batch_records: usize,
    pair: Option<(String, String)>,
}

impl Input {
    fn generate(spec: &Spec, seed: u64) -> Result<Input, String> {
        let log = Rc::new(Log::generate(spec.kind, spec.scale, seed));
        let window = log.span / 2;
        let batch_records = ((log.len() as f64 * BATCH_FRACTION).round() as usize).max(1);
        let pair = if spec.tracks_flow {
            let pair = log.busiest_pair(log.first_window(window));
            Some(pair.ok_or("a log has no pair to track")?)
        } else {
            None
        };
        Ok(Input {
            log,
            window,
            batch_records,
            pair,
        })
    }
}

/// One feed's live pipeline state after set-up.
struct Live {
    feed: Rc<RefCell<FeedBuf>>,
    stream: DeltaStream<FeedReader>,
    batch_records: usize,
    graph: TemporalGraph,
    tables: PathTables,
    journal: Journal,
    dir: PathBuf,
    session: Option<FlowSession>,
    /// Session statistics when the steady state began.
    session_start: SessionStats,
    /// The session's answer after the feed's last batch.
    flow: f64,
    frames: u64,
    snapshots: u64,
    /// This feed's batches so far.
    batches: u64,
}

/// Loads the feed's first window, builds the tables, opens the journal and
/// the flow session, and solves once. Returns the state and the time the
/// library calls took; rendering the feed is the load generator's and is
/// not timed.
fn set_up(
    input: &Input,
    dir: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Result<(Live, Duration), String> {
    let _ = std::fs::remove_dir_all(dir);
    let feed = alloc::outside_peak(|| Rc::new(RefCell::new(FeedBuf::new(input.log.clone()))));
    let first_records = input.log.first_window(input.window);
    let start = Instant::now();
    let stream = DeltaStream::new(FeedReader(feed.clone()), &LoaderConfig::default())
        .and_then(|s| s.window(input.window));
    let mut stream = ops.check("DeltaStream::new", stream).ok_or("stream")?;
    let first = ops
        .check("next_delta", stream.next_delta(first_records))
        .flatten()
        .ok_or("the feed yielded no first window")?;
    let mut graph = TemporalGraph::new();
    ops.check("TemporalGraph::apply", graph.apply(&first))
        .ok_or("first window rejected")?;
    let span = tracer.open(Call::TablesBuild, 0);
    let tables = PathTables::build(&graph, &TablesConfig::default());
    tracer.close(span);
    ops.ok();
    let journal = Journal::open(dir, JournalConfig::group_commit(GROUP_COMMIT));
    let mut journal = ops.check("Journal::open", journal).ok_or("journal")?;
    ops.check("Journal::append", journal.append(&first))
        .ok_or("journal append")?;
    let mut flow = 0.0;
    let session = match &input.pair {
        Some((source, sink)) => {
            let (s, t) = (graph.node_by_name(source), graph.node_by_name(sink));
            let (s, t) = s
                .zip(t)
                .ok_or("tracked pair missing from the first window")?;
            let session = FlowSession::new(&graph, s, t, FlowMethod::Lp);
            let mut session = ops.check("FlowSession::new", session).ok_or("session")?;
            flow = ops
                .check("FlowSession::solve", session.solve())
                .ok_or("first solve")?
                .flow;
            Some(session)
        }
        None => None,
    };
    let took = start.elapsed();
    let session_start = session.as_ref().map(|s| *s.stats()).unwrap_or_default();
    let live = Live {
        feed,
        stream,
        batch_records: input.batch_records,
        graph,
        tables,
        journal,
        dir: dir.to_path_buf(),
        session,
        session_start,
        flow,
        frames: 1,
        snapshots: 0,
        batches: 0,
    };
    Ok((live, took))
}

/// Cold re-solve of the tracked pair: the session oracle.
fn cold_flow(graph: &TemporalGraph, s: NodeId, t: NodeId) -> Result<(f64, usize), String> {
    let f = build_mcf(graph, s, t);
    let solution = f.problem.solve();
    if solution.status != LpStatus::Optimal {
        return Err(format!("cold solve ended {:?}", solution.status));
    }
    Ok((solution.flows[f.return_arc], solution.pivots))
}

/// Running sums of the per-layer counters.
#[derive(Default)]
struct Counters {
    evicted: u64,
    refreshed_groups: u64,
    kernel_calls: u64,
    rebuilds: u64,
    garbage_frac_sum: f64,
    garbage_samples: u64,
    instances: u64,
    journal_bytes: u64,
    journal_samples: u64,
    snapshot_bytes: u64,
    snapshots: u64,
    cold_solves: u64,
    cold_pivots: u64,
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let root = work_dir().join(format!("{}-{}", spec.name, std::process::id()));
    let result = measure(spec, seed, &root, seconds, trace);
    let _ = std::fs::remove_dir_all(&root);
    result
}

/// The seed of the run's `i`-th feed.
fn feed_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(i)
}

fn measure(
    spec: &Spec,
    seed: u64,
    root: &Path,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    tracer.set(trace);
    let mut batch_ms: Vec<f64> = Vec::with_capacity(1 << 17);
    let mut pattern_ms: Vec<f64> = Vec::with_capacity(1 << 17);
    let mut setups = Vec::with_capacity(256);
    let mut recover_ms = Vec::with_capacity(256);

    // Set the first feed up several times; the last set-up serves it.
    let mut input = Input::generate(spec, feed_seed(seed, 0))?;
    let mut live = None;
    let mut heap_base = 0;
    for round in 0..SETUPS {
        drop(live.take());
        if round + 1 == SETUPS {
            heap_base = alloc::reset_peak();
        }
        let dir = root.join(format!("feed-0-setup-{round}"));
        let (state, took) = set_up(&input, &dir, &mut tracer, &mut outcome.ops)?;
        setups.push(took.as_secs_f64());
        live = Some(state);
    }
    let mut live = live.expect("at least one set-up");
    tracer.set(false);

    let mut c = Counters::default();
    let mut peak_heap = None;
    // Batch times of the traced and untraced stretches of a traced run.
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let (mut records, mut live_peak, mut feeds, mut rows, mut tail_frames) = (0u64, 0, 1u64, 0, 0);
    let mut session_totals = SessionStats::default();
    let mut busy_s = 0.0;
    let mut batch = 0u64;
    loop {
        alloc::outside_peak(|| live.feed.borrow_mut().top_up());
        let traced = trace && (batch / TRACE_CHUNK) % 2 == 1;
        tracer.set(traced);
        let op = batch as u32;
        let rows_before = live.stream.report().rows;
        let snapshot_due = (live.batches + 1) % SNAPSHOT_EVERY == 0;
        let started = Instant::now();
        let root_span = tracer.open(Call::Batch, op);
        let answered = run_batch(
            &mut live,
            snapshot_due,
            &mut tracer,
            op,
            &mut outcome.ops,
            &mut c,
        );
        tracer.close(root_span);
        let took = started.elapsed();
        tracer.set(false);
        busy_s += took.as_secs_f64();
        batch_ms.push(took.as_secs_f64() * 1e3);
        if let Some(pattern_took) = answered {
            pattern_ms.push(pattern_took.as_secs_f64() * 1e3);
        }
        if trace {
            let stretch = if traced {
                &mut traced_ms
            } else {
                &mut plain_ms
            };
            stretch.push(took.as_secs_f64() * 1e3);
        }
        records += live.stream.report().rows - rows_before;
        live_peak = live_peak.max(live.graph.interaction_count());
        live.batches += 1;
        batch += 1;

        // Oracles, outside the timed region.
        alloc::outside_peak(|| {
            check(&live, &mut tracer, trace, &mut c, &mut outcome.mismatches);
            if live.batches % TABLE_CHECK_EVERY == 0 {
                check_tables(&live, &mut c, &mut outcome.mismatches);
            }
        });
        if batch == MIN_BATCHES {
            peak_heap = Some(alloc::peak_since(heap_base));
        }
        let done = (busy_s >= seconds && batch >= MIN_BATCHES) || !outcome.mismatches.is_empty();
        if !done && live.batches < LIFETIME {
            continue;
        }

        // Retire the feed: check it, recover its directory, and start the
        // next one.
        let retired =
            alloc::outside_peak(|| retire(&mut live, &mut tracer, trace, &mut c, &mut outcome));
        if let Some((took_ms, tail)) = retired {
            recover_ms.push(took_ms);
            tail_frames += tail;
        }
        rows += live.tables.row_count();
        if let Some(session) = &live.session {
            let (now, start) = (session.stats(), &live.session_start);
            session_totals.solves += now.solves - start.solves;
            session_totals.basis_hits += now.basis_hits - start.basis_hits;
            session_totals.warm_pivots += now.warm_pivots - start.warm_pivots;
            session_totals.cold_pivots += now.cold_pivots - start.cold_pivots;
            session_totals.fallback_cold += now.fallback_cold - start.fallback_cold;
            session_totals.compactions += now.compactions - start.compactions;
        }
        let dir = live.dir.clone();
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
        if done {
            break;
        }
        input = alloc::outside_peak(|| Input::generate(spec, feed_seed(seed, feeds)))?;
        let dir = root.join(format!("feed-{feeds}"));
        tracer.set(trace);
        let (state, took) = set_up(&input, &dir, &mut tracer, &mut outcome.ops)?;
        tracer.set(false);
        setups.push(took.as_secs_f64());
        live = state;
        feeds += 1;
    }

    let n = batch_ms.len();
    batch_ms.sort_by(f64::total_cmp);
    pattern_ms.sort_by(f64::total_cmp);
    setups.sort_by(f64::total_cmp);
    recover_ms.sort_by(f64::total_cmp);
    outcome.notes.push(format!(
        "{feeds} {}-shaped feeds in turn, {} records per cycle, windows of half a log's span, \
         {} records per batch, up to {LIFETIME} batches per feed",
        spec.kind,
        input.log.len(),
        input.batch_records,
    ));
    outcome.notes.push(format!(
        "{n} batches ({} beyond p99), {} pattern queries ({} beyond p90), {records} records \
         in {busy_s:.3} s of batch time",
        beyond(n, 0.99),
        pattern_ms.len(),
        beyond(pattern_ms.len(), 0.90),
    ));
    outcome.notes.push(format!(
        "recovery (snapshot + journal tail) of {} feeds: median {:.3} ms",
        recover_ms.len(),
        percentile(&recover_ms, 0.5)
    ));
    let m = &mut outcome.metrics;
    if !trace {
        m.push("records_per_s", records as f64 / busy_s, "rec/s");
        m.push("op_p50_ms", percentile(&batch_ms, 0.50), "ms");
        m.push("op_p99_ms", percentile(&batch_ms, 0.99), "ms");
        m.push("pattern_query_p50_ms", percentile(&pattern_ms, 0.50), "ms");
        m.push("pattern_query_p90_ms", percentile(&pattern_ms, 0.90), "ms");
        let peak = peak_heap.unwrap_or_else(|| alloc::peak_since(heap_base));
        m.push("peak_heap_mb", peak as f64 / (1024.0 * 1024.0), "MB");
        m.push("setup_s", percentile(&setups, 0.5), "s");
        return Ok(outcome);
    }

    let summary = tracer.summary();
    summary.layer_metrics(m);
    let per_op = |x: u64| x as f64 / batch.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut values = vec![
        ("tin_lp.cold_pivots", ratio(c.cold_pivots, c.cold_solves)),
        ("tin_patterns.refreshed_groups", per_op(c.refreshed_groups)),
        ("tin_patterns.kernel_calls", per_op(c.kernel_calls)),
        ("tin_patterns.rebuild_frac", per_op(c.rebuilds)),
        (
            "tin_patterns.garbage_frac",
            c.garbage_frac_sum / c.garbage_samples.max(1) as f64,
        ),
        (
            "tin_patterns.instances",
            ratio(c.instances, pattern_ms.len() as u64),
        ),
        ("tin_patterns.rows", ratio(rows as u64, feeds)),
        (
            "tin_durable.journal_bytes",
            ratio(c.journal_bytes, c.journal_samples),
        ),
        (
            "tin_durable.snapshot_bytes",
            ratio(c.snapshot_bytes, c.snapshots),
        ),
        (
            "tin_durable.tail_frames",
            ratio(tail_frames, recover_ms.len() as u64),
        ),
        ("tin_graph.evicted", per_op(c.evicted)),
        ("tin_graph.live_peak", live_peak as f64),
        ("tin_datasets.records", input.log.len() as f64),
        ("bench.unattributed_frac", summary.unattributed_frac()),
    ];
    // Medians: a few very slow solves landing in one kind of stretch would
    // swamp a comparison of means.
    traced_ms.sort_by(f64::total_cmp);
    plain_ms.sort_by(f64::total_cmp);
    if !traced_ms.is_empty() && !plain_ms.is_empty() {
        let overhead = percentile(&traced_ms, 0.5) / percentile(&plain_ms, 0.5) - 1.0;
        values.push(("bench.trace_overhead_frac", overhead));
    }
    if spec.tracks_flow {
        let t = &session_totals;
        let solves = t.solves as u64;
        values.extend([
            (
                "tin_flow.basis_hit_frac",
                ratio(t.basis_hits as u64, solves),
            ),
            (
                "tin_flow.warm_pivots",
                ratio(t.warm_pivots as u64, t.basis_hits as u64),
            ),
            (
                "tin_flow.fallback_cold",
                ratio(t.fallback_cold as u64, solves),
            ),
            ("tin_flow.compactions", per_op(t.compactions as u64)),
            (
                "tin_lp.pivots",
                ratio((t.warm_pivots + t.cold_pivots) as u64, solves),
            ),
        ]);
    }
    push_counters(m, &values);
    if let Some((call, share)) = summary.largest_layer() {
        outcome.notes.push(format!(
            "largest self-time layer: {} ({:.1}% of batch time)",
            call.name(),
            share * 100.0
        ));
    }
    let trace_file = work_dir().join(format!("trace-{}.tsv", spec.name));
    if let Err(e) = tracer.write_tsv(&trace_file) {
        outcome.notes.push(format!("trace not written: {e}"));
    }
    Ok(outcome)
}

/// The retirement oracles: tables against a rebuild, then a recovery of
/// the feed's directory, which must equal the live state. Returns the
/// recovery's time and the journal frames it replayed.
fn retire(
    live: &mut Live,
    tracer: &mut Tracer,
    trace: bool,
    c: &mut Counters,
    outcome: &mut Outcome,
) -> Option<(f64, u64)> {
    check_tables(live, c, &mut outcome.mismatches);
    let ops = &mut outcome.ops;
    ops.check("Journal::sync", live.journal.sync())?;
    tracer.set(trace);
    let started = Instant::now();
    let span = tracer.open(Call::Recover, 0);
    let recovered = Recovery::new(&live.dir, TablesConfig::default()).run();
    tracer.close(span);
    let took_ms = started.elapsed().as_secs_f64() * 1e3;
    tracer.set(false);
    let recovered = ops.check("Recovery::run", recovered)?;
    if recovered.graph != live.graph {
        outcome.mismatches.push(format!(
            "{}: recovered graph differs from the live graph",
            live.dir.display()
        ));
    }
    if let Some(d) = recovered.tables.first_row_divergence(&live.tables) {
        outcome.mismatches.push(format!(
            "{}: recovered tables differ: {d}",
            live.dir.display()
        ));
    }
    Some((took_ms, recovered.report.replayed))
}

/// Runs one batch of one feed through the pipeline. Returns the pattern
/// query's time when every call answered.
fn run_batch(
    live: &mut Live,
    snapshot_due: bool,
    tracer: &mut Tracer,
    op: u32,
    ops: &mut Ops,
    c: &mut Counters,
) -> Option<Duration> {
    let span = tracer.open(Call::NextDelta, op);
    let delta = live.stream.next_delta(live.batch_records);
    tracer.close(span);
    let delta = ops.check("next_delta", delta)?;
    let delta = ops.answer("next_delta on the cyclic feed", delta)?;

    let span = tracer.open(Call::GraphApply, op);
    let applied = live.graph.apply(&delta);
    tracer.close(span);
    let applied = ops.check("TemporalGraph::apply", applied)?;

    let before = live.journal.position();
    let durable = live.journal.durable_position();
    let span = tracer.open(Call::Append, op);
    let appended = live.journal.append(&delta);
    let synced = live.journal.durable_position() != durable;
    tracer.close_as(span, synced.then_some(Call::AppendSync));
    let after = ops.check("Journal::append", appended)?;
    live.frames += 1;
    if after.segment == before.segment {
        c.journal_bytes += after.offset - before.offset;
        c.journal_samples += 1;
    }

    let span = tracer.open(Call::TablesApply, op);
    let update = live.tables.apply(&live.graph, &applied);
    tracer.close(span);
    ops.ok();

    if let Some(session) = live.session.as_mut() {
        let span = tracer.open(Call::SessionAdvance, op);
        session.advance(&live.graph, &applied);
        tracer.close(span);
        ops.ok();
        let span = tracer.open(Call::SessionSolve, op);
        let solved = session.solve();
        tracer.close(span);
        live.flow = ops.check("FlowSession::solve", solved)?.flow;
    }

    let started = Instant::now();
    let span = tracer.open(Call::SearchPb, op);
    let answer = search_pb(&live.graph, &live.tables, PATTERN, 0);
    tracer.close(span);
    let pattern_took = started.elapsed();
    let answer = ops.answer("search_pb", answer)?;

    if snapshot_due {
        let span = tracer.open(Call::WriteSnapshot, op);
        let written = snapshot(live);
        tracer.close(span);
        c.snapshot_bytes += ops.check("snapshot", written)?;
        c.snapshots += 1;
    }

    c.evicted += applied.removed_interactions as u64;
    c.refreshed_groups += update.refreshed_groups as u64;
    c.kernel_calls += update.kernel_calls;
    c.rebuilds += u64::from(update.rebuilt);
    c.instances += answer.instances as u64;
    Some(pattern_took)
}

/// `DurableStore::snapshot`'s steps: sync the journal, commit the snapshot,
/// drop the segments it makes unreachable. Returns the snapshot's size.
fn snapshot(live: &mut Live) -> Result<u64, tin_durable::DurabilityError> {
    live.journal.sync()?;
    let position = live.journal.position();
    let seq = live.snapshots;
    write_snapshot(
        &live.dir,
        seq,
        &live.graph,
        &live.tables,
        position,
        live.frames,
    )?;
    live.snapshots += 1;
    compact_before(&live.dir, position)?;
    Ok(std::fs::metadata(snapshot_path(&live.dir, seq)).map_or(0, |m| m.len()))
}

/// The session oracle: every `COLD_CHECK_EVERY` batches of a feed, its
/// session's flow must equal a cold solve's.
fn check(
    live: &Live,
    tracer: &mut Tracer,
    trace: bool,
    c: &mut Counters,
    mismatches: &mut Vec<String>,
) {
    let Some(session) = &live.session else {
        return;
    };
    if !live.batches.is_multiple_of(COLD_CHECK_EVERY) {
        return;
    }
    tracer.set(trace);
    let span = tracer.open(Call::ColdSolve, live.batches as u32);
    let cold = cold_flow(&live.graph, session.source(), session.sink());
    tracer.close(span);
    tracer.set(false);
    match cold {
        Ok((cold, pivots)) => {
            c.cold_solves += 1;
            c.cold_pivots += pivots as u64;
            if !close_enough(live.flow, cold) {
                mismatches.push(format!(
                    "{} after {} batches: session flow {} != cold flow {cold}",
                    live.dir.display(),
                    live.batches,
                    live.flow
                ));
            }
        }
        Err(e) => mismatches.push(format!("cold solve failed: {e}")),
    }
}

/// Tables row-identical to a rebuild of the surviving window, a valid
/// graph, and PB answering the batch query exactly as GB does.
fn check_tables(live: &Live, c: &mut Counters, mismatches: &mut Vec<String>) {
    if let Err(e) = live.graph.validate() {
        mismatches.push(format!("live graph invalid: {e:?}"));
    }
    let rebuilt = PathTables::build(&live.graph, &TablesConfig::default());
    if let Some(d) = live.tables.first_row_divergence(&rebuilt) {
        mismatches.push(format!("tables differ from a rebuild: {d}"));
    }
    let gb = search_gb(&live.graph, PATTERN, 0);
    match search_pb(&live.graph, &live.tables, PATTERN, 0) {
        Some(pb) if pb.instances == gb.instances && close_enough(pb.total_flow, gb.total_flow) => {}
        other => mismatches.push(format!(
            "PB {:?} disagrees with GB ({} instances, total flow {})",
            other.map(|r| (r.instances, r.total_flow)),
            gb.instances,
            gb.total_flow
        )),
    }
    let t = &live.tables;
    let (arena, garbage) = [&t.l2, &t.l3, &t.c2].iter().fold((0, 0), |(a, g), table| {
        (a + table.arena_len(), g + table.garbage_len())
    });
    c.garbage_frac_sum += garbage as f64 / arena.max(1) as f64;
    c.garbage_samples += 1;
}
