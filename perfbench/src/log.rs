//! The load generator: a dataset-shaped transaction log built from the
//! seed with the `tin_datasets` generators, in timestamp order.
//!
//! The program under test only ever sees the CSV bytes this module renders.
//! Rows are sorted by timestamp with ties kept in the generator's order, as
//! a real feed arrives. (Replaying a log written edge by edge through a
//! sliding window admits most late records only to evict them at once,
//! which is a different regime from a real feed.)

use tin_datasets::{
    generate_bitcoin, generate_ctu13, generate_prosper, BitcoinConfig, Ctu13Config, DatasetKind,
    ProsperConfig,
};
use tin_graph::TemporalGraph;

/// One record of the log.
#[derive(Debug, Clone, Copy)]
struct Row {
    src: u32,
    dst: u32,
    time: i64,
    quantity: f64,
}

/// A generated log, sorted by time.
#[derive(Debug)]
pub struct Log {
    names: Vec<String>,
    rows: Vec<Row>,
    /// Time between the first and the last record.
    pub span: i64,
    /// Time shift between two consecutive cycles of a replayed feed: the
    /// span plus the mean gap between records, so cycles neither overlap
    /// nor leave a hole.
    pub period: i64,
}

const HEADER: &[u8] = b"sender,recipient,timestamp,amount\n";

impl Log {
    /// Generates the `kind`-shaped log at `scale` (a multiplier of the
    /// generator's default size) from `seed`.
    pub fn generate(kind: DatasetKind, scale: f64, seed: u64) -> Log {
        let graph = match kind {
            DatasetKind::Bitcoin => generate_bitcoin(
                &BitcoinConfig {
                    seed,
                    ..BitcoinConfig::default()
                }
                .scaled(scale),
            ),
            DatasetKind::Ctu13 => generate_ctu13(
                &Ctu13Config {
                    seed,
                    ..Ctu13Config::default()
                }
                .scaled(scale),
            ),
            DatasetKind::Prosper => generate_prosper(
                &ProsperConfig {
                    seed,
                    ..ProsperConfig::default()
                }
                .scaled(scale),
            ),
        };
        Log::from_graph(&graph)
    }

    fn from_graph(graph: &TemporalGraph) -> Log {
        let names = (0..graph.node_count())
            .map(|i| graph.node(tin_graph::NodeId(i as u32)).name.clone())
            .collect();
        let mut rows = Vec::with_capacity(graph.interaction_count());
        for edge in graph.edges() {
            for i in &edge.interactions {
                rows.push(Row {
                    src: edge.src.0,
                    dst: edge.dst.0,
                    time: i.time,
                    quantity: i.quantity,
                });
            }
        }
        // Stable: ties keep the generator's (edge-major) order.
        rows.sort_by_key(|r| r.time);
        let first = rows.first().map_or(0, |r| r.time);
        let last = rows.last().map_or(0, |r| r.time);
        let span = last - first;
        let period = span + (span / rows.len().max(1) as i64).max(1);
        Log {
            names,
            rows,
            span,
            period,
        }
    }

    /// Records in one cycle of the log.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Records of the first cycle whose time lies within `window` of the
    /// first record: the feed's first window.
    pub fn first_window(&self, window: i64) -> usize {
        let Some(first) = self.rows.first() else {
            return 0;
        };
        self.rows.partition_point(|r| r.time <= first.time + window)
    }

    /// The pair an analyst would track over the first `records` rows: the
    /// account sending the largest total and the one receiving the largest
    /// total (other than the sender).
    pub fn busiest_pair(&self, records: usize) -> Option<(String, String)> {
        let n = self.names.len();
        let (mut sent, mut received) = (vec![0.0f64; n], vec![0.0f64; n]);
        for r in &self.rows[..records.min(self.rows.len())] {
            if r.quantity.is_finite() {
                sent[r.src as usize] += r.quantity;
                received[r.dst as usize] += r.quantity;
            }
        }
        let argmax = |xs: &[f64], skip: Option<usize>| {
            (0..n)
                .filter(|&i| Some(i) != skip && xs[i] > 0.0)
                .max_by(|&a, &b| xs[a].total_cmp(&xs[b]))
        };
        let source = argmax(&sent, None)?;
        let sink = argmax(&received, Some(source))?;
        Some((self.names[source].clone(), self.names[sink].clone()))
    }

    /// Appends the CSV header line.
    pub fn render_header(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(HEADER);
    }

    /// Appends cycle `cycle` of the log as CSV rows, every timestamp shifted
    /// by `cycle * period`.
    pub fn render_cycle(&self, cycle: u64, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let shift = self.period * cycle as i64;
        for r in &self.rows {
            let (src, dst) = (&self.names[r.src as usize], &self.names[r.dst as usize]);
            let time = r.time + shift;
            if r.quantity.is_finite() {
                writeln!(out, "{src},{dst},{time},{}", r.quantity)
            } else {
                writeln!(out, "{src},{dst},{time},inf")
            }
            .expect("writing to a Vec cannot fail");
        }
    }

    /// The whole log once, as CSV bytes.
    pub fn to_csv(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER.len() + self.rows.len() * 40);
        self.render_header(&mut out);
        self.render_cycle(0, &mut out);
        out
    }
}
