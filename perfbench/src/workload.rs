//! The three workloads: the engine geometry each one runs and the
//! input it feeds, made from the seed alone.
//!
//! The workloads span key duplication from 0% to more than 99.9%,
//! because duplication decides which layer does the work:
//!
//! | workload          | keys                         | estimator      | engine                  |
//! |-------------------|------------------------------|----------------|-------------------------|
//! | `distinct_sketch` | each paper once (0% dup)     | Alg 6          | `ShardedEngine`         |
//! | `exact_firehose`  | ~1k hot papers (>99.9% dup)  | `CashTable`    | `ShardedEngine`         |
//! | `live_dashboard`  | tens of thousands, Zipf      | Alg 6          | `SupervisedEngine` + read plane |

use hindex_common::h_index;
use hindex_stream::generator::sample_zipf;
use hindex_stream::{CitationDist, CorpusGenerator, ProductivityDist};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::Write;

/// One cash-register update `(paper, delta)`, the engine's item type.
pub type Item = (u64, u64);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every paper once with its Zipf citation total, shuffled.
    DistinctSketch,
    /// Unit updates over about 1k Zipf-hot papers, exact table.
    ExactFirehose,
    /// Zipf unit updates, supervised engine, read plane, live reader.
    LiveDashboard,
}

/// Which estimator the engine hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 6 (`CashRegisterHIndex`) at the CLI defaults.
    Sketch,
    /// The exact `CashTable` baseline.
    Exact,
}

/// Everything that defines one workload's run, apart from the seed.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Stream length in updates (for `distinct_sketch`, papers).
    pub updates: usize,
    /// Papers the Zipf draws range over (`0`: one update per paper).
    pub universe: u64,
    /// Zipf exponent of the key (or citation-total) distribution.
    pub exponent: f64,
    /// Estimator hosted by the engine.
    pub algorithm: Algorithm,
    /// `SupervisedEngine` at the CLI supervision defaults when set,
    /// plain `ShardedEngine` otherwise.
    pub supervised: bool,
    /// Read-plane publish cadence in routed items (`None`: no plane).
    pub publish_interval: Option<u64>,
    /// Open-loop reader rate, reads per second (read plane only).
    pub read_hz: f64,
    /// Worker shards (never more than the host's cores).
    pub shards: usize,
    /// Items per worker batch (CLI default 1024).
    pub batch: usize,
    /// Batches in flight per shard (CLI default 4).
    pub queue_depth: usize,
    /// Items per `ingest_batch` call made by the feeder.
    pub chunk: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DistinctSketch,
        Workload::ExactFirehose,
        Workload::LiveDashboard,
    ];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DistinctSketch => "distinct_sketch",
            Workload::ExactFirehose => "exact_firehose",
            Workload::LiveDashboard => "live_dashboard",
        }
    }

    /// The run definition; `scale` multiplies the stream length (the
    /// smoke test runs at a tiny scale).
    pub fn spec(self, scale: f64, cores: usize) -> Spec {
        let base = Spec {
            updates: 0,
            universe: 0,
            exponent: 2.0,
            algorithm: Algorithm::Sketch,
            supervised: false,
            publish_interval: None,
            read_hz: 0.0,
            shards: cores.clamp(1, 2),
            batch: 1024,
            queue_depth: 4,
            chunk: 1024,
        };
        let spec = match self {
            Workload::DistinctSketch => Spec {
                updates: 40_000,
                ..base
            },
            Workload::ExactFirehose => Spec {
                updates: 3_000_000,
                universe: 1_000,
                exponent: 1.1,
                algorithm: Algorithm::Exact,
                ..base
            },
            Workload::LiveDashboard => Spec {
                updates: 50_000,
                universe: 40_000,
                exponent: 1.2,
                supervised: true,
                publish_interval: Some(8_192),
                read_hz: 15.0,
                ..base
            },
        };
        let updates = ((spec.updates as f64 * scale).round() as usize).max(64);
        Spec { updates, ..spec }
    }
}

/// A generated input: the items, their text form, and the exact
/// answer the reference computes from them.
pub struct Input {
    /// The update stream, in stream order.
    pub items: Vec<Item>,
    /// The same stream as `paper delta` lines — what the parse layer
    /// reads on every pass.
    pub text: Vec<u8>,
    /// Exact H-index of the whole stream.
    pub exact_h: u64,
    /// Distinct papers in the stream (the `D` of Alg 6's `ε·D` bound).
    pub distinct: u64,
}

impl Input {
    /// The text of the stream rotated to start at item `start`, as two
    /// slices to read one after the other.
    pub fn text_from(&self, start: usize) -> (&[u8], &[u8]) {
        let at = match start {
            0 => 0,
            _ => self
                .text
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .nth(start - 1)
                .map_or(self.text.len(), |(i, _)| i + 1),
        };
        (&self.text[at..], &self.text[..at])
    }

    /// The items of the stream rotated to start at item `start`.
    pub fn items_from(&self, start: usize) -> Vec<Item> {
        self.items[start..]
            .iter()
            .chain(&self.items[..start])
            .copied()
            .collect()
    }
}

/// Where pass `pass` starts the stream: evenly spread, seed-derived
/// offsets. Both estimators' states are independent of update order,
/// so every rotation has the same answer and the same state digest,
/// while end-of-stream effects (the last partial batches, where the
/// checkpoint cadence falls) vary from pass to pass instead of from
/// seed to seed.
pub fn rotation(seed: u64, pass: usize, len: usize) -> usize {
    const GOLDEN: f64 = 0.618_033_988_749_895;
    let phase = (seed % 1024) as f64 / 1024.0 + pass as f64 * GOLDEN;
    (phase.fract() * len as f64) as usize % len.max(1)
}

/// Builds the input of `workload` from `seed`: the same seed gives the
/// same input.
pub fn generate(workload: Workload, spec: &Spec, seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<Item> = match workload {
        Workload::DistinctSketch => {
            let corpus = CorpusGenerator {
                n_authors: 1,
                productivity: ProductivityDist::Constant(spec.updates as u64),
                citations: CitationDist::Zipf {
                    exponent: spec.exponent,
                    max: 100_000,
                },
                max_coauthors: 1,
                seed,
            }
            .generate();
            let mut items: Vec<Item> = corpus
                .papers()
                .iter()
                .map(|p| (p.id.0, p.citations))
                .collect();
            items.shuffle(&mut rng);
            items
        }
        Workload::ExactFirehose | Workload::LiveDashboard => (0..spec.updates)
            .map(|_| (sample_zipf(spec.exponent, spec.universe, &mut rng) - 1, 1))
            .collect(),
    };
    let mut text = Vec::with_capacity(items.len() * 12);
    for &(paper, delta) in &items {
        writeln!(text, "{paper} {delta}").expect("writing to a Vec cannot fail");
    }
    let mut totals: HashMap<u64, u64> = HashMap::new();
    for &(paper, delta) in &items {
        *totals.entry(paper).or_default() += delta;
    }
    let counts: Vec<u64> = totals.values().copied().collect();
    Input {
        exact_h: h_index(&counts),
        distinct: totals.len() as u64,
        items,
        text,
    }
}
