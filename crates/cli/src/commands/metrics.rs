//! `hindex metrics`: run an instrumented engine and print its metrics
//! snapshot in Prometheus text exposition format.
//!
//! Reads a cash-register stream from stdin like `hindex engine`; when
//! the input is empty, a deterministic synthetic workload is used so
//! the command always renders a populated snapshot. The tail of the
//! event trace can be appended with `--trace K`.

use crate::args::Parsed;
use crate::io::read_cash_register;
use hindex_baseline::CashTable;
use hindex_common::Engine;
use hindex_engine::{EngineConfig, ShardedEngine};
use hindex_obs::EngineObserver;
use std::io::Read;
use std::sync::Arc;

/// Runs the `metrics` subcommand.
///
/// # Errors
///
/// Bad flags, malformed input, or negative deltas.
pub(crate) fn run(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let shards = parsed.u64_or("shards", 4)? as usize;
    let batch = parsed.u64_or("batch", 64)? as usize;
    let n = parsed.u64_or("n", 10_000)?;
    let trace = parsed.u64_or("trace", 0)? as usize;
    let mut updates = read_cash_register(input, "metrics")?;
    if updates.is_empty() {
        // Deterministic synthetic workload: n updates over 300 papers.
        updates = (0..n).map(|k| (k % 300, 1)).collect();
    }

    let observer = Arc::new(EngineObserver::new(shards));
    let config = EngineConfig::builder()
        .shards(shards)
        .batch(batch)
        .observer(Arc::clone(&observer))
        .build()
        .map_err(|e| e.to_string())?;
    let mut engine = ShardedEngine::new(config, CashTable::new());
    engine.ingest_batch(&updates);
    let checkpoint = engine.checkpoint().map_err(|e| e.to_string())?;
    let _ = engine.query().map_err(|e| e.to_string())?;
    engine.finish().map_err(|e| e.to_string())?;
    drop(checkpoint);

    let snap = observer.snapshot();
    let mut out = snap.render_text();
    if trace > 0 {
        out.push_str("\n# event trace (most recent last)\n");
        let events = snap.events;
        let skip = events.len().saturating_sub(trace);
        for e in &events[skip..] {
            let shard = e.shard.map_or("-".to_string(), |s| s.to_string());
            out.push_str(&format!(
                "# seq={} tick={} kind={} shard={} value={}\n",
                e.seq,
                e.tick,
                e.kind.name(),
                shard,
                e.value,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::run_str;

    #[test]
    fn metrics_renders_nonempty_snapshot_without_input() {
        let out = run_str(&["metrics"], "").unwrap();
        assert!(out.contains("hindex_engine_items_total 10000"), "{out}");
        assert!(out.contains("hindex_engine_checkpoints_total 1"), "{out}");
        assert!(out.contains("hindex_engine_merges_total"), "{out}");
        assert!(out.contains("# HELP"), "{out}");
    }

    #[test]
    fn metrics_reads_piped_stream() {
        let stream = "1 5\n2 4\n3 3\n";
        let out = run_str(&["metrics", "--shards", "2", "--batch", "2"], stream).unwrap();
        assert!(out.contains("hindex_engine_items_total 3"), "{out}");
    }

    #[test]
    fn trace_flag_appends_events() {
        let out = run_str(&["metrics", "--trace", "5", "--n", "100"], "").unwrap();
        assert!(out.contains("# event trace"), "{out}");
        assert!(out.contains("kind="), "{out}");
    }
}
