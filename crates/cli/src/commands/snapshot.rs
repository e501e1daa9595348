//! `hindex snapshot` / `hindex restore`: durable engine checkpoints.
//!
//! `snapshot` ingests a prefix of a cash-register stream into a
//! sharded engine, takes a checkpoint, and writes the versioned binary
//! frame to a file. `restore` reads the frame back, respawns the
//! engine, replays the *same* stream from the recorded offset, and
//! prints the final answer — which is bit-identical to a run that was
//! never interrupted (same seed, same routing).

use crate::args::Parsed;
use crate::io::read_cash_register;
use hindex_baseline::CashTable;
use hindex_common::snapshot::Snapshot;
use hindex_common::{
    CashRegisterEstimator, Delta, Engine, Epsilon, Estimate, Mergeable, SpaceUsage,
};
use hindex_core::{CashRegisterHIndex, CashRegisterParams};
use hindex_engine::{BatchIngest, EngineCheckpoint, EngineConfig, ShardedEngine};
use hindex_obs::{EngineObserver, Stopwatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;
use std::sync::Arc;

/// Runs the `snapshot` subcommand: ingest `--cut` updates (default:
/// all of them), checkpoint, and write the frame to `--out`.
///
/// # Errors
///
/// Bad flags, malformed input, or an unwritable `--out` path.
pub(crate) fn run_snapshot(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let out_path = parsed.str_required("out")?.to_string();
    let eps = Epsilon::new(parsed.f64_or("eps", 0.2)?).map_err(|e| e.to_string())?;
    let delta = Delta::new(parsed.f64_or("delta", 0.1)?).map_err(|e| e.to_string())?;
    let algorithm = parsed.str_or("algorithm", "sketch").to_string();
    let seed = parsed.u64_or("seed", 0)?;
    let shards = parsed.u64_or("shards", 4)? as usize;
    let batch = parsed.u64_or("batch", 1024)? as usize;
    let updates = read_cash_register(input, "snapshot")?;
    let cut = match parsed.u64_opt("cut")? {
        Some(c) => {
            let c = c as usize;
            if c > updates.len() {
                return Err(format!(
                    "--cut {c} exceeds the stream length {}",
                    updates.len()
                ));
            }
            c
        }
        None => updates.len(),
    };
    let observer = Arc::new(EngineObserver::new(shards));
    let config = EngineConfig::builder()
        .shards(shards)
        .batch(batch)
        .observer(Arc::clone(&observer))
        .build()
        .map_err(|e| e.to_string())?;

    let (bytes, offset) = match algorithm.as_str() {
        "sketch" => {
            let params = CashRegisterParams::Additive { epsilon: eps, delta };
            let prototype = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(seed));
            checkpoint_bytes(config, prototype, &updates[..cut])?
        }
        "exact" => checkpoint_bytes(config, CashTable::new(), &updates[..cut])?,
        other => return Err(format!("unknown --algorithm `{other}` (sketch|exact)")),
    };
    let len = bytes.len();
    std::fs::write(&out_path, bytes).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    let encode_ns = observer.snapshot().snapshot_ns.mean_ns;
    Ok(format!(
        "algorithm : {algorithm}\ningested  : {cut} of {} updates\n\
         offset    : {offset}\ncheckpoint: {out_path} ({len} bytes)\n\
         encode    : {encode_ns} ns\n",
        updates.len(),
    ))
}

/// Ingests a prefix and returns the encoded checkpoint plus its
/// recorded stream offset.
fn checkpoint_bytes<E>(
    config: EngineConfig,
    prototype: E,
    prefix: &[(u64, u64)],
) -> Result<(Vec<u8>, u64), String>
where
    E: BatchIngest<(u64, u64)>
        + Clone
        + Mergeable
        + Snapshot
        + Estimate
        + SpaceUsage
        + Send
        + Sync
        + 'static,
{
    let observer = config.observer().cloned();
    let mut engine = ShardedEngine::new(config, prototype);
    engine.ingest_batch(prefix);
    let checkpoint = engine.checkpoint().map_err(|e| e.to_string())?;
    let offset = checkpoint.stream_offset();
    // Retire the workers cleanly; the checkpoint already owns the state.
    engine.finish().map_err(|e| e.to_string())?;
    let sw = Stopwatch::start();
    let bytes = checkpoint.to_bytes();
    if let Some(o) = &observer {
        o.on_snapshot_encode(offset, bytes.len() as u64, sw.elapsed_nanos());
    }
    Ok((bytes, offset))
}

/// Runs the `restore` subcommand: decode `--in`, respawn the engine,
/// replay the piped stream from the recorded offset, and print the
/// final H-index.
///
/// # Errors
///
/// Bad flags, an unreadable or corrupt checkpoint (typed decode errors
/// are reported, never panics), or a stream shorter than the offset.
pub(crate) fn run_restore(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let in_path = parsed.str_required("in")?.to_string();
    let algorithm = parsed.str_or("algorithm", "sketch").to_string();
    let bytes =
        std::fs::read(&in_path).map_err(|e| format!("cannot read `{in_path}`: {e}"))?;
    let updates = read_cash_register(input, "restore")?;

    let (estimate, offset, replayed, shards) = match algorithm.as_str() {
        "sketch" => restore_and_replay::<CashRegisterHIndex>(&bytes, &updates)?,
        "exact" => restore_and_replay::<CashTable>(&bytes, &updates)?,
        other => return Err(format!("unknown --algorithm `{other}` (sketch|exact)")),
    };
    Ok(format!(
        "algorithm : {algorithm}\nresumed at: {offset}\nreplayed  : {replayed} updates\n\
         shards    : {shards}\nh-index   : {estimate}\n",
    ))
}

/// Decodes a checkpoint, replays the stream suffix, and returns
/// `(estimate, offset, replayed, shards)`.
fn restore_and_replay<E>(
    bytes: &[u8],
    updates: &[(u64, u64)],
) -> Result<(u64, u64, usize, usize), String>
where
    E: BatchIngest<(u64, u64)>
        + CashRegisterEstimator
        + Clone
        + Mergeable
        + Snapshot
        + SpaceUsage
        + Send
        + Sync
        + 'static,
{
    let sw = Stopwatch::start();
    let (checkpoint, _) = EngineCheckpoint::<E>::read_from(bytes)
        .map_err(|e| format!("corrupt checkpoint: {e}"))?;
    let decode_ns = sw.elapsed_nanos();
    let offset = checkpoint.stream_offset();
    let skip = usize::try_from(offset).map_err(|_| "checkpoint offset overflows usize")?;
    if skip > updates.len() {
        return Err(format!(
            "checkpoint was taken at offset {offset} but the stream has only {} updates; \
             pipe the same stream the snapshot saw",
            updates.len()
        ));
    }
    let shards = checkpoint.config().shards;
    // Observers are never serialised; re-attach a fresh one so the
    // decode timing and the replay both land in instrumented state.
    let observer = Arc::new(EngineObserver::new(shards));
    observer.on_snapshot_decode(offset, bytes.len() as u64, decode_ns);
    let mut engine =
        ShardedEngine::restore(checkpoint.with_observer(observer)).map_err(|e| e.to_string())?;
    let suffix = &updates[skip..];
    engine.ingest_batch(suffix);
    let merged = engine.finish().map_err(|e| e.to_string())?;
    Ok((merged.estimate(), offset, suffix.len(), shards))
}

#[cfg(test)]
mod tests {
    use crate::run_str;

    /// A unique scratch path inside the target-managed temp dir.
    fn scratch(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("hindex-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn stream() -> String {
        (0..300u64).map(|k| format!("{} 1\n", k % 40)).collect()
    }

    #[test]
    fn snapshot_then_restore_matches_uninterrupted_run() {
        let stream = stream();
        let path = scratch("exact.ckpt");
        for algorithm in ["exact", "sketch"] {
            let full = run_str(
                &["engine", "--algorithm", algorithm, "--seed", "7", "--shards", "3"],
                &stream,
            )
            .unwrap();
            let want = full.lines().find(|l| l.starts_with("h-index")).unwrap().to_string();

            let snap = run_str(
                &[
                    "snapshot", "--algorithm", algorithm, "--seed", "7", "--shards", "3",
                    "--cut", "150", "--out", &path,
                ],
                &stream,
            )
            .unwrap();
            assert!(snap.contains("offset    : 150"), "{snap}");

            let restored = run_str(
                &["restore", "--algorithm", algorithm, "--in", &path],
                &stream,
            )
            .unwrap();
            assert!(restored.contains("resumed at: 150"), "{restored}");
            assert!(restored.contains("replayed  : 150"), "{restored}");
            let got = restored
                .lines()
                .find(|l| l.starts_with("h-index"))
                .unwrap()
                .to_string();
            assert_eq!(got, want, "{algorithm}: full:\n{full}\nrestored:\n{restored}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let path = scratch("corrupt.ckpt");
        let stream = "1 5\n2 4\n3 3\n";
        run_str(
            &["snapshot", "--algorithm", "exact", "--out", &path],
            stream,
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = run_str(&["restore", "--algorithm", "exact", "--in", &path], stream)
            .unwrap_err();
        assert!(err.contains("corrupt checkpoint"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_algorithm_tag_rejected() {
        let path = scratch("mismatch.ckpt");
        let stream = "1 5\n2 4\n3 3\n";
        run_str(
            &["snapshot", "--algorithm", "exact", "--out", &path],
            stream,
        )
        .unwrap();
        // The exact checkpoint holds CashTable frames; decoding them as
        // sketch states must fail with a tag error, not a panic.
        let err = run_str(&["restore", "--algorithm", "sketch", "--in", &path], stream)
            .unwrap_err();
        assert!(err.contains("corrupt checkpoint"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cut_beyond_stream_rejected() {
        let err = run_str(
            &["snapshot", "--cut", "10", "--out", "/dev/null"],
            "1 1\n",
        )
        .unwrap_err();
        assert!(err.contains("--cut"), "{err}");
    }

    #[test]
    fn missing_out_flag_reported() {
        let err = run_str(&["snapshot"], "1 1\n").unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn short_replay_stream_rejected() {
        let path = scratch("short.ckpt");
        run_str(
            &["snapshot", "--algorithm", "exact", "--out", &path],
            "1 5\n2 4\n3 3\n",
        )
        .unwrap();
        let err = run_str(&["restore", "--algorithm", "exact", "--in", &path], "1 5\n")
            .unwrap_err();
        assert!(err.contains("only 1 updates"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
