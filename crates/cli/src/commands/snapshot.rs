//! `hindex snapshot` / `hindex restore`: durable engine checkpoints.
//!
//! `snapshot` ingests a prefix of a cash-register stream into a
//! sharded engine, takes a checkpoint, and writes the versioned binary
//! frame to a file. `restore` reads the frame back, takes the
//! estimator kind from the shard frames' type tag, respawns the
//! engine, replays the *same* stream from the recorded offset, and
//! prints the final answer — which is bit-identical to a run that was
//! never interrupted (same seed, same routing).

use crate::args::Parsed;
use crate::io::read_cash_register;
use hindex_baseline::CashTable;
use hindex_common::snapshot::{Snapshot, SnapshotError};
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
#[expect(
    clippy::indexing_slicing,
    reason = "`cut ≤ updates.len()` is checked above"
)]
pub(crate) fn run_snapshot(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let out_path = parsed.str_required("out")?.to_string();
    let eps = Epsilon::new(parsed.f64_or("eps", 0.2)?).map_err(|e| e.to_string())?;
    let delta = Delta::new(parsed.f64_or("delta", 0.1)?).map_err(|e| e.to_string())?;
    let algorithm = parsed.str_or("algorithm", "sketch").to_string();
    let seed = parsed.u64_or("seed", 0)?;
    let shards = parsed.usize_or("shards", 4)?;
    let batch = parsed.usize_or("batch", 1024)?;
    let updates = read_cash_register(input, "snapshot")?;
    let cut = match parsed.u64_opt("cut")? {
        Some(c) => {
            let c = usize::try_from(c).unwrap_or(usize::MAX);
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
/// final H-index. The shard frames' type tag names the estimator, so
/// an exact checkpoint fails the sketch decode on its tag alone and is
/// decoded as one; a frame of neither kind is a typed decode error.
///
/// # Errors
///
/// Bad flags, an unreadable or corrupt checkpoint (typed decode errors
/// are reported, never panics), or a stream shorter than the offset.
pub(crate) fn run_restore(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let in_path = parsed.str_required("in")?.to_string();
    let bytes =
        std::fs::read(&in_path).map_err(|e| format!("cannot read `{in_path}`: {e}"))?;
    let updates = read_cash_register(input, "restore")?;

    let corrupt = |e: SnapshotError| format!("corrupt checkpoint: {e}");
    let (algorithm, (estimate, offset, replayed, shards)) =
        match EngineCheckpoint::<CashRegisterHIndex>::read_from(&bytes) {
            Ok((sketch, _)) => ("sketch", replay(sketch, &updates)?),
            Err(SnapshotError::WrongTag { .. }) => {
                let (exact, _) =
                    EngineCheckpoint::<CashTable>::read_from(&bytes).map_err(corrupt)?;
                ("exact", replay(exact, &updates)?)
            }
            Err(e) => return Err(corrupt(e)),
        };
    Ok(format!(
        "algorithm : {algorithm}\nresumed at: {offset}\nreplayed  : {replayed} updates\n\
         shards    : {shards}\nh-index   : {estimate}\n",
    ))
}

/// Respawns a decoded checkpoint, replays the stream suffix, and
/// returns `(estimate, offset, replayed, shards)`.
#[expect(
    clippy::indexing_slicing,
    reason = "`skip ≤ updates.len()` is checked above"
)]
fn replay<E>(
    checkpoint: EngineCheckpoint<E>,
    updates: &[(u64, u64)],
) -> Result<(u64, u64, usize, usize), String>
where
    E: BatchIngest<(u64, u64)>
        + CashRegisterEstimator
        + Clone
        + Mergeable
        + Send
        + Sync
        + 'static,
{
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
    let mut engine = ShardedEngine::restore(checkpoint).map_err(|e| e.to_string())?;
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

            // The kind comes from the checkpoint's frames, not a flag.
            let restored = run_str(&["restore", "--in", &path], &stream).unwrap();
            assert!(restored.contains(&format!("algorithm : {algorithm}")), "{restored}");
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
        let err = run_str(&["restore", "--in", &path], stream).unwrap_err();
        assert!(err.contains("corrupt checkpoint"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_frames_of_neither_kind_rejected() {
        use hindex_common::snapshot::Snapshot;
        use hindex_common::{Delta, Engine, Epsilon};
        use hindex_core::TurnstileHIndex;
        use hindex_engine::{EngineConfig, ShardedEngine};
        use rand::{rngs::StdRng, SeedableRng};
        // A turnstile engine's checkpoint is well-formed, but its shard
        // frames are neither sketch nor exact states: a tag error, not
        // a panic.
        let eps = Epsilon::new(0.5).unwrap();
        let prototype =
            TurnstileHIndex::new(eps, Delta::new(0.5).unwrap(), &mut StdRng::seed_from_u64(1));
        let mut engine = ShardedEngine::new(EngineConfig::with_shards(2), prototype);
        engine.ingest_batch(&[(1u64, 5i64), (2, -1)]);
        let bytes = engine.checkpoint().unwrap().to_bytes();
        engine.finish().unwrap();
        let path = scratch("turnstile.ckpt");
        std::fs::write(&path, bytes).unwrap();
        let err = run_str(&["restore", "--in", &path], "1 5\n").unwrap_err();
        assert!(
            err.contains("corrupt checkpoint: snapshot type tag mismatch"),
            "{err}"
        );
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
        let err = run_str(&["restore", "--in", &path], "1 5\n").unwrap_err();
        assert!(err.contains("only 1 updates"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
