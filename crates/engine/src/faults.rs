//! Deterministic fault injection for chaos-testing supervision.
//!
//! A [`FaultPlan`] is a finite, ordered set of faults — kill a shard's
//! worker at a stream tick, fail the next *k* sends to a shard, stall
//! a worker — that the engine checks at every batch dispatch, before
//! it drains recovery bases. Fault *decisions* are pure functions of
//! the plan and the engine's logical tick, so a seeded chaos run is
//! replayable: the same plan against the same stream injects the same
//! faults at the same points and (within replay-log bounds) recovers
//! to the same bits. Every injection is traced (`FaultInjected`) and
//! counted.
//!
//! # Nondeterminism seam
//!
//! This file is the **only** place in the engine allowed to touch wall
//! clocks or entropy, and only to *choose a seed*: `rand=N@now`
//! derives a plan seed from `SystemTime` and echoes it in
//! [`FaultPlan::seed`], so an operator can re-run the exact plan a
//! chaos run used. Everything downstream of the seed is deterministic.
//! It is also the only place allowed an unconditional `panic!`
//! ([`detonate`]) — the panic *is* the injected fault, delivered on
//! the worker thread so recovery exercises the real crash path. Both
//! are explicit, audited exceptions: `wall_clock_seed` carries an
//! `allow` for the `clippy.toml` wall-clock ban, and the `panic!` an
//! `#[expect(clippy::panic, reason = …)]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a single fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the shard's worker thread (delivered as a poison command,
    /// so the worker dies on the real panic path after applying every
    /// batch queued before it).
    Kill,
    /// Fail the next `arg` sends to the shard: the batches are logged
    /// but not delivered, and the worker lineage is retired so the
    /// healed lineage replays them in order.
    FailSends,
    /// Make the worker sleep `arg` milliseconds (delays its cuts and
    /// backpressures the router; never changes results).
    Stall,
}

impl FaultKind {
    /// Stable code recorded as the `FaultInjected` trace value.
    #[must_use]
    pub(crate) fn code(self) -> u64 {
        match self {
            FaultKind::Kill => 1,
            FaultKind::FailSends => 2,
            FaultKind::Stall => 3,
        }
    }
}

/// One planned fault: fire `kind` against `shard` at the first batch
/// dispatch to that shard with engine tick ≥ `tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Engine tick (items routed) at or after which the fault arms.
    pub tick: u64,
    /// Target shard.
    pub shard: usize,
    /// Kind-specific argument: sends to fail (`fail`), milliseconds
    /// (`stall`); unused otherwise.
    pub arg: u64,
}

/// A finite, replayable set of faults to inject into a supervised run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned faults (dispatch checks them in order).
    pub faults: Vec<Fault>,
    /// The seed a `rand=…` spec used, echoed even when the spec said
    /// `now` so the run is replayable as `rand=N@<seed>`.
    pub seed: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: supervision without injected chaos.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A plan that kills every one of `shards` workers once: shard `s`
    /// dies at tick `start + s × stride`. The canonical chaos smoke —
    /// every shard exercises the restart-from-checkpoint path.
    #[must_use]
    pub fn kill_sweep(shards: usize, start: u64, stride: u64) -> Self {
        Self {
            faults: (0..shards)
                .map(|s| Fault {
                    kind: FaultKind::Kill,
                    tick: start.saturating_add(stride.saturating_mul(s as u64)),
                    shard: s,
                    arg: 0,
                })
                .collect(),
            seed: None,
        }
    }

    /// `n` seeded random faults over `shards` shards and ticks
    /// `[0, horizon)`. Kind is drawn uniformly from kill / fail /
    /// stall; `fail` gets 1–4 sends, `stall` 1–8 ms.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the draw is below `shards`, a usize"
    )]
    pub fn random(n: usize, shards: usize, horizon: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let shards = shards.max(1);
        let horizon = horizon.max(1);
        let faults = (0..n)
            .map(|_| {
                let kind = match rng.random_range(0u32..3) {
                    0 => FaultKind::Kill,
                    1 => FaultKind::FailSends,
                    _ => FaultKind::Stall,
                };
                let arg = match kind {
                    FaultKind::Kill => 0,
                    FaultKind::FailSends => rng.random_range(1u64..5),
                    FaultKind::Stall => rng.random_range(1u64..9),
                };
                Fault {
                    kind,
                    tick: rng.random_range(0..horizon),
                    shard: rng.random_range(0u64..shards as u64) as usize,
                    arg,
                }
            })
            .collect();
        Self { faults, seed: Some(seed) }
    }

    /// Parses the CLI spec grammar. Ops are comma-separated:
    ///
    /// * `kill@T:S` — kill shard `S` at tick `T`
    /// * `fail@T:S=K` — fail the next `K` sends to shard `S` from tick `T`
    /// * `stall@T:S=MS` — stall shard `S` for `MS` ms at tick `T`
    /// * `sweep@T=STRIDE` — kill every shard once, shard `s` at `T + s×STRIDE`
    /// * `rand=N@SEED` — `N` seeded random faults; `SEED` may be `now`
    ///   (wall-clock seed, echoed in [`FaultPlan::seed`])
    ///
    /// `shards` sizes `sweep`/`rand` and bounds every explicit target;
    /// `horizon` bounds the random ticks (pass the expected stream
    /// length).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending op.
    pub fn parse(spec: &str, shards: usize, horizon: u64) -> Result<Self, String> {
        let mut plan = Self::default();
        for op in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(rest) = op.strip_prefix("rand=") {
                let (n, seed_str) = rest
                    .split_once('@')
                    .ok_or_else(|| format!("`{op}`: expected rand=N@SEED"))?;
                let n: usize = n.parse().map_err(|_| format!("`{op}`: bad count"))?;
                let seed = if seed_str == "now" {
                    wall_clock_seed()
                } else {
                    seed_str.parse().map_err(|_| format!("`{op}`: bad seed"))?
                };
                let mut sub = Self::random(n, shards, horizon, seed);
                plan.faults.append(&mut sub.faults);
                plan.seed = Some(seed);
                continue;
            }
            if let Some(rest) = op.strip_prefix("sweep@") {
                let (start, stride) = rest
                    .split_once('=')
                    .ok_or_else(|| format!("`{op}`: expected sweep@T=STRIDE"))?;
                let start: u64 = start.parse().map_err(|_| format!("`{op}`: bad tick"))?;
                let stride: u64 = stride.parse().map_err(|_| format!("`{op}`: bad stride"))?;
                let mut sub = Self::kill_sweep(shards, start, stride);
                plan.faults.append(&mut sub.faults);
                continue;
            }
            let (kind_str, rest) = op
                .split_once('@')
                .ok_or_else(|| format!("`{op}`: expected KIND@T:S[=ARG]"))?;
            let kind = match kind_str {
                "kill" => FaultKind::Kill,
                "fail" => FaultKind::FailSends,
                "stall" => FaultKind::Stall,
                other => return Err(format!("`{op}`: unknown fault kind `{other}`")),
            };
            let (tick_str, target) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{op}`: expected KIND@T:S[=ARG]"))?;
            let tick: u64 = tick_str.parse().map_err(|_| format!("`{op}`: bad tick"))?;
            let (shard_str, arg) = match target.split_once('=') {
                Some((s, a)) => {
                    let arg: u64 = a.parse().map_err(|_| format!("`{op}`: bad argument"))?;
                    (s, arg)
                }
                None => (target, 0),
            };
            let shard: usize = shard_str.parse().map_err(|_| format!("`{op}`: bad shard"))?;
            if shard >= shards {
                return Err(format!("`{op}`: shard {shard} out of range (engine has {shards})"));
            }
            if matches!(kind, FaultKind::FailSends) && arg == 0 {
                return Err(format!("`{op}`: fail needs a positive send count (=K)"));
            }
            plan.faults.push(Fault { kind, tick, shard, arg });
        }
        Ok(plan)
    }

    /// Whether some planned kill targets every shard in `0..shards`
    /// (the chaos smoke's precondition).
    #[must_use]
    pub fn kills_every_shard(&self, shards: usize) -> bool {
        (0..shards).all(|s| {
            self.faults
                .iter()
                .any(|f| f.kind == FaultKind::Kill && f.shard == s)
        })
    }
}

/// Seed for `rand=N@now`: wall-clock nanoseconds. The *only* entropy
/// source in the engine, confined to this seam and always echoed back
/// through [`FaultPlan::seed`] so the run stays replayable.
#[allow(clippy::disallowed_types)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "any 64 bits of the nanosecond clock serve as a seed"
)]
fn wall_clock_seed() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0x9e37_79b9_7f4a_7c15, |d| {
            (d.as_nanos() as u64) ^ 0x9e37_79b9_7f4a_7c15
        })
}

/// Delivers an injected kill on the worker thread. The panic is the
/// product here: it must unwind the real worker so the engine's
/// join/harvest/respawn path is exercised end to end, exactly as a
/// genuine estimator bug would.
#[expect(
    clippy::panic,
    reason = "the injected kill: it must unwind the real worker so the supervisor's join, harvest and respawn path runs as for a genuine estimator panic"
)]
pub(crate) fn detonate(msg: &str) -> ! {
    panic!("injected fault: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse("kill@500:1, fail@900:0=3, stall@100:2=20", 4, 10_000).unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(plan.faults[0], Fault { kind: FaultKind::Kill, tick: 500, shard: 1, arg: 0 });
        assert_eq!(plan.faults[1], Fault { kind: FaultKind::FailSends, tick: 900, shard: 0, arg: 3 });
        assert_eq!(plan.faults[2], Fault { kind: FaultKind::Stall, tick: 100, shard: 2, arg: 20 });
        assert_eq!(plan.seed, None);
    }

    #[test]
    fn sweep_kills_every_shard() {
        let plan = FaultPlan::parse("sweep@1000=500", 3, 10_000).unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert!(plan.kills_every_shard(3));
        assert_eq!(plan.faults[2].tick, 2000);
        assert!(!FaultPlan::parse("kill@1:0", 3, 10).unwrap().kills_every_shard(3));
    }

    #[test]
    fn seeded_rand_is_replayable() {
        let a = FaultPlan::parse("rand=8@42", 4, 5_000).unwrap();
        let b = FaultPlan::parse("rand=8@42", 4, 5_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.seed, Some(42));
        assert_eq!(a.faults.len(), 8);
        assert!(a.faults.iter().all(|f| f.shard < 4 && f.tick < 5_000));
        // A wall-clock seed is still echoed for replay.
        let c = FaultPlan::parse("rand=2@now", 4, 5_000).unwrap();
        let seed = c.seed.expect("seed echoed");
        assert_eq!(c, FaultPlan::parse(&format!("rand=2@{seed}"), 4, 5_000).unwrap());
    }

    #[test]
    fn hostile_specs_are_typed_errors() {
        for bad in [
            "explode@1:0",
            "corrupt@1:0",
            "kill@x:0",
            "kill@1:9",
            "fail@1:0",
            "fail@1:0=0",
            "rand=z@1",
            "sweep@100",
            "kill@100",
        ] {
            assert!(FaultPlan::parse(bad, 4, 1_000).is_err(), "{bad} should not parse");
        }
        assert!(FaultPlan::parse("", 4, 1_000).unwrap().is_empty());
    }
}
