//! The library stack's single wall-clock seam.
//!
//! `clippy.toml` bans `Instant`/`SystemTime` workspace-wide
//! (`disallowed_types`) so estimator behaviour replays bit-identically;
//! latency profiling still needs a real clock. The compromise: this
//! module — the library stack's only timing code — may read it (it
//! carries an `allow`), and nothing here ever feeds timing back into
//! estimator state. A [`Stopwatch`] is handed across crate boundaries
//! as an opaque value, so callers measure durations without naming a
//! clock type themselves.
#![allow(clippy::disallowed_types)]

use std::time::Instant;

/// A started wall-clock timer. Obtain with [`Stopwatch::start`], read
/// with [`Stopwatch::elapsed_nanos`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    begin: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self { begin: Instant::now() }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturated to `u64`.
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.begin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
    }
}
