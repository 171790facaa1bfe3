//! Pluggable time sources for the slot loop's solve-budget accounting.
//!
//! The fallback chain asks "how long has this slot's solving taken so far?"
//! — under [`WallClock`] that is real elapsed time, under [`SimClock`] it is
//! a deterministic counter that only moves when something explicitly
//! advances it (fault injection, simulated solver cost). Determinism is
//! what makes checkpoint/resume bit-identical: a resumed run must take the
//! same fallback decisions as the uninterrupted one, which real wall time
//! cannot guarantee.

use std::time::{Duration, Instant};

/// A per-slot stopwatch.
///
/// `Send` is a supertrait so a clock-owning fallback chain can be lent to a
/// shard's scoped thread; both clocks here are plain data.
pub trait Clock: std::fmt::Debug + Send {
    /// Resets the stopwatch at the start of a slot.
    fn start_slot(&mut self, slot: u64);
    /// Time spent in the current slot so far.
    fn elapsed(&self) -> Duration;
    /// Advances simulated clocks by `d`; a no-op for real clocks (wall time
    /// advances itself).
    fn advance(&mut self, d: Duration);
}

/// Deterministic simulated time: advances only via [`Clock::advance`].
#[derive(Debug, Default)]
pub struct SimClock {
    elapsed: Duration,
}

impl SimClock {
    /// A fresh simulated stopwatch at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for SimClock {
    fn start_slot(&mut self, _slot: u64) {
        self.elapsed = Duration::ZERO;
    }

    fn elapsed(&self) -> Duration {
        self.elapsed
    }

    fn advance(&mut self, d: Duration) {
        self.elapsed += d;
    }
}

/// Real wall-clock time.
#[derive(Debug)]
pub struct WallClock {
    started: Instant,
}

impl WallClock {
    /// A stopwatch started now.
    pub fn new() -> Self {
        Self { started: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn start_slot(&mut self, _slot: u64) {
        self.started = Instant::now();
    }

    fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    fn advance(&mut self, _d: Duration) {}
}

/// The sanctioned seam for *metrics-only* wall-time measurement.
///
/// Decision-making code must go through [`Clock`] so simulated runs stay
/// deterministic — but observability (solve-wall-seconds histograms,
/// per-shard timing) legitimately wants real elapsed time even under
/// [`SimClock`]. `WallStopwatch` is the one place outside [`Clock`] allowed
/// to read `Instant`: the PA202 lint sanctions this file, and everything it
/// measures must feed metrics, never control flow.
#[derive(Debug, Clone, Copy)]
pub struct WallStopwatch {
    started: Instant,
}

impl WallStopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Self { started: Instant::now() }
    }

    /// Seconds elapsed since [`WallStopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Which [`Clock`] a runtime uses (serializable for snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ClockKind {
    /// Deterministic [`SimClock`] (the default; required for bit-identical
    /// resume).
    Sim,
    /// Real [`WallClock`].
    Wall,
}

impl ClockKind {
    /// Instantiates the clock.
    pub fn build(self) -> Box<dyn Clock> {
        match self {
            ClockKind::Sim => Box::new(SimClock::new()),
            ClockKind::Wall => Box::new(WallClock::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_only_moves_when_advanced() {
        let mut c = SimClock::new();
        c.start_slot(0);
        assert_eq!(c.elapsed(), Duration::ZERO);
        c.advance(Duration::from_millis(7));
        assert_eq!(c.elapsed(), Duration::from_millis(7));
        c.start_slot(1);
        assert_eq!(c.elapsed(), Duration::ZERO);
    }

    #[test]
    fn wall_clock_moves_by_itself() {
        let mut c = WallClock::new();
        c.start_slot(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.elapsed() >= Duration::from_millis(1));
        c.advance(Duration::from_secs(100)); // no-op
        assert!(c.elapsed() < Duration::from_secs(50));
    }

    #[test]
    fn kind_builds_matching_clock() {
        let mut sim = ClockKind::Sim.build();
        sim.start_slot(0);
        sim.advance(Duration::from_secs(1));
        assert_eq!(sim.elapsed(), Duration::from_secs(1));
        let wall = ClockKind::Wall.build();
        assert!(wall.elapsed() < Duration::from_secs(1));
    }
}
