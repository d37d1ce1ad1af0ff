//! The benchmark's only wall-clock reads.
//!
//! Every duration the benchmark reports is a difference of two
//! [`Clock::now_ns`] readings. Keeping the reads here, outside the linted
//! library crates, leaves gs-lint rule D005 (no wall clock in library
//! code) untouched: timing is output-only and never reaches a renderer.

use std::time::Instant;

/// Monotonic nanoseconds since the clock was created.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            // gs-lint: allow(D005) benchmark timing is output-only
            origin: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}
