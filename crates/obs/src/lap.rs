//! The gap-free wall-clock lap timer.
//!
//! Every [`LapTimer::lap`] reads the clock exactly **once** and reuses
//! that instant as the start of the next interval, so consecutive laps
//! tile the timeline with no gaps and the lap times sum to exactly the
//! start-to-last-read wall time — the discipline the per-phase
//! breakdown needs.

use std::time::Instant;

/// A flat lap timer: the one wall-clock phase-attribution path of the
/// serial and threaded backends (`bd[phase] += timer.lap()`).
#[derive(Debug)]
pub struct LapTimer {
    /// The previous clock read — start of the current lap.
    last: Instant,
}

impl LapTimer {
    /// Start the timer (the first lap begins now).
    pub fn start() -> Self {
        LapTimer {
            last: Instant::now(),
        }
    }

    /// Seconds since the previous clock read; restarts the lap.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let dt = (now - self.last).as_secs_f64();
        self.last = now;
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_tile_the_timeline_without_gaps() {
        let origin = Instant::now();
        let mut t = LapTimer::start();
        let mut sum = 0.0;
        for k in 0..9 {
            if k % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            sum += t.lap();
        }
        let total = origin.elapsed().as_secs_f64();
        assert!(sum <= total);
        assert!(
            total - sum < 1e-3,
            "gap {} s between lap sum {sum} and wall {total}",
            total - sum
        );
    }

    #[test]
    fn lap_measures_time() {
        let mut t = LapTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(t.lap() >= 0.004);
    }
}
