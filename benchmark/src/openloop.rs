//! Open-loop pacing: operation `i` is due at `i * period` after the
//! start whether or not earlier operations have finished, and its
//! latency is timed from that due time, so a stall is charged to every
//! operation it delays. How late the generator itself ran is reported
//! beside the latencies.

use std::time::Duration;

/// The due-time ledger of one open-loop run. All times are offsets
/// from the run's start.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    period: Duration,
    /// Latency of each finished operation, from its due time.
    latencies_ns: Vec<u64>,
    lateness_sum_ns: u64,
    lateness_max_ns: u64,
}

impl OpenLoop {
    pub fn new(period: Duration) -> OpenLoop {
        OpenLoop {
            period,
            latencies_ns: Vec::new(),
            lateness_sum_ns: 0,
            lateness_max_ns: 0,
        }
    }

    /// Operations recorded so far; also the index of the next one.
    pub fn issued(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// When the next operation is due.
    pub fn next_due(&self) -> Duration {
        self.period * self.issued() as u32
    }

    /// Records the next operation: it began at `began` and finished at
    /// `finished`. Beginning early is not possible (the caller waits
    /// for the due time), so lateness is never negative.
    pub fn record(&mut self, began: Duration, finished: Duration) {
        let due = self.next_due();
        let late = began.saturating_sub(due).as_nanos() as u64;
        self.lateness_sum_ns += late;
        self.lateness_max_ns = self.lateness_max_ns.max(late);
        self.latencies_ns
            .push(finished.saturating_sub(due).as_nanos() as u64);
    }

    pub fn latencies_ns(&self) -> &[u64] {
        &self.latencies_ns
    }

    pub fn lateness_mean_us(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            0.0
        } else {
            self.lateness_sum_ns as f64 / self.latencies_ns.len() as f64 / 1e3
        }
    }

    pub fn lateness_max_us(&self) -> f64 {
        self.lateness_max_ns as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn latency_runs_from_the_due_time_not_the_start_time() {
        let mut ol = OpenLoop::new(2 * MS);
        // op 0: due at 0, on time, takes 0.5 ms.
        ol.record(Duration::ZERO, MS / 2);
        // op 1: due at 2 ms, begins 1 ms late, takes 0.5 ms.
        assert_eq!(ol.next_due(), 2 * MS);
        ol.record(3 * MS, 3 * MS + MS / 2);
        assert_eq!(ol.latencies_ns(), &[500_000, 1_500_000]);
        assert_eq!(ol.lateness_max_us(), 1000.0);
        assert_eq!(ol.lateness_mean_us(), 500.0);
    }

    #[test]
    fn a_stall_is_charged_to_every_operation_it_delays() {
        let mut ol = OpenLoop::new(2 * MS);
        // op 0 stalls for 7 ms; ops 1..=3 were due at 2, 4, 6 ms and can
        // only begin once it is over, back to back, 0.1 ms each.
        ol.record(Duration::ZERO, 7 * MS);
        let mut t = 7 * MS;
        for _ in 1..=3 {
            ol.record(t, t + MS / 10);
            t += MS / 10;
        }
        assert_eq!(
            ol.latencies_ns(),
            &[7_000_000, 5_100_000, 3_200_000, 1_300_000]
        );
        // The schedule does not slip: op 4 is still due at 8 ms.
        assert_eq!(ol.next_due(), 8 * MS);
        assert_eq!(ol.issued(), 4);
    }
}
