//! In-process metric time series: periodic [`MetricsSnapshot`]s
//! retained in a bounded ring so *rates* — req/s, fsync/s, lag trend —
//! are computable server-side without external scrape infrastructure.
//!
//! The housekeeper thread records one sample per sweep (~1 s); the
//! `metrics.history` op reads the window back over the wire, and
//! `cerfix top --watch` diffs consecutive samples into per-op rate and
//! p99 columns. `cluster.status` uses the same window for its per-node
//! req/s figure.
//!
//! Samples are full snapshots behind a mutex — this is a once-a-second
//! background path plus occasional telemetry reads, never the request
//! hot path.

use crate::metrics::MetricsSnapshot;
use crate::wire::JsonWriter;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::SystemTime;

/// Samples retained: ten minutes at the housekeeper's one-per-second
/// cadence.
const DEFAULT_SAMPLES: usize = 600;

/// One timestamped counter snapshot.
#[derive(Debug, Clone)]
pub(crate) struct Sample {
    /// Capture time, milliseconds since the unix epoch.
    pub unix_ms: u64,
    /// The counters at that instant.
    pub snapshot: MetricsSnapshot,
}

impl Sample {
    /// The sample as `metrics.history` wire JSON: the capture time, then
    /// whatever the instrument table says a snapshot holds.
    pub(crate) fn write(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.field("unix_ms", self.unix_ms);
        self.snapshot.write_history(w);
        w.end_obj();
    }
}

/// Bounded ring of timestamped snapshots, oldest evicted first.
pub(crate) struct TimeSeries {
    cap: usize,
    ring: Mutex<VecDeque<Sample>>,
}

impl TimeSeries {
    /// A ring retaining the default ten-minute window.
    pub(crate) fn new() -> TimeSeries {
        TimeSeries::with_capacity(DEFAULT_SAMPLES)
    }

    /// A ring retaining up to `cap` samples.
    pub(crate) fn with_capacity(cap: usize) -> TimeSeries {
        TimeSeries {
            cap: cap.max(2),
            ring: Mutex::new(VecDeque::with_capacity(cap.clamp(2, DEFAULT_SAMPLES))),
        }
    }

    /// Append one sample stamped now, evicting the oldest at capacity.
    pub(crate) fn record(&self, snapshot: MetricsSnapshot) {
        self.record_at(now_ms(), snapshot);
    }

    fn record_at(&self, unix_ms: u64, snapshot: MetricsSnapshot) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(Sample { unix_ms, snapshot });
    }

    /// The most recent `limit` samples in chronological order (newest
    /// last — the natural shape for rate math).
    pub(crate) fn history(&self, limit: usize) -> Vec<Sample> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Samples currently retained.
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Requests per second over the two most recent samples; falls back
    /// to the lifetime average from `current` when the window is too
    /// short for a differential rate (fresh boot, sampling disabled).
    pub(crate) fn request_rate(&self, current: &MetricsSnapshot) -> f64 {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= 2 {
            let newest = &ring[ring.len() - 1];
            let prior = &ring[ring.len() - 2];
            let dt_ms = newest.unix_ms.saturating_sub(prior.unix_ms);
            if dt_ms > 0 {
                let dr = newest
                    .snapshot
                    .requests
                    .saturating_sub(prior.snapshot.requests);
                return dr as f64 * 1000.0 / dt_ms as f64;
            }
        }
        current.requests as f64 / current.uptime_secs.max(1) as f64
    }
}

/// Milliseconds since the unix epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis().min(u64::MAX as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(requests: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            requests,
            uptime_secs: 10,
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn ring_evicts_oldest_and_history_is_chronological() {
        let ts = TimeSeries::with_capacity(3);
        for i in 0..5u64 {
            ts.record_at(1000 * i, snap(i * 100));
        }
        assert_eq!(ts.len(), 3);
        let all = ts.history(10);
        let stamps: Vec<u64> = all.iter().map(|s| s.unix_ms).collect();
        assert_eq!(stamps, vec![2000, 3000, 4000]);
        // A limit trims from the old end, keeping the newest.
        let two = ts.history(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[1].unix_ms, 4000);
        assert_eq!(two[1].snapshot.requests, 400);
    }

    #[test]
    fn request_rate_diffs_the_newest_pair() {
        let ts = TimeSeries::with_capacity(8);
        ts.record_at(1_000, snap(100));
        ts.record_at(3_000, snap(700));
        // 600 requests over 2 seconds.
        let rate = ts.request_rate(&snap(700));
        assert!((rate - 300.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn request_rate_falls_back_to_lifetime_average() {
        let ts = TimeSeries::with_capacity(8);
        let rate = ts.request_rate(&snap(50));
        assert!((rate - 5.0).abs() < 1e-9, "50 requests / 10 s uptime");
        // One sample is still not a differential window.
        ts.record_at(1_000, snap(50));
        assert!((ts.request_rate(&snap(50)) - 5.0).abs() < 1e-9);
    }
}
