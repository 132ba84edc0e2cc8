//! Cost-aware admission control: the load shedder.
//!
//! Overload protection works by refusing cheap-to-refuse work early
//! instead of letting the worker queue grow without bound. The
//! [`Shedder`] watches the worker-pool queue depth (the same instrument
//! `health` and `metrics.prom` already export) and moves through three
//! shed levels with hysteresis — the raise thresholds sit above the
//! lower thresholds so the shedder cannot flap on a queue depth that
//! hovers at the boundary:
//!
//! | level | entered at depth | left at depth | sheds                |
//! |-------|------------------|---------------|----------------------|
//! | 0     | —                | `< high/2`    | nothing              |
//! | 1     | `>= high`        | `< high`      | heavy reads          |
//! | 2     | `>= 2*high`      | (to 1)        | heavy reads + session mutations |
//!
//! What gets shed is decided by the op's [`Priority`] class — a column
//! of the op table in [`crate::ops`] — not arrival order: operational
//! introspection and the control plane are never shed (an overloaded
//! server that goes dark to its operators cannot be diagnosed),
//! expensive whole-relation scans go first, and session mutations go
//! only at the highest level. Shed requests get a retryable
//! `overloaded` error that cost no engine, journal or fsync work.

use std::sync::atomic::{AtomicU64, Ordering};

/// Priority class of one protocol op, for shedding order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Priority {
    /// Never shed: operational introspection, replication and the
    /// control plane. Shedding these blinds operators and peers at
    /// exactly the moment they need the signal.
    Critical,
    /// Session lifecycle ops: real user work, shed only at level 2.
    Session,
    /// Expensive whole-relation reads: first against the wall.
    Heavy,
}

/// Queue-depth-driven shed level with hysteresis. All state is one
/// relaxed atomic — `observe` and `sheds` are hot-path safe (two loads
/// and at most one store; races between concurrent observers settle on
/// the next observation).
#[derive(Debug)]
pub(crate) struct Shedder {
    /// Current shed level: 0 (admit all), 1 (shed heavy), 2 (shed
    /// heavy + session mutations).
    level: AtomicU64,
    /// The queue-depth high watermark that enters level 1.
    high: u64,
}

impl Shedder {
    /// A shedder tripping at queue depth `high` (clamped to >= 2 so the
    /// hysteresis bands stay distinct).
    pub(crate) fn new(high: usize) -> Shedder {
        Shedder {
            level: AtomicU64::new(0),
            high: (high as u64).max(2),
        }
    }

    /// The configured high watermark.
    pub(crate) fn high(&self) -> u64 {
        self.high
    }

    /// Current shed level.
    pub(crate) fn level(&self) -> u64 {
        self.level.load(Ordering::Relaxed)
    }

    /// Feed one queue-depth observation. Returns `Some((from, to))`
    /// when the shed level changed, so the caller can log the
    /// transition.
    pub(crate) fn observe(&self, depth: usize) -> Option<(u64, u64)> {
        let depth = depth as u64;
        let level = self.level.load(Ordering::Relaxed);
        let next = match level {
            0 => {
                if depth >= 2 * self.high {
                    2
                } else if depth >= self.high {
                    1
                } else {
                    0
                }
            }
            1 => {
                if depth >= 2 * self.high {
                    2
                } else if depth < self.high / 2 {
                    0
                } else {
                    1
                }
            }
            _ => {
                if depth < self.high / 2 {
                    0
                } else if depth < self.high {
                    1
                } else {
                    2
                }
            }
        };
        if next == level {
            return None;
        }
        self.level.store(next, Ordering::Relaxed);
        Some((level, next))
    }

    /// Does the current level shed this priority class?
    pub(crate) fn sheds(&self, priority: Priority) -> bool {
        match self.level.load(Ordering::Relaxed) {
            0 => false,
            1 => priority == Priority::Heavy,
            _ => priority != Priority::Critical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_raise_and_lower_with_hysteresis() {
        let shedder = Shedder::new(100);
        assert_eq!(shedder.level(), 0);
        assert!(!shedder.sheds(Priority::Heavy));

        // Depth at the watermark: level 1, heavy shed, sessions admitted.
        assert_eq!(shedder.observe(100), Some((0, 1)));
        assert!(shedder.sheds(Priority::Heavy));
        assert!(!shedder.sheds(Priority::Session));
        assert!(!shedder.sheds(Priority::Critical));

        // Hovering just under the watermark does NOT drop back (hysteresis).
        assert_eq!(shedder.observe(99), None);
        assert_eq!(shedder.level(), 1);

        // Twice the watermark: level 2, sessions shed too, never Critical.
        assert_eq!(shedder.observe(200), Some((1, 2)));
        assert!(shedder.sheds(Priority::Session));
        assert!(!shedder.sheds(Priority::Critical));

        // Falling below the watermark steps down one level at a time.
        assert_eq!(shedder.observe(80), Some((2, 1)));
        // Only below half the watermark does it fully disarm.
        assert_eq!(shedder.observe(60), None);
        assert_eq!(shedder.observe(49), Some((1, 0)));
        assert!(!shedder.sheds(Priority::Heavy));
    }

    #[test]
    fn empty_queue_jumps_straight_to_level_two_and_back() {
        let shedder = Shedder::new(10);
        assert_eq!(shedder.observe(25), Some((0, 2)));
        assert_eq!(shedder.observe(0), Some((2, 0)));
    }
}
