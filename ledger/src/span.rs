//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing under `crates/` or `src/` is instrumented.
//! They are kept in a preallocated vector and written out when the run
//! ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` is 0 for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span sink with a fixed capacity: recording never allocates, spans
/// past the capacity are counted and dropped.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id (0 if it was dropped).
    pub fn record(&mut self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserve an id for a root whose children are recorded first.
    pub fn open(&mut self, parent: u64, name: &'static str) -> u64 {
        let now = self.now_ns();
        self.record(parent, name, now, now)
    }

    /// Close a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: u64) {
        let now = self.now_ns();
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(self_ns) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.id, span.parent, span.name, span.start_ns, span.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (children may overlap — the
/// replies of a pipelined window do — so the union is subtracted, not
/// the sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span
            .parent
            .checked_sub(1)
            .and_then(|i| spans.get(i as usize))
        {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children[parent.id as usize - 1].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            (span.end_ns - span.start_ns).saturating_sub(union_length(intervals))
        })
        .collect()
}

/// Total length covered by `intervals` (sorted in place).
pub fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_length_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_length(&mut []), 0);
        assert_eq!(union_length(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_length(&mut [(5, 6), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::with_capacity(8);
        let root = rec.record(0, "unit", 0, 100);
        // Two overlapping children (a pipelined window) and one apart.
        rec.record(root, "req", 10, 40);
        rec.record(root, "req", 30, 60);
        rec.record(root, "req", 80, 90);
        // A grandchild never counts against the root.
        rec.record(2, "inner", 12, 20);
        let own = self_times(rec.spans());
        assert_eq!(own[0], 100 - (50 + 10));
        assert_eq!(own[1], 30 - 8);
        assert_eq!(own[2], 30);
    }

    #[test]
    fn recorder_drops_past_capacity_without_growing() {
        let mut rec = Recorder::with_capacity(1);
        assert_eq!(rec.record(0, "a", 0, 1), 1);
        assert_eq!(rec.record(0, "b", 1, 2), 0);
        assert_eq!((rec.spans().len(), rec.dropped()), (1, 1));
    }
}
