//! Deterministic work counters: the one table of what tests pin as a
//! count of work rather than a time — clock reads per request, engine
//! handles per session op, rule verdicts per region search.
//!
//! Program code bumps a row through [`count!`](crate::count), a shim
//! that expands at its call site to a `cfg!(test)` branch: in a test
//! build of the calling crate it adds to this thread's count, and
//! otherwise it is nothing at all. So program code carries no
//! `#[cfg(test)]` line of its own, and a scan of a file up to its test
//! module reads all of its program code. A test reads its thread's
//! count with [`read`] before and after the work it pins.

use std::cell::Cell;

/// Declares [`Counter`] — one row per pinned count: why it is pinned,
/// and where program code bumps it — from one list.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident in $scope:literal;)*) => {
        /// A row of the counter table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])* #[doc = concat!("\n\nBumped in ", $scope, ".")] $name,)*
        }

        /// How many rows the table has.
        const ROWS: usize = [$(Counter::$name),*].len();
    };
}

counters! {
    /// Clock reads on the request path (`trace::stamp`): a warmed
    /// `session.get` / `fix` / `validate` reads the clock 2 / 4 / 4
    /// times served as a connection serves a pipelined line.
    ClockReads in "cerfix-server: trace::stamp";
    /// `CleaningService::engine` handles: a warmed session op takes one
    /// and touches no other refcount of the installed state.
    EngineHandles in "cerfix-server: CleaningService::engine";
    /// Rule verdicts a region search's profiles decide, posting verdicts
    /// and hashed lookups alike: each rule once per master key.
    VerdictsDecided in "cerfix: region::lattice (TruthProfile::build, OwnKeys)";
}

thread_local! {
    static COUNTS: [Cell<u64>; ROWS] = const { [const { Cell::new(0) }; ROWS] };
}

/// Add `n` to `counter` on this thread. Program code calls it through
/// [`count!`](crate::count), never directly.
pub fn bump(counter: Counter, n: u64) {
    COUNTS.with(|counts| {
        let count = &counts[counter as usize];
        count.set(count.get() + n);
    });
}

/// `counter`'s count on this thread so far.
pub fn read(counter: Counter) -> u64 {
    COUNTS.with(|counts| counts[counter as usize].get())
}

/// Bump a row of the [counter table](crate::counters) by one, or by
/// `n`: a no-op outside a test build of the crate it is called from.
#[macro_export]
macro_rules! count {
    ($counter:ident) => {
        $crate::count!($counter, 1)
    };
    ($counter:ident, $n:expr) => {
        if cfg!(test) {
            $crate::counters::bump($crate::counters::Counter::$counter, $n as u64);
        }
    };
}
