//! `refk`: the frozen reference kernel every gated timing is divided by.
//!
//! The host's CPU speed shifts by tens of percent between (and inside)
//! runs. A work block and the reference blocks either side of it see
//! the same speed, so their ratio repeats where the raw time does not.
//! The kernel is deterministic (no `RandomState`: a `HashMap` kernel
//! changed speed by 40 % between processes from hash seeding alone),
//! allocates nothing, and walks a 32 KiB table — far inside L2 — with a
//! serial dependency, so it tracks core speed rather than memory.

/// Table entries (`u64`): 32 KiB.
const TABLE: usize = 4096;
/// Steps per block, sized for ≈ 1 ms on the calibration host.
const STEPS: u64 = 264_000;

/// The `refk` fast quantile, in µs, on the calibration host when quiet.
/// Fixed on this commit: a gated timing reads as µs on that host.
pub const REF_NOMINAL_US: f64 = 1000.0;

/// Checksum of one block from a fresh [`RefKernel`].
#[cfg(test)]
const CHECKSUM: u64 = 11_205_642_174_423_595_986;

/// The kernel's state: one table, reset before every block.
pub struct RefKernel {
    table: Box<[u64; TABLE]>,
}

impl RefKernel {
    /// Allocate the table (the only allocation the kernel ever makes).
    pub fn new() -> RefKernel {
        RefKernel {
            table: Box::new([0; TABLE]),
        }
    }

    /// Run one block and return its checksum. Same work, same result,
    /// every call.
    #[inline(never)]
    pub fn block(&mut self) -> u64 {
        let table = &mut *self.table;
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        for step in 0..STEPS {
            let at = (state >> 20) as usize % TABLE;
            state = state.rotate_left(7) ^ table[at];
            state = state.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(step);
            table[at] = state;
        }
        std::hint::black_box(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc;

    #[test]
    fn block_returns_the_frozen_checksum_and_allocates_nothing() {
        let mut kernel = RefKernel::new();
        let before = alloc::thread_count();
        let first = kernel.block();
        let second = kernel.block();
        assert_eq!(alloc::thread_count(), before, "refk must not allocate");
        assert_eq!(
            first, CHECKSUM,
            "the kernel is frozen: its checksum is part of the benchmark"
        );
        assert_eq!(second, CHECKSUM, "every block does the same work");
    }
}
