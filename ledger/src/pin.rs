//! Pin the whole process to one vCPU.
//!
//! On this sandbox the cost of waking a halted vCPU dominates any
//! timing that crosses a thread hand-off; with server, follower and
//! generator sharing one vCPU there are no cross-vCPU wake-ups and the
//! figures are the ROADMAP's 1-core figures. Must run before any
//! thread starts: children inherit the mask.

/// Bits in the kernel's `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread (and every thread it later spawns) to the
/// last CPU it is allowed to run on. Returns that CPU, or `None` when
/// the platform refuses — the run goes on unpinned and reports
/// `loadgen.pinned` = 0.
#[cfg(target_os = "linux")]
pub fn pin_to_last_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = last_set_bit(&allowed)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, read
    // only by the kernel; pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_cpu() -> Option<usize> {
    None
}

fn last_set_bit(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_set_bit_finds_highest_cpu() {
        assert_eq!(last_set_bit(&[0, 0]), None);
        assert_eq!(last_set_bit(&[0b11, 0]), Some(1));
        assert_eq!(last_set_bit(&[1, 1 << 3]), Some(67));
    }
}
