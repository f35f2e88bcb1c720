//! The host's speed, read from a fixed kernel of the benchmark's own.
//!
//! On a shared host the CPU time of the same work shifts by up to a third
//! between runs, often for the whole of a 30-second run, and every leg of a
//! run shifts with it (one paper_urban run had its fastest simulation and
//! read steps about 30 % and its fastest write 17 % slower than another's,
//! on the same build). No statistic taken
//! within a run removes that. So the legs are interleaved with steps of a
//! fixed kernel that is no part of the program, and the CPU-time metrics are
//! scaled by how fast the kernel ran against [`REFERENCE_MS`]: a change to
//! the program moves them in full, while a slower host slows the kernel with
//! them. Over six paper_urban runs this cut the spread (IQR over median) of
//! the rates and times from 9-16 % to 3-7 %.

use crate::clock::measure;

/// The kernel's table: 256 KiB, so a step stays inside the core's caches.
const TABLE_WORDS: usize = 32 * 1024;

/// Table updates per step.
const STEP_ITERATIONS: u32 = 1 << 20;

/// CPU time of one kernel step on the reference host, ms: about the 10th
/// percentile of the steps in the fastest runs on a 2-vCPU Intel Xeon
/// container. Metrics are reported at this speed. It must not change, or
/// results stop comparing.
pub const REFERENCE_MS: f64 = 3.0;

/// The kernel: dependent pseudo-random reads and writes over a fixed table
/// with a little floating-point work, the same instructions on every step.
pub struct Kernel {
    table: Vec<u64>,
    /// CPU time of each step, ms.
    pub step_cpu_ms: Vec<f64>,
}

impl Default for Kernel {
    fn default() -> Kernel {
        let table =
            (0..TABLE_WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        Kernel { table, step_cpu_ms: Vec::new() }
    }
}

impl Kernel {
    /// Runs and times one step.
    pub fn step(&mut self) {
        let (digest, cost) = measure(|| self.work());
        std::hint::black_box(digest);
        self.step_cpu_ms.push(cost.cpu_ns as f64 / 1e6);
    }

    fn work(&mut self) -> u64 {
        let mut x: u64 = 0x2008_1cdc;
        let mut acc = 0.0f64;
        for _ in 0..STEP_ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = x as usize & (TABLE_WORDS - 1);
            let word = self.table[slot];
            self.table[slot] = word.rotate_left(5) ^ x;
            acc += ((word >> 11) as f64).sqrt();
        }
        x ^ acc.to_bits()
    }

    /// How much slower than the reference host this run's host was: the
    /// kernel's 10th-percentile step CPU time over [`REFERENCE_MS`] (above 1:
    /// slower). CPU times are divided by it and rates multiplied.
    pub fn slowdown(&self) -> f64 {
        crate::stats::percentile(&self.step_cpu_ms, crate::legs::RATE_PERCENTILE) / REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_step() {
        let mut a = Kernel::default();
        let mut b = Kernel::default();
        assert_eq!(a.work(), b.work());
        a.step();
        a.step();
        assert_eq!(a.step_cpu_ms.len(), 2);
        assert!(a.slowdown() > 0.0);
    }
}
