//! Clocks and spans.
//!
//! `clock_gettime` is declared directly (no crate) and read for three
//! clocks: monotonic wall time, the calling thread's CPU time and the
//! process's CPU time. The process clock is the one rates are computed
//! from: the sweep and analysis engines run their work on a scoped worker
//! thread even at one thread, so the calling thread's clock would miss it,
//! while the process clock counts whichever single thread is working. The
//! thread clock is recorded next to it in every span.
//!
//! A [`Spans`] recorder keeps named spans (start, end, parent, allocations)
//! in memory; the benchmark writes them out when it ends.

use crate::alloc;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock ids are the Linux constants for clocks every kernel has.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One reading of every clock plus the allocation counter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stamp {
    /// Monotonic wall time, ns.
    pub wall_ns: u64,
    /// CPU time of the calling thread, ns.
    pub thread_ns: u64,
    /// CPU time of the whole process, ns.
    pub process_ns: u64,
    /// Allocating calls since process start.
    pub allocs: u64,
}

impl Stamp {
    /// Reads all clocks now.
    pub fn now() -> Stamp {
        Stamp {
            wall_ns: read_ns(CLOCK_MONOTONIC),
            thread_ns: read_ns(CLOCK_THREAD_CPUTIME_ID),
            process_ns: read_ns(CLOCK_PROCESS_CPUTIME_ID),
            allocs: alloc::allocations(),
        }
    }

    /// What elapsed between `self` (earlier) and `later`.
    pub fn to(self, later: Stamp) -> Cost {
        Cost {
            wall_ns: later.wall_ns.saturating_sub(self.wall_ns),
            thread_ns: later.thread_ns.saturating_sub(self.thread_ns),
            cpu_ns: later.process_ns.saturating_sub(self.process_ns),
            allocs: later.allocs.saturating_sub(self.allocs),
        }
    }

    /// What elapsed since `self`.
    pub fn elapsed(self) -> Cost {
        self.to(Stamp::now())
    }
}

/// The cost of one region: clock deltas and allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Wall time, ns.
    pub wall_ns: u64,
    /// CPU time of the calling thread, ns.
    pub thread_ns: u64,
    /// CPU time of the process, ns (what rates are computed from).
    pub cpu_ns: u64,
    /// Allocating calls.
    pub allocs: u64,
}

impl Cost {
    /// Process CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns as f64 / 1e9
    }

    /// CPU time over wall time: about 1 for a single busy thread, lower
    /// when the core was taken away mid-region.
    pub fn cpu_wall_ratio(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        self.cpu_ns as f64 / self.wall_ns as f64
    }

    /// Adds another region's cost.
    pub fn add(&mut self, other: Cost) {
        self.wall_ns += other.wall_ns;
        self.thread_ns += other.thread_ns;
        self.cpu_ns += other.cpu_ns;
        self.allocs += other.allocs;
    }
}

/// Runs `f` and returns its result with its cost.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let start = Stamp::now();
    let value = f();
    (value, start.elapsed())
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran, `<layer>.<call>` for calls into a crate.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Clocks at entry.
    pub start: Stamp,
    /// Clocks at exit.
    pub end: Stamp,
}

/// An in-memory span recorder: spans nest through [`Spans::span`].
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = Stamp::now();
        self.spans.push(Span { name: name.to_string(), parent, start, end: start });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end = Stamp::now();
        value
    }

    /// The cost of the span at `index`.
    pub fn cost(&self, index: usize) -> Cost {
        let span = &self.spans[index];
        span.start.to(span.end)
    }

    /// Every span recorded so far, in entry order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The summed cost of every span called `name`, and how many there were.
    pub fn total(&self, name: &str) -> (Cost, usize) {
        let mut cost = Cost::default();
        let mut count = 0;
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == name {
                cost.add(self.cost(i));
                count += 1;
            }
        }
        (cost, count)
    }

    /// A span's duration minus the part its direct children cover (process
    /// CPU, ns).
    pub fn self_cpu_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(index))
            .map(|(i, _)| self.cost(i).cpu_ns)
            .sum();
        self.cost(index).cpu_ns.saturating_sub(children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_cpu_tracks_busy_work() {
        let (sum, cost) = measure(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(cost.cpu_ns > 0 && cost.thread_ns > 0 && cost.wall_ns > 0);
        assert!(cost.cpu_wall_ratio() > 0.0);
    }

    #[test]
    fn spans_nest_and_count_allocations() {
        let mut spans = Spans::default();
        spans.span("outer", |s| {
            s.span("inner", |_| std::hint::black_box(vec![1u8; 64]).len());
        });
        let all = spans.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert!(spans.cost(1).allocs >= 1);
        assert!(spans.cost(0).cpu_ns >= spans.self_cpu_ns(0));
        assert_eq!(spans.total("inner").1, 1);
    }
}
