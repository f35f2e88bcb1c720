//! Trace sinks: where records go, and the zero-cost disabled default.
//!
//! The whole stack is generic over one [`TraceSink`] type parameter whose
//! associated `const ENABLED` gates every emission site:
//!
//! ```rust,ignore
//! if S::ENABLED {
//!     sink.record(TraceRecord::TxStart { .. });
//! }
//! ```
//!
//! With [`NoTrace`] (the default everywhere) `S::ENABLED` is a
//! compile-time `false`, so the branch, the record construction and the
//! call all monomorphize away — the disabled path compiles to exactly the
//! untraced code. The bench gate guards this: the disabled-trace
//! allocation count and rounds per CPU second are gated against the
//! committed baseline.

use crate::record::TraceRecord;

/// A destination for trace records.
///
/// Implementors with `ENABLED = true` receive every record; the stack
/// checks `Self::ENABLED` *before* constructing a record, so an
/// `ENABLED = false` sink costs nothing at all.
pub trait TraceSink {
    /// Whether emission sites should construct and deliver records.
    const ENABLED: bool;

    /// Records one trace entry. Never called when [`Self::ENABLED`] is
    /// honoured by the call site and `false`.
    fn record(&mut self, record: TraceRecord);
}

/// Forwarding through a mutable borrow keeps the owning scope in control
/// of the collected records while the model runs generically.
impl<S: TraceSink> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn record(&mut self, record: TraceRecord) {
        (**self).record(record);
    }
}

/// The disabled sink: `ENABLED = false`, a no-op `record`. This is the
/// default sink of every model and scenario — the hot path the benchmarks
/// measure runs with it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _record: TraceRecord) {}
}

/// Collects every record in memory, in emission order. The sink behind
/// `run_round_traced`, `carq-cli verify` and the trace-determinism tests.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct VecSink {
    records: Vec<TraceRecord>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// All records collected so far, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the sink and returns the records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl TraceSink for VecSink {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, record: TraceRecord) {
        self.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn dispatch(i: u64) -> TraceRecord {
        TraceRecord::EventDispatched { at: SimTime::from_nanos(i), queue_depth: 0 }
    }

    #[test]
    fn no_trace_is_disabled_and_discards() {
        const { assert!(!NoTrace::ENABLED) };
        let mut sink = NoTrace;
        sink.record(dispatch(1));
    }

    fn feed<S: TraceSink>(mut sink: S) {
        if S::ENABLED {
            sink.record(dispatch(1));
            sink.record(dispatch(2));
        }
    }

    #[test]
    fn mut_ref_forwards_to_the_owner() {
        const { assert!(<&mut VecSink as TraceSink>::ENABLED) };
        let mut sink = VecSink::new();
        feed(&mut sink);
        assert_eq!(sink.records().len(), 2);
        assert_eq!(sink.into_records().len(), 2);
    }
}
