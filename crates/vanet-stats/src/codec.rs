//! A stable binary codec for [`RoundReport`]s — the wire format of the
//! `vanet-cache` round cache.
//!
//! The cache's correctness argument is "a cached report is byte-for-byte
//! what re-simulating the round would produce", so the encoding must be a
//! *pure function of the report* (no maps with unstable iteration order, no
//! platform-dependent widths) and decoding must reject anything it does not
//! fully understand instead of guessing. Everything is little-endian with
//! explicit `u32`/`u64` widths; collections are length-prefixed; reception
//! maps serialize as their sorted sequence numbers (their in-memory order).
//!
//! The format itself is **unversioned at the record level** — the journal
//! that stores these records carries a format-version magic, and bumping
//! either invalidates the whole file. Hand-rolled rather than serde because
//! the workspace's `serde` is an offline no-op stand-in (see `vendor/`).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use vanet_dtn::{ReceptionMap, SeqNo};
use vanet_mac::NodeId;

use crate::observation::{FlowObservation, RoundResult};
use crate::report::RoundReport;

/// Why a byte string could not be decoded as a [`RoundReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the structure was complete.
    Truncated,
    /// The structure decoded fully but left unconsumed bytes.
    TrailingBytes(usize),
    /// A counter name was not valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeds the bytes that remain — the record is
    /// corrupt, not merely short.
    LengthOverrun,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("input ended mid-structure"),
            CodecError::TrailingBytes(n) => write!(f, "{n} unconsumed byte(s) after the report"),
            CodecError::InvalidUtf8 => f.write_str("counter name is not valid UTF-8"),
            CodecError::LengthOverrun => f.write_str("length prefix exceeds remaining input"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Returns a `'static` copy of `name`, reusing one allocation per distinct
/// counter name for the process lifetime.
///
/// [`RoundReport::counters`] carries `&'static str` names (scenarios declare
/// them as literals); decoding has to mint equivalent statics. Scenarios
/// report a small fixed vocabulary of counters, so the interning table — and
/// the one-time leak per distinct name — stays tiny no matter how many
/// reports are decoded.
fn intern_counter_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut names =
        NAMES.get_or_init(|| Mutex::new(Vec::new())).lock().expect("intern table poisoned");
    if let Some(existing) = names.iter().find(|n| **n == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.push(leaked);
    leaked
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(out, u32::try_from(len).expect("collection exceeds u32::MAX entries"));
}

fn put_seqs<I: ExactSizeIterator<Item = SeqNo>>(out: &mut Vec<u8>, seqs: I) {
    put_len(out, seqs.len());
    for seq in seqs {
        put_u32(out, seq.into());
    }
}

fn put_map(out: &mut Vec<u8>, map: &ReceptionMap) {
    put_len(out, map.received_count());
    for seq in map.iter() {
        put_u32(out, seq.into());
    }
}

/// A bounds-checked little-endian reader over the input slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::LengthOverrun)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a length prefix, rejecting values that cannot fit in what
    /// remains (so corrupt prefixes fail fast instead of allocating gigabytes).
    fn len(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_item_bytes) > self.bytes.len() - self.pos {
            return Err(CodecError::LengthOverrun);
        }
        Ok(len)
    }

    /// Reads a sequence-number list in bulk: [`Reader::len`] has checked
    /// that its `len * 4` bytes remain, so they are taken at once.
    fn seqs(&mut self) -> Result<Vec<SeqNo>, CodecError> {
        let len = self.len(4)?;
        let bytes = self.take(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| SeqNo::new(u32::from_le_bytes(b.try_into().expect("4 bytes"))))
            .collect())
    }

    /// Reads a reception map. An encoder writes it ascending, and then the
    /// decoded list becomes the map as it is; any other order is accepted
    /// and sorted, duplicates dropped.
    fn map(&mut self) -> Result<ReceptionMap, CodecError> {
        Ok(self.seqs()?.into_iter().collect())
    }
}

impl RoundReport {
    /// Encodes the report into the stable binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_u32(&mut out, self.round);
        put_u64(&mut out, self.seed);
        put_len(&mut out, self.counters.len());
        for (name, value) in &self.counters {
            put_len(&mut out, name.len());
            out.extend_from_slice(name.as_bytes());
            put_u64(&mut out, value.to_bits());
        }
        put_len(&mut out, self.result.flows.len());
        for flow in &self.result.flows {
            put_u32(&mut out, flow.destination.as_u32());
            put_seqs(&mut out, flow.sent.iter().copied());
            put_len(&mut out, flow.received_by.len());
            for (observer, map) in &flow.received_by {
                put_u32(&mut out, observer.as_u32());
                put_map(&mut out, map);
            }
            put_map(&mut out, &flow.after_coop);
        }
        out
    }

    /// Decodes a report previously produced by [`RoundReport::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]: the input must be exactly one well-formed report,
    /// nothing less and nothing more.
    pub fn from_bytes(bytes: &[u8]) -> Result<RoundReport, CodecError> {
        let mut r = Reader { bytes, pos: 0 };
        let round = r.u32()?;
        let seed = r.u64()?;
        let n_counters = r.len(12)?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            let name_len = r.len(1)?;
            // Borrows straight from the input slice — the owned copy is only
            // made inside the interner, once per distinct name ever seen.
            let name =
                std::str::from_utf8(r.take(name_len)?).map_err(|_| CodecError::InvalidUtf8)?;
            let value = f64::from_bits(r.u64()?);
            counters.push((intern_counter_name(name), value));
        }
        let n_flows = r.len(16)?;
        let mut flows = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            let destination = NodeId::new(r.u32()?);
            let sent = r.seqs()?;
            let n_observers = r.len(8)?;
            let mut received_by = BTreeMap::new();
            for _ in 0..n_observers {
                let observer = NodeId::new(r.u32()?);
                received_by.insert(observer, r.map()?);
            }
            let after_coop = r.map()?;
            flows.push(FlowObservation { destination, sent, received_by, after_coop });
        }
        if r.pos != bytes.len() {
            return Err(CodecError::TrailingBytes(bytes.len() - r.pos));
        }
        Ok(RoundReport { round, seed, result: RoundResult::new(flows), counters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoundReport {
        let destination = NodeId::new(1);
        let mut received_by = BTreeMap::new();
        received_by.insert(
            destination,
            [2u32, 3, 7].into_iter().map(SeqNo::new).collect::<ReceptionMap>(),
        );
        received_by.insert(
            NodeId::new(2),
            [4u32, 5].into_iter().map(SeqNo::new).collect::<ReceptionMap>(),
        );
        let flow = FlowObservation {
            destination,
            sent: (0..10).map(SeqNo::new).collect(),
            received_by,
            after_coop: [2u32, 3, 4, 5, 7].into_iter().map(SeqNo::new).collect(),
        };
        RoundReport::new(3, 0xDEAD_BEEF_CAFE_F00D, RoundResult::new(vec![flow]))
            .with_counter("requests_sent", 4.0)
            .with_counter("coop_data_sent", 2.5)
    }

    #[test]
    fn round_trips_exactly() {
        let report = sample();
        let bytes = report.to_bytes();
        let decoded = RoundReport::from_bytes(&bytes).unwrap();
        assert_eq!(report, decoded);
        // Encoding is a pure function: same report, same bytes.
        assert_eq!(bytes, decoded.to_bytes());
    }

    #[test]
    fn non_canonical_maps_decode_to_the_set_they_list() {
        let list = |seqs: &[u32]| {
            let mut out = Vec::new();
            put_seqs(&mut out, seqs.iter().copied().map(SeqNo::new));
            out
        };
        // The sample with the destination's map {3, 5, 7}, whose encoding
        // is then rewritten as [7, 3, 3, 5]: out of order, with a duplicate.
        let mut canonical = sample();
        canonical.result.flows[0]
            .received_by
            .insert(NodeId::new(1), [3u32, 5, 7].into_iter().map(SeqNo::new).collect());
        let bytes = canonical.to_bytes();
        let sorted = list(&[3, 5, 7]);
        let at: Vec<usize> =
            (0..bytes.len()).filter(|i| bytes[*i..].starts_with(&sorted)).collect();
        assert_eq!(at.len(), 1, "the map's encoding occurs once");
        let mut listed = bytes[..at[0]].to_vec();
        listed.extend(list(&[7, 3, 3, 5]));
        listed.extend_from_slice(&bytes[at[0] + sorted.len()..]);

        let decoded = RoundReport::from_bytes(&listed).unwrap();
        let direct: Vec<u32> = decoded.result.flows[0].direct().iter().map(SeqNo::value).collect();
        assert_eq!(direct, vec![3, 5, 7]);
        assert_eq!(decoded, canonical);
        assert_eq!(decoded.to_bytes(), bytes, "re-encodes canonically");
    }

    #[test]
    fn empty_report_round_trips() {
        let report = RoundReport::new(0, 0, RoundResult::default());
        assert_eq!(report, RoundReport::from_bytes(&report.to_bytes()).unwrap());
    }

    #[test]
    fn nan_counters_round_trip_bitwise() {
        let report = RoundReport::new(1, 2, RoundResult::default())
            .with_counter("weird", f64::NAN)
            .with_counter("inf", f64::INFINITY);
        let decoded = RoundReport::from_bytes(&report.to_bytes()).unwrap();
        assert!(decoded.counter("weird").unwrap().is_nan());
        assert_eq!(decoded.counter("inf"), Some(f64::INFINITY));
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = RoundReport::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::LengthOverrun),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(RoundReport::from_bytes(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn absurd_length_prefixes_fail_fast() {
        // round + seed + a counter count claiming u32::MAX entries.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 0);
        put_u64(&mut bytes, 0);
        put_u32(&mut bytes, u32::MAX);
        assert_eq!(RoundReport::from_bytes(&bytes), Err(CodecError::LengthOverrun));
    }

    #[test]
    fn interned_names_are_shared() {
        let a = intern_counter_name("requests_sent");
        let b = intern_counter_name("requests_sent");
        assert!(std::ptr::eq(a, b), "same name must reuse one allocation");
    }

    #[test]
    fn codec_errors_render() {
        assert!(CodecError::Truncated.to_string().contains("mid-structure"));
        assert!(CodecError::TrailingBytes(3).to_string().contains('3'));
        assert!(CodecError::LengthOverrun.to_string().contains("length prefix"));
        assert!(CodecError::InvalidUtf8.to_string().contains("UTF-8"));
    }
}
