//! The trace file format (`CARQTRM1`) and the JSONL export.
//!
//! A trace file holds one frame per round. Layout:
//!
//! ```text
//! magic   8 bytes   "CARQTRM1"
//! count   u32 LE    number of frames
//! frame   repeated  round u32 LE, seed u64 LE, payload length u32 LE,
//!                   then the round's records as a payload:
//!   magic   8 bytes   "CARQTRC1"
//!   count   u32 LE    number of records
//!   record  repeated  u32 LE record length, then the record:
//!                     1 tag byte + the variant's fields, little-endian
//!                     (SimTime as u64 nanoseconds, f64 as IEEE-754 bits)
//! ```
//!
//! The length prefixes let tooling skip frames or records it does not
//! understand and make truncation detectable; encoding is fully
//! deterministic (a fixed seed produces byte-identical trace files, which
//! the trace-determinism tests assert). A bare payload (a file that starts
//! with `CARQTRC1`) is the retired single-round file format, which
//! [`decode_frames`] refuses. [`to_jsonl`] renders the same records as one
//! JSON object per line for external tooling.

use std::fmt;

use sim_core::SimTime;

use crate::record::TraceRecord;

/// The 8-byte magic prefix of a frame's payload, and of the retired
/// single-round trace file.
pub const TRACE_MAGIC: &[u8; 8] = b"CARQTRC1";

/// The 8-byte magic prefix of a trace file.
pub const TRACE_FRAMED_MAGIC: &[u8; 8] = b"CARQTRM1";

/// Why a binary trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCodecError {
    /// The input, or a frame's payload, does not start with its magic.
    BadMagic,
    /// The input ended mid-structure.
    Truncated,
    /// A record carried an unknown tag byte.
    UnknownTag(u8),
    /// A record's payload length does not match its tag's layout.
    BadLength {
        /// The offending tag byte.
        tag: u8,
        /// The length the record declared.
        declared: u32,
        /// The length the tag's layout requires.
        expected: u32,
    },
    /// Bytes remain after the declared record count.
    TrailingBytes,
}

impl fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCodecError::BadMagic => write!(f, "not a CARQTRM1 trace (bad magic)"),
            TraceCodecError::Truncated => write!(f, "trace ends mid-record (truncated)"),
            TraceCodecError::UnknownTag(tag) => write!(f, "unknown trace record tag {tag}"),
            TraceCodecError::BadLength { tag, declared, expected } => write!(
                f,
                "record tag {tag} declares {declared} payload byte(s), layout needs {expected}"
            ),
            TraceCodecError::TrailingBytes => {
                write!(f, "trailing bytes after the declared record count")
            }
        }
    }
}

impl std::error::Error for TraceCodecError {}

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceCodecError> {
        if self.bytes.len() < n {
            return Err(TraceCodecError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, TraceCodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, TraceCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, TraceCodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn time(&mut self) -> Result<SimTime, TraceCodecError> {
        Ok(SimTime::from_nanos(self.u64()?))
    }
    fn f64(&mut self) -> Result<f64, TraceCodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, TraceCodecError> {
        Ok(self.u8()? != 0)
    }
    /// Reads a count of items that each encode to at least `min_item_bytes`,
    /// refusing one the remaining bytes cannot hold, so a corrupt count fails
    /// before anything is allocated for it.
    fn count(&mut self, min_item_bytes: usize) -> Result<u32, TraceCodecError> {
        let count = self.u32()?;
        if (count as usize).saturating_mul(min_item_bytes) > self.bytes.len() {
            return Err(TraceCodecError::Truncated);
        }
        Ok(count)
    }
}

/// The fewest bytes a record encodes to: its u32 length, its tag byte and
/// the smallest payload (`EventDispatched`'s 12 bytes).
const MIN_RECORD_BYTES: usize = 4 + 1 + 12;

/// The fewest bytes a frame encodes to: its 16-byte header and an empty
/// `CARQTRC1` blob (magic and count).
const MIN_FRAME_BYTES: usize = 16 + TRACE_MAGIC.len() + 4;

/// `(tag, payload length excluding the tag byte)` per variant.
fn layout(record: &TraceRecord) -> (u8, u32) {
    match record {
        TraceRecord::EventDispatched { .. } => (0, 12),
        TraceRecord::TxStart { .. } => (1, 24),
        TraceRecord::Delivery { .. } => (2, 26),
        TraceRecord::CacheAudit { .. } => (3, 17),
        TraceRecord::CsmaDeferred { .. } => (4, 20),
        TraceRecord::ArqRequest { .. } => (5, 20),
        TraceRecord::CoopRetransmit { .. } => (6, 16),
        TraceRecord::ApRetransmitQueued { .. } => (7, 20),
        TraceRecord::BufferStore { .. } => (8, 20),
        TraceRecord::StrategyDecision { .. } => (9, 20),
    }
}

/// Encodes one frame's records into its `CARQTRC1` payload.
fn encode(records: &[TraceRecord]) -> Vec<u8> {
    let mut w = Writer { out: Vec::with_capacity(16 + records.len() * 24) };
    w.out.extend_from_slice(TRACE_MAGIC);
    w.u32(u32::try_from(records.len()).expect("record count fits u32"));
    for record in records {
        let (tag, len) = layout(record);
        w.u32(len + 1);
        w.u8(tag);
        match *record {
            TraceRecord::EventDispatched { at, queue_depth } => {
                w.time(at);
                w.u32(queue_depth);
            }
            TraceRecord::TxStart { at, until, node, bits } => {
                w.time(at);
                w.time(until);
                w.u32(node);
                w.u32(bits);
            }
            TraceRecord::Delivery { at, tx, rx, received, cached, snr_db } => {
                w.time(at);
                w.u32(tx);
                w.u32(rx);
                w.bool(received);
                w.bool(cached);
                w.f64(snr_db);
            }
            TraceRecord::CacheAudit { at, tx, rx, ok } => {
                w.time(at);
                w.u32(tx);
                w.u32(rx);
                w.bool(ok);
            }
            TraceRecord::CsmaDeferred { at, node, until } => {
                w.time(at);
                w.u32(node);
                w.time(until);
            }
            TraceRecord::ArqRequest { at, node, seqs, cooperators } => {
                w.time(at);
                w.u32(node);
                w.u32(seqs);
                w.u32(cooperators);
            }
            TraceRecord::CoopRetransmit { at, node, seqs } => {
                w.time(at);
                w.u32(node);
                w.u32(seqs);
            }
            TraceRecord::ApRetransmitQueued { at, ap, destination, seq } => {
                w.time(at);
                w.u32(ap);
                w.u32(destination);
                w.u32(seq);
            }
            TraceRecord::BufferStore { at, node, stored, evicted } => {
                w.time(at);
                w.u32(node);
                w.u32(stored);
                w.u32(evicted);
            }
            TraceRecord::StrategyDecision { at, node, strategy, missing } => {
                w.time(at);
                w.u32(node);
                w.u32(strategy);
                w.u32(missing);
            }
        }
    }
    w.out
}

/// Decodes one frame's `CARQTRC1` payload back into records: any wrong
/// magic, truncation, unknown tag, length/layout mismatch or trailing byte
/// is an error.
fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceCodecError> {
    let mut r = Reader { bytes };
    if r.take(TRACE_MAGIC.len()).map_err(|_| TraceCodecError::BadMagic)? != TRACE_MAGIC {
        return Err(TraceCodecError::BadMagic);
    }
    let count = r.count(MIN_RECORD_BYTES)?;
    let mut records = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let declared = r.u32()?;
        if declared == 0 {
            return Err(TraceCodecError::Truncated);
        }
        let tag = r.u8()?;
        let record = match tag {
            0 => TraceRecord::EventDispatched { at: r.time()?, queue_depth: r.u32()? },
            1 => TraceRecord::TxStart {
                at: r.time()?,
                until: r.time()?,
                node: r.u32()?,
                bits: r.u32()?,
            },
            2 => TraceRecord::Delivery {
                at: r.time()?,
                tx: r.u32()?,
                rx: r.u32()?,
                received: r.bool()?,
                cached: r.bool()?,
                snr_db: r.f64()?,
            },
            3 => {
                TraceRecord::CacheAudit { at: r.time()?, tx: r.u32()?, rx: r.u32()?, ok: r.bool()? }
            }
            4 => TraceRecord::CsmaDeferred { at: r.time()?, node: r.u32()?, until: r.time()? },
            5 => TraceRecord::ArqRequest {
                at: r.time()?,
                node: r.u32()?,
                seqs: r.u32()?,
                cooperators: r.u32()?,
            },
            6 => TraceRecord::CoopRetransmit { at: r.time()?, node: r.u32()?, seqs: r.u32()? },
            7 => TraceRecord::ApRetransmitQueued {
                at: r.time()?,
                ap: r.u32()?,
                destination: r.u32()?,
                seq: r.u32()?,
            },
            8 => TraceRecord::BufferStore {
                at: r.time()?,
                node: r.u32()?,
                stored: r.u32()?,
                evicted: r.u32()?,
            },
            9 => TraceRecord::StrategyDecision {
                at: r.time()?,
                node: r.u32()?,
                strategy: r.u32()?,
                missing: r.u32()?,
            },
            other => return Err(TraceCodecError::UnknownTag(other)),
        };
        let (tag_back, expected) = layout(&record);
        debug_assert_eq!(tag_back, tag);
        if declared != expected + 1 {
            return Err(TraceCodecError::BadLength { tag, declared, expected: expected + 1 });
        }
        records.push(record);
    }
    if !r.bytes.is_empty() {
        return Err(TraceCodecError::TrailingBytes);
    }
    Ok(records)
}

/// One round's records inside a `CARQTRM1` trace file, tagged with the
/// round index and the round seed that produced it — everything a
/// downstream analysis needs to label (and re-derive) the round.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFrame {
    /// The 0-based round index.
    pub round: u32,
    /// The round seed `run_round_traced` was called with.
    pub seed: u64,
    /// The round's records, in emission order.
    pub records: Vec<TraceRecord>,
}

/// Encodes rounds into a `CARQTRM1` trace file: the magic, a u32 frame
/// count, then per frame a `(round u32, seed u64, length u32)` header
/// followed by that round's `CARQTRC1` payload, so any frame can be sliced
/// out and decoded (or skipped) on its own.
pub fn encode_frames(frames: &[TraceFrame]) -> Vec<u8> {
    let mut w = Writer { out: Vec::new() };
    w.out.extend_from_slice(TRACE_FRAMED_MAGIC);
    w.u32(u32::try_from(frames.len()).expect("frame count fits u32"));
    for frame in frames {
        let blob = encode(&frame.records);
        w.u32(frame.round);
        w.u64(frame.seed);
        w.u32(u32::try_from(blob.len()).expect("frame length fits u32"));
        w.out.extend_from_slice(&blob);
    }
    w.out
}

/// Decodes a `CARQTRM1` trace file back into per-round frames.
///
/// # Errors
///
/// Any structural problem in the framing or in a frame's payload; a bare
/// `CARQTRC1` payload is [`TraceCodecError::BadMagic`].
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<TraceFrame>, TraceCodecError> {
    let mut r = Reader { bytes };
    if r.take(TRACE_FRAMED_MAGIC.len()).map_err(|_| TraceCodecError::BadMagic)?
        != TRACE_FRAMED_MAGIC
    {
        return Err(TraceCodecError::BadMagic);
    }
    let count = r.count(MIN_FRAME_BYTES)?;
    let mut frames = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let round = r.u32()?;
        let seed = r.u64()?;
        let len = r.u32()? as usize;
        let blob = r.take(len)?;
        frames.push(TraceFrame { round, seed, records: decode(blob)? });
    }
    if !r.bytes.is_empty() {
        return Err(TraceCodecError::TrailingBytes);
    }
    Ok(frames)
}

/// Renders records as JSON Lines: one object per record, fixed key order,
/// timestamps in nanoseconds — a stable shape for external tooling.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for record in records {
        let kind = record.kind();
        let at = record.at().as_nanos();
        let _ = write!(out, "{{\"type\":\"{kind}\",\"at_ns\":{at}");
        match *record {
            TraceRecord::EventDispatched { queue_depth, .. } => {
                let _ = write!(out, ",\"queue_depth\":{queue_depth}");
            }
            TraceRecord::TxStart { until, node, bits, .. } => {
                let _ = write!(
                    out,
                    ",\"until_ns\":{},\"node\":{node},\"bits\":{bits}",
                    until.as_nanos()
                );
            }
            TraceRecord::Delivery { tx, rx, received, cached, snr_db, .. } => {
                let _ = write!(
                    out,
                    ",\"tx\":{tx},\"rx\":{rx},\"received\":{received},\"cached\":{cached},\"snr_db\":{snr_db}"
                );
            }
            TraceRecord::CacheAudit { tx, rx, ok, .. } => {
                let _ = write!(out, ",\"tx\":{tx},\"rx\":{rx},\"ok\":{ok}");
            }
            TraceRecord::CsmaDeferred { node, until, .. } => {
                let _ = write!(out, ",\"node\":{node},\"until_ns\":{}", until.as_nanos());
            }
            TraceRecord::ArqRequest { node, seqs, cooperators, .. } => {
                let _ =
                    write!(out, ",\"node\":{node},\"seqs\":{seqs},\"cooperators\":{cooperators}");
            }
            TraceRecord::CoopRetransmit { node, seqs, .. } => {
                let _ = write!(out, ",\"node\":{node},\"seqs\":{seqs}");
            }
            TraceRecord::ApRetransmitQueued { ap, destination, seq, .. } => {
                let _ = write!(out, ",\"ap\":{ap},\"destination\":{destination},\"seq\":{seq}");
            }
            TraceRecord::BufferStore { node, stored, evicted, .. } => {
                let _ = write!(out, ",\"node\":{node},\"stored\":{stored},\"evicted\":{evicted}");
            }
            TraceRecord::StrategyDecision { node, strategy, missing, .. } => {
                let _ =
                    write!(out, ",\"node\":{node},\"strategy\":{strategy},\"missing\":{missing}");
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        let t = SimTime::from_micros(10);
        let u = SimTime::from_micros(18);
        vec![
            TraceRecord::EventDispatched { at: t, queue_depth: 3 },
            TraceRecord::TxStart { at: t, until: u, node: 0, bits: 8_448 },
            TraceRecord::Delivery {
                at: t,
                tx: 0,
                rx: 1,
                received: true,
                cached: true,
                snr_db: -2.75,
            },
            TraceRecord::Delivery {
                at: t,
                tx: 0,
                rx: 2,
                received: false,
                cached: false,
                snr_db: 7.5,
            },
            TraceRecord::CacheAudit { at: t, tx: 0, rx: 1, ok: true },
            TraceRecord::CsmaDeferred { at: u, node: 2, until: SimTime::from_micros(40) },
            TraceRecord::ArqRequest { at: u, node: 1, seqs: 5, cooperators: 2 },
            TraceRecord::CoopRetransmit { at: u, node: 2, seqs: 1 },
            TraceRecord::ApRetransmitQueued { at: u, ap: 0, destination: 1, seq: 42 },
            TraceRecord::StrategyDecision { at: u, node: 1, strategy: 3, missing: 5 },
            TraceRecord::BufferStore { at: u, node: 3, stored: 1, evicted: 1 },
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        let records = sample();
        let bytes = encode(&records);
        assert_eq!(&bytes[..8], TRACE_MAGIC);
        assert_eq!(decode(&bytes).unwrap(), records);
        // `decode` bounds a record count by this minimum.
        assert!(records.iter().all(|r| 4 + 1 + layout(r).1 as usize >= MIN_RECORD_BYTES));
        // Encoding is deterministic.
        assert_eq!(bytes, encode(&records));
        // The empty trace round-trips too.
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        let bytes = encode(&sample());
        assert_eq!(decode(b"NOTTRACE"), Err(TraceCodecError::BadMagic));
        assert_eq!(decode(&bytes[..4]), Err(TraceCodecError::BadMagic));
        assert_eq!(decode(&bytes[..bytes.len() - 3]), Err(TraceCodecError::Truncated));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode(&trailing), Err(TraceCodecError::TrailingBytes));
        // Corrupt the first record's tag (offset 8 magic + 4 count + 4 len).
        let mut bad_tag = bytes.clone();
        bad_tag[16] = 250;
        assert_eq!(decode(&bad_tag), Err(TraceCodecError::UnknownTag(250)));
        // Shrink the first record's declared length below its layout.
        let mut bad_len = bytes.clone();
        bad_len[12..16].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(decode(&bad_len), Err(TraceCodecError::BadLength { tag: 0, .. })));
        // A count the remaining bytes cannot hold is refused before anything
        // is allocated for it, not only after the records run out.
        assert_eq!(decode(b"CARQTRC1\xff\xff\xff\xff"), Err(TraceCodecError::Truncated));
        let mut overcount = bytes;
        overcount[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&overcount), Err(TraceCodecError::Truncated));
        // Errors render.
        assert!(TraceCodecError::UnknownTag(9).to_string().contains("tag 9"));
    }

    #[test]
    fn framed_traces_round_trip_and_reject_corruption() {
        let frames = vec![
            TraceFrame { round: 0, seed: 0xBEEF, records: sample() },
            TraceFrame { round: 1, seed: 0xCAFE, records: Vec::new() },
            TraceFrame { round: 7, seed: u64::MAX, records: sample()[..3].to_vec() },
        ];
        let bytes = encode_frames(&frames);
        assert_eq!(&bytes[..8], TRACE_FRAMED_MAGIC);
        assert_eq!(decode_frames(&bytes).unwrap(), frames);
        assert_eq!(bytes, encode_frames(&frames), "framing is deterministic");
        assert_eq!(decode_frames(&encode_frames(&[])).unwrap(), Vec::new());

        assert_eq!(decode_frames(b"NOTAMAGI"), Err(TraceCodecError::BadMagic));
        // A bare payload is the retired single-round file, not a trace file.
        assert_eq!(decode_frames(&encode(&sample())), Err(TraceCodecError::BadMagic));
        assert_eq!(decode_frames(b"CARQTRM1\xff\xff\xff\xff"), Err(TraceCodecError::Truncated));
        assert_eq!(decode_frames(&bytes[..bytes.len() - 2]), Err(TraceCodecError::Truncated));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_frames(&trailing), Err(TraceCodecError::TrailingBytes));
        // Corrupting a frame's payload surfaces the payload decoder's
        // error (frame 0's blob starts after 8 magic + 4 count + 16 header).
        let mut bad_blob = bytes;
        bad_blob[28] = b'X';
        assert_eq!(decode_frames(&bad_blob), Err(TraceCodecError::BadMagic));
    }

    #[test]
    fn jsonl_renders_one_stable_line_per_record() {
        let records = sample();
        let jsonl = to_jsonl(&records);
        assert_eq!(jsonl.lines().count(), records.len());
        assert_eq!(jsonl, to_jsonl(&records), "rendering is deterministic");
        let first = jsonl.lines().next().unwrap();
        assert_eq!(first, "{\"type\":\"event_dispatched\",\"at_ns\":10000,\"queue_depth\":3}");
        assert!(jsonl.contains("\"snr_db\":-2.75"));
        assert!(jsonl.contains("\"type\":\"buffer_store\""));
        assert!(jsonl.contains("\"type\":\"strategy_decision\",\"at_ns\":18000,\"node\":1,\"strategy\":3,\"missing\":5"));
    }
}
