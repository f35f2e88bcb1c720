//! The per-round analysis digest: everything the `analyze` tables need
//! from one traced round, in a stable binary form the analysis journal can
//! persist.
//!
//! A digest is a pure function of the round's record stream (itself a pure
//! function of `(scenario, round, seed)`), so a cached digest is — by the
//! same purity contract the round cache relies on — identical to what
//! re-tracing and re-analysing the round would produce. That is what lets
//! `analyze latency --preset ... --cache DIR` re-run warm with zero rounds
//! simulated and byte-identical output.

use vanet_trace::TraceRecord;

use crate::latency::{recovery_latency, LatencyReport};
use crate::occupancy::{medium_occupancy, OccupancyReport};

/// The digest encoding version this build writes and reads.
const DIGEST_VERSION: u8 = 1;

/// The analysis digest of one traced round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundDigest {
    /// The round index.
    pub round: u32,
    /// The round seed the trace was produced with.
    pub seed: u64,
    /// Total records in the round's trace.
    pub records: u32,
    /// The recovery-latency extraction.
    pub latency: LatencyReport,
    /// The medium-occupancy profile.
    pub occupancy: OccupancyReport,
}

/// A little-endian byte writer/reader pair for the digest codec.
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
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let slice = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    /// Reads a count of items that each encode to `item_bytes`, refusing
    /// one the remaining bytes cannot hold, so a corrupt count fails before
    /// anything is reserved for it.
    fn count(&mut self, item_bytes: usize) -> Option<u32> {
        let count = self.u32()?;
        ((count as usize).saturating_mul(item_bytes) <= self.bytes.len() - self.pos)
            .then_some(count)
    }
}

impl RoundDigest {
    /// Analyses one traced round.
    pub fn compute(round: u32, seed: u64, records: &[TraceRecord]) -> Self {
        RoundDigest {
            round,
            seed,
            records: records.len() as u32,
            latency: recovery_latency(records),
            occupancy: medium_occupancy(records),
        }
    }

    /// Encodes the digest (versioned, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer { out: Vec::new() };
        w.u8(DIGEST_VERSION);
        w.u32(self.round);
        w.u64(self.seed);
        w.u32(self.records);
        w.u32(self.latency.samples_ns.len() as u32);
        for &sample in &self.latency.samples_ns {
            w.u64(sample);
        }
        w.u32(self.latency.opened);
        w.u32(self.latency.unmatched);
        w.u64(self.occupancy.span_ns);
        w.u64(self.occupancy.busy_ns);
        w.u64(self.occupancy.airtime_ns);
        w.u32(self.occupancy.tx_count);
        w.u32(self.occupancy.collision_windows);
        w.u32(self.occupancy.per_node_airtime_ns.len() as u32);
        for &(node, airtime) in &self.occupancy.per_node_airtime_ns {
            w.u32(node);
            w.u64(airtime);
        }
        w.out
    }

    /// Decodes a digest; `None` on truncation, trailing bytes or an unknown
    /// version (a digest from a different build is recomputed, not trusted).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader { bytes, pos: 0 };
        if r.u8()? != DIGEST_VERSION {
            return None;
        }
        let round = r.u32()?;
        let seed = r.u64()?;
        let records = r.u32()?;
        let sample_count = r.count(8)?;
        let mut samples_ns = Vec::with_capacity(sample_count as usize);
        for _ in 0..sample_count {
            samples_ns.push(r.u64()?);
        }
        let opened = r.u32()?;
        let unmatched = r.u32()?;
        let span_ns = r.u64()?;
        let busy_ns = r.u64()?;
        let airtime_ns = r.u64()?;
        let tx_count = r.u32()?;
        let collision_windows = r.u32()?;
        let node_count = r.count(12)?;
        let mut per_node_airtime_ns = Vec::with_capacity(node_count as usize);
        for _ in 0..node_count {
            let node = r.u32()?;
            let airtime = r.u64()?;
            per_node_airtime_ns.push((node, airtime));
        }
        if r.pos != bytes.len() {
            return None;
        }
        Some(RoundDigest {
            round,
            seed,
            records,
            latency: LatencyReport { samples_ns, opened, unmatched },
            occupancy: OccupancyReport {
                span_ns,
                busy_ns,
                airtime_ns,
                tx_count,
                collision_windows,
                per_node_airtime_ns,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn sample_digest() -> RoundDigest {
        let t = SimTime::from_micros(5);
        let records = [
            TraceRecord::TxStart { at: t, until: SimTime::from_micros(9), node: 0, bits: 800 },
            TraceRecord::StrategyDecision {
                at: SimTime::from_micros(10),
                node: 1,
                strategy: 0,
                missing: 1,
            },
            TraceRecord::ArqRequest {
                at: SimTime::from_micros(12),
                node: 1,
                seqs: 1,
                cooperators: 1,
            },
            TraceRecord::CoopRetransmit { at: SimTime::from_micros(20), node: 2, seqs: 1 },
            TraceRecord::Delivery {
                at: SimTime::from_micros(20),
                tx: 2,
                rx: 1,
                received: true,
                cached: false,
                snr_db: 5.0,
            },
        ];
        RoundDigest::compute(3, 0xBEEF, &records)
    }

    #[test]
    fn compute_folds_both_analyses() {
        let digest = sample_digest();
        assert_eq!(digest.round, 3);
        assert_eq!(digest.seed, 0xBEEF);
        assert_eq!(digest.records, 5);
        assert_eq!(digest.latency.samples_ns, vec![8_000]);
        assert_eq!(digest.latency.unmatched, 0);
        assert_eq!(digest.occupancy.tx_count, 1);
        assert_eq!(digest.occupancy.busy_ns, 4_000);
    }

    #[test]
    fn codec_round_trips_and_rejects_corruption() {
        let digest = sample_digest();
        let bytes = digest.to_bytes();
        assert_eq!(RoundDigest::from_bytes(&bytes), Some(digest.clone()));
        assert_eq!(bytes, digest.to_bytes(), "encoding is deterministic");
        // Truncation, trailing bytes and a foreign version all decline.
        assert_eq!(RoundDigest::from_bytes(&bytes[..bytes.len() - 1]), None);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(RoundDigest::from_bytes(&trailing), None);
        let mut wrong_version = bytes;
        wrong_version[0] = 99;
        assert_eq!(RoundDigest::from_bytes(&wrong_version), None);
        assert_eq!(RoundDigest::from_bytes(&[]), None);
        // A count the remaining bytes cannot hold declines before anything
        // is reserved for it. The empty digest is 65 bytes: its sample count
        // follows the 17-byte header, its per-node count ends it.
        let empty = RoundDigest::default().to_bytes();
        assert_eq!(empty.len(), 65);
        for at in [17, empty.len() - 4] {
            let mut hostile = empty.clone();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(RoundDigest::from_bytes(&hostile), None, "count at byte {at}");
        }
        // The empty digest round-trips too.
        let empty = RoundDigest::default();
        assert_eq!(RoundDigest::from_bytes(&empty.to_bytes()), Some(empty));
    }
}
