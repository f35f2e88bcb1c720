//! Unioning shard journals into one store — the "ship the journal, merge
//! on open" half of distributed runs.
//!
//! A fleet of worker processes (or machines) each fills its own shard
//! journal; [`merge_into`] folds any set of those journals into a
//! destination journal of the same codec. Sources are read, never opened:
//! no lock is taken and nothing in them is repaired. Records are validated
//! by the very replay an open runs — checksummed, UTF-8 keys, decodable
//! payloads — so a journal that was torn mid-write on the worker (or
//! corrupted in transit) contributes its clean prefix and reports the
//! dropped tail instead of poisoning the destination. A validated record
//! is appended to the destination as read, not re-encoded: its checksum
//! was just verified, so it is not hashed again. Identical keys resolve
//! **last-write-wins** in source order, judged on the decoded values;
//! under the purity contract duplicates carry identical payloads, so in
//! practice a supersede only happens when two journals were produced by
//! *different* code or schema versions — the [`MergeReport`] counts them
//! separately so that drift is visible.

use std::path::Path;

use crate::store::{check_header, replay, CacheError, IngestOutcome, Journal, RecordCodec};

/// What a [`merge_into`] did, per record disposition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergeReport {
    /// Source journals read.
    pub sources: usize,
    /// Records appended under keys the destination did not hold.
    pub records_ingested: usize,
    /// Records skipped because the destination already held an identical
    /// value — the expected case when shards overlap or are re-merged.
    pub records_duplicate: usize,
    /// Records that *replaced* a differing value under the same key
    /// (last-write-wins). Non-zero means the sources disagree — different
    /// code or schema versions produced them.
    pub records_superseded: usize,
    /// Torn or corrupt trailing bytes dropped across all sources.
    pub torn_bytes_dropped: u64,
}

impl MergeReport {
    /// Total records accepted into the destination (ingested + superseding).
    pub fn records_written(&self) -> usize {
        self.records_ingested + self.records_superseded
    }
}

/// Unions the shard journals (or whole journal directories) in `sources`
/// into `dest`, in order, validating every record on ingest. A directory
/// source means its `C::FILE` journal; anything else is taken as a journal
/// path. See the module docs for the exact semantics; `dest` must be a
/// writable handle.
///
/// # Errors
///
/// A missing or unrecognised source journal (an explicitly listed source
/// that cannot contribute is a caller error, not a skip), a source that
/// *is* the destination, and I/O or append failures. A failed merge leaves
/// the destination valid — every record already ingested stays.
pub fn merge_into<C: RecordCodec, P: AsRef<Path>>(
    dest: &Journal<C>,
    sources: &[P],
) -> Result<MergeReport, CacheError> {
    let dest_journal = dest.journal_path().canonicalize().ok();
    let mut report = MergeReport::default();
    for source in sources {
        let source = source.as_ref();
        let path = if source.is_dir() { source.join(C::FILE) } else { source.to_path_buf() };
        if dest_journal.is_some() && path.canonicalize().ok() == dest_journal {
            return Err(CacheError::new(&path, "cannot merge a journal into itself"));
        }
        let buf = std::fs::read(&path)
            .map_err(|e| CacheError::io(&path, "read the shard journal", &e))?;
        check_header::<C>(&path, &buf)?;
        let mut failure: Option<CacheError> = None;
        let valid_len = replay::<C>(&buf, |key, value, record| {
            if failure.is_some() {
                return;
            }
            match dest.ingest(key, value, record) {
                Ok(IngestOutcome::Inserted) => report.records_ingested += 1,
                Ok(IngestOutcome::Duplicate) => report.records_duplicate += 1,
                Ok(IngestOutcome::Superseded) => report.records_superseded += 1,
                Err(e) => failure = Some(e),
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        report.sources += 1;
        report.torn_bytes_dropped += (buf.len() - valid_len) as u64;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use vanet_stats::{RoundReport, RoundResult};

    use super::*;
    use crate::key::fnv1a64;
    use crate::{CacheKey, RoundCodec, SweepCache};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-cache-merge-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn key(i: u32) -> CacheKey {
        CacheKey::new("fake", 0xF1, "scenario=fake;x=i1", i, u64::from(i) * 31 + 7)
    }

    /// Reports of different lengths: report `i` carries `i` counters.
    fn report(i: u32) -> RoundReport {
        const NAMES: [&str; 9] = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
        NAMES[..i as usize].iter().fold(
            RoundReport::new(i, u64::from(i) * 31 + 7, RoundResult::default()),
            |report, name| report.with_counter(name, f64::from(i)),
        )
    }

    /// One journal record around `payload`, checksummed as the format
    /// specifies: FNV-1a over the key, then the payload.
    fn record(key: &str, payload: &[u8]) -> Vec<u8> {
        let body = [key.as_bytes(), payload].concat();
        let mut record = Vec::new();
        record.extend_from_slice(&(key.len() as u32).to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        record.extend_from_slice(&body);
        record
    }

    /// The `RoundReport` encoding of round 3 (seed 0, no counters) with one
    /// flow: car 1 was sent packets 0..8, received `map` as listed, and
    /// held {3, 5, 7} after cooperation.
    fn report_payload(map: &[u32]) -> Vec<u8> {
        // round | seed (two words) | counters | flows | destination | sent
        let mut words = vec![3, 0, 0, 0, 1, 1, 8];
        words.extend(0..8);
        // observers | observer | its map | after_coop
        words.extend([1, 1, map.len() as u32]);
        words.extend_from_slice(map);
        words.extend([3, 3, 5, 7]);
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn a_merge_into_a_fresh_journal_copies_the_source_byte_for_byte() {
        let source = temp_dir("copy-source");
        let cache = SweepCache::open(&source).unwrap();
        for i in 0..9 {
            cache.put(&key(i), &report(i)).unwrap();
        }
        drop(cache);
        let dest_dir = temp_dir("copy-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        assert_eq!(merge_into(&dest, &[&source]).unwrap().records_ingested, 9);
        let copied = std::fs::read(dest.journal_path()).unwrap();
        assert_eq!(copied, std::fs::read(source.join(RoundCodec::FILE)).unwrap());
        std::fs::remove_dir_all(&source).ok();
        std::fs::remove_dir_all(&dest_dir).ok();
    }

    /// No encoder writes a map out of order, but a decoder accepts one: a
    /// merge appends such a record as read, judges it by its decoded
    /// value, and compaction rewrites it canonically.
    #[test]
    fn non_canonical_records_merge_verbatim_and_compact_canonically() {
        let canonical = report_payload(&[3, 5, 7]);
        let listed = report_payload(&[7, 3, 3, 5]);
        let report = RoundReport::from_bytes(&canonical).unwrap();
        assert_eq!(report.to_bytes(), canonical, "the encoder writes the sorted list");
        assert_eq!(RoundReport::from_bytes(&listed).unwrap(), report);

        let source = temp_dir("listed-source");
        std::fs::create_dir_all(&source).unwrap();
        let journal = [RoundCodec::MAGIC, &record(key(0).as_str(), &listed)].concat();
        std::fs::write(source.join(RoundCodec::FILE), &journal).unwrap();

        // Into a fresh journal the record is appended as read, and opens to
        // the set it lists.
        let dest_dir = temp_dir("listed-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        assert_eq!(merge_into(&dest, &[&source]).unwrap().records_ingested, 1);
        assert_eq!(std::fs::read(dest.journal_path()).unwrap(), journal);
        drop(dest);
        let dest = SweepCache::open(&dest_dir).unwrap();
        assert_eq!(dest.get(&key(0)), Some(report.clone()));

        // Against the canonical record it is a duplicate: nothing is written.
        let held_dir = temp_dir("listed-held");
        let held = SweepCache::open(&held_dir).unwrap();
        held.put(&key(0), &report).unwrap();
        let canonical_journal = std::fs::read(held.journal_path()).unwrap();
        let merged = merge_into(&held, &[&source]).unwrap();
        assert_eq!((merged.records_duplicate, merged.records_written()), (1, 0));
        assert_eq!(std::fs::read(held.journal_path()).unwrap(), canonical_journal);

        // Compaction re-encodes it: the canonical journal, byte for byte.
        dest.compact().unwrap();
        assert_eq!(std::fs::read(dest.journal_path()).unwrap(), canonical_journal);
        assert_eq!(dest.get(&key(0)), Some(report));
        for dir in [&source, &dest_dir, &held_dir] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
