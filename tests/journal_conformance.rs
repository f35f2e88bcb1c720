//! One set of journal tests, run over both record codecs.
//!
//! The round cache (`SweepCache`, `VANETCACHE1` round reports) and the
//! analysis store (`AnalysisStore`, `CARQANA1` digests) are two codecs over
//! one `Journal<C>`, so their crash, lock, compaction and merge guarantees
//! are one implementation. Each generic test body below is instantiated for
//! both codecs (`round_cache::*` and `digest_store::*`); the format pins
//! hold both on-disk layouts to the bytes earlier releases wrote.

use std::fmt::Debug;
use std::fs::OpenOptions;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use carq_repro::analysis::latency::LatencyReport;
use carq_repro::analysis::occupancy::OccupancyReport;
use carq_repro::analysis::{AnalysisStore, DigestCodec, RoundDigest};
use carq_repro::cache::{merge_into, CacheKey, Journal, RecordCodec, RoundCodec, SweepCache};
use carq_repro::sim::fnv1a64;
use carq_repro::stats::{RoundReport, RoundResult};

/// A codec under test, with a family of distinct sample values.
trait Sample: RecordCodec<Value: Debug> {
    fn sample(i: u32) -> Self::Value;
}

impl Sample for RoundCodec {
    fn sample(i: u32) -> RoundReport {
        RoundReport::new(i, u64::from(i) ^ 0xABC, RoundResult::default())
            .with_counter("value", f64::from(i) + 0.5)
    }
}

impl Sample for DigestCodec {
    fn sample(round: u32) -> RoundDigest {
        RoundDigest {
            round,
            seed: u64::from(round) ^ 0xABC,
            records: 10 + round,
            latency: LatencyReport {
                samples_ns: vec![u64::from(round) * 1000, 5_000],
                opened: 3,
                unmatched: 1,
            },
            occupancy: OccupancyReport {
                span_ns: 100_000,
                busy_ns: 40_000,
                airtime_ns: 45_000,
                tx_count: 7,
                collision_windows: 1,
                per_node_airtime_ns: vec![(0, 30_000), (2, 15_000)],
            },
        }
    }
}

fn key(i: u32) -> CacheKey {
    CacheKey::new("urban", 0xFEED, "scenario=urban;n_cars=i3", i, u64::from(i) ^ 0xABC)
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "carq-journal-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A fresh directory whose journal holds the samples in `range`.
fn filled<C: Sample>(tag: &str, range: Range<u32>) -> PathBuf {
    let dir = temp_dir(tag);
    let journal = Journal::<C>::open(&dir).unwrap();
    for i in range {
        assert!(journal.put(&key(i), &C::sample(i)).unwrap());
    }
    dir
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// Cuts `path` to `len` bytes, as a kill mid-append would leave it.
fn tear(path: &Path, len: u64) {
    OpenOptions::new().write(true).open(path).unwrap().set_len(len).unwrap();
}

fn remove(dirs: &[&PathBuf]) {
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

fn put_get_and_reopen<C: Sample>() {
    let dir = temp_dir("roundtrip");
    let journal = Journal::<C>::open(&dir).unwrap();
    assert!(journal.is_empty());
    assert!(journal.get(&key(0)).is_none());
    for i in 0..5 {
        assert!(journal.put(&key(i), &C::sample(i)).unwrap());
    }
    // A put under a stored key writes nothing, whatever the value.
    assert!(!journal.put(&key(2), &C::sample(2)).unwrap());
    assert!(!journal.put(&key(2), &C::sample(9)).unwrap());
    assert_eq!(journal.get(&key(2)), Some(C::sample(2)));
    assert_eq!(journal.len(), 5);
    assert!(journal.contains(&key(3)));
    let bytes = journal.stats().file_bytes;
    drop(journal);

    let reopened = Journal::<C>::open(&dir).unwrap();
    assert_eq!(reopened.get(&key(3)), Some(C::sample(3)));
    let stats = reopened.stats();
    assert_eq!((stats.entries, stats.file_bytes, stats.recovered_bytes), (5, bytes, 0));
    assert_eq!(stats.live_bytes, bytes, "no dead bytes after plain puts");
    assert_eq!(stats.scenarios, vec![("urban".to_string(), 5)]);
    assert_eq!(reopened.keys(), (0..5).map(key).collect::<Vec<_>>());
    assert!(format!("{reopened:?}").contains("entries"));
    remove(&[&dir]);
}

fn torn_tail_is_dropped_and_truncated<C: Sample>() {
    let dir = filled::<C>("torn", 0..4);
    let path = dir.join(C::FILE);
    let full_len = file_len(&path);
    // Chop the last record mid-payload, as a kill mid-write would.
    tear(&path, full_len - 7);

    let recovered = Journal::<C>::open(&dir).unwrap();
    assert_eq!(recovered.len(), 3, "the torn record is dropped");
    assert!(recovered.get(&key(3)).is_none());
    assert_eq!(recovered.get(&key(2)), Some(C::sample(2)));
    let stats = recovered.stats();
    assert!(stats.recovered_bytes > 0);
    assert!(stats.file_bytes < full_len - 7, "file truncated to the last good record");
    assert_eq!(file_len(&path), stats.file_bytes);

    // Appending after recovery works and survives another reopen.
    recovered.put(&key(3), &C::sample(3)).unwrap();
    drop(recovered);
    let again = Journal::<C>::open(&dir).unwrap();
    assert_eq!(again.len(), 4);
    assert_eq!(again.get(&key(3)), Some(C::sample(3)));
    assert_eq!(again.stats().recovered_bytes, 0);
    remove(&[&dir]);
}

/// Ways a whole record goes bad in place.
#[derive(Debug, Clone, Copy)]
enum Rot {
    /// One payload byte flipped: the checksum no longer matches.
    PayloadByte,
    /// One byte of the stored checksum flipped.
    ChecksumByte,
    /// One byte appended to the payload, with the lengths and the checksum
    /// rewritten to match: the record verifies, but no codec decodes it.
    Undecodable,
}

/// The journal image `pristine` with record `k` spoiled by `rot`; records
/// start at `boundaries[..]`, and the last boundary is the image's end.
fn rot_record(pristine: &[u8], boundaries: &[u64], k: usize, rot: Rot) -> Vec<u8> {
    let (start, end) = (boundaries[k] as usize, boundaries[k + 1] as usize);
    let key_len = u32::from_le_bytes(pristine[start..start + 4].try_into().unwrap()) as usize;
    let payload_start = start + 16 + key_len;
    let mut bytes = pristine.to_vec();
    match rot {
        Rot::PayloadByte => bytes[(payload_start + end) / 2] ^= 0xFF,
        Rot::ChecksumByte => bytes[start + 8] ^= 0xFF,
        Rot::Undecodable => {
            let body = [&pristine[start + 16..end], &[0]].concat();
            let payload_len = (end - payload_start + 1) as u32;
            let mut record = pristine[start..start + 4].to_vec();
            record.extend_from_slice(&payload_len.to_le_bytes());
            record.extend_from_slice(&fnv1a64(&body).to_le_bytes());
            record.extend_from_slice(&body);
            bytes.splice(start..end, record);
        }
    }
    bytes
}

/// A replay checks records in batches, so the stop rule is pinned across
/// batch boundaries: nine records are two full batches of four and one
/// more. Whichever record k rots, and however, an open keeps exactly the k
/// records before it and reports every byte from k on as recovered, and a
/// merge of the same file ingests those k and drops the same bytes.
fn bit_rot_cuts_the_journal_there<C: Sample>() {
    let dir = temp_dir("bitrot");
    let path = dir.join(C::FILE);
    let journal = Journal::<C>::open(&dir).unwrap();
    let mut boundaries = vec![file_len(&path)];
    for i in 0..9 {
        journal.put(&key(i), &C::sample(i)).unwrap();
        boundaries.push(file_len(&path));
    }
    drop(journal);
    let pristine = std::fs::read(&path).unwrap();

    for k in 0..9 {
        for rot in [Rot::PayloadByte, Rot::ChecksumByte, Rot::Undecodable] {
            let case = format!("record {k}, {rot:?}");
            let rotten = rot_record(&pristine, &boundaries, k, rot);
            let torn = rotten.len() as u64 - boundaries[k];
            // A fresh file each time: see the kill-at-every-offset test.
            std::fs::remove_file(&path).unwrap();
            std::fs::write(&path, &rotten).unwrap();

            // Merge first: a merge reads its source without repairing it.
            let dest_dir = temp_dir("bitrot-dest");
            let dest = Journal::<C>::open(&dest_dir).unwrap();
            let merged = merge_into(&dest, &[&path]).unwrap();
            assert_eq!((merged.records_ingested, merged.torn_bytes_dropped), (k, torn), "{case}");
            assert_eq!(dest.len(), k, "{case}");
            drop(dest);
            remove(&[&dest_dir]);

            let recovered = Journal::<C>::open(&dir).unwrap();
            assert_eq!(
                recovered.len(),
                k,
                "{case}: everything from the rotten record on is dropped"
            );
            for i in 0..k as u32 {
                assert_eq!(recovered.get(&key(i)), Some(C::sample(i)), "{case}");
            }
            assert_eq!(recovered.stats().recovered_bytes, torn, "{case}");
        }
    }
    remove(&[&dir]);
}

fn foreign_files_are_refused<C: Sample>() {
    let dir = temp_dir("foreign");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(C::FILE);
    std::fs::write(&path, b"totally not a journal").unwrap();
    let err = Journal::<C>::open(&dir).unwrap_err();
    assert!(err.to_string().contains("unrecognised header"), "{err}");
    assert!(err.path().ends_with(C::FILE));
    let err = Journal::<C>::open_read_only(&dir).unwrap_err();
    assert!(err.to_string().contains("unrecognised header"), "{err}");
    let dest_dir = temp_dir("foreign-dest");
    let dest = Journal::<C>::open(&dest_dir).unwrap();
    let err = merge_into(&dest, &[&path]).unwrap_err();
    assert!(err.to_string().contains("unrecognised header"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), b"totally not a journal", "left as found");
    remove(&[&dir, &dest_dir]);
}

fn torn_header_opens_empty<C: Sample>() {
    let dir = temp_dir("torn-header");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(C::FILE);
    // A kill during the header write leaves part of the magic.
    std::fs::write(&path, &C::MAGIC[..4]).unwrap();
    let reader = Journal::<C>::open_read_only(&dir).unwrap();
    assert!(reader.is_empty());
    assert_eq!(reader.stats().recovered_bytes, 4);
    assert_eq!(file_len(&path), 4, "a read-only open repairs nothing");

    let journal = Journal::<C>::open(&dir).unwrap();
    assert!(journal.is_empty());
    assert_eq!(journal.stats().recovered_bytes, 4);
    journal.put(&key(0), &C::sample(0)).unwrap();
    drop(journal);
    assert_eq!(Journal::<C>::open(&dir).unwrap().get(&key(0)), Some(C::sample(0)));
    remove(&[&dir]);
}

fn second_writer_fails_fast_until_the_first_drops<C: Sample>() {
    let dir = temp_dir("lock");
    let first = Journal::<C>::open(&dir).unwrap();
    let err = Journal::<C>::open(&dir).unwrap_err();
    assert!(err.to_string().contains("another writer"), "{err}");
    assert!(err.to_string().contains(C::LOCK_FILE), "{err}");
    // The failed open must not have stolen the lock...
    first.put(&key(0), &C::sample(0)).unwrap();
    drop(first);
    // ...and dropping the holder releases it.
    assert!(!dir.join(C::LOCK_FILE).exists(), "lockfile leaked");
    assert_eq!(Journal::<C>::open(&dir).unwrap().len(), 1);
    remove(&[&dir]);
}

fn read_only_opens_are_lock_free_and_never_write<C: Sample>() {
    let dir = filled::<C>("read-only", 0..3);
    let writer = Journal::<C>::open(&dir).unwrap();
    // Coexists with the live writer...
    let reader = Journal::<C>::open_read_only(&dir).unwrap();
    assert!(reader.is_read_only() && !writer.is_read_only());
    assert_eq!(reader.get(&key(0)), Some(C::sample(0)));
    // ...and refuses to mutate anything.
    let err = reader.put(&key(7), &C::sample(7)).unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
    let err = reader.compact().unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
    drop((writer, reader));

    let path = dir.join(C::FILE);
    let full_len = file_len(&path);
    tear(&path, full_len - 5);
    let reader = Journal::<C>::open_read_only(&dir).unwrap();
    assert_eq!(reader.len(), 2, "the torn record is skipped");
    assert!(reader.stats().recovered_bytes > 0);
    assert_eq!(file_len(&path), full_len - 5, "the file is left exactly as found");
    // A missing journal opens empty.
    let empty = Journal::<C>::open_read_only(temp_dir("read-only-missing")).unwrap();
    assert!(empty.is_empty());
    assert_eq!((empty.stats().file_bytes, empty.stats().live_bytes), (0, 0));
    remove(&[&dir]);
}

fn compact_reclaims_forgotten_and_superseded_records<C: Sample>() {
    let dir = filled::<C>("compact", 0..6);
    let conflicting = temp_dir("compact-conflict");
    Journal::<C>::open(&conflicting).unwrap().put(&key(1), &C::sample(41)).unwrap();
    let journal = Journal::<C>::open(&dir).unwrap();
    // Supersede one entry (a last-write-wins merge) and forget another.
    assert_eq!(merge_into(&journal, &[&conflicting]).unwrap().records_superseded, 1);
    assert!(journal.forget(&key(4)));
    let stats = journal.stats();
    assert_eq!(stats.entries, 5);
    assert!(stats.reclaimable_bytes() > 0, "dead bytes accumulated");

    assert_eq!(journal.compact().unwrap(), stats.reclaimable_bytes());
    let after = journal.stats();
    assert_eq!((after.entries, after.file_bytes), (5, stats.live_bytes));
    assert_eq!(after.reclaimable_bytes(), 0);
    assert_eq!(file_len(&dir.join(C::FILE)), after.file_bytes);
    // The handle keeps working after the swap...
    journal.put(&key(7), &C::sample(7)).unwrap();
    assert_eq!(journal.get(&key(1)), Some(C::sample(41)), "the superseding value survives");
    drop(journal);
    // ...and a fresh open sees the compacted set: the forgotten key is
    // gone for good, the superseded one holds its last value.
    let reopened = Journal::<C>::open(&dir).unwrap();
    assert_eq!(reopened.len(), 6);
    assert!(reopened.get(&key(4)).is_none(), "forget became durable");
    assert_eq!(reopened.get(&key(1)), Some(C::sample(41)));
    assert_eq!(reopened.get(&key(7)), Some(C::sample(7)));
    assert_eq!(reopened.stats().recovered_bytes, 0);
    remove(&[&dir, &conflicting]);
}

fn merges_union_dedupe_and_resolve_conflicts_last_write_wins<C: Sample>() {
    let a = filled::<C>("merge-a", 0..4);
    let b = filled::<C>("merge-b", 2..6);
    let conflicting = temp_dir("merge-conflict");
    Journal::<C>::open(&conflicting).unwrap().put(&key(0), &C::sample(100)).unwrap();
    let dest_dir = temp_dir("merge-dest");
    let dest = Journal::<C>::open(&dest_dir).unwrap();

    let first = merge_into(&dest, &[&a, &b]).unwrap();
    assert_eq!(first.sources, 2);
    assert_eq!(first.records_ingested, 6);
    assert_eq!(first.records_duplicate, 2, "the overlap is skipped, not re-written");
    assert_eq!((first.records_superseded, first.torn_bytes_dropped), (0, 0));
    // Merging the same shards again writes nothing at all.
    let bytes = dest.stats().file_bytes;
    let again = merge_into(&dest, &[&a, &b]).unwrap();
    assert_eq!((again.records_written(), again.records_duplicate), (0, 8));
    assert_eq!(dest.stats().file_bytes, bytes);
    // A differing value under a held key supersedes it: the later source wins.
    let conflict = merge_into(&dest, &[&conflicting]).unwrap();
    assert_eq!((conflict.records_superseded, conflict.records_written()), (1, 1));
    assert_eq!(dest.get(&key(0)), Some(C::sample(100)));
    assert!(dest.stats().reclaimable_bytes() > 0, "the superseded record is dead bytes");
    drop(dest);
    // The union is durable.
    let reopened = Journal::<C>::open(&dest_dir).unwrap();
    assert_eq!(reopened.len(), 6);
    assert_eq!(reopened.get(&key(0)), Some(C::sample(100)));
    assert_eq!(reopened.get(&key(5)), Some(C::sample(5)));
    remove(&[&a, &b, &conflicting, &dest_dir]);
}

fn torn_shard_journals_contribute_their_clean_prefix<C: Sample>() {
    let a = filled::<C>("merge-torn", 0..4);
    let journal = a.join(C::FILE);
    let len = file_len(&journal);
    tear(&journal, len - 6);

    let dest_dir = temp_dir("merge-torn-dest");
    let dest = Journal::<C>::open(&dest_dir).unwrap();
    let merged = merge_into(&dest, &[&a]).unwrap();
    assert_eq!(merged.records_ingested, 3, "the clean prefix is ingested");
    assert!(merged.torn_bytes_dropped > 0);
    assert_eq!(dest.get(&key(2)), Some(C::sample(2)));
    assert!(dest.get(&key(3)).is_none(), "the torn record is dropped");
    assert_eq!(file_len(&journal), len - 6, "the source was read, not repaired");
    remove(&[&a, &dest_dir]);
}

fn merge_refuses_missing_foreign_and_self_sources<C: Sample>() {
    let dest_dir = filled::<C>("refuse-dest", 0..1);
    let dest = Journal::<C>::open(&dest_dir).unwrap();
    let missing = temp_dir("refuse-missing").join("nope.journal");
    let err = merge_into(&dest, &[&missing]).unwrap_err();
    assert!(err.to_string().contains("read the shard journal"), "{err}");
    let err = merge_into(&dest, &[&dest_dir]).unwrap_err();
    assert!(err.to_string().contains("into itself"), "{err}");
    // A bare-header (record-free) journal is fine — zero records.
    let empty = filled::<C>("refuse-empty", 0..0);
    let merged = merge_into(&dest, &[&empty]).unwrap();
    assert_eq!((merged.sources, merged.records_written()), (1, 0));
    remove(&[&dest_dir, &empty]);
}

/// Kill the writer at *every* byte offset (simulated by truncating the
/// journal there): the next open keeps exactly the records whose bytes are
/// all on disk, reports the rest as recovered, truncates it, and leaves the
/// journal appendable. Offsets inside the magic are torn header writes.
fn kill_at_every_byte_offset_keeps_exactly_the_whole_records<C: Sample>() {
    let dir = temp_dir("kill-offset");
    let path = dir.join(C::FILE);
    // The journal length after the header and after every put: each is a
    // record boundary a crash could land on.
    let journal = Journal::<C>::open(&dir).unwrap();
    let mut boundaries = vec![file_len(&path)];
    for i in 0..4 {
        journal.put(&key(i), &C::sample(i)).unwrap();
        boundaries.push(file_len(&path));
    }
    drop(journal);
    let pristine = std::fs::read(&path).unwrap();
    let header_len = boundaries[0];
    assert_eq!(header_len, C::MAGIC.len() as u64);

    for offset in 0..=pristine.len() as u64 {
        // A fresh file each time: rewriting one in place makes some file
        // systems flush it on close, which dominates the test's run time.
        std::fs::remove_file(&path).unwrap();
        std::fs::write(&path, &pristine[..offset as usize]).unwrap();
        let survivors = boundaries.iter().filter(|&&b| b <= offset).count().saturating_sub(1);
        let kept = if offset < header_len { 0 } else { boundaries[survivors] };
        let journal = Journal::<C>::open(&dir)
            .unwrap_or_else(|e| panic!("offset {offset}: open failed: {e}"));
        assert_eq!(journal.len(), survivors, "offset {offset}");
        assert_eq!(journal.stats().recovered_bytes, offset - kept, "offset {offset}");
        for i in 0..survivors as u32 {
            assert_eq!(journal.get(&key(i)), Some(C::sample(i)), "offset {offset}");
        }
        // The tail was really truncated and the journal is writable.
        assert_eq!(file_len(&path), boundaries[survivors], "offset {offset}");
        assert!(journal.put(&key(99), &C::sample(99)).unwrap());
        drop(journal);
        let reopened = Journal::<C>::open(&dir).unwrap();
        assert_eq!(reopened.len(), survivors + 1, "offset {offset}");
        assert_eq!(reopened.stats().recovered_bytes, 0, "offset {offset}");
    }
    remove(&[&dir]);
}

macro_rules! for_both_codecs {
    ($($test:ident),* $(,)?) => {
        mod round_cache {
            $(#[test] fn $test() { super::$test::<super::RoundCodec>() })*
        }
        mod digest_store {
            $(#[test] fn $test() { super::$test::<super::DigestCodec>() })*
        }
    };
}

for_both_codecs!(
    put_get_and_reopen,
    torn_tail_is_dropped_and_truncated,
    bit_rot_cuts_the_journal_there,
    foreign_files_are_refused,
    torn_header_opens_empty,
    second_writer_fails_fast_until_the_first_drops,
    read_only_opens_are_lock_free_and_never_write,
    compact_reclaims_forgotten_and_superseded_records,
    merges_union_dedupe_and_resolve_conflicts_last_write_wins,
    torn_shard_journals_contribute_their_clean_prefix,
    merge_refuses_missing_foreign_and_self_sources,
    kill_at_every_byte_offset_keeps_exactly_the_whole_records,
);

/// The FNV-1a hash and length of a journal holding samples 0 and 1.
fn two_record_journal<C: Sample>() -> (u64, usize) {
    let dir = filled::<C>("format-pin", 0..2);
    let bytes = std::fs::read(dir.join(C::FILE)).unwrap();
    remove(&[&dir]);
    (fnv1a64(&bytes), bytes.len())
}

/// Both on-disk formats are frozen: journals written by earlier releases
/// must open as they are. These constants were recorded from journals the
/// pre-`Journal<C>` implementations wrote.
#[test]
fn both_journal_formats_are_pinned() {
    assert_eq!(two_record_journal::<RoundCodec>(), (0xf720_3327_84c6_70b4, 254));
    assert_eq!(two_record_journal::<DigestCodec>(), (0xbefe_90db_5cf9_c945, 386));
}

/// The two journals of one directory have their own lockfiles: one process
/// may hold the round cache and the digest store at once (a fleet merge
/// does), while a second writer on either still fails fast.
#[test]
fn a_round_cache_and_a_digest_store_share_a_directory() {
    let dir = temp_dir("shared-dir");
    let cache = SweepCache::open(&dir).unwrap();
    let store = AnalysisStore::open(&dir).unwrap();
    cache.put(&key(0), &RoundCodec::sample(0)).unwrap();
    store.put(&key(0), &DigestCodec::sample(0)).unwrap();
    assert!(AnalysisStore::open(&dir).unwrap_err().to_string().contains("another writer"));
    assert!(SweepCache::open(&dir).unwrap_err().to_string().contains("another writer"));
    drop((cache, store));
    assert_eq!(SweepCache::open(&dir).unwrap().get(&key(0)), Some(RoundCodec::sample(0)));
    assert_eq!(AnalysisStore::open(&dir).unwrap().get(&key(0)), Some(DigestCodec::sample(0)));
    remove(&[&dir]);
}
