//! The on-disk store: an append-only journal plus an in-memory index,
//! generic over the codec of its records.
//!
//! A [`Journal`] does not know what it stores: a [`RecordCodec`] names the
//! format magic, the journal and lockfile names, and encodes and decodes
//! the payloads. Framing, checksums, replay, crash repair, writer
//! exclusion, compaction, stats and merging ([`crate::merge_into`]) exist
//! once, for every codec. [`RoundCodec`] makes the round cache
//! ([`SweepCache`]); `vanet-analysis` adds the digest codec of its
//! `AnalysisStore`.
//!
//! ## Journal format
//!
//! ```text
//! magic   : RecordCodec::MAGIC                       (format version)
//! record  : u32 key_len | u32 payload_len | u64 checksum | key | payload
//! ```
//!
//! All integers are little-endian; `checksum` is FNV-1a over `key` then
//! `payload`; `key` is a [`CacheKey`] canonical line and `payload` one
//! value in the codec's encoding.
//!
//! ## Crash tolerance
//!
//! Appends are single `write_all` calls, so a kill mid-write can only tear
//! the **tail** of the file. [`Journal::open`] replays the journal from the
//! start and stops at the first record that is incomplete, fails its
//! checksum, or does not decode; the file is truncated back to the last
//! good record, the loss is reported via [`CacheStats::recovered_bytes`],
//! and the next append continues from there. A file holding only part of
//! the magic (a kill during the header write) opens empty. Every record
//! before the tear survives — an interrupted run resumes instead of
//! restarting.
//!
//! ## Writer exclusion
//!
//! Appends from two *handles* on one journal are not torn-safe, so a
//! writable open takes an advisory lockfile ([`RecordCodec::LOCK_FILE`],
//! holding the writer's pid). A second writer on the same journal fails
//! fast with a clear [`CacheError`] instead of interleaving appends; a
//! lockfile left behind by a crashed writer is detected (the pid is gone)
//! and reclaimed. Each codec has its own lockfile, so one process may hold
//! the round cache and the digest journal of one directory at once.
//! [`Journal::open_read_only`] stays lock-free: it never writes, never
//! truncates a torn tail, and coexists with a live writer.
//!
//! ## Compaction
//!
//! The journal is append-only, so superseded records (last-write-wins
//! merges, entries dropped with [`forget`]) accumulate as dead bytes.
//! [`Journal::compact`] rewrites the journal from the live index — written
//! to a temporary file and atomically renamed into place — and returns the
//! bytes reclaimed; [`CacheStats::live_bytes`] reports ahead of time how
//! small a compaction would make the file.
//!
//! [`forget`]: Journal::forget

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use vanet_stats::RoundReport;

use crate::key::{fnv1a64, fnv1a64_chain4, CacheKey};

/// One journal format: what a [`Journal`] needs to know about the values
/// it stores. Implementors are marker types such as [`RoundCodec`].
pub trait RecordCodec {
    /// The value one record holds.
    type Value: Clone + PartialEq;
    /// Format magic at the head of the file; a new encoding needs a new one.
    const MAGIC: &'static [u8];
    /// The journal's file name inside its directory.
    const FILE: &'static str;
    /// The advisory writer lockfile's name, next to the journal.
    const LOCK_FILE: &'static str;
    /// Encodes one value as a record payload.
    fn encode(value: &Self::Value) -> Vec<u8>;
    /// Decodes a record payload; `None` ends a replay there, as a torn
    /// record would.
    fn decode(payload: &[u8]) -> Option<Self::Value>;
}

/// The round-report codec: `VANETCACHE1` records of [`RoundReport`]s in
/// `rounds.journal`, guarded by `cache.lock`.
#[derive(Debug)]
pub struct RoundCodec;

impl RecordCodec for RoundCodec {
    type Value = RoundReport;
    const MAGIC: &'static [u8] = b"VANETCACHE1\n";
    const FILE: &'static str = "rounds.journal";
    const LOCK_FILE: &'static str = "cache.lock";

    fn encode(report: &RoundReport) -> Vec<u8> {
        report.to_bytes()
    }

    fn decode(payload: &[u8]) -> Option<RoundReport> {
        RoundReport::from_bytes(payload).ok()
    }
}

/// The round cache behind resumable sweeps: a [`Journal`] of
/// [`RoundReport`]s.
pub type SweepCache = Journal<RoundCodec>;

/// `key_len | payload_len | checksum`.
const RECORD_HEADER_LEN: usize = 4 + 4 + 8;

/// Why a journal operation failed. Carries the journal path so that errors
/// surfacing through a sweep, an analysis or the CLI are actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheError {
    path: PathBuf,
    message: String,
}

impl CacheError {
    pub(crate) fn new(path: &Path, message: impl Into<String>) -> Self {
        CacheError { path: path.to_path_buf(), message: message.into() }
    }

    pub(crate) fn io(path: &Path, action: &str, err: &std::io::Error) -> Self {
        CacheError::new(path, format!("cannot {action}: {err}"))
    }

    /// The journal (or directory) the failure concerns.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal `{}`: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for CacheError {}

/// A point-in-time summary of a journal, as shown by `carq-cli cache stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distinct keys in the index.
    pub entries: usize,
    /// Journal size on disk, in bytes.
    pub file_bytes: u64,
    /// Bytes of torn tail dropped when the journal was opened (0 after a
    /// clean shutdown). A read-only open reports the torn bytes it skipped
    /// without truncating them away.
    pub recovered_bytes: u64,
    /// Bytes the journal would occupy after [`Journal::compact`]: the
    /// header plus one record per live index entry. The difference
    /// `file_bytes - live_bytes` is what a compaction reclaims.
    pub live_bytes: u64,
    /// Entries per scenario name, sorted by name. Generated scenarios
    /// (`gen/<generator>/<id16>`) roll up under their generator
    /// (`gen/<generator>`): a campaign populates thousands of one-off
    /// scenario names, and per-name rows would drown the breakdown.
    pub scenarios: Vec<(String, usize)>,
}

impl CacheStats {
    /// Bytes a [`Journal::compact`] would reclaim: dead superseded or
    /// forgotten records beyond the live set.
    pub fn reclaimable_bytes(&self) -> u64 {
        self.file_bytes.saturating_sub(self.live_bytes)
    }
}

/// One live index entry: the decoded value plus the size of its journal
/// record (for live-byte accounting and compaction estimates).
struct IndexEntry<V> {
    value: V,
    record_len: u64,
}

type Index<V> = BTreeMap<String, IndexEntry<V>>;

/// Removes the advisory lockfile when the owning writer handle drops.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether `pid` names a live process. Advisory only: on platforms without
/// a `/proc` to consult the answer is a conservative "yes".
fn process_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Whether two paths name the same inode (the post-claim ownership check).
/// On platforms without inode identity the answer is a conservative "yes" —
/// the lock is advisory there anyway, like [`process_alive`].
fn same_file(a: &Path, b: &Path) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt as _;
        match (std::fs::metadata(a), std::fs::metadata(b)) {
            (Ok(ma), Ok(mb)) => ma.dev() == mb.dev() && ma.ino() == mb.ino(),
            _ => false,
        }
    }
    #[cfg(not(unix))]
    {
        let _ = (a, b);
        true
    }
}

/// Takes the advisory writer lock `lock_file` in `dir`, reclaiming a
/// lockfile whose recorded pid is no longer alive (a crashed writer).
///
/// Acquisition is atomic. This process's pid is written once to a private
/// claim file, and the lock is taken by `hard_link`ing the claim to the
/// lockfile: the link fails if the path exists, and the lockfile's content
/// is complete the instant the path appears — there is no
/// create-then-write window in which a concurrent opener reads an empty
/// lockfile. A stale lock is stolen by atomically renaming it into a
/// private tomb and then **re-verifying the tomb's content**: exactly one
/// racer wins the rename, and if what it yanked is not the stale pid it
/// observed (a faster reclaimer already stole the stale lock *and*
/// re-locked), the yanked fresh lock is linked back into place and the
/// contention error is returned — two processes reclaiming the same stale
/// pid can no longer both proceed. After a successful link the claim and
/// the lockfile are compared by inode as a final ownership check.
fn acquire_lock(dir: &Path, lock_file: &str, journal: &Path) -> Result<LockGuard, CacheError> {
    let lock_path = dir.join(lock_file);
    let pid = std::process::id();
    let claim_path = dir.join(format!("{lock_file}.claim.{pid}"));
    std::fs::write(&claim_path, format!("{pid}\n"))
        .map_err(|e| CacheError::io(&claim_path, "write the lock claim file", &e))?;
    // Dropping this on every exit path removes the claim; on success the
    // lockfile is a second link to the same inode and survives it.
    let claim_guard = LockGuard { path: claim_path.clone() };
    let contention = |holder: Option<u32>| -> CacheError {
        let who = holder.map(|p| format!(" (pid {p})")).unwrap_or_default();
        CacheError::new(
            journal,
            format!(
                "another writer{who} holds this journal (lockfile `{}`); run one writer per \
                 journal at a time, or delete the lockfile if that process is gone",
                lock_path.display()
            ),
        )
    };
    // Two reclaim rounds cover every benign interleaving; a loop that is
    // still losing races after that reports contention instead of spinning.
    for _attempt in 0..3 {
        match std::fs::hard_link(&claim_path, &lock_path) {
            Ok(()) => {
                if !same_file(&claim_path, &lock_path) {
                    // The claim linked but the path is someone else's inode:
                    // only possible if an outside agent swapped the lockfile
                    // under us. Do not touch it; report contention.
                    return Err(contention(None));
                }
                drop(claim_guard);
                return Ok(LockGuard { path: lock_path });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let stale = holder.is_some_and(|p| p != pid && !process_alive(p));
                if !stale {
                    return Err(contention(holder));
                }
                let tomb = dir.join(format!("{lock_file}.stale.{pid}"));
                if std::fs::rename(&lock_path, &tomb).is_ok() {
                    let yanked = std::fs::read_to_string(&tomb)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    if yanked != holder {
                        // We yanked a *fresh* lock a faster reclaimer just
                        // created. Restore it and concede.
                        let _ = std::fs::hard_link(&tomb, &lock_path);
                        let _ = std::fs::remove_file(&tomb);
                        return Err(contention(yanked));
                    }
                    let _ = std::fs::remove_file(&tomb);
                }
                // Retry the link; whoever claims first wins.
            }
            Err(e) => return Err(CacheError::io(&lock_path, "create the writer lockfile", &e)),
        }
    }
    Err(contention(None))
}

struct Inner<V> {
    /// `None` for a read-only handle — lookups only, no appends.
    file: Option<File>,
    index: Index<V>,
    file_bytes: u64,
    recovered_bytes: u64,
}

/// What [`Journal::ingest`] did with a merged record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IngestOutcome {
    /// The key was new: one record appended.
    Inserted,
    /// The key was already present with an identical value: nothing written.
    Duplicate,
    /// The key was present with a *different* value: last-write-wins, the
    /// new record appended and the index entry replaced.
    Superseded,
}

/// A shared, thread-safe handle on one journal, keyed by [`CacheKey`].
///
/// Lookups are served from an in-memory index loaded at open; [`put`]
/// appends to the journal and updates the index. A `&Journal` can be used
/// from any number of threads (the sweep engine's workers share one).
///
/// Across *processes*, a writable [`open`] takes an advisory lockfile so a
/// second concurrent writer on the same journal fails fast instead of
/// interleaving appends; shard the work across separate directories (see
/// `vanet-fleet`) and merge the journals instead. [`open_read_only`] stays
/// lock-free.
///
/// [`put`]: Journal::put
/// [`open`]: Journal::open
/// [`open_read_only`]: Journal::open_read_only
pub struct Journal<C: RecordCodec> {
    path: PathBuf,
    /// Held for the handle's lifetime by a writable open; dropping the
    /// handle releases the lockfile. Never read — it exists for its `Drop`.
    _lock: Option<LockGuard>,
    inner: Mutex<Inner<C::Value>>,
}

impl<C: RecordCodec> fmt::Debug for Journal<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner();
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("read_only", &inner.file.is_none())
            .field("entries", &inner.index.len())
            .field("file_bytes", &inner.file_bytes)
            .finish()
    }
}

/// Records framed ahead and checksummed together by one
/// [`fnv1a64_chain4`] call: a replay's and a compaction's batch.
const LANES: usize = 4;

/// Where a record's parts lie in a journal image, and the checksum its
/// header holds.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    start: usize,
    key_end: usize,
    end: usize,
    checksum: u64,
}

/// Frames the record starting at `pos` from its header's lengths alone;
/// `None` if the header or the bytes it promises run past the end of
/// `buf` (the journal is torn at `pos`). The checksum is not verified.
fn frame(buf: &[u8], pos: usize) -> Option<Frame> {
    let header = buf.get(pos..pos.checked_add(RECORD_HEADER_LEN)?)?;
    let key_len = u32::from_le_bytes(header[0..4].try_into().ok()?) as usize;
    let payload_len = u32::from_le_bytes(header[4..8].try_into().ok()?) as usize;
    let checksum = u64::from_le_bytes(header[8..16].try_into().ok()?);
    let key_end = (pos + RECORD_HEADER_LEN).checked_add(key_len)?;
    let end = key_end.checked_add(payload_len)?;
    (end <= buf.len()).then_some(Frame { start: pos, key_end, end, checksum })
}

/// The checksums of up to [`LANES`] framed records of `buf`, computed in
/// one [`fnv1a64_chain4`] call: FNV-1a over each record's key, then its
/// payload (the bytes after its header).
fn checksums(buf: &[u8], frames: &[Frame]) -> [u64; LANES] {
    let bodies = std::array::from_fn(|lane| {
        frames.get(lane).map_or(&[][..], |f| &buf[f.start + RECORD_HEADER_LEN..f.end])
    });
    fnv1a64_chain4([fnv1a64(&[]); LANES], bodies)
}

/// Appends one record for `key` and the encoded `payload` to `out`, with
/// its checksum field left zero for [`seal`]. Returns its frame.
fn push_record(out: &mut Vec<u8>, key: &str, payload: &[u8]) -> Frame {
    let start = out.len();
    out.reserve(RECORD_HEADER_LEN + key.len() + payload.len());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(payload);
    Frame { start, key_end: start + RECORD_HEADER_LEN + key.len(), end: out.len(), checksum: 0 }
}

/// Writes the checksums of up to [`LANES`] pushed records into their
/// headers.
fn seal(buf: &mut [u8], frames: &[Frame]) {
    for (frame, checksum) in frames.iter().zip(checksums(buf, frames)) {
        buf[frame.start + 8..frame.start + RECORD_HEADER_LEN]
            .copy_from_slice(&checksum.to_le_bytes());
    }
}

/// Encodes one journal record: header, checksum, key, payload. Alone in
/// its batch, the record is hashed serially.
fn encode_record<C: RecordCodec>(key: &str, value: &C::Value) -> Vec<u8> {
    let mut record = Vec::new();
    let frame = push_record(&mut record, key, &C::encode(value));
    seal(&mut record, &[frame]);
    record
}

/// Refuses a journal image whose head is neither the codec's magic nor a
/// prefix of it (a kill during the header write).
pub(crate) fn check_header<C: RecordCodec>(path: &Path, buf: &[u8]) -> Result<(), CacheError> {
    if C::MAGIC.starts_with(&buf[..buf.len().min(C::MAGIC.len())]) {
        return Ok(());
    }
    let magic = String::from_utf8_lossy(C::MAGIC);
    Err(CacheError::new(
        path,
        format!("not a {} journal (unrecognised header); refusing to touch it", magic.trim_end()),
    ))
}

/// Replays the records of a journal image whose header [`check_header`]
/// accepted, handing each verified record's key, decoded value and bytes
/// (header included, exactly as read) to `record`, in journal order.
/// Returns the length of the prefix that replayed cleanly: it ends at the
/// first record that is incomplete, fails its checksum, has a non-UTF-8
/// key or does not decode, and nothing from that record on is delivered.
/// An image shorter than the magic has no clean prefix at all.
///
/// Records are framed [`LANES`] ahead from their headers and their
/// checksums verified in one [`fnv1a64_chain4`] call, so every byte is
/// hashed once, four records at a time.
pub(crate) fn replay<C: RecordCodec>(
    buf: &[u8],
    mut record: impl FnMut(&str, C::Value, &[u8]),
) -> usize {
    if buf.len() < C::MAGIC.len() {
        return 0;
    }
    let mut pos = C::MAGIC.len();
    loop {
        let mut frames = [Frame::default(); LANES];
        let mut framed = 0;
        let mut next = pos;
        while framed < LANES {
            let Some(frame) = frame(buf, next) else { break };
            next = frame.end;
            frames[framed] = frame;
            framed += 1;
        }
        let frames = &frames[..framed];
        for (frame, checksum) in frames.iter().zip(checksums(buf, frames)) {
            if checksum != frame.checksum {
                return frame.start;
            }
            let key = std::str::from_utf8(&buf[frame.start + RECORD_HEADER_LEN..frame.key_end]);
            let (Ok(key), Some(value)) = (key, C::decode(&buf[frame.key_end..frame.end])) else {
                return frame.start;
            };
            record(key, value, &buf[frame.start..frame.end]);
        }
        if framed < LANES {
            return next;
        }
        pos = next;
    }
}

/// Checks a journal image's header and replays it into an index. Returns
/// the index and the length of the clean prefix. Duplicate keys
/// (last-write-wins merges) are benign: the last record wins, as it was
/// the last written.
fn load<C: RecordCodec>(path: &Path, buf: &[u8]) -> Result<(Index<C::Value>, usize), CacheError> {
    check_header::<C>(path, buf)?;
    let mut index = BTreeMap::new();
    let valid_len = replay::<C>(buf, |key, value, record| {
        index.insert(key.to_string(), IndexEntry { value, record_len: record.len() as u64 });
    });
    Ok((index, valid_len))
}

/// Cuts `file` back to `len` bytes and positions the next write there.
fn truncate_to(file: &mut File, len: u64) -> std::io::Result<()> {
    file.set_len(len)?;
    file.seek(SeekFrom::Start(len)).map(drop)
}

impl<C: RecordCodec> Journal<C> {
    /// Opens (creating if necessary) the journal in directory `dir` for
    /// reading *and writing*: takes the journal's advisory writer lock,
    /// replays the journal into memory, and truncates away a torn tail if
    /// the previous writer was killed mid-append.
    ///
    /// # Errors
    ///
    /// I/O failures; a journal whose header is not the codec's magic (the
    /// open refuses to clobber a file it does not recognise); and a live
    /// concurrent writer on the same journal — interleaved appends from
    /// two processes are not torn-safe, so the second writer fails fast.
    /// Use [`Journal::open_read_only`] for lock-free inspection.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CacheError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| CacheError::io(dir, "create the journal directory", &e))?;
        let path = dir.join(C::FILE);
        let lock = acquire_lock(dir, C::LOCK_FILE, &path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| CacheError::io(&path, "open the journal", &e))?;

        let mut buf = Vec::new();
        file.read_to_end(&mut buf).map_err(|e| CacheError::io(&path, "read the journal", &e))?;
        let (index, valid_len) = load::<C>(&path, &buf)?;
        if valid_len < buf.len() {
            truncate_to(&mut file, valid_len as u64)
                .map_err(|e| CacheError::io(&path, "truncate the torn tail", &e))?;
        }
        if valid_len == 0 {
            // Fresh file, or a kill tore the header write itself: (re)write it.
            file.write_all(C::MAGIC).map_err(|e| CacheError::io(&path, "write the header", &e))?;
        }

        Ok(Journal {
            path,
            _lock: Some(lock),
            inner: Mutex::new(Inner {
                file: Some(file),
                index,
                file_bytes: valid_len.max(C::MAGIC.len()) as u64,
                recovered_bytes: (buf.len() - valid_len) as u64,
            }),
        })
    }

    /// Opens the journal in `dir` **read-only and lock-free**: no lockfile
    /// is taken (a live writer is left undisturbed), nothing is created,
    /// and a torn tail is skipped in memory without truncating the file. A
    /// missing journal opens empty. Writing through this handle ([`put`],
    /// [`compact`]) is an error.
    ///
    /// # Errors
    ///
    /// I/O failures other than the journal not existing, and an
    /// unrecognised journal header.
    ///
    /// [`put`]: Journal::put
    /// [`compact`]: Journal::compact
    pub fn open_read_only(dir: impl AsRef<Path>) -> Result<Self, CacheError> {
        let path = dir.as_ref().join(C::FILE);
        let buf = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(CacheError::io(&path, "read the journal", &e)),
            Ok(bytes) => bytes,
        };
        let (index, valid_len) = load::<C>(&path, &buf)?;
        Ok(Journal {
            path,
            _lock: None,
            inner: Mutex::new(Inner {
                file: None,
                index,
                file_bytes: buf.len() as u64,
                recovered_bytes: (buf.len() - valid_len) as u64,
            }),
        })
    }

    fn inner(&self) -> MutexGuard<'_, Inner<C::Value>> {
        self.inner.lock().expect("journal lock poisoned")
    }

    /// Whether this handle was opened with [`Journal::open_read_only`].
    pub fn is_read_only(&self) -> bool {
        self.inner().file.is_none()
    }

    /// Whether `key` is stored, without cloning the value — the cheap
    /// membership probe coverage checks (e.g. fleet warm-run
    /// pre-filtering) use.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.inner().index.contains_key(key.as_str())
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &CacheKey) -> Option<C::Value> {
        self.inner().index.get(key.as_str()).map(|entry| entry.value.clone())
    }

    /// Appends `value` under `key`. Returns `false` (writing nothing) if
    /// the key is already stored — by the purity contract an existing
    /// entry is identical, so the journal stays free of redundant records.
    ///
    /// # Errors
    ///
    /// A read-only handle, and I/O failures while appending. The record is
    /// written with a single `write_all`, so a kill mid-append leaves at
    /// worst a torn tail for the next open to drop; a write *error* (e.g. a
    /// full disk) rolls the file back to the last good record before
    /// returning, so later puts cannot strand valid records behind a
    /// mid-file tear.
    pub fn put(&self, key: &CacheKey, value: &C::Value) -> Result<bool, CacheError> {
        let mut inner = self.inner();
        if inner.index.contains_key(key.as_str()) {
            return Ok(false);
        }
        let record = encode_record::<C>(key.as_str(), value);
        self.append_record(&mut inner, key.as_str(), value.clone(), record)?;
        Ok(true)
    }

    /// Appends a record another journal of this codec holds under the raw
    /// canonical `key` with **last-write-wins** semantics — the merge
    /// layer's ingest path. `value` is the record's decoded value and
    /// `record` its verified bytes, which are appended as read. An
    /// identical existing value writes nothing; a *differing* one is
    /// superseded (the record appended, the index entry replaced; the old
    /// record becomes dead bytes a [`compact`] reclaims).
    ///
    /// [`compact`]: Journal::compact
    pub(crate) fn ingest(
        &self,
        key: &str,
        value: C::Value,
        record: &[u8],
    ) -> Result<IngestOutcome, CacheError> {
        let mut inner = self.inner();
        let outcome = match inner.index.get(key) {
            Some(existing) if existing.value == value => return Ok(IngestOutcome::Duplicate),
            Some(_) => IngestOutcome::Superseded,
            None => IngestOutcome::Inserted,
        };
        self.append_record(&mut inner, key, value, record.to_vec())?;
        Ok(outcome)
    }

    /// The shared append path of [`put`] and [`ingest`]: writes `record`
    /// (the journal record of `key` and `value`) in one `write_all`,
    /// rolling back to the last good record on error, and updates the
    /// index.
    ///
    /// [`put`]: Journal::put
    /// [`ingest`]: Journal::ingest
    fn append_record(
        &self,
        inner: &mut Inner<C::Value>,
        key: &str,
        value: C::Value,
        mut record: Vec<u8>,
    ) -> Result<(), CacheError> {
        let good = inner.file_bytes;
        let Some(file) = inner.file.as_mut() else {
            return Err(CacheError::new(&self.path, "opened read-only; cannot append"));
        };
        // The injectable write seam: an armed chaos schedule may corrupt
        // the record, delay it, fail it, or demand a torn write-then-die
        // here. Disarmed (every production run) this is one atomic load.
        match vanet_faults::before_append(&mut record) {
            Ok(vanet_faults::AppendAction::Write) => {}
            Ok(vanet_faults::AppendAction::TornWriteThenDie { keep }) => {
                let _ = file.write_all(&record[..keep]);
                let _ = file.sync_all();
                eprintln!("fault: torn append — exiting mid-record");
                std::process::exit(vanet_faults::CHAOS_EXIT);
            }
            Err(e) => return Err(CacheError::io(&self.path, "append a record", &e)),
        }
        if let Err(e) = file.write_all(&record) {
            // A partial append would become a *mid-file* tear if later puts
            // landed after it — and everything after a tear is dropped on
            // the next open. Roll back to the last good record so the
            // journal stays a valid prefix whatever happens next.
            let _ = truncate_to(file, good);
            return Err(CacheError::io(&self.path, "append a record", &e));
        }
        inner.file_bytes += record.len() as u64;
        inner.index.insert(key.to_string(), IndexEntry { value, record_len: record.len() as u64 });
        Ok(())
    }

    /// Rewrites the journal from the live index, dropping superseded
    /// records and entries removed with [`forget`] — the append-only file's
    /// garbage collection. The replacement is written to a temporary file
    /// and atomically renamed over the journal, so a kill mid-compaction
    /// leaves either the old journal or the new one, never a mix. Returns
    /// the bytes reclaimed.
    ///
    /// # Errors
    ///
    /// A read-only handle, and I/O failures while rewriting.
    ///
    /// [`forget`]: Journal::forget
    pub fn compact(&self) -> Result<u64, CacheError> {
        let mut inner = self.inner();
        if inner.file.is_none() {
            return Err(CacheError::new(&self.path, "opened read-only; cannot compact"));
        }
        let mut bytes = Vec::with_capacity(
            C::MAGIC.len() + inner.index.values().map(|e| e.record_len as usize).sum::<usize>(),
        );
        bytes.extend_from_slice(C::MAGIC);
        let mut entries = inner.index.iter();
        loop {
            let mut frames = [Frame::default(); LANES];
            let mut batched = 0;
            for (frame, (key, entry)) in frames.iter_mut().zip(&mut entries) {
                *frame = push_record(&mut bytes, key, &C::encode(&entry.value));
                batched += 1;
            }
            if batched == 0 {
                break;
            }
            seal(&mut bytes, &frames[..batched]);
        }
        // Write the replacement through a handle we keep: after the atomic
        // rename that same handle *is* the journal (the fd follows the
        // inode), already positioned at the end for the next append. No
        // fallible step remains after the swap, so an error can only leave
        // the old journal fully in place — never a handle on an unlinked
        // file that would silently swallow later puts.
        let tmp = self.path.with_extension("journal.tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| CacheError::io(&tmp, "create the compaction file", &e))?;
        if let Err(e) = file.write_all(&bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(CacheError::io(&tmp, "write the compacted journal", &e));
        }
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(CacheError::io(&self.path, "swap in the compacted journal", &e));
        }
        let reclaimed = inner.file_bytes.saturating_sub(bytes.len() as u64);
        inner.file = Some(file);
        inner.file_bytes = bytes.len() as u64;
        Ok(reclaimed)
    }

    /// Drops `key` from the **in-memory index only** (the journal is
    /// append-only), returning whether it was present. Until this handle
    /// re-`put`s the key, lookups through it miss; a fresh [`open`] sees the
    /// original entry again — unless a [`compact`] rewrote the journal
    /// without it first. This exists for tests and tools that need to
    /// simulate partial caches — it is not an on-disk delete (that is
    /// [`clear`], or a `forget` made durable by `compact`).
    ///
    /// [`open`]: Journal::open
    /// [`compact`]: Journal::compact
    pub fn forget(&self, key: &CacheKey) -> bool {
        self.inner().index.remove(key.as_str()).is_some()
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.inner().index.len()
    }

    /// Whether the journal holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical key lines currently indexed, in sorted order.
    pub fn keys(&self) -> Vec<CacheKey> {
        self.inner().index.keys().map(|k| CacheKey::from_canonical(k.clone())).collect()
    }

    /// A point-in-time summary: entry and byte counts, recovery info, and a
    /// per-scenario breakdown.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner();
        let mut scenarios: BTreeMap<String, usize> = BTreeMap::new();
        for key in inner.index.keys() {
            let scenario = key.split('|').next().unwrap_or("");
            // Roll generated scenarios (`gen/<generator>/<id16>`) up under
            // their generator so campaign-sized caches stay readable.
            let group = match scenario.strip_prefix("gen/").and_then(|rest| rest.split_once('/')) {
                Some((generator, _)) => format!("gen/{generator}"),
                None => scenario.to_string(),
            };
            *scenarios.entry(group).or_insert(0) += 1;
        }
        let live_bytes = if inner.index.is_empty() && inner.file_bytes == 0 {
            0
        } else {
            C::MAGIC.len() as u64 + inner.index.values().map(|e| e.record_len).sum::<u64>()
        };
        CacheStats {
            entries: inner.index.len(),
            file_bytes: inner.file_bytes,
            recovered_bytes: inner.recovered_bytes,
            live_bytes,
            scenarios: scenarios.into_iter().collect(),
        }
    }

    /// The journal file this handle reads and appends.
    pub fn journal_path(&self) -> &Path {
        &self.path
    }
}

/// Removes the round journal in `dir`, returning the bytes freed (0 if
/// there was none). The directory itself — and any writer lockfile in it —
/// is left in place; clearing a directory another process is actively
/// writing is a caller error the advisory lock does not police.
///
/// # Errors
///
/// I/O failures other than the journal not existing.
pub fn clear(dir: impl AsRef<Path>) -> Result<u64, CacheError> {
    let path = dir.as_ref().join(RoundCodec::FILE);
    match std::fs::metadata(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(CacheError::io(&path, "stat the journal", &e)),
        Ok(meta) => {
            std::fs::remove_file(&path)
                .map_err(|e| CacheError::io(&path, "remove the journal", &e))?;
            Ok(meta.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_stats::RoundResult;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-cache-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn key(i: u32) -> CacheKey {
        CacheKey::new("fake", 0xF1, "scenario=fake;x=i1", i, u64::from(i) * 31 + 7)
    }

    fn report(i: u32) -> RoundReport {
        RoundReport::new(i, u64::from(i) * 31 + 7, RoundResult::default())
            .with_counter("value", f64::from(i) + 0.5)
    }

    #[test]
    fn stats_roll_generated_scenarios_up_by_generator() {
        let dir = temp_dir("gen-rollup");
        let cache = SweepCache::open(&dir).unwrap();
        cache.put(&key(0), &report(0)).unwrap();
        // Generated scenario names vary per identity; the stats breakdown
        // groups them by generator so campaign caches stay readable.
        for (i, name) in [
            "gen/grid-city/0011223344556677",
            "gen/grid-city/8899aabbccddeeff",
            "gen/highway-flow/0123456789abcdef",
        ]
        .iter()
        .enumerate()
        {
            let k = CacheKey::new(name, 0xF2, &format!("scenario={name};rounds=i1"), 0, i as u64);
            cache.put(&k, &report(0)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(
            stats.scenarios,
            vec![
                ("fake".to_string(), 1),
                ("gen/grid-city".to_string(), 2),
                ("gen/highway-flow".to_string(), 1),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forget_is_in_memory_only() {
        let dir = temp_dir("forget");
        let cache = SweepCache::open(&dir).unwrap();
        cache.put(&key(0), &report(0)).unwrap();
        assert!(cache.forget(&key(0)));
        assert!(!cache.forget(&key(0)));
        assert!(cache.get(&key(0)).is_none());
        drop(cache);
        // The journal still has it.
        assert_eq!(SweepCache::open(&dir).unwrap().get(&key(0)), Some(report(0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_removes_the_journal() {
        let dir = temp_dir("clear");
        assert_eq!(clear(&dir).unwrap(), 0, "clearing a missing journal is a no-op");
        let cache = SweepCache::open(&dir).unwrap();
        cache.put(&key(0), &report(0)).unwrap();
        drop(cache);
        assert!(clear(&dir).unwrap() > 0);
        assert!(SweepCache::open(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_puts_from_many_threads() {
        let dir = temp_dir("parallel");
        let cache = SweepCache::open(&dir).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..25u32 {
                        let n = t * 25 + i;
                        cache.put(&key(n), &report(n)).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 100);
        drop(cache);
        let reopened = SweepCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 100);
        for n in [0u32, 37, 99] {
            assert_eq!(reopened.get(&key(n)), Some(report(n)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        if !cfg!(target_os = "linux") {
            return; // liveness is only checkable via /proc
        }
        let dir = temp_dir("stale-lock");
        std::fs::create_dir_all(&dir).unwrap();
        // No real process has pid u32::MAX - 1 (far beyond pid_max).
        std::fs::write(dir.join(RoundCodec::LOCK_FILE), format!("{}\n", u32::MAX - 1)).unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        cache.put(&key(0), &report(0)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_distinguishes_insert_duplicate_and_supersede() {
        let dir = temp_dir("ingest");
        let cache = SweepCache::open(&dir).unwrap();
        let ingest = |i: u32| {
            let record = encode_record::<RoundCodec>(key(0).as_str(), &report(i));
            cache.ingest(key(0).as_str(), report(i), &record).unwrap()
        };
        assert_eq!(ingest(0), IngestOutcome::Inserted);
        assert_eq!(ingest(0), IngestOutcome::Duplicate);
        assert_eq!(ingest(9), IngestOutcome::Superseded);
        assert_eq!(cache.get(&key(0)), Some(report(9)), "last write wins");
        assert!(cache.stats().reclaimable_bytes() > 0, "the superseded record is dead bytes");
        drop(cache);
        // Replay preserves last-write-wins: the superseding record is later
        // in the journal.
        assert_eq!(SweepCache::open(&dir).unwrap().get(&key(0)), Some(report(9)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_that_overrun_the_buffer_are_torn() {
        let record = encode_record::<RoundCodec>(key(0).as_str(), &report(0));
        assert_eq!(frame(&record, 0).map(|f| f.end), Some(record.len()));
        for cut in 0..record.len() {
            assert!(frame(&record[..cut], 0).is_none(), "cut at {cut}");
        }
        // Length fields far beyond the buffer read as a tear, not a panic.
        let mut huge = record.clone();
        huge[..8].copy_from_slice(&[0xFF; 8]);
        assert!(frame(&huge, 0).is_none());
    }
}
