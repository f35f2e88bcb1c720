//! # vanet-cache — the persistent round-report store behind resumable sweeps
//!
//! The `Scenario` purity contract (`run_round(round, seed)` is a pure
//! function of the configuration, the round index and the seed) makes every
//! round's [`vanet_stats::RoundReport`] *exactly* cacheable: given the same
//! key, re-simulating is guaranteed to reproduce the stored bytes. This
//! crate is that cache —
//!
//! * [`CacheKey`] — the content address of one round:
//!   `(scenario name, schema fingerprint, canonical configuration, round,
//!   round seed)`. The canonical configuration comes from
//!   `ParamSchema::canonical_config` in `vanet-scenarios`: defaults
//!   resolved, values rendered losslessly, round-neutral parameters (round
//!   budgets, file sizes) excluded — so a widened grid, an extended
//!   `--rounds`, or a reordered spec addresses the same entries.
//! * [`Journal`] — a shared handle over an append-only journal file,
//!   generic over a [`RecordCodec`] that names the format magic, the file
//!   and lockfile names and encodes the payloads. Lookups hit an in-memory
//!   index loaded at open; writes append a checksummed record. Opening a
//!   journal whose tail was torn by a kill mid-write drops (and truncates
//!   away) the torn record and keeps everything before it — an interrupted
//!   run resumes instead of restarting. A writable open takes the codec's
//!   advisory lockfile so a second concurrent writer *process* on the same
//!   journal fails fast instead of interleaving appends;
//!   [`Journal::open_read_only`] stays lock-free. [`Journal::compact`]
//!   rewrites the journal from the live index, reclaiming superseded and
//!   forgotten records.
//! * [`SweepCache`] — the round cache: the [`Journal`] of [`RoundCodec`]
//!   (`VANETCACHE1` round reports). `vanet-analysis` keeps its per-round
//!   digests in a second codec over the same journal.
//! * [`merge_into`] — unions any set of shard journals of one codec
//!   (produced by `vanet-fleet` workers, possibly on other machines) into
//!   one store: records re-validated on ingest and appended as read,
//!   duplicates skipped, conflicts last-write-wins, torn shard tails
//!   dropped — summarised in a [`MergeReport`].
//! * [`clear`] — removes a directory's round journal, reporting the bytes
//!   freed.
//!
//! The point executor in `vanet-sweep` threads a journal through its round
//! walk: it serves the cached rounds, simulates only the delta, and writes
//! the fresh records back wave by wave. Exports are byte-identical whether
//! results came from cache or fresh simulation, at any thread count.
//!
//! ## Example
//!
//! ```rust
//! use vanet_cache::{CacheKey, SweepCache};
//! use vanet_stats::{RoundReport, RoundResult};
//!
//! let dir = std::env::temp_dir().join(format!("vanet-cache-doc-{}", std::process::id()));
//! let cache = SweepCache::open(&dir).unwrap();
//!
//! let key = CacheKey::new("urban", 0xFEED, "scenario=urban;n_cars=i3", 0, 0xBEEF);
//! assert!(cache.get(&key).is_none());
//!
//! let report = RoundReport::new(0, 0xBEEF, RoundResult::default());
//! cache.put(&key, &report).unwrap();
//! assert_eq!(cache.get(&key), Some(report));
//!
//! // Reopening reads the journal back; clearing removes it.
//! drop(cache);
//! assert_eq!(SweepCache::open(&dir).unwrap().len(), 1);
//! vanet_cache::clear(&dir).unwrap();
//! assert!(SweepCache::open(&dir).unwrap().is_empty());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod key;
pub mod merge;
pub mod store;

pub use key::CacheKey;
pub use merge::{merge_into, MergeReport};
pub use store::{clear, CacheError, CacheStats, Journal, RecordCodec, RoundCodec, SweepCache};
