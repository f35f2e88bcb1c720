//! # vanet-stats — metrics and result aggregation for the C-ARQ experiments
//!
//! The paper's authors captured all received traffic on each laptop and
//! post-processed the captures into Table 1 (per-car loss before / after
//! cooperation) and Figures 3–8 (per-packet reception probabilities). This
//! crate plays the same role for the simulator:
//!
//! * [`observation`] — the raw per-round record: for every flow (car), which
//!   packets the AP sent, which every observer physically received and what
//!   the destination ended up with after cooperation.
//! * [`report`] — the carriers every scenario shares: the per-round
//!   [`RoundReport`] and the per-point aggregated [`PointSummary`].
//! * [`summary`] — mean / standard deviation helpers.
//! * [`distribution`] — a sorted-sample carrier with percentile views,
//!   the shape the trace-driven recovery-latency analysis reports.
//! * [`table`] — the Table-1 generator (per-car packets transmitted, lost
//!   before cooperation, lost after cooperation, with standard deviations).
//! * [`series`] — per-packet reception-probability series for Figures 3–5
//!   (promiscuous reception at each car) and Figures 6–8 (after-cooperation
//!   vs joint reception).
//! * [`export`] — CSV and fixed-width text rendering used by `carq-cli
//!   table1` and `carq-cli fig` to print paper-style tables and figure data.
//! * [`codec`] — a stable binary encoding of [`RoundReport`]s, the wire
//!   format the `vanet-cache` round cache persists.
//!
//! ## Example
//!
//! ```rust
//! use vanet_stats::{counter_total, CellValue, RecordTable, RoundReport, RoundResult};
//!
//! // Scenario rounds report named counters...
//! let reports: Vec<RoundReport> = (0..3)
//!     .map(|r| {
//!         RoundReport::new(r, u64::from(r) ^ 0xBEEF, RoundResult::default())
//!             .with_counter("requests_sent", f64::from(r))
//!     })
//!     .collect();
//! assert_eq!(counter_total(&reports, "requests_sent"), 3.0);
//!
//! // ...reports round-trip through the cache codec byte for byte...
//! let bytes = reports[1].to_bytes();
//! assert_eq!(RoundReport::from_bytes(&bytes).unwrap(), reports[1]);
//!
//! // ...and aggregated metrics export through RecordTable.
//! let mut table = RecordTable::new(vec!["round", "requests"]);
//! for report in &reports {
//!     table.push_row(vec![
//!         CellValue::from(u64::from(report.round)),
//!         CellValue::Float(report.counter("requests_sent").unwrap()),
//!     ]);
//! }
//! assert!(table.to_csv().starts_with("round,requests\n0,0.000000\n"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod distribution;
pub mod export;
pub mod observation;
pub mod report;
pub mod series;
pub mod summary;
pub mod table;

pub use codec::CodecError;
pub use distribution::Distribution;
pub use export::{render_series_csv, render_table1, CellValue, RecordTable};
pub use observation::{FlowCounts, FlowObservation, RoundResult};
pub use report::{counter_total, into_round_results, PointSummary, RoundReport};
pub use series::{joint_series, reception_series, recovery_series, SeriesPoint};
pub use summary::{mean, percentile, std_dev, Percentiles, Summary};
pub use table::{table1, Table1Row};
