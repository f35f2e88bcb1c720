//! Text rendering of tables and series, used by `carq-cli table1` and
//! `carq-cli fig` to print paper-style output.

use std::fmt::Write as _;

use crate::series::SeriesPoint;
use crate::table::Table1Row;

/// Renders Table 1 in the layout of the paper: one block per car with mean
/// and standard-deviation rows.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>12} {:>22} {:>22}",
        "Car", "Tx by the AP", "Lost before coop.", "Lost after coop."
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<6} {:>12.1} {:>14.1} ({:>4.1}%) {:>14.1} ({:>4.1}%)",
            row.car.to_string(),
            row.tx_by_ap.mean,
            row.lost_before.mean,
            row.loss_pct_before,
            row.lost_after.mean,
            row.loss_pct_after,
        );
        let _ = writeln!(
            out,
            "{:<6} {:>12.1} {:>22.1} {:>22.1}",
            "  σ", row.tx_by_ap.std_dev, row.lost_before.std_dev, row.lost_after.std_dev,
        );
    }
    out
}

/// Renders one or more named series as CSV: `packet_index,<name1>,<name2>,…`.
/// Missing points (a series shorter than the longest one) are left empty.
///
/// # Panics
///
/// Panics if `names` and `series` have different lengths.
pub fn render_series_csv(names: &[&str], series: &[Vec<SeriesPoint>]) -> String {
    assert_eq!(names.len(), series.len(), "one name per series required");
    let mut out = String::new();
    let _ = write!(out, "packet_index");
    for name in names {
        let _ = write!(out, ",{name}");
    }
    let _ = writeln!(out);
    let longest = series.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        let index =
            series.iter().find_map(|s| s.get(i).map(|p| p.packet_index)).unwrap_or(i as u32);
        let _ = write!(out, "{index}");
        for s in series {
            match s.get(i) {
                Some(p) => {
                    let _ = write!(out, ",{:.4}", p.probability);
                }
                None => {
                    let _ = write!(out, ",");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// One cell of a [`RecordTable`].
///
/// Floats are rendered with a fixed number of decimals so that exports are
/// byte-identical across runs that compute the same values (the sweep
/// engine's determinism tests rely on this).
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// A free-form string.
    Text(String),
    /// An integer.
    Int(i64),
    /// A float, rendered with six decimals.
    Float(f64),
}

impl CellValue {
    fn render_csv(&self) -> String {
        match self {
            CellValue::Text(s) => {
                if s.contains([',', '"', '\n']) {
                    format!("\"{}\"", s.replace('"', "\"\""))
                } else {
                    s.clone()
                }
            }
            CellValue::Int(i) => i.to_string(),
            CellValue::Float(f) => format!("{f:.6}"),
        }
    }

    fn render_json(&self) -> String {
        match self {
            CellValue::Text(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            CellValue::Int(i) => i.to_string(),
            CellValue::Float(f) if f.is_finite() => format!("{f:.6}"),
            CellValue::Float(_) => "null".to_string(),
        }
    }
}

impl From<String> for CellValue {
    fn from(s: String) -> Self {
        CellValue::Text(s)
    }
}

impl From<&str> for CellValue {
    fn from(s: &str) -> Self {
        CellValue::Text(s.to_string())
    }
}

impl From<i64> for CellValue {
    fn from(i: i64) -> Self {
        CellValue::Int(i)
    }
}

impl From<u32> for CellValue {
    fn from(i: u32) -> Self {
        CellValue::Int(i64::from(i))
    }
}

impl From<u64> for CellValue {
    fn from(i: u64) -> Self {
        CellValue::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<usize> for CellValue {
    fn from(i: usize) -> Self {
        CellValue::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<f64> for CellValue {
    fn from(f: f64) -> Self {
        CellValue::Float(f)
    }
}

/// A rectangular table of named columns — the interchange format between the
/// sweep engine and the CSV/JSON exporters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordTable {
    columns: Vec<String>,
    rows: Vec<Vec<CellValue>>,
}

impl RecordTable {
    /// Creates an empty table with the given column names.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        RecordTable { columns: columns.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows added so far.
    pub fn rows(&self) -> &[Vec<CellValue>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the column count.
    pub fn push_row(&mut self, row: Vec<CellValue>) {
        assert_eq!(row.len(), self.columns.len(), "row width must match the column count");
        self.rows.push(row);
    }

    /// Renders the table as CSV with a header line.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(CellValue::render_csv).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Renders the table as a JSON array of objects keyed by column name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str("  {");
            for (c, (name, cell)) in self.columns.iter().zip(row).enumerate() {
                if c > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{}: {}",
                    CellValue::Text(name.clone()).render_json(),
                    cell.render_json()
                );
            }
            out.push('}');
            if r + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use vanet_mac::NodeId;

    fn row() -> Table1Row {
        Table1Row {
            car: NodeId::new(1),
            tx_by_ap: Summary { mean: 130.4, std_dev: 17.7, count: 30 },
            lost_before: Summary { mean: 30.5, std_dev: 12.9, count: 30 },
            lost_after: Summary { mean: 13.7, std_dev: 9.1, count: 30 },
            loss_pct_before: 23.4,
            loss_pct_after: 10.5,
        }
    }

    fn points(probs: &[f64]) -> Vec<SeriesPoint> {
        probs
            .iter()
            .enumerate()
            .map(|(i, p)| SeriesPoint { packet_index: i as u32, probability: *p, samples: 30 })
            .collect()
    }

    #[test]
    fn table_rendering_contains_paper_columns() {
        let text = render_table1(&[row()]);
        assert!(text.contains("Tx by the AP"));
        assert!(text.contains("Lost before coop."));
        assert!(text.contains("Lost after coop."));
        assert!(text.contains("130.4"));
        assert!(text.contains("23.4%"));
        assert!(text.contains("10.5%"));
        assert!(text.contains("17.7"));
    }

    #[test]
    fn csv_rendering_includes_all_series() {
        let csv = render_series_csv(
            &["rx_car1", "rx_car2"],
            &[points(&[1.0, 0.5]), points(&[0.0, 0.25, 0.75])],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "packet_index,rx_car1,rx_car2");
        assert_eq!(lines[1], "0,1.0000,0.0000");
        assert_eq!(lines[2], "1,0.5000,0.2500");
        assert_eq!(lines[3], "2,,0.7500");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "one name per series")]
    fn csv_requires_matching_name_count() {
        let _ = render_series_csv(&["a"], &[]);
    }

    fn sample_table() -> RecordTable {
        let mut table = RecordTable::new(vec!["scenario", "speed_kmh", "runs"]);
        table.push_row(vec!["urban".into(), 20.5_f64.into(), 30_u32.into()]);
        table.push_row(vec!["high,way \"A\"".into(), 100.0_f64.into(), 10_u32.into()]);
        table
    }

    #[test]
    fn record_table_csv_escapes_and_formats() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "scenario,speed_kmh,runs");
        assert_eq!(lines[1], "urban,20.500000,30");
        assert_eq!(lines[2], "\"high,way \"\"A\"\"\",100.000000,10");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn record_table_json_is_an_array_of_objects() {
        let json = sample_table().to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"scenario\": \"urban\""));
        assert!(json.contains("\"speed_kmh\": 20.500000"));
        assert!(json.contains("\"high,way \\\"A\\\"\""));
        // Two rows → exactly one separating comma between objects.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn record_table_exposes_shape() {
        let table = sample_table();
        assert_eq!(table.columns(), &["scenario", "speed_kmh", "runs"]);
        assert_eq!(table.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn record_table_rejects_ragged_rows() {
        let mut table = RecordTable::new(vec!["a", "b"]);
        table.push_row(vec![CellValue::Int(1)]);
    }

    #[test]
    fn cell_value_conversions() {
        assert_eq!(CellValue::from("x"), CellValue::Text("x".into()));
        assert_eq!(CellValue::from(3u64), CellValue::Int(3));
        assert_eq!(CellValue::from(3usize), CellValue::Int(3));
        assert_eq!(CellValue::from(1.5f64), CellValue::Float(1.5));
        assert_eq!(CellValue::Float(f64::NAN).render_json(), "null");
    }
}
