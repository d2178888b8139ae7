//! Experiment harness for the Earth+ reproduction.
//!
//! Every table and figure of the paper's evaluation section maps to one
//! experiment id (`experiments -- --list` prints the index). Experiments
//! print the paper's rows/series to stdout and write `results/<id>.csv`.
//!
//! ```text
//! cargo run -p earthplus-bench --release --bin experiments -- all
//! cargo run -p earthplus-bench --release --bin experiments -- fig11b
//! ```
//!
//! Runtime numbers are committed by the `perf_baseline` binary
//! (`BENCH_pipeline.json`) and by the `fig16` experiment.

pub mod experiments;

use std::fs;
use std::path::Path;

/// One finished experiment: a header row plus data rows, and a one-line
/// "paper vs measured" verdict.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `fig11a`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// CSV/Table header.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// One-line comparison against the paper's reported result.
    pub summary: String,
}

impl ExperimentResult {
    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&format!("summary: {}\n", self.summary));
        out
    }

    /// Renders CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let escape = |c: &String| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(escape).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(escape).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under `dir/<id>.csv`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }
}

/// Formats a float with the given number of decimals (CSV-friendly).
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        ExperimentResult {
            id: "figX",
            title: "sample",
            header: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2.5".into()]],
            summary: "ok".into(),
        }
    }

    #[test]
    fn table_contains_all_cells() {
        let t = sample().to_table();
        assert!(t.contains("figX"));
        assert!(t.contains("2.5"));
        assert!(t.contains("summary: ok"));
    }

    #[test]
    fn csv_round_layout() {
        let c = sample().to_csv();
        assert_eq!(c, "a,b\n1,2.5\n");
    }

    #[test]
    fn csv_escapes_commas() {
        let mut r = sample();
        r.rows[0][0] = "x,y".into();
        assert!(r.to_csv().contains("\"x,y\""));
    }

    #[test]
    fn fmt_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
