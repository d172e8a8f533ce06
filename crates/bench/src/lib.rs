//! # atmem-bench — experiment harness for the ATMem reproduction
//!
//! The figure and table drivers ([`experiments`], run as
//! `atmem_run <experiment>`: `fig1`, `fig5`, `fig6`, `fig9`, `fig10`,
//! `table4`, `ablation`, `variance`, `all`) and their shared plumbing:
//! dataset sizing, result tables, CSV emission, and summary statistics.
//!
//! Every driver prints a human-readable table to stdout and writes a CSV
//! with the same series under `results/` (see [`emit`]), so the
//! figures can be re-plotted from the raw rows.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use atmem_graph::{Csr, Dataset};

/// How many R-MAT scale levels to shrink the stand-in datasets for a
/// harness run: `ATMEM_BENCH_SHRINK` when set (smoke runs set a large
/// shrink to finish in seconds), else `default` — 0, the full scaled
/// stand-ins, for the figure drivers (a complete figure takes minutes).
/// A value that is not a `u32` ends the process with a message and exit
/// status 2: a typo must not turn a smoke run into a full-scale one.
pub fn dataset_shrink(default: u32) -> u32 {
    let value = std::env::var_os("ATMEM_BENCH_SHRINK").map(|v| v.to_string_lossy().into_owned());
    parse_shrink(value.as_deref(), default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// [`dataset_shrink`] on the variable's value (`None` when unset).
fn parse_shrink(value: Option<&str>, default: u32) -> Result<u32, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("ATMEM_BENCH_SHRINK={v:?} is not a u32")),
    }
}

/// Attaches the harness's edge weights (uniform in `[1, 64)`, seeded like
/// `Dataset::build_weighted`) to `dataset`'s structure.
fn with_harness_weights(csr: Csr, dataset: Dataset) -> Csr {
    csr.with_random_weights(64.0, dataset.seed() ^ 0x57ED5)
}

/// Builds a dataset stand-in at harness scale, weighted when `weighted`.
pub fn build_dataset(dataset: Dataset, weighted: bool) -> Csr {
    let csr = dataset.build_small(dataset_shrink(0));
    if weighted {
        with_harness_weights(csr, dataset)
    } else {
        csr
    }
}

/// One dataset stand-in at harness scale in both forms an app can ask for.
/// The structure is generated once (generation is the slow part of a grid
/// run); the weighted form is that structure with the weights
/// [`build_dataset`] would attach, derived on first use.
#[derive(Debug)]
pub struct HarnessDataset {
    dataset: Dataset,
    plain: Csr,
    weighted: std::cell::OnceCell<Csr>,
}

impl HarnessDataset {
    /// Generates the stand-in for `dataset`.
    pub fn build(dataset: Dataset) -> Self {
        HarnessDataset {
            dataset,
            plain: build_dataset(dataset, false),
            weighted: std::cell::OnceCell::new(),
        }
    }

    /// The graph [`build_dataset`]`(dataset, weighted)` returns.
    pub fn csr(&self, weighted: bool) -> &Csr {
        if !weighted {
            return &self.plain;
        }
        self.weighted
            .get_or_init(|| with_harness_weights(self.plain.clone(), self.dataset))
    }
}

/// A rectangular result table: row labels, column labels, f64 cells.
#[derive(Debug, Clone)]
pub struct ResultTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<f64>) {
        assert_eq!(cells.len(), self.columns.len(), "cell/column mismatch");
        self.rows.push((label.into(), cells));
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([5])
            .max()
            .unwrap_or(5)
            + 2;
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:<label_w$}", "");
        for c in &self.columns {
            let _ = write!(out, "{c:>14}");
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:<label_w$}");
            for v in cells {
                if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.01) {
                    let _ = write!(out, "{v:>14.3e}");
                } else {
                    let _ = write!(out, "{v:>14.4}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialises the table as CSV (header row of column labels).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "label");
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            if label.contains(',') || label.contains('"') {
                let _ = write!(out, "\"{}\"", label.replace('"', "\"\""));
            } else {
                let _ = write!(out, "{label}");
            }
            for v in cells {
                let _ = write!(out, ",{v}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// The results directory (`results/` beside the workspace root, overridable
/// via `ATMEM_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("ATMEM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

/// Writes a table to `results/<name>.csv` and prints the text rendering.
///
/// # Errors
///
/// I/O failures creating the directory or writing the file.
pub fn emit(table: &ResultTable, name: &str) -> std::io::Result<()> {
    print!("{}", table.render());
    println!();
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{name}.csv")), table.to_csv())?;
    Ok(())
}

/// Geometric mean of positive values (ignores non-positive entries).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .filter(|v| *v > 0.0)
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_serialises() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row("r1", vec![1.0, 2.0]);
        t.push_row("r2", vec![3.5, 0.001]);
        let text = t.render();
        assert!(text.contains("demo") && text.contains("r1"));
        let csv = t.to_csv();
        assert!(csv.starts_with("label,a,b\n"));
        assert!(csv.contains("r1,1,2\n"));
    }

    #[test]
    fn csv_quotes_labels_with_commas() {
        let mut t = ResultTable::new("demo", &["a"]);
        t.push_row("x, y", vec![1.0]);
        assert!(t.to_csv().contains("\"x, y\",1"));
    }

    #[test]
    #[should_panic(expected = "cell/column mismatch")]
    fn wrong_arity_rejected() {
        let mut t = ResultTable::new("demo", &["a"]);
        t.push_row("r", vec![1.0, 2.0]);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
        assert!((geomean([5.0, 0.0, -1.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shrink_is_the_default_only_when_unset() {
        assert_eq!(parse_shrink(None, 0), Ok(0));
        assert_eq!(parse_shrink(None, 5), Ok(5));
        assert_eq!(parse_shrink(Some("3"), 5), Ok(3));
        for bad in ["six", "", "-1", "3 ", "4294967296"] {
            let message = parse_shrink(Some(bad), 5).unwrap_err();
            assert!(
                message.contains("ATMEM_BENCH_SHRINK") && message.contains(bad),
                "{message}"
            );
        }
    }

    #[test]
    fn dataset_builders_respect_shrink_env() {
        // Do not mutate the env (tests run in parallel); just exercise the
        // builder at the current shrink.
        let g = build_dataset(Dataset::Pokec, false);
        assert!(g.num_vertices() >= 1 << 8);
        let w = build_dataset(Dataset::Pokec, true);
        let both = HarnessDataset::build(Dataset::Pokec);
        assert_eq!(both.csr(false), &g);
        assert_eq!(both.csr(true), &w);
        assert!(w.is_weighted());
    }
}

pub mod experiments;
pub mod quality;
