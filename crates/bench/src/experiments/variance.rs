//! Run-to-run variance study (the paper's §6 methodology: "experiments
//! are repeated ten times and the average time is reported").
//!
//! The simulator is deterministic except for the PEBS jitter RNG; sweeping
//! its seed is the run-to-run variation of the sampled profile. This study
//! quantifies how stable ATMem's placement and speedup are across ten
//! sampling realisations — the paper's implicit claim that one profiled
//! iteration suffices.

use atmem::AtmemConfig;
use atmem_apps::{run_protocol, App, Mode};
use atmem_graph::Dataset;
use atmem_hms::Platform;

use crate::{emit, HarnessDataset, ResultTable};

/// Number of repetitions (the paper's ten).
pub const REPEATS: u64 = 10;

/// Mean and coefficient of variation of a sample.
fn mean_cv(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt() / mean.max(1e-12))
}

/// Runs BFS and PR on two datasets, ten sampling seeds each.
///
/// # Errors
///
/// Propagates protocol and I/O failures.
pub fn run() -> atmem::Result<Vec<ResultTable>> {
    let mut table = ResultTable::new(
        "Variance over 10 sampling seeds (NVM-DRAM testbed)",
        &["mean_iter2_ms", "cv_iter2", "mean_ratio", "cv_ratio"],
    );
    let graphs = [Dataset::Pokec, Dataset::Twitter].map(|d| (d, HarnessDataset::build(d)));
    for app in [App::Bfs, App::PageRank] {
        for (dataset, graphs) in &graphs {
            let csr = graphs.csr(app.needs_weights());
            let mut times = Vec::new();
            let mut ratios = Vec::new();
            for seed in 0..REPEATS {
                let mut config = AtmemConfig::default();
                config.sampling.rng_seed = 0x5EED + seed;
                let r = run_protocol(Platform::nvm_dram(), config, csr, app, Mode::Atmem)?;
                times.push(r.second_iter.as_ms());
                ratios.push(r.data_ratio);
            }
            let (mt, cvt) = mean_cv(&times);
            let (mr, cvr) = mean_cv(&ratios);
            table.push_row(
                format!("{}/{}", app.name(), dataset.name()),
                vec![mt, cvt, mr, cvr],
            );
        }
    }
    emit(&table, "variance").expect("write results");
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_cv_basics() {
        let (m, cv) = mean_cv(&[2.0, 2.0, 2.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!(cv.abs() < 1e-12);
        let (m, cv) = mean_cv(&[1.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((cv - 0.5).abs() < 1e-12);
    }
}
