//! Figures 5–8 and Table 3 — the overall performance evaluation (§7.1).
//!
//! * Figure 5: NVM-DRAM execution time, three bars per (app, dataset):
//!   all-NVM baseline, ATMem, all-DRAM ideal.
//! * Table 3: min/max ATMem slowdown versus the all-DRAM ideal, per app.
//! * Figure 6: MCDRAM-DRAM execution time: all-DRAM baseline, ATMem,
//!   MCDRAM-preferred reference.
//! * Figures 7/8: fraction of data ATMem places on the fast tier.

use atmem::AtmemConfig;
use atmem_apps::{run_protocol, App, Mode, ProtocolResult};
use atmem_graph::Dataset;
use atmem_hms::Platform;

use crate::{emit, HarnessDataset, ResultTable};

/// One (app, dataset) cell of the overall evaluation.
#[derive(Debug)]
pub struct OverallCell {
    /// Application.
    pub app: App,
    /// Dataset.
    pub dataset: Dataset,
    /// Baseline (all data on the large-capacity tier).
    pub baseline: ProtocolResult,
    /// ATMem placement.
    pub atmem: ProtocolResult,
    /// Reference: all-fast ideal (NVM testbed) or preferred fill (KNL).
    pub reference: ProtocolResult,
}

/// Runs the full grid on one platform. `reference_mode` is [`Mode::Ideal`]
/// on the NVM testbed and [`Mode::Preferred`] on the KNL testbed (MCDRAM
/// cannot hold the large datasets, exactly as in the paper).
///
/// # Errors
///
/// Propagates protocol failures.
pub fn run_grid(platform: &Platform, reference_mode: Mode) -> atmem::Result<Vec<OverallCell>> {
    let mut cells = Vec::new();
    // Dataset-major so each structure is generated once, not once per app.
    for dataset in Dataset::ALL {
        let graphs = HarnessDataset::build(dataset);
        for app in App::FIVE {
            let csr = graphs.csr(app.needs_weights());
            let baseline = run_protocol(
                platform.clone(),
                AtmemConfig::default(),
                csr,
                app,
                Mode::Baseline,
            )?;
            let atmem = run_protocol(
                platform.clone(),
                AtmemConfig::default(),
                csr,
                app,
                Mode::Atmem,
            )?;
            let reference = run_protocol(
                platform.clone(),
                AtmemConfig::default(),
                csr,
                app,
                reference_mode,
            )?;
            assert_eq!(
                baseline.checksum, atmem.checksum,
                "{app}/{dataset}: ATMem changed the kernel output"
            );
            cells.push(OverallCell {
                app,
                dataset,
                baseline,
                atmem,
                reference,
            });
        }
    }
    // The figures list cells app-major (stable: datasets keep their order).
    cells.sort_by_key(|c| App::FIVE.iter().position(|&a| a == c.app));
    Ok(cells)
}

/// Figure 5 + Table 3 + Figure 7 (NVM-DRAM testbed).
///
/// # Errors
///
/// Propagates protocol and I/O failures.
pub fn run_nvm() -> atmem::Result<Vec<ResultTable>> {
    let cells = run_grid(&Platform::nvm_dram(), Mode::Ideal)?;

    let mut fig5 = ResultTable::new(
        "Figure 5: execution time (ms) on NVM-DRAM: baseline(NVM) / ATMem / ideal(DRAM)",
        &["baseline_ms", "atmem_ms", "ideal_ms", "speedup_vs_base"],
    );
    let mut fig7 = ResultTable::new(
        "Figure 7: data ratio ATMem places on DRAM (NVM-DRAM testbed)",
        &["data_ratio"],
    );
    let mut table3 = ResultTable::new(
        "Table 3: ATMem slowdown vs all-DRAM ideal (min/max per app)",
        &["min_slowdown", "max_slowdown"],
    );

    for app in App::FIVE {
        let mut slowdowns = Vec::new();
        for cell in cells.iter().filter(|c| c.app == app) {
            let label = format!("{}/{}", app.name(), cell.dataset.name());
            let base = cell.baseline.second_iter.as_ns();
            let atm = cell.atmem.second_iter.as_ns();
            let ideal = cell.reference.second_iter.as_ns();
            fig5.push_row(
                label.clone(),
                vec![base / 1e6, atm / 1e6, ideal / 1e6, base / atm],
            );
            fig7.push_row(label, vec![cell.atmem.data_ratio]);
            slowdowns.push(atm / ideal - 1.0);
        }
        let min = slowdowns.iter().cloned().fold(f64::MAX, f64::min);
        let max = slowdowns.iter().cloned().fold(f64::MIN, f64::max);
        table3.push_row(app.name(), vec![min, max]);
    }
    emit(&fig5, "fig5").expect("write results");
    emit(&table3, "table3").expect("write results");
    emit(&fig7, "fig7").expect("write results");
    Ok(vec![fig5, table3, fig7])
}

/// Figure 6 + Figure 8 (MCDRAM-DRAM testbed).
///
/// # Errors
///
/// Propagates protocol and I/O failures.
pub fn run_mcdram() -> atmem::Result<Vec<ResultTable>> {
    let cells = run_grid(&Platform::mcdram_dram(), Mode::Preferred)?;

    let mut fig6 = ResultTable::new(
        "Figure 6: execution time (ms) on MCDRAM-DRAM: baseline(DRAM) / ATMem / MCDRAM-p",
        &["baseline_ms", "atmem_ms", "mcdram_p_ms", "speedup_vs_base"],
    );
    let mut fig8 = ResultTable::new(
        "Figure 8: data ratio ATMem places on MCDRAM (MCDRAM-DRAM testbed)",
        &["data_ratio"],
    );
    for cell in &cells {
        let label = format!("{}/{}", cell.app.name(), cell.dataset.name());
        let base = cell.baseline.second_iter.as_ns();
        let atm = cell.atmem.second_iter.as_ns();
        let pref = cell.reference.second_iter.as_ns();
        fig6.push_row(
            label.clone(),
            vec![base / 1e6, atm / 1e6, pref / 1e6, base / atm],
        );
        fig8.push_row(label, vec![cell.atmem.data_ratio]);
    }
    emit(&fig6, "fig6").expect("write results");
    emit(&fig8, "fig8").expect("write results");
    Ok(vec![fig6, fig8])
}
