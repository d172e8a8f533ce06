//! Figure 1 — the motivating slowdown study (paper §2.1).
//!
//! * Figure 1a: execution time with all data on Optane NVM, normalised to
//!   all data on DRAM (the larger the bar, the more placement matters).
//! * Figure 1b: execution time with all data on DRAM, normalised to the
//!   `numactl -p MCDRAM` preferred policy on the KNL testbed.

use atmem::AtmemConfig;
use atmem_apps::{run_protocol, App, Mode};
use atmem_hms::Platform;

use crate::{emit, HarnessDataset, ResultTable};
use atmem_graph::Dataset;

/// Runs both panels and emits `fig1a.csv` / `fig1b.csv`.
///
/// # Errors
///
/// Propagates protocol and I/O failures.
pub fn run() -> atmem::Result<Vec<ResultTable>> {
    let apps = App::FIVE;
    let app_names: Vec<&str> = apps.iter().map(|a| a.name()).collect();

    let mut fig1a = ResultTable::new(
        "Figure 1a: all-NVM time normalised to all-DRAM (NVM-DRAM testbed)",
        &app_names,
    );
    let mut fig1b = ResultTable::new(
        "Figure 1b: all-DRAM time normalised to MCDRAM-preferred (MCDRAM-DRAM testbed)",
        &app_names,
    );

    for dataset in Dataset::ALL {
        let mut row_a = Vec::new();
        let mut row_b = Vec::new();
        let graphs = HarnessDataset::build(dataset);
        for app in apps {
            let csr = graphs.csr(app.needs_weights());
            // Panel a: NVM baseline vs DRAM ideal.
            let slow = run_protocol(
                Platform::nvm_dram(),
                AtmemConfig::default(),
                csr,
                app,
                Mode::Baseline,
            )?;
            let fast = run_protocol(
                Platform::nvm_dram(),
                AtmemConfig::default(),
                csr,
                app,
                Mode::Ideal,
            )?;
            row_a.push(slow.second_iter.as_ns() / fast.second_iter.as_ns());
            // Panel b: DRAM baseline vs MCDRAM-preferred.
            let dram = run_protocol(
                Platform::mcdram_dram(),
                AtmemConfig::default(),
                csr,
                app,
                Mode::Baseline,
            )?;
            let preferred = run_protocol(
                Platform::mcdram_dram(),
                AtmemConfig::default(),
                csr,
                app,
                Mode::Preferred,
            )?;
            row_b.push(dram.second_iter.as_ns() / preferred.second_iter.as_ns());
        }
        fig1a.push_row(dataset.name(), row_a);
        fig1b.push_row(dataset.name(), row_b);
    }
    emit(&fig1a, "fig1a").expect("write results");
    emit(&fig1b, "fig1b").expect("write results");
    Ok(vec![fig1a, fig1b])
}
