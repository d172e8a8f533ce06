//! Ablation studies of ATMem's design choices.
//!
//! The paper motivates each design but only sweeps ε; these ablations cover
//! the rest, as called out in DESIGN.md:
//!
//! * tree-based promotion on/off (sampled selection only);
//! * globally adaptive vs fixed tree-ratio threshold (§4.3.2's "naive
//!   design");
//! * promotion-tree arity m ∈ {2, 4, 8};
//! * chunk granularity (target chunks per object);
//! * sampling period (profiling accuracy vs overhead);
//! * migration mechanism (staged / mbind) × thread count;
//! * profiling overhead on the first iteration (§7.4).

use atmem::{AtmemConfig, MigrationMechanism};
use atmem_apps::{run_protocol, App, Mode};
use atmem_graph::Dataset;
use atmem_hms::Platform;

use crate::{build_dataset, emit, HarnessDataset, ResultTable};

fn bfs_run(config: AtmemConfig, csr: &atmem_graph::Csr) -> atmem::Result<(f64, f64, f64)> {
    let r = run_protocol(Platform::nvm_dram(), config, csr, App::Bfs, Mode::Atmem)?;
    let mig = r
        .optimize
        .as_ref()
        .map(|o| o.migration.time.as_ms())
        .unwrap_or(0.0);
    Ok((r.second_iter.as_ms(), r.data_ratio, mig))
}

/// Promotion and threshold-adaption ablations.
///
/// # Errors
///
/// Propagates protocol failures.
pub fn run_analyzer_ablation() -> atmem::Result<ResultTable> {
    let csr = build_dataset(Dataset::Twitter, false);
    let mut table = ResultTable::new(
        "Ablation: analyzer variants (BFS on twitter, NVM-DRAM)",
        &["time_ms", "data_ratio", "migration_ms"],
    );
    let (t, r, m) = bfs_run(AtmemConfig::default(), &csr)?;
    table.push_row("full (promotion + adaptive TR)", vec![t, r, m]);

    let mut no_promo = AtmemConfig::default();
    no_promo.analyzer.promotion_enabled = false;
    let (t, r, m) = bfs_run(no_promo, &csr)?;
    table.push_row("no promotion (sampled only)", vec![t, r, m]);

    let mut fixed_tr = AtmemConfig::default();
    fixed_tr.analyzer.adaptive_tr = false;
    let (t, r, m) = bfs_run(fixed_tr, &csr)?;
    table.push_row("fixed TR threshold", vec![t, r, m]);

    for arity in [2usize, 4, 8] {
        let (t, r, m) = bfs_run(AtmemConfig::default().with_arity(arity), &csr)?;
        table.push_row(format!("arity m={arity}"), vec![t, r, m]);
    }
    emit(&table, "ablation_analyzer").expect("write results");
    Ok(table)
}

/// Chunk-granularity sweep (§4.1: granularity trades placement precision
/// against metadata/profiling overhead).
///
/// # Errors
///
/// Propagates protocol failures.
pub fn run_granularity_ablation() -> atmem::Result<ResultTable> {
    let csr = build_dataset(Dataset::Twitter, false);
    let mut table = ResultTable::new(
        "Ablation: chunk granularity (BFS on twitter, NVM-DRAM)",
        &["time_ms", "data_ratio", "migration_ms"],
    );
    for target in [16usize, 64, 256, 1024, 4096] {
        let (t, r, m) = bfs_run(AtmemConfig::default().with_target_chunks(target), &csr)?;
        table.push_row(format!("target_chunks={target}"), vec![t, r, m]);
    }
    emit(&table, "ablation_granularity").expect("write results");
    Ok(table)
}

/// Sampling-period sweep.
///
/// # Errors
///
/// Propagates protocol failures.
pub fn run_sampling_ablation() -> atmem::Result<ResultTable> {
    let csr = build_dataset(Dataset::Twitter, false);
    let mut table = ResultTable::new(
        "Ablation: sampling period (BFS on twitter, NVM-DRAM)",
        &["time_ms", "data_ratio", "samples"],
    );
    for period in [16u64, 64, 256, 1024, 4096, 16384] {
        let r = run_protocol(
            Platform::nvm_dram(),
            AtmemConfig::default().with_sampling_period(period),
            &csr,
            App::Bfs,
            Mode::Atmem,
        )?;
        let samples = r
            .optimize
            .as_ref()
            .map(|o| o.profile.samples as f64)
            .unwrap_or(0.0);
        table.push_row(
            format!("period={period}"),
            vec![r.second_iter.as_ms(), r.data_ratio, samples],
        );
    }
    emit(&table, "ablation_sampling").expect("write results");
    Ok(table)
}

/// Migration mechanism × concurrency ablation.
///
/// # Errors
///
/// Propagates protocol failures.
pub fn run_migration_ablation() -> atmem::Result<ResultTable> {
    let csr = build_dataset(Dataset::Rmat24, false);
    let mut table = ResultTable::new(
        "Ablation: migration mechanism (PR on rmat24, NVM-DRAM)",
        &["migration_ms", "iter2_ms", "iter2_tlb_misses"],
    );
    let variants: [(&str, MigrationMechanism, Option<usize>); 3] = [
        ("staged, platform threads", MigrationMechanism::Staged, None),
        ("staged, 1 thread", MigrationMechanism::Staged, Some(1)),
        ("mbind", MigrationMechanism::Mbind, None),
    ];
    for (label, mechanism, threads) in variants {
        let mut config = AtmemConfig::default();
        config.migration.mechanism = mechanism;
        config.migration.threads = threads;
        let r = run_protocol(
            Platform::nvm_dram(),
            config,
            &csr,
            App::PageRank,
            Mode::Atmem,
        )?;
        let mig = r
            .optimize
            .as_ref()
            .map(|o| o.migration.time.as_ms())
            .unwrap_or(0.0);
        table.push_row(
            label,
            vec![
                mig,
                r.second_iter.as_ms(),
                r.second_iter_stats.tlb_misses as f64,
            ],
        );
    }
    emit(&table, "ablation_migration").expect("write results");
    Ok(table)
}

/// Sampling accuracy against the full-information oracle.
///
/// The related work profiles offline with full traces (Pin); ATMem argues
/// sampled profiles suffice once the tree promotion patches the gaps. A
/// sampling period of 1 records *every* LLC read miss — the oracle. This
/// study scores each period's final selection (sampled ∪ promoted) against
/// the oracle's by Jaccard similarity, alongside the resulting time.
///
/// # Errors
///
/// Propagates protocol failures.
pub fn run_sampling_accuracy() -> atmem::Result<ResultTable> {
    let csr = build_dataset(Dataset::Twitter, false);
    let selection_of = |period: u64| -> atmem::Result<(Vec<bool>, f64, f64)> {
        let r = run_protocol(
            Platform::nvm_dram(),
            AtmemConfig::default().with_sampling_period(period),
            &csr,
            App::Bfs,
            Mode::Atmem,
        )?;
        let report = r.optimize.as_ref().expect("atmem mode optimizes");
        let bitmap: Vec<bool> = report
            .analysis
            .objects
            .iter()
            .flat_map(|o| o.critical.iter().copied())
            .collect();
        Ok((bitmap, r.second_iter.as_ms(), r.data_ratio))
    };
    let (oracle, oracle_ms, oracle_ratio) = selection_of(1)?;
    let mut table = ResultTable::new(
        "Ablation: sampling accuracy vs full-information oracle (BFS on twitter)",
        &["jaccard_vs_oracle", "time_ms", "data_ratio"],
    );
    table.push_row("oracle (period=1)", vec![1.0, oracle_ms, oracle_ratio]);
    for period in [16u64, 64, 256, 1024, 4096, 16384] {
        let (sel, ms, ratio) = selection_of(period)?;
        let inter = sel.iter().zip(&oracle).filter(|&(&a, &b)| a && b).count();
        let union = sel.iter().zip(&oracle).filter(|&(&a, &b)| a || b).count();
        let jaccard = if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        };
        table.push_row(format!("period={period}"), vec![jaccard, ms, ratio]);
    }
    emit(&table, "ablation_accuracy").expect("write results");
    Ok(table)
}

/// Profiling overhead (§7.4: "less than 10% of the first iteration").
///
/// # Errors
///
/// Propagates protocol failures.
pub fn run_overhead_study() -> atmem::Result<ResultTable> {
    let mut table = ResultTable::new(
        "Overhead (paper 7.4): profiled vs unprofiled first iteration",
        &["unprofiled_ms", "profiled_ms", "overhead_pct"],
    );
    let graphs = HarnessDataset::build(Dataset::Rmat24);
    for app in App::FIVE {
        let csr = graphs.csr(app.needs_weights());
        let profiled = run_protocol(
            Platform::nvm_dram(),
            AtmemConfig::default(),
            csr,
            app,
            Mode::Atmem,
        )?;
        let plain = run_protocol(
            Platform::nvm_dram(),
            AtmemConfig::default(),
            csr,
            app,
            Mode::Baseline,
        )?;
        let a = plain.first_iter.as_ms();
        let b = profiled.first_iter.as_ms();
        table.push_row(app.name(), vec![a, b, (b / a - 1.0) * 100.0]);
    }
    emit(&table, "overhead").expect("write results");
    Ok(table)
}

/// Amortisation analysis (§7.4: "most benchmarks can get enough benefits
/// to compensate the overhead caused by ATMem within a few iterations").
/// Iterations to amortise = (profiling overhead + migration time) /
/// per-iteration gain.
///
/// # Errors
///
/// Propagates protocol failures.
pub fn run_amortization_study() -> atmem::Result<ResultTable> {
    let mut table = ResultTable::new(
        "Amortisation (paper 7.4): one-time cost vs per-iteration gain",
        &["one_time_ms", "gain_per_iter_ms", "iters_to_amortise"],
    );
    let graphs = HarnessDataset::build(Dataset::Friendster);
    for app in App::FIVE {
        let csr = graphs.csr(app.needs_weights());
        let atm = run_protocol(
            Platform::nvm_dram(),
            AtmemConfig::default(),
            csr,
            app,
            Mode::Atmem,
        )?;
        let base = run_protocol(
            Platform::nvm_dram(),
            AtmemConfig::default(),
            csr,
            app,
            Mode::Baseline,
        )?;
        let profiling_overhead = atm.first_iter.as_ms() - base.first_iter.as_ms();
        let migration = atm
            .optimize
            .as_ref()
            .map(|o| o.migration.time.as_ms())
            .unwrap_or(0.0);
        let one_time = profiling_overhead.max(0.0) + migration;
        let gain = base.second_iter.as_ms() - atm.second_iter.as_ms();
        let iters = if gain > 0.0 {
            one_time / gain
        } else {
            f64::INFINITY
        };
        table.push_row(app.name(), vec![one_time, gain, iters]);
    }
    emit(&table, "amortization").expect("write results");
    Ok(table)
}

/// Runs every ablation.
///
/// # Errors
///
/// Propagates protocol and I/O failures.
pub fn run() -> atmem::Result<Vec<ResultTable>> {
    Ok(vec![
        run_analyzer_ablation()?,
        run_granularity_ablation()?,
        run_sampling_ablation()?,
        run_migration_ablation()?,
        run_sampling_accuracy()?,
        run_overhead_study()?,
        run_amortization_study()?,
    ])
}
