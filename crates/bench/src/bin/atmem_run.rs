//! `atmem-run` — regenerate one of the paper's figures or tables, or run one
//! parameterised protocol, from the command line.
//!
//! ```text
//! atmem_run EXPERIMENT          (fig1 ... table4, ablation, variance, all; --help lists the names)
//! atmem_run [--app BFS|SSSP|PR|BC|CC|SpMV] [--dataset pokec|rmat24|twitter|rmat27|friendster]
//!           [--platform nvm|knl|cxl|hbm|quad|testing|testing3]
//!           [--mode baseline|atmem|ideal|preferred] [--policy atmem|autonuma]
//!           [--analyzer paper|learned] [--rounds N]
//!           [--epsilon F] [--arity M] [--chunks N] [--period P]
//!           [--mechanism staged|mbind] [--shrink S] [--cores N]
//!           [--edge-list PATH] [--heatmap]
//! ```
//!
//! The first form runs a driver of [`atmem_bench::experiments`]: tables on
//! stdout, CSVs under `results/` (`ATMEM_RESULTS_DIR` overrides), datasets
//! shrunk by `ATMEM_BENCH_SHRINK` R-MAT levels. The second prints the two
//! iteration times, the data ratio, migration statistics, a per-object
//! residency report, and (with `--heatmap`) the chunk-level access heatmap
//! with the analyzer's selection overlaid.

use std::process::ExitCode;

use atmem::{
    chunk_heatmap, AnalyzerKind, AtmemConfig, MigrationMechanism, OptimizePolicy, ResidencyReport,
};
use atmem_apps::{App, Mode, Protocol};
use atmem_bench::experiments;
use atmem_graph::{Csr, Dataset};
use atmem_hms::Platform;

#[derive(Debug)]
struct Options {
    app: App,
    dataset: Dataset,
    platform_name: String,
    mode: Mode,
    config: AtmemConfig,
    rounds: usize,
    shrink: u32,
    cores: usize,
    edge_list: Option<String>,
    heatmap: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: atmem_run EXPERIMENT   (one of: {})\n\
         usage: atmem_run [--app BFS|SSSP|PR|BC|CC|SpMV] [--dataset NAME] \
         [--platform {}] [--mode baseline|atmem|ideal|preferred] \
         [--policy atmem|autonuma] [--analyzer paper|learned] [--rounds N] \
         [--epsilon F] [--arity M] [--chunks N] [--period P] \
         [--mechanism staged|mbind] [--shrink S] [--cores N] \
         [--edge-list PATH] [--heatmap]",
        experiments::names(),
        Platform::PRESET_NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options {
        app: App::Bfs,
        dataset: Dataset::Rmat24,
        platform_name: "nvm".to_string(),
        mode: Mode::Atmem,
        config: AtmemConfig::default(),
        rounds: 1,
        shrink: 2,
        cores: 1,
        edge_list: None,
        heatmap: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--app" => {
                let v = value("--app");
                opts.app = match v.to_uppercase().as_str() {
                    "BFS" => App::Bfs,
                    "SSSP" => App::Sssp,
                    "PR" => App::PageRank,
                    "BC" => App::Bc,
                    "CC" => App::Cc,
                    "SPMV" => App::Spmv,
                    _ => usage(),
                };
            }
            "--dataset" => {
                let v = value("--dataset");
                opts.dataset = *Dataset::ALL
                    .iter()
                    .find(|d| d.name() == v)
                    .unwrap_or_else(|| usage());
            }
            "--platform" => opts.platform_name = value("--platform"),
            "--mode" => {
                opts.mode = match value("--mode").as_str() {
                    "baseline" => Mode::Baseline,
                    "atmem" => Mode::Atmem,
                    "ideal" => Mode::Ideal,
                    "preferred" => Mode::Preferred,
                    _ => usage(),
                };
            }
            "--policy" => {
                opts.config.policy = match value("--policy").as_str() {
                    "atmem" => OptimizePolicy::Atmem,
                    "autonuma" => OptimizePolicy::Autonuma,
                    _ => usage(),
                };
            }
            "--analyzer" => {
                opts.config.analyzer.kind = match value("--analyzer").as_str() {
                    "paper" => AnalyzerKind::Paper,
                    "learned" => AnalyzerKind::Learned,
                    _ => usage(),
                };
            }
            "--rounds" => {
                opts.rounds = value("--rounds").parse().unwrap_or_else(|_| usage());
                if opts.rounds == 0 {
                    usage();
                }
            }
            "--epsilon" => {
                opts.config.analyzer.epsilon =
                    Some(value("--epsilon").parse().unwrap_or_else(|_| usage()));
            }
            "--arity" => {
                opts.config.analyzer.arity = value("--arity").parse().unwrap_or_else(|_| usage());
            }
            "--chunks" => {
                opts.config.chunks.target_chunks =
                    value("--chunks").parse().unwrap_or_else(|_| usage());
            }
            "--period" => {
                opts.config.sampling.period =
                    Some(value("--period").parse().unwrap_or_else(|_| usage()));
            }
            "--mechanism" => {
                opts.config.migration.mechanism = match value("--mechanism").as_str() {
                    "staged" => MigrationMechanism::Staged,
                    "mbind" => MigrationMechanism::Mbind,
                    _ => usage(),
                };
            }
            "--shrink" => opts.shrink = value("--shrink").parse().unwrap_or_else(|_| usage()),
            "--cores" => {
                opts.cores = value("--cores").parse().unwrap_or_else(|_| usage());
                if opts.cores == 0 {
                    usage();
                }
            }
            "--edge-list" => opts.edge_list = Some(value("--edge-list")),
            "--heatmap" => opts.heatmap = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    opts
}

/// An edge weight SSSP cannot run on: negative or NaN.
#[derive(Debug)]
struct BadSsspWeight {
    edge: (u32, u32),
    weight: f32,
}

impl std::fmt::Display for BadSsspWeight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ((u, v), w) = (self.edge, self.weight);
        write!(f, "edge {u} -> {v} has weight {w}: SSSP needs weights >= 0")
    }
}

impl std::error::Error for BadSsspWeight {}

fn load_graph(opts: &Options) -> Result<Csr, Box<dyn std::error::Error>> {
    let csr = match &opts.edge_list {
        Some(path) => {
            let file = std::fs::File::open(path)?;
            atmem_graph::read_edge_list(std::io::BufReader::new(file))?
        }
        None => opts.dataset.build_small(opts.shrink),
    };
    Ok(weigh_for(opts.app, csr)?)
}

/// Gives `csr` random weights if `app` needs them and it has none, and
/// rejects a negative or NaN weight for SSSP (SpMV keeps signed values).
fn weigh_for(app: App, csr: Csr) -> Result<Csr, BadSsspWeight> {
    if app == App::Sssp {
        let ws = csr.weights().unwrap_or_default();
        if let Some((edge, &weight)) = csr.edges().zip(ws).find(|(_, w)| w.is_nan() || **w < 0.0) {
            return Err(BadSsspWeight { edge, weight });
        }
    }
    Ok(if app.needs_weights() && !csr.is_weighted() {
        csr.with_random_weights(64.0, 7)
    } else {
        csr
    })
}

/// `atmem_run <experiment>`: one figure or table driver, timed.
fn run_experiment(name: &str) -> ExitCode {
    let Some(run) = experiments::by_name(name) else {
        eprintln!("unknown experiment {name}");
        usage()
    };
    let t0 = std::time::Instant::now();
    match run() {
        Ok(_) => {
            eprintln!("{name} done in {:.1}s", t0.elapsed().as_secs_f64());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if let Some(name) = args.next().filter(|first| !first.starts_with('-')) {
        if args.next().is_some() {
            eprintln!("{name}: an experiment takes no options");
            usage();
        }
        return run_experiment(&name);
    }
    let opts = parse_options();
    let platform = Platform::by_name(&opts.platform_name).unwrap_or_else(|| {
        eprintln!("unknown platform {:?}", opts.platform_name);
        usage()
    });
    let csr = match load_graph(&opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to load graph: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} on {} ({} vertices, {} edges, {:.1} MiB) — platform {}, mode {}",
        opts.app,
        opts.edge_list.as_deref().unwrap_or(opts.dataset.name()),
        csr.num_vertices(),
        csr.num_edges(),
        csr.simulated_footprint() as f64 / (1 << 20) as f64,
        platform.name,
        opts.mode.name(),
    );
    if opts.cores > 1 {
        println!("simulated cores: {}", opts.cores);
    }
    if opts.config.policy == OptimizePolicy::Autonuma {
        println!("optimize policy: autonuma (OS-tiering baseline)");
    }
    if opts.config.analyzer.kind == AnalyzerKind::Learned {
        println!("analyzer: learned (learning-to-rank scorer)");
    }

    // Drive the protocol session step by step, printing between the steps;
    // its runtime stays readable for the residency report afterwards.
    let run = || -> atmem::Result<()> {
        let mut protocol = Protocol::start(
            platform,
            opts.config.clone(),
            &csr,
            opts.app,
            opts.mode,
            opts.cores,
            opts.rounds,
        )?;
        for round in 1..=opts.rounds {
            let time = protocol.round()?.as_ns() / 1e6;
            let Some(report) = protocol.last_report() else {
                println!("iteration 1: {time:9.3} ms");
                continue;
            };
            println!(
                "iteration {round}: {time:9.3} ms   ({} samples @ period {})",
                report.profile.samples, report.profile.period
            );
            println!(
                "optimize   : moved {:.2} MiB in {} regions ({} skipped) in {} — data ratio {:.1}%",
                report.migration.bytes_moved as f64 / (1 << 20) as f64,
                report.migration.regions,
                report.migration.regions_skipped,
                report.migration.time,
                report.data_ratio * 100.0,
            );
            if opts.heatmap && round == opts.rounds {
                let registry = protocol.runtime().registry();
                print!("{}", chunk_heatmap(registry, Some(&report.analysis), 64));
            }
        }
        let result = protocol.finish()?;
        println!(
            "iteration {}: {:9.3} ms   (checksum {:.6e})",
            opts.rounds + 1,
            result.second_iter.as_ns() / 1e6,
            result.checksum
        );
        println!("\n{}", ResidencyReport::collect(protocol.runtime()));
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-edge negative cycle (0 -> 1 -> 0) before a positive edge.
    const NEGATIVE_CYCLE: &str = "0 1 -1\n1 0 -1\n1 2 1\n";

    fn parse(text: &str) -> Csr {
        atmem_graph::read_edge_list(text.as_bytes()).unwrap()
    }

    #[test]
    fn sssp_rejects_a_negative_cycle_by_edge() {
        let err = weigh_for(App::Sssp, parse(NEGATIVE_CYCLE)).unwrap_err();
        assert_eq!((err.edge, err.weight), ((0, 1), -1.0));
        assert!(
            err.to_string().contains("edge 0 -> 1 has weight -1"),
            "{err}"
        );
    }

    #[test]
    fn sssp_rejects_a_nan_weight() {
        let err = weigh_for(App::Sssp, parse("0 1 2\n1 2 nan\n")).unwrap_err();
        assert_eq!(err.edge, (1, 2));
        assert!(err.weight.is_nan());
    }

    #[test]
    fn spmv_keeps_signed_weights_and_sssp_takes_non_negative_ones() {
        let csr = weigh_for(App::Spmv, parse(NEGATIVE_CYCLE)).unwrap();
        assert_eq!(csr.weights(), Some(&[-1.0, -1.0, 1.0][..]));
        assert!(weigh_for(App::Sssp, parse("0 1 0\n1 2 3.5\n")).is_ok());
        assert!(weigh_for(App::Sssp, parse("0 1\n1 2\n"))
            .unwrap()
            .is_weighted());
    }
}
