//! Drivers for every table and figure of the paper's evaluation, plus the
//! ablations DESIGN.md calls out. Each driver prints its tables and writes
//! matching CSVs under `results/`; `atmem_run <experiment>` reaches them
//! through [`by_name`].

use crate::ResultTable;

pub mod ablation;
pub mod fig1;
pub mod overall;
pub mod sweep;
pub mod table4;
pub mod variance;

/// A figure or table driver.
pub type Experiment = fn() -> atmem::Result<Vec<ResultTable>>;

/// Every experiment in paper order: its names (`|`-separated; figures that
/// share a grid share a driver) and the driver.
const TABLE: &[(&str, Experiment)] = &[
    ("fig1", fig1::run),
    ("fig5|table3|fig7|nvm", overall::run_nvm),
    ("fig6|fig8|mcdram", overall::run_mcdram),
    ("fig9", sweep::run_fig9),
    ("fig10", sweep::run_fig10),
    ("table4", table4::run),
    ("ablation", ablation::run),
    ("variance", variance::run),
    ("all", run_all),
];

/// The driver `name` selects, if it is an experiment.
pub fn by_name(name: &str) -> Option<Experiment> {
    TABLE
        .iter()
        .find(|(names, _)| names.split('|').any(|n| n == name))
        .map(|&(_, run)| run)
}

/// The experiment names, space-separated with `|` between aliases, for
/// `atmem_run`'s usage text.
pub fn names() -> String {
    let names: Vec<&str> = TABLE.iter().map(|&(names, _)| names).collect();
    names.join(" ")
}

fn run_all() -> atmem::Result<Vec<ResultTable>> {
    let mut tables = Vec::new();
    for &(names, run) in TABLE {
        if names != "all" {
            tables.extend(run()?);
        }
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_advertised_name_resolves() {
        let text = names();
        let names: Vec<&str> = text.split([' ', '|']).collect();
        assert_eq!(names.len(), 14, "{names:?}");
        for name in names {
            assert!(by_name(name).is_some(), "{name} is advertised but unknown");
        }
    }

    #[test]
    fn aliases_share_a_driver_and_unknown_names_are_none() {
        // Function pointers are compared by address on purpose: an alias
        // must be the same driver, not a second one doing the same thing.
        let same = |group: &[&str]| {
            let first = by_name(group[0]).unwrap() as usize;
            group.iter().all(|n| by_name(n).unwrap() as usize == first)
        };
        assert!(same(&["fig5", "table3", "fig7", "nvm"]));
        assert!(same(&["fig6", "fig8", "mcdram"]));
        assert_ne!(
            by_name("nvm").unwrap() as usize,
            by_name("mcdram").unwrap() as usize
        );
        for unknown in ["", "nosuch", "fig5|table3", "fig5_table3", "FIG1", "--app"] {
            assert!(by_name(unknown).is_none(), "{unknown:?} resolved");
        }
    }
}
