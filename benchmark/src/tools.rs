//! `run` (all workloads, one child process each), `check` (shrunk smoke
//! run against `BENCHMARK.json`) and `compare` (two result files against
//! the bounds).

use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::measure::{measure, Opts};
use crate::metrics::{self, Better, MetricDef};
use crate::util::fingerprint_json;
use crate::{DETAIL_PREFIX, MANIFEST_PATH, OUT_DIR};

/// Runs each workload untraced, then traced, each in a child process of
/// its own (so peak RSS and page-fault warmth are per workload), and
/// writes `benchmark/out/results.json`.
pub fn run_all(seed: u64, seconds: f64, only: Option<&str>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut entries = Vec::new();
    for (name, _) in metrics::WORKLOADS
        .iter()
        .filter(|(name, _)| only.is_none_or(|o| o == *name))
    {
        let mut details = Vec::new();
        for trace in ["0", "1"] {
            let child = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stdout(Stdio::piped())
                .output();
            let output = match child {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("cannot start the {name} run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix(DETAIL_PREFIX) {
                    Some(d) => detail = Some(d.to_string()),
                    // The contract line repeats the metrics already printed.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            let clean = detail
                .as_deref()
                .and_then(|d| json::parse(d).ok())
                .is_some_and(|d| d.get("failed").and_then(Json::as_f64) == Some(0.0));
            if !output.status.success() || !clean {
                eprintln!("{name} (trace {trace}) failed");
                ok = false;
            }
            details.push(detail.unwrap_or_else(|| "null".to_string()));
        }
        entries.push(format!(
            "    \"{name}\": {{\"untraced\": {}, \"traced\": {}}}",
            details[0], details[1]
        ));
    }
    let results = format!(
        "{{\n  \"fingerprint\": {{{}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        fingerprint_json(seed),
        entries.join(",\n")
    );
    let path = format!("{OUT_DIR}/results.json");
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, results)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Smoke run on shrunk inputs with k = 1: `BENCHMARK.json` matches the
/// tables in `metrics.rs`, and every name it lists is reported once,
/// finite, with its unit, by every workload; nothing else is reported.
pub fn check() -> ExitCode {
    let mut problems = Vec::new();
    let manifest = std::fs::read_to_string(MANIFEST_PATH)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text));
    let manifest = match manifest {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot read {MANIFEST_PATH}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if Ok(&manifest) != json::parse(&metrics::manifest()).as_ref() {
        problems.push(
            "BENCHMARK.json differs from `-- manifest` (the tables in src/metrics.rs)".to_string(),
        );
    }
    let listed = |section: &str| -> Vec<(String, String)> {
        manifest
            .get(section)
            .map_or(&[][..], Json::items)
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    for (name, _) in listed("workloads") {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = Opts {
                seconds: 0.0,
                min_reps: 1,
                setup_reps: 1,
                shrink: 5,
                ..Opts::driver(&name, 1, 0.0, trace)
            };
            let Some(outcome) = measure(&opts) else {
                problems.push(format!("{name}: listed in BENCHMARK.json but unknown"));
                continue;
            };
            for failure in &outcome.failures {
                problems.push(format!("{name}: {failure}"));
            }
            let reported: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|(def, _)| (def.name.clone(), def.unit.to_string()))
                .collect();
            let expected = listed(section);
            for metric in &expected {
                if reported.iter().filter(|r| *r == metric).count() != 1 {
                    problems.push(format!(
                        "{name}: {section} metric {metric:?} not reported once"
                    ));
                }
            }
            for metric in &reported {
                if !expected.contains(metric) {
                    problems.push(format!(
                        "{name}: reports unknown {section} metric {metric:?}"
                    ));
                }
            }
            println!(
                "checked {name} ({section}): {} metrics, {} checks",
                reported.len(),
                outcome.attempted
            );
        }
    }
    for problem in &problems {
        eprintln!("check: {problem}");
    }
    if problems.is_empty() {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Share by which `b` is worse than `a`, in the metric's direction.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares two `results.json` files: each end-to-end metric of each
/// workload against its bound, and `sim_digest` for equality (same seed,
/// same simulation — a simulator-speed change must leave it unchanged).
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .map_err(|e| eprintln!("cannot read {path}: {e}"))
    };
    let (Ok(a), Ok(b)) = (load(a_path), load(b_path)) else {
        return ExitCode::FAILURE;
    };
    let seed = |doc: &Json| doc.get("fingerprint").and_then(|f| f.get("seed")).cloned();
    let same_seed = seed(&a) == seed(&b);
    if !same_seed {
        println!("seeds differ: simulated metrics are compared by bound, not by digest");
    }
    let mut outside = 0;
    let untraced = |doc: &Json, workload: &str| {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("untraced"))
            .cloned()
    };
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, _) in metrics::WORKLOADS {
        let (Some(ra), Some(rb)) = (untraced(&a, workload), untraced(&b, workload)) else {
            continue;
        };
        for def in metrics::end_to_end() {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(&def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(&ra), value(&rb)) else {
                println!("{workload:<20} {:<20} missing", def.name);
                outside += 1;
                continue;
            };
            let worse = worsening(&def, va, vb);
            let bound = def.bound.unwrap_or(0.0);
            let verdict = if worse > bound { "  OUTSIDE" } else { "" };
            outside += usize::from(worse > bound);
            println!(
                "{workload:<20} {:<20} {va:>14.5} {vb:>14.5} {:>8.2}% {:>6.0}%{verdict}",
                def.name,
                worse * 100.0,
                bound * 100.0
            );
        }
        let digest = |r: &Json| r.get("sim_digest").and_then(Json::as_str).map(String::from);
        let (da, db) = (digest(&ra), digest(&rb));
        let equal = da == db;
        println!(
            "{workload:<20} {:<20} {:>14} {:>14} {}",
            "sim_digest",
            da.unwrap_or_default(),
            db.unwrap_or_default(),
            if equal { "equal" } else { "DIFFERENT" }
        );
        outside += usize::from(same_seed && !equal);
    }
    if outside == 0 {
        println!("within bounds");
        ExitCode::SUCCESS
    } else {
        println!("{outside} comparisons outside their bounds");
        ExitCode::FAILURE
    }
}
