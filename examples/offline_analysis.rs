//! Offline trace-based profiling, Pin-style.
//!
//! The related work the ATMem paper compares against ([9] Dulloor et al.,
//! [30] Shen et al.) profiles applications *offline* with full memory
//! traces. This example reproduces that workflow on the simulator: record
//! every LLC read miss of a PageRank iteration with PEBS at period 1, build
//! an exact per-chunk miss histogram offline, and compare it with what
//! ATMem's online sampling saw in a second run of the same iteration —
//! then show both lead to the same placement decision for the hot object.
//!
//! Run with: `cargo run -p atmem-bench --release --example offline_analysis`

use std::collections::HashMap;

use atmem::{Atmem, AtmemConfig, ObjectId};
use atmem_apps::{App, HmsGraph, Kernel, MemCtx};
use atmem_graph::{Csr, Dataset};
use atmem_hms::Platform;

/// A runtime with the graph loaded and a reset PageRank kernel on it.
fn setup(csr: &Csr) -> atmem::Result<(Atmem, Box<dyn Kernel>)> {
    let mut rt = Atmem::new(Platform::nvm_dram(), AtmemConfig::default())?;
    let graph = HmsGraph::load(&mut rt, csr)?;
    let mut kernel = App::PageRank.instantiate(&mut rt, graph)?;
    kernel.reset(&mut rt);
    Ok((rt, kernel))
}

fn main() -> atmem::Result<()> {
    let csr = Dataset::Twitter.build_small(4);

    // Offline run: PEBS at period 1 with no jitter records every LLC read
    // miss in order — the full read-miss trace.
    let (mut offline, mut kernel) = setup(&csr)?;
    let accesses_before = offline.machine().stats().accesses;
    offline.machine_mut().pebs_enable(1, 0);
    kernel.run_iteration(&mut MemCtx::bulk(offline.machine_mut()));
    offline.machine_mut().pebs_disable();
    let misses = offline.machine_mut().pebs_drain();
    let events = offline.machine().stats().accesses - accesses_before;

    // Online run: the same iteration under ATMem's sampled profiling.
    // Sampling changes the simulated clock, never the access or miss
    // stream, so both runs see the same misses.
    let (mut rt, mut kernel) = setup(&csr)?;
    rt.profiling_start()?;
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    let profile = rt.profiling_stop()?;

    println!(
        "recorded {} trace events; online sampling kept {} ({}x reduction)\n",
        events,
        profile.samples,
        events / profile.samples.max(1)
    );

    // Offline pass: exact read-miss histogram per (object, chunk).
    let mut exact: HashMap<(ObjectId, usize), u64> = HashMap::new();
    for rec in &misses {
        if let Some(id) = offline.registry().object_at(rec.vaddr) {
            let obj = offline.registry().get(id).expect("live object");
            if let Some(chunk) = obj.chunk_of(rec.vaddr) {
                *exact.entry((id, chunk)).or_insert(0) += 1;
            }
        }
    }

    // Compare the two views object by object: exact misses vs sampled
    // misses scaled by the period.
    println!(
        "{:<16} {:>14} {:>18} {:>10}",
        "object", "exact misses", "sampled x period", "rel. err"
    );
    let objects: Vec<_> = rt
        .registry()
        .iter()
        .map(|o| (o.id(), o.name().to_string(), o.total_samples()))
        .collect();
    for (id, name, samples) in &objects {
        let exact_total: u64 = exact
            .iter()
            .filter(|((oid, _), _)| oid == id)
            .map(|(_, &c)| c)
            .sum();
        let estimated = samples * profile.period;
        let err = if exact_total > 0 {
            (estimated as f64 - exact_total as f64).abs() / exact_total as f64
        } else {
            0.0
        };
        println!(
            "{:<16} {:>14} {:>18} {:>9.1}%",
            name,
            exact_total,
            estimated,
            err * 100.0
        );
    }

    // Both views agree on which object is hottest per byte.
    let hottest_exact = objects
        .iter()
        .max_by_key(|(id, _, _)| {
            let total: u64 = exact
                .iter()
                .filter(|((oid, _), _)| oid == id)
                .map(|(_, &c)| c)
                .sum();
            let size = rt.registry().get(*id).expect("live").size() as u64;
            total * 1_000_000 / size
        })
        .map(|(_, name, _)| name.clone())
        .expect("objects exist");
    let hottest_sampled = objects
        .iter()
        .max_by_key(|(id, _, samples)| {
            let size = rt.registry().get(*id).expect("live").size() as u64;
            samples * 1_000_000 / size
        })
        .map(|(_, name, _)| name.clone())
        .expect("objects exist");
    println!("\nhottest object per byte — offline: {hottest_exact}, online: {hottest_sampled}");
    assert_eq!(
        hottest_exact, hottest_sampled,
        "sampled profile must identify the same hot object"
    );
    println!("both profiles point the optimizer at the same data.");
    Ok(())
}
