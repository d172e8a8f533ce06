//! Micro-probes of single `hms`/`core` layers, timed from outside through
//! public calls only. They run in the traced pass, on a machine of their
//! own, replaying the workload's index stream (CSR neighbours, or the hot
//! window's draws) so each figure is the cost *on this workload's access
//! pattern*. Every probe is the fastest of [`REPS`] passes.

use atmem::{Atmem, AtmemConfig, OptimizePolicy};
use atmem_apps::HotWindow;
use atmem_hms::{
    Cache, Machine, Pebs, PhysAddr, Placement, Platform, TierId, Tlb, TrackedVec, VirtAddr,
    VirtRange,
};

use crate::util::{fastest_of, timed};
use crate::workloads::Sim;

const REPS: usize = 3;
/// Indices per gather/scatter/update call, about a long adjacency list.
const WINDOW: usize = 1024;
/// Elements per sweep block.
const BLOCK: usize = 4096;
/// PEBS period and jitter of the probe: the floor of the runtime's
/// auto-tuned range, i.e. the most samples an iteration ever pays for.
const PEBS_PERIOD: (u64, u64) = (16, 4);
const PAGE: usize = 4096;

fn ns_per(seconds: f64, events: usize) -> f64 {
    seconds * 1e9 / events as f64
}

fn page_aligned(v: &TrackedVec<u64>) -> VirtRange {
    VirtRange::new(v.range().start, v.range().len.next_multiple_of(PAGE))
}

/// Runs every probe over `stream` (indices below `n`), appending
/// `(metric, value)` pairs; audit results land in `sim`.
pub fn run(stream: &[u32], n: usize, sim: &mut Sim, out: &mut Vec<(String, f64)>) {
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    // Room on the fast tier for every probe; capacity costs an access
    // nothing.
    let platform = || Platform::nvm_dram().with_capacities(256 << 20, 768 << 20);

    // What a fresh machine costs before its first useful access.
    let ((mut machine, v), new_s) = timed(|| {
        let mut machine = Machine::new(platform());
        let v = TrackedVec::<u64>::new(&mut machine, n, Placement::Slow).expect("probe array");
        v.fill(&mut machine, 1);
        (machine, v)
    });
    let w = TrackedVec::<u64>::new(&mut machine, n, Placement::Slow).expect("probe array");
    w.fill(&mut machine, 1);
    put("hms.machine.new_s", new_s);

    let mut block = vec![0u64; BLOCK.min(n)];
    let sweep = fastest_of(REPS, || {
        for start in (0..n - n % block.len()).step_by(block.len()) {
            v.read_slice(&mut machine, start, &mut block);
        }
    });
    put(
        "hms.machine.sweep_ns_per_access",
        ns_per(sweep, n - n % block.len()),
    );

    let mut values = vec![0u64; WINDOW];
    let mut gather = |machine: &mut Machine| {
        fastest_of(REPS, || {
            for window in stream.chunks(WINDOW) {
                v.gather(machine, window, &mut values[..window.len()]);
            }
        })
    };
    let gather_off = gather(&mut machine);
    put(
        "hms.machine.gather_ns_per_access",
        ns_per(gather_off, stream.len()),
    );
    machine.pebs_enable(PEBS_PERIOD.0, PEBS_PERIOD.1);
    let gather_on = gather(&mut machine);
    machine.pebs_disable();
    machine.pebs_drain();
    put(
        "hms.machine.pebs_on_ns_per_access",
        ns_per(gather_on - gather_off, stream.len()),
    );

    let ones = vec![1u64; WINDOW];
    let scatter = fastest_of(REPS, || {
        for window in stream.chunks(WINDOW) {
            v.scatter(&mut machine, window, &ones[..window.len()]);
        }
    });
    put(
        "hms.machine.scatter_ns_per_access",
        ns_per(scatter, stream.len()),
    );
    let update = fastest_of(REPS, || {
        for window in stream.chunks(WINDOW) {
            v.gather_update(&mut machine, window, |_, old| old.wrapping_add(1));
        }
    });
    // One read and one write per index.
    put(
        "hms.machine.update_ns_per_access",
        ns_per(update, 2 * stream.len()),
    );

    let scalar = &stream[..stream.len().min(1 << 18)];
    let get = |machine: &mut Machine| {
        fastest_of(REPS, || {
            for &i in scalar {
                std::hint::black_box(w.get(machine, i as usize));
            }
        })
    };
    let contiguous = get(&mut machine);
    put(
        "hms.machine.get_ns_per_access",
        ns_per(contiguous, scalar.len()),
    );
    put(
        "hms.mapping.contiguous_get_ns_per_access",
        ns_per(contiguous, scalar.len()),
    );

    // `mbind` splinters the array's huge mappings into base pages; the
    // same scalar stream then runs again.
    let (report, mbind_s) = timed(|| machine.migrate_mbind(page_aligned(&w), TierId::FAST));
    let report = report.expect("mbind");
    put(
        "hms.mbind.host_mb_per_s",
        report.bytes as f64 / (1 << 20) as f64 / mbind_s,
    );
    let fragmented = get(&mut machine);
    put(
        "hms.mapping.fragmented_get_ns_per_access",
        ns_per(fragmented, scalar.len()),
    );

    // The staged engine's primitives, one region of up to 1 MiB at a time.
    let range = page_aligned(&v);
    let region = range.len.min(1 << 20);
    let regions: Vec<VirtRange> = (0..range.len / region)
        .take(8)
        .map(|i| VirtRange::new(range.start.add((i * region) as u64), region))
        .collect();
    let threads = platform().migration_threads;
    let (mut copy_s, mut remap_s) = (0.0, 0.0);
    for &r in &regions {
        let frames = machine
            .alloc_frames(TierId::FAST, region / PAGE)
            .expect("staging frames");
        copy_s += timed(|| machine.copy_region_to_frames(r, TierId::FAST, frames, threads)).1;
        machine.free_frames(TierId::FAST, frames);
    }
    let moved_mib = (regions.len() * region) as f64 / (1 << 20) as f64;
    put("hms.machine.copy_host_mb_per_s", moved_mib / copy_s);
    for &r in &regions {
        remap_s += timed(|| machine.remap_region(r, TierId::FAST).expect("remap")).1;
    }
    put(
        "hms.machine.remap_us_per_region",
        remap_s * 1e6 / regions.len() as f64,
    );

    let fork_join = fastest_of(REPS, || {
        for _ in 0..100 {
            machine.run_cores(2, |_, _| ());
        }
    });
    put("hms.shard.fork_join_us", fork_join * 1e6 / 100.0);

    let (audit, audit_s) = timed(|| machine.audit());
    sim.check(audit.is_empty(), || {
        format!("probe machine: audit {audit:?}")
    });
    put("hms.machine.audit_s", audit_s);

    // The modelled components on their own, fed what the machine feeds
    // them: a page key per access, a physical line address, a miss event.
    let mut tlb = Tlb::new(platform().tlb_entries);
    let lookups = fastest_of(1, || {
        for &i in stream {
            tlb.access((i as u64 * 8) >> 12);
        }
    });
    put("hms.tlb.ns_per_lookup", ns_per(lookups, stream.len()));
    put(
        "hms.tlb.hit_ratio",
        tlb.hits() as f64 / (tlb.hits() + tlb.misses()) as f64,
    );
    let mut llc = Cache::new(platform().llc);
    let probes = fastest_of(1, || {
        for &i in stream {
            llc.access(PhysAddr::new(i as u64 * 8), false);
        }
    });
    put("hms.cache.ns_per_probe", ns_per(probes, stream.len()));
    put(
        "hms.cache.hit_ratio",
        llc.read_hits() as f64 / (llc.read_hits() + llc.read_misses()) as f64,
    );
    let mut pebs = Pebs::new(1);
    pebs.enable(PEBS_PERIOD.0, PEBS_PERIOD.1);
    let events = fastest_of(1, || {
        for &i in stream {
            pebs.on_read_miss(VirtAddr::new(i as u64 * 8));
        }
    });
    put("hms.pebs.ns_per_event", ns_per(events, stream.len()));

    put("core.autonuma.optimize_s", autonuma_optimize_s(sim));
}

/// One profile → `optimize()` of the AutoNUMA baseline policy over a fixed
/// 8 MiB hot-window array; no workload selects that policy.
fn autonuma_optimize_s(sim: &mut Sim) -> f64 {
    let mut run = || -> atmem::Result<f64> {
        let config = AtmemConfig::default().with_policy(OptimizePolicy::Autonuma);
        let mut rt = Atmem::new(Platform::nvm_dram(), config)?;
        let v = rt.malloc::<u64>(1 << 20, "autonuma")?;
        let window = HotWindow {
            start: 0,
            len: 1 << 17,
            hot_fraction: 0.9,
        };
        rt.profiling_start()?;
        window.drive(&mut rt, &v, 100_000, 1);
        rt.profiling_stop()?;
        let (report, secs) = timed(|| rt.optimize());
        report?;
        let audit = rt.machine_mut().audit();
        sim.check(audit.is_empty(), || {
            format!("autonuma probe: audit {audit:?}")
        });
        Ok(secs)
    };
    run().unwrap_or_else(|e| {
        sim.check(false, || format!("autonuma probe failed: {e}"));
        0.0
    })
}
