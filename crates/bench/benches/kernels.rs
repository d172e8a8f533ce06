//! Wall-clock micro-benchmarks of one kernel iteration through the full
//! simulated access path (host simulator throughput, not simulated time).
//!
//! Each kernel runs twice — through a [`AccessMode::Scalar`] context
//! (per-element path) and through [`AccessMode::Bulk`] (block walks and the
//! window engine) — and both must agree on the kernel checksum, the
//! machine counters and the simulated clock (the fast paths are invisible
//! in simulation space). SpMV and PageRank full iterations and the isolated
//! PageRank scatter and SpMV gather phases (the window engine alone) are
//! timed in both Scalar and Bulk. The bulk path is gated on its *own* host
//! time per simulated access against the committed `BENCH_kernels.json`
//! (see [`BULK_TOLERANCE`]); both sides and their ratio are recorded as
//! information only — a ratio of two paths that share the TLB and LLC
//! models falls whenever the shared part gets cheaper, because the scalar
//! path runs it per access and the bulk path per line.
//!
//! The **core sweep** runs PageRank, SpMV and the traversal kernels (BFS,
//! SSSP, BC) at 1 and 4 simulated cores: kernel checksums must be
//! bit-identical at every core count (always asserted, even under
//! `--smoke`), the 4-core run of the regular kernels must be ≥2x faster
//! wall-clock, and at least one frontier-sharded traversal kernel must
//! show a wall-clock speedup — gates that only arm when the host actually
//! has ≥4 hardware threads to shard over (and never under `--smoke`).
//!
//! The **translation** section times the address-translation front-end on
//! its own, in absolute nanoseconds: a thrash stream (~20 % hits) through a
//! standalone [`Tlb`] at 512 and at 4096 entries, and the same scalar `get`
//! stream over a `TrackedVec` before and after `mbind` splinters it into
//! single-page mappings. A lookup at 4096 entries may cost at most 2x one
//! at 512 (eviction is independent of capacity) — a gate about *shape*, not
//! speed. The fragmented `get` is gated like the bulk paths, on its own
//! time against the committed snapshot: the contiguous side it used to be
//! divided by swings 2x between runs on the reference host, so the ratio
//! is printed but gates nothing.
//!
//! The **llc** section does the same for the cache model: a standalone
//! [`Cache`] probed with a uniform line stream sized for about 25 %, 50 %
//! and 85 % hits, at the 16-way/128 KiB and 8-way/64 KiB preset
//! geometries. Its gate is again shape: a probe at 8 ways may cost at most
//! 1.25x one at 16 ways (one code path serves every associativity).
//!
//! `--smoke` runs only the equality half on a reduced graph (no timing, no
//! speedup gates) so CI can verify Scalar/Bulk equivalence on every push
//! without inheriting wall-clock flakiness; the translation and llc
//! sections run shortened and ungated.
//!
//! Every run snapshots its measurements to `BENCH_kernels.json` at the repo
//! root (override with `--json PATH`).

use atmem::{Atmem, AtmemConfig};
use atmem_apps::{
    AccessMode, Bc, Bfs, HmsGraph, Kernel, MemCtx, PageRank, PageRankPull, Spmv, Sssp,
};
use atmem_bench::harness::{bench, bench_with_setup, black_box};
use atmem_graph::{rmat, Csr, Dataset};
use atmem_hms::{
    Cache, CacheConfig, Machine, MachineStats, PhysAddr, Placement, Platform, SimDuration, TierId,
    Tlb, TrackedVec, VirtRange,
};
use atmem_rng::SmallRng;

const SAMPLES: usize = 15;

/// The committed baseline the bulk gates read (and a full run rewrites).
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");

/// How far above its committed time a gated path may read before the run
/// fails. The reference host's level drifts by up to a third within an
/// hour even on fastest-of-15 samples, so 1.5x is the tightest band that
/// does not trip on drift alone; losing the batching (falling back to the
/// per-element path) costs 2x or more and still trips it.
const BULK_TOLERANCE: f64 = 1.5;

/// Fastest-sample host time of one workload through both access paths.
#[derive(Clone, Copy)]
struct ModePair {
    scalar_ns: f64,
    bulk_ns: f64,
    /// Simulated accesses the workload issues (identical in both modes).
    accesses: u64,
}

impl ModePair {
    /// Scalar over bulk: information only, never gated.
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.bulk_ns
    }
}

/// The committed snapshot, read before this run overwrites it.
struct Baseline(Option<String>);

impl Baseline {
    fn load() -> Self {
        Baseline(std::fs::read_to_string(BASELINE_PATH).ok())
    }

    /// The text after `"key": ` up to the end of its line, sans comma
    /// ([`write_snapshot`] puts one key on each line).
    fn field(&self, key: &str) -> Option<&str> {
        let body = self.0.as_deref()?;
        let at = body.find(&format!("\"{key}\": "))? + key.len() + 4;
        Some(body[at..].lines().next()?.trim_end_matches(','))
    }

    /// Fails the run if `ns` is beyond [`BULK_TOLERANCE`] times the
    /// committed `key`. Absolute times only mean something on the host
    /// that recorded them, so a baseline from another CPU model (or none,
    /// or one without `key`) reports and skips.
    fn gate(&self, name: &str, key: &str, ns: f64) {
        let committed = self.field(key).and_then(|v| v.parse::<f64>().ok());
        let same_host = self.field("cpu_model") == Some(&format!("\"{}\"", cpu_model()));
        match committed {
            Some(base) if same_host => {
                println!(
                    "gate/{name}: {ns:.1} ns, {:.2}x the committed {base:.1}",
                    ns / base
                );
                assert!(
                    ns <= BULK_TOLERANCE * base,
                    "{name} costs {ns:.1} ns, more than {BULK_TOLERANCE}x the committed \
                     {base:.1} ns ({key})"
                );
            }
            _ => {
                println!("gate/{name}: {ns:.1} ns; skipped, no {key} committed from this CPU model")
            }
        }
    }
}

/// R-MAT input sized so one iteration takes milliseconds host-side. The
/// low edge factor keeps the iterations stream-dominated (road-network-like
/// sparsity), which is the regime the bulk path targets.
fn bench_graph(weighted: bool, smoke: bool) -> Csr {
    let mut config = Dataset::Rmat24.config();
    config.scale = if smoke { 9 } else { 13 }; // 512 or 8192 vertices
    config.edge_factor = 2;
    let g = rmat(&config, 42);
    if weighted {
        g.with_random_weights(16.0, 7)
    } else {
        g
    }
}

/// Denser R-MAT for the traversal sweeps: each frontier level must carry
/// enough edge work to amortize the sharded engine's per-level fork and
/// merge, which the low-edge-factor stream graph above would not (its
/// levels are a few hundred vertices — thread-spawn territory).
fn traversal_graph(weighted: bool, smoke: bool) -> Csr {
    let mut config = Dataset::Rmat24.config();
    config.scale = if smoke { 9 } else { 13 }; // 512 or 8192 vertices
    config.edge_factor = 16;
    let g = rmat(&config, 24);
    if weighted {
        g.with_random_weights(16.0, 5)
    } else {
        g
    }
}

/// Kernel factory over the raw CSR (some kernels, like PR-pull, build
/// their own transposed simulator-resident graph).
type Make = dyn Fn(&mut Atmem, &Csr) -> Box<dyn Kernel>;

fn fresh_kernel(csr: &Csr, make: &Make) -> (Atmem, Box<dyn Kernel>) {
    let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).expect("runtime");
    let mut kernel = make(&mut rt, csr);
    kernel.reset(&mut rt);
    (rt, kernel)
}

fn run_once(csr: &Csr, mode: AccessMode, make: &Make) -> (f64, MachineStats, SimDuration) {
    let (mut rt, mut kernel) = fresh_kernel(csr, make);
    // Two iterations: the second starts from warm TLB/LLC state.
    for _ in 0..2 {
        kernel.run_iteration(&mut MemCtx::new(rt.machine_mut(), mode));
    }
    let sum = kernel.checksum(&mut rt);
    (sum, rt.machine().stats(), rt.now())
}

/// Runs two iterations in both modes and asserts the simulated results
/// are bit-identical — the equivalence gate CI runs on every push
/// (`--smoke`).
fn assert_modes_agree(name: &str, csr: &Csr, make: &Make) {
    let (scalar_sum, scalar_stats, scalar_now) = run_once(csr, AccessMode::Scalar, make);
    let (sum, stats, now) = run_once(csr, AccessMode::Bulk, make);
    assert_eq!(scalar_sum, sum, "{name}: checksum diverges");
    assert_eq!(scalar_stats, stats, "{name}: counters diverge");
    assert_eq!(scalar_now, now, "{name}: simulated clock diverges");
    println!(
        "equivalence/{name}: scalar/bulk ok ({} accesses)",
        scalar_stats.accesses
    );
}

/// Times one iteration in both modes (equality already asserted).
fn compare_modes(name: &str, csr: &Csr, make: &Make) -> ModePair {
    let mut results = Vec::new();
    for (label, mode) in [("scalar", AccessMode::Scalar), ("bulk", AccessMode::Bulk)] {
        let r = bench_with_setup(
            &format!("kernel_iteration/{name}/{label}"),
            SAMPLES,
            || fresh_kernel(csr, make),
            |(mut rt, mut kernel)| {
                // Time the iteration only; checksum equality was asserted
                // separately and state teardown happens after the clock
                // stops.
                kernel.run_iteration(&mut MemCtx::new(rt.machine_mut(), mode));
                black_box((rt, kernel))
            },
        );
        results.push(r);
    }
    // One untimed iteration to count the accesses the timed ones issued.
    let (mut rt, mut kernel) = fresh_kernel(csr, make);
    let before = rt.machine().stats().accesses;
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
    // Fastest-sample comparison: the host is a shared single core, so
    // medians absorb scheduler interference that has nothing to do with
    // either access path.
    let pair = ModePair {
        scalar_ns: results[0].min_ns(),
        bulk_ns: results[1].min_ns(),
        accesses: rt.machine().stats().accesses - before,
    };
    println!(
        "kernel_iteration/{name}: bulk speedup {:.2}x\n",
        pair.speedup()
    );
    pair
}

/// State for the isolated random-access phase benchmarks: a property array
/// plus the graph's adjacency, both simulator-resident, and the host-side
/// staging the kernels keep.
struct PhaseState {
    rt: Atmem,
    array: TrackedVec<f64>,
    cols: TrackedVec<u32>,
    bounds: Vec<u64>,
    nbrs: Vec<u32>,
    colbuf: Vec<u32>,
}

fn phase_state(csr: &Csr) -> PhaseState {
    let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).expect("runtime");
    let array = TrackedVec::<f64>::new(
        rt.machine_mut(),
        csr.num_vertices(),
        Placement::Preferred(atmem_hms::TierId::FAST),
    )
    .expect("alloc");
    array.fill(rt.machine_mut(), 1.0);
    let nbrs: Vec<u32> = csr.neighbors().to_vec();
    let cols = TrackedVec::<u32>::new(
        rt.machine_mut(),
        nbrs.len(),
        Placement::Preferred(atmem_hms::TierId::FAST),
    )
    .expect("alloc");
    for (e, &c) in nbrs.iter().enumerate() {
        cols.poke(rt.machine_mut(), e, c);
    }
    let bounds: Vec<u64> = csr.offsets().to_vec();
    PhaseState {
        rt,
        array,
        cols,
        bounds,
        nbrs,
        colbuf: Vec::new(),
    }
}

/// The PageRank push kernel's scatter phase exactly as the kernel executes
/// it: the neighbour windows are already host-staged (the kernel streams
/// them once per iteration, outside this phase), so this is the pure window
/// engine — one `gather_update` window per vertex over its out-neighbours.
fn pr_scatter_phase(st: &mut PhaseState, mode: AccessMode) {
    let mut ctx = MemCtx::new(st.rt.machine_mut(), mode);
    for v in 0..st.bounds.len() - 1 {
        let (s, e) = (st.bounds[v] as usize, st.bounds[v + 1] as usize);
        if s == e {
            continue;
        }
        let share = 1.0 / (e - s) as f64;
        ctx.gather_update(&st.array, &st.nbrs[s..e], |_, acc| acc + share);
    }
}

/// The SpMV kernel's gather phase exactly as the kernel executes it: the
/// accounted column-index stream followed by the `x[col]` gather over the
/// whole edge list (the kernel cannot gather without first reading the
/// indices through the accounted path).
fn spmv_gather_phase(st: &mut PhaseState, out: &mut Vec<f64>, mode: AccessMode) {
    let mut ctx = MemCtx::new(st.rt.machine_mut(), mode);
    st.colbuf.resize(st.nbrs.len(), 0);
    ctx.read_run(&st.cols, 0, &mut st.colbuf);
    out.resize(st.colbuf.len(), 0.0);
    ctx.gather(&st.array, &st.colbuf, out);
}

/// Asserts Scalar/Bulk equality of a phase and (unless `smoke`) times it.
fn compare_phase(
    name: &str,
    csr: &Csr,
    smoke: bool,
    run: impl Fn(&mut PhaseState, AccessMode),
) -> Option<ModePair> {
    let mut scalar = phase_state(csr);
    run(&mut scalar, AccessMode::Scalar);
    let mut bulk = phase_state(csr);
    run(&mut bulk, AccessMode::Bulk);
    assert_eq!(
        scalar.rt.machine().stats(),
        bulk.rt.machine().stats(),
        "{name}: phase counters diverge"
    );
    assert_eq!(
        scalar.rt.now(),
        bulk.rt.now(),
        "{name}: phase clocks diverge"
    );
    assert_eq!(
        scalar.array.to_vec(scalar.rt.machine_mut()),
        bulk.array.to_vec(bulk.rt.machine_mut()),
        "{name}: phase contents diverge"
    );
    println!(
        "equivalence/{name}: ok ({} accesses)",
        bulk.rt.machine().stats().accesses
    );
    if smoke {
        return None;
    }
    let mut mins = Vec::new();
    for (label, mode) in [("scalar", AccessMode::Scalar), ("bulk", AccessMode::Bulk)] {
        let r = bench_with_setup(
            &format!("phase/{name}/{label}"),
            SAMPLES,
            || phase_state(csr),
            |mut st| {
                run(&mut st, mode);
                black_box(st)
            },
        );
        mins.push(r.min_ns());
    }
    let pair = ModePair {
        scalar_ns: mins[0],
        bulk_ns: mins[1],
        accesses: bulk.rt.machine().stats().accesses,
    };
    println!("phase/{name}: bulk speedup {:.2}x\n", pair.speedup());
    Some(pair)
}

/// Runs `iters` iterations at `cores` simulated cores and returns the
/// checksum (used by the sweep's invariance assertion).
fn checksum_at_cores(csr: &Csr, make: &Make, cores: usize) -> f64 {
    let (mut rt, mut kernel) = fresh_kernel(csr, make);
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    kernel.checksum(&mut rt)
}

/// One kernel's core-count sweep: asserts checksum invariance across
/// 1/2/4 simulated cores, then (unless `smoke`) times 1-core vs 4-core
/// iterations and returns `(cores1_min_ns, cores4_min_ns)`.
fn core_sweep(name: &str, csr: &Csr, smoke: bool, make: &Make) -> Option<(f64, f64)> {
    let scalar = checksum_at_cores(csr, make, 1);
    for cores in [2usize, 4] {
        let sharded = checksum_at_cores(csr, make, cores);
        assert_eq!(
            scalar.to_bits(),
            sharded.to_bits(),
            "{name}: checksum diverges at {cores} cores"
        );
    }
    println!("core_sweep/{name}: checksums invariant across 1/2/4 cores");
    if smoke {
        return None;
    }
    let mut mins = Vec::new();
    for cores in [1usize, 4] {
        let r = bench_with_setup(
            &format!("core_sweep/{name}/cores{cores}"),
            SAMPLES,
            || fresh_kernel(csr, make),
            |(mut rt, mut kernel)| {
                kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
                black_box((rt, kernel))
            },
        );
        mins.push(r.min_ns());
    }
    let speedup = mins[0] / mins[1];
    println!("core_sweep/{name}: 4-core speedup {speedup:.2}x\n");
    Some((mins[0], mins[1]))
}

/// Host nanoseconds per [`Tlb::access`] on a uniform stream over five
/// times `entries` distinct keys (so about one lookup in five hits and
/// every miss evicts), and the hit ratio the TLB reported.
fn tlb_thrash(entries: usize, lookups: usize) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(entries as u64);
    let keys: Vec<u64> = (0..lookups)
        .map(|_| rng.gen_range(0..5 * entries as u64) << 2)
        .collect();
    let mut ratio = 0.0;
    let r = bench_with_setup(
        &format!("translation/tlb_thrash/{entries}"),
        SAMPLES,
        || Tlb::new(entries),
        |mut tlb| {
            for &k in &keys {
                black_box(tlb.access(k));
            }
            ratio = tlb.hits() as f64 / lookups as f64;
            tlb
        },
    );
    (r.min_ns() / lookups as f64, ratio)
}

/// Host nanoseconds per scalar `TrackedVec::get` on one random index
/// stream over an 8 MiB array: on its contiguous huge mappings, then after
/// `mbind` moved it page by page onto scattered single-page mappings.
fn fragmented_get(gets: usize) -> (f64, f64) {
    const LEN: usize = 1 << 20;
    let mut machine = Machine::new(Platform::nvm_dram());
    let v = TrackedVec::<u64>::new(&mut machine, LEN, Placement::Slow).expect("alloc");
    // Real bytes on both sides: untouched host pages would all read the
    // kernel's one zero page and flatter the contiguous case.
    v.fill(&mut machine, 1);
    let mut rng = SmallRng::seed_from_u64(7);
    let stream: Vec<usize> = (0..gets).map(|_| rng.gen_range(0..LEN)).collect();
    let time = |label: &str, machine: &mut Machine| {
        let r = bench(&format!("translation/get/{label}"), SAMPLES, || {
            for &i in &stream {
                black_box(v.get(machine, i));
            }
        });
        r.min_ns() / gets as f64
    };
    let contiguous = time("contiguous", &mut machine);
    let pages = VirtRange::new(v.range().start, LEN * 8);
    machine
        .migrate_mbind(pages, TierId::FAST)
        .expect("mbind splinter");
    let fragmented = time("fragmented", &mut machine);
    (contiguous, fragmented)
}

/// Host nanoseconds per [`Cache::access`] on a uniform read stream over
/// `100 / hit_pct` times the cache's line count (under LRU a uniform stream
/// hits with probability capacity / footprint), and the hit ratio the cache
/// reported.
fn llc_probe(config: CacheConfig, hit_pct: usize, probes: usize) -> (f64, f64) {
    let lines = (config.size / config.line * 100 / hit_pct) as u64;
    let mut rng = SmallRng::seed_from_u64(lines);
    let stream: Vec<PhysAddr> = (0..probes)
        .map(|_| PhysAddr::new(rng.gen_range(0..lines) * config.line as u64))
        .collect();
    let mut ratio = 0.0;
    let r = bench_with_setup(
        &format!("llc/{}way/hit{hit_pct}", config.assoc),
        SAMPLES,
        || Cache::new(config),
        |mut llc| {
            for &pa in &stream {
                black_box(llc.access(pa, false));
            }
            ratio = llc.read_hits() as f64 / probes as f64;
            llc
        },
    );
    (r.min_ns() / probes as f64, ratio)
}

/// First `model name` of `/proc/cpuinfo`, for the snapshot's fingerprint.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hand-rolled JSON snapshot of the run's measurements (no serde in-tree).
fn write_snapshot(path: &str, smoke: bool, entries: &[(String, f64)]) {
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        host_parallelism()
    ));
    body.push_str(&format!("  \"cpu_model\": \"{}\",\n", cpu_model()));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    body.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    body.push_str("  \"measurements\": {\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        body.push_str(&format!("    \"{key}\": {value}{sep}\n"));
    }
    body.push_str("  }\n}\n");
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let mut smoke = false;
    let mut json_path = BASELINE_PATH.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--json" => json_path = args.next().expect("missing value for --json"),
            _ => {}
        }
    }
    let baseline = Baseline::load();
    let weighted = bench_graph(true, smoke);
    let plain = bench_graph(false, smoke);

    let make_spmv = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(Spmv::new(rt, g).expect("kernel"))
    };
    let make_pr = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(PageRank::new(rt, g).expect("kernel"))
    };
    let make_prpull = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        Box::new(PageRankPull::new(rt, csr).expect("kernel"))
    };

    assert_modes_agree("SpMV", &weighted, &make_spmv);
    assert_modes_agree("PR", &plain, &make_pr);
    assert_modes_agree("PR-pull", &plain, &make_prpull);
    let pr_scatter = compare_phase("PR-scatter", &plain, smoke, pr_scatter_phase);
    let spmv_gather = compare_phase("SpMV-gather", &weighted, smoke, |st, mode| {
        let mut out = Vec::new();
        spmv_gather_phase(st, &mut out, mode);
        black_box(out);
    });

    // Core-count sweep: output invariance always, timings unless --smoke.
    // The traversal kernels run their frontier-sharded bodies here — the
    // smoke half is the CI gate that distances/scores survive the
    // partition bit-for-bit at 1/2/4 cores.
    let trav = traversal_graph(false, smoke);
    let trav_weighted = traversal_graph(true, smoke);
    let make_bfs = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(Bfs::new(rt, g, 0).expect("kernel"))
    };
    let make_sssp = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(Sssp::new(rt, g, 0).expect("kernel"))
    };
    let make_bc = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(Bc::new(rt, g, 0).expect("kernel"))
    };
    assert_modes_agree("BFS", &trav, &make_bfs);
    let pr_sweep = core_sweep("PR", &plain, smoke, &make_pr);
    let spmv_sweep = core_sweep("SpMV", &weighted, smoke, &make_spmv);
    let bfs_sweep = core_sweep("BFS", &trav, smoke, &make_bfs);
    let sssp_sweep = core_sweep("SSSP", &trav_weighted, smoke, &make_sssp);
    let bc_sweep = core_sweep("BC", &trav, smoke, &make_bc);

    // Translation front-end, absolute ns (ungated and shortened under
    // --smoke).
    let lookups = if smoke { 1 << 14 } else { 1 << 20 };
    let (tlb_512, tlb_512_hits) = tlb_thrash(512, lookups);
    let (tlb_4096, tlb_4096_hits) = tlb_thrash(4096, lookups);
    let (get_contiguous, get_fragmented) = fragmented_get(lookups >> 2);
    println!(
        "translation: tlb {tlb_512:.1} ns @512 ({tlb_512_hits:.2} hits), \
         {tlb_4096:.1} ns @4096 ({tlb_4096_hits:.2} hits); \
         get {get_contiguous:.1} ns contiguous, {get_fragmented:.1} ns fragmented\n"
    );

    // LLC model, absolute ns per probe at the two preset geometries
    // (ungated and shortened under --smoke): `(ways, hit %, ns, ratio)`.
    let mut llc = Vec::new();
    for config in [
        CacheConfig::new(128 * 1024, 16, 64),
        CacheConfig::new(64 * 1024, 8, 64),
    ] {
        for hit_pct in [25, 50, 85] {
            let (ns, ratio) = llc_probe(config, hit_pct, lookups);
            llc.push((config.assoc, hit_pct, ns, ratio));
        }
    }
    for &(ways, hit_pct, ns, ratio) in &llc {
        println!("llc: {ways}-way @ ~{hit_pct} % hits: {ns:.1} ns/probe ({ratio:.2} hits)");
    }
    println!();

    if smoke {
        write_snapshot(&json_path, smoke, &[]);
        println!("smoke run: equivalence checks passed, timing gates skipped");
        println!("snapshot: {json_path}");
        return;
    }

    let spmv_iter = compare_modes("SpMV", &weighted, &make_spmv);
    let pr_iter = compare_modes("PR", &plain, &make_pr);
    let pr_scatter = pr_scatter.expect("timed unless --smoke");
    let spmv_gather = spmv_gather.expect("timed unless --smoke");

    // Each pair's ratio (information only) and its two sides in absolute
    // time: a ratio alone cannot say whether the window engine or the
    // scalar path moved, and the bulk side is what the gates below read.
    let pairs = [
        ("SpMV", "iteration_SpMV", spmv_iter),
        ("PR", "iteration_PR", pr_iter),
        ("PR_scatter", "phase_PR_scatter", pr_scatter),
        ("SpMV_gather", "phase_SpMV_gather", spmv_gather),
    ];
    let mut entries = Vec::new();
    for (short, long, pair) in pairs {
        entries.push((format!("bulk_speedup_{short}"), pair.speedup()));
        entries.push((format!("{long}_scalar_ns"), pair.scalar_ns));
        entries.push((format!("{long}_bulk_ns"), pair.bulk_ns));
        entries.push((format!("{long}_accesses"), pair.accesses as f64));
    }
    for (name, sweep) in [
        ("PR", pr_sweep),
        ("SpMV", spmv_sweep),
        ("BFS", bfs_sweep),
        ("SSSP", sssp_sweep),
        ("BC", bc_sweep),
    ] {
        if let Some((one, four)) = sweep {
            entries.push((format!("core_sweep_{name}_cores1_ns"), one));
            entries.push((format!("core_sweep_{name}_cores4_ns"), four));
            entries.push((format!("core_sweep_{name}_speedup"), one / four));
        }
    }
    entries.extend([
        ("tlb_thrash_512_ns_per_lookup".to_string(), tlb_512),
        ("tlb_thrash_512_hit_ratio".to_string(), tlb_512_hits),
        ("tlb_thrash_4096_ns_per_lookup".to_string(), tlb_4096),
        ("tlb_thrash_4096_hit_ratio".to_string(), tlb_4096_hits),
        ("get_contiguous_ns_per_access".to_string(), get_contiguous),
        ("get_fragmented_ns_per_access".to_string(), get_fragmented),
    ]);
    for &(ways, hit_pct, ns, ratio) in &llc {
        entries.push((format!("llc_{ways}way_hit{hit_pct}_ns_per_probe"), ns));
        entries.push((format!("llc_{ways}way_hit{hit_pct}_hit_ratio"), ratio));
    }
    write_snapshot(&json_path, smoke, &entries);
    println!("snapshot: {json_path}");

    assert!(
        tlb_4096 <= 2.0 * tlb_512,
        "TLB lookup cost must not grow with capacity: {tlb_4096:.1} ns at 4096 \
         entries vs {tlb_512:.1} ns at 512"
    );
    for (&(_, hit_pct, ns16, _), &(_, _, ns8, _)) in llc[..3].iter().zip(&llc[3..]) {
        assert!(
            ns8 <= 1.25 * ns16,
            "an LLC probe must not cost more at 8 ways than at 16 (~{hit_pct} % hits): \
             {ns8:.1} ns vs {ns16:.1} ns"
        );
    }
    for (short, long, pair) in pairs {
        baseline.gate(short, &format!("{long}_bulk_ns"), pair.bulk_ns);
    }
    println!(
        "get fragmented/contiguous: {:.2}x (information only)",
        get_fragmented / get_contiguous
    );
    baseline.gate(
        "get_fragmented",
        "get_fragmented_ns_per_access",
        get_fragmented,
    );

    // The sharded-engine wall-clock gate needs real hardware threads to
    // shard over; on smaller hosts the sweep still reports, but only the
    // invariance half gates.
    if host_parallelism() >= 4 {
        for (name, sweep) in [("PR", pr_sweep), ("SpMV", spmv_sweep)] {
            let (one, four) = sweep.expect("sweep timings present outside --smoke");
            let speedup = one / four;
            assert!(
                speedup >= 2.0,
                "{name} at 4 simulated cores must be >= 2x faster wall-clock, got {speedup:.2}x"
            );
        }
        // Frontier-sharded traversals pay a fork/merge barrier per level,
        // so the bar is lower than the streaming kernels' 2x — but at
        // least one of them must come out ahead of scalar wall-clock.
        let best = [("BFS", bfs_sweep), ("SSSP", sssp_sweep), ("BC", bc_sweep)]
            .into_iter()
            .map(|(name, sweep)| {
                let (one, four) = sweep.expect("sweep timings present outside --smoke");
                (name, one / four)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("traversal sweeps ran");
        assert!(
            best.1 >= 1.1,
            "at least one frontier-sharded traversal kernel must beat scalar \
             wall-clock at 4 cores; best was {} at {:.2}x",
            best.0,
            best.1
        );
        println!(
            "core_sweep traversal gate: best {} at {:.2}x",
            best.0, best.1
        );
    } else {
        println!(
            "core-sweep timing gate skipped: host parallelism {} < 4",
            host_parallelism()
        );
    }
}
