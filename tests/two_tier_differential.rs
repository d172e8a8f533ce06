//! Differential gate for the N-tier generalization.
//!
//! The tier-set redesign must not perturb the paper reproduction: on every
//! pre-existing two-tier preset, the full protocol (`run_protocol_cores`)
//! and the raw machine access path must produce **bit-identical** results
//! to the pre-redesign code. The digests below were captured on the
//! two-tier implementation immediately before the tier-vector refactor
//! landed; the tests recompute them on the current code and compare
//! exactly — f64s by bit pattern, never by epsilon.
//!
//! A digest folds in the kernel checksum, both iteration times, the
//! data ratio, every machine counter of iteration 2, the profile summary
//! and the migration totals; the machine-level digest folds the PEBS
//! sample stream (every sampled address, in order) and the simulated
//! clock. Any change to cost composition, sampling, planning order or
//! placement on a two-tier machine shows up here.

use atmem::AtmemConfig;
use atmem_apps::{run_protocol_cores, App, Mode};
use atmem_graph::Dataset;
use atmem_hms::{Machine, MemPort, Placement, Platform};

/// FNV-1a over a stream of u64 words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        let mut h = self.0;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }

    fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }
}

/// The two-tier presets the paper reproduction runs on.
fn presets() -> Vec<(&'static str, Platform)> {
    vec![
        ("nvm_dram", Platform::nvm_dram()),
        ("mcdram_dram", Platform::mcdram_dram()),
        ("cxl_dram", Platform::cxl_dram()),
        ("testing", Platform::testing()),
    ]
}

/// Digest of one full ATMem protocol run (profile, optimize, measure).
fn protocol_digest(platform: Platform, app: App, cores: usize) -> u64 {
    let g = Dataset::Twitter.build_small(7);
    let csr = if app.needs_weights() {
        g.with_random_weights(16.0, 1)
    } else {
        g
    };
    let r = run_protocol_cores(
        platform,
        AtmemConfig::default(),
        &csr,
        app,
        Mode::Atmem,
        cores,
    )
    .expect("protocol run failed");
    let mut d = Digest::new();
    d.push_f64(r.first_iter.as_ns());
    d.push_f64(r.second_iter.as_ns());
    d.push_f64(r.checksum);
    d.push_f64(r.data_ratio);
    let s = &r.second_iter_stats;
    d.push_f64(s.time_ns);
    for c in [
        s.accesses,
        s.reads,
        s.writes,
        s.llc_read_hits,
        s.llc_read_misses,
        s.llc_write_hits,
        s.llc_write_misses,
        s.tlb_hits,
        s.tlb_misses,
        s.bytes_used[0],
        s.bytes_used[1],
        s.bytes_migrated,
    ] {
        d.push(c);
    }
    let opt = r.optimize.expect("atmem mode always optimizes");
    d.push(opt.profile.samples);
    d.push(opt.profile.attributed);
    d.push(opt.profile.period);
    d.push(opt.migration.bytes_moved as u64);
    d.push(opt.migration.regions as u64);
    d.push(opt.migration.regions_skipped as u64);
    d.push(opt.migration.regions_failed as u64);
    d.push(opt.total_bytes as u64);
    assert!(r.audit.is_empty(), "audit violations: {:?}", r.audit);
    d.0
}

/// Digest of a raw machine scenario: a preferred-placement allocation that
/// spills across the tier boundary, a strided accounted read/write mix
/// under PEBS sampling, and the drained sample stream address by address.
fn machine_digest(platform: Platform) -> u64 {
    let mut m = Machine::new(platform);
    m.pebs_enable(64, 16);
    let bytes = 1 << 20;
    let fast = m
        .alloc(bytes, Placement::Preferred(atmem_hms::TierId::FAST))
        .unwrap();
    let slow = m.alloc(bytes, Placement::Slow).unwrap();
    for i in 0..(bytes / 8) as u64 {
        m.poke::<u64>(slow.start.add(i * 8), i.wrapping_mul(0x9E37_79B9))
            .unwrap();
    }
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        let idx = (i.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) % (bytes as u64 / 8);
        acc = acc.wrapping_add(m.read::<u64>(slow.start.add(idx * 8)).unwrap());
        if i % 3 == 0 {
            m.write::<u64>(fast.start.add((idx % 512) * 8), acc)
                .unwrap();
        }
    }
    let mut d = Digest::new();
    d.push(acc);
    d.push_f64(m.now().as_ns());
    let s = m.stats();
    for c in [
        s.accesses,
        s.llc_read_misses,
        s.tlb_misses,
        s.bytes_used[0],
        s.bytes_used[1],
    ] {
        d.push(c);
    }
    for rec in m.pebs_drain() {
        d.push(rec.vaddr.raw());
    }
    assert!(m.audit().is_empty(), "audit violations: {:?}", m.audit());
    d.0
}

/// Pinned digests captured on the two-tier implementation. See the module
/// docs; regenerate with `print_current_digests` only when an intentional
/// simulation change lands (and say so in the changelog).
///
/// The BFS column was re-captured when the scalar BFS body moved to
/// level-synchronous expansion (one distance-gather window and one
/// level-scatter window per frontier level, matching the sharded body's
/// expand/settle structure) for the compiled-plan tier: distances and
/// frontiers are unchanged, but the access *order* — and therefore the
/// clock/TLB/LLC digest — legitimately moved. The PageRank (sharded) and
/// machine-scenario columns were bit-identical across that change.
const PINNED: &[(&str, u64, u64, u64)] = &[
    // (preset, bfs cores=1, pagerank cores=2, machine scenario)
    (
        "nvm_dram",
        0x735ea368e35ad249,
        0xb1e86cf53393436a,
        0xda1df6511ac1eeca,
    ),
    (
        "mcdram_dram",
        0xa27304b3cd97f0fe,
        0x730a159bdc601a3a,
        0xf53c358648212fe5,
    ),
    (
        "cxl_dram",
        0xf17224ed15f6b7e8,
        0x65bd962c8d639675,
        0x49cde2ab057434de,
    ),
    (
        "testing",
        0x8d26fe212f8975fe,
        0xb1e86cf53393436a,
        0xf1407620f4f8f2d9,
    ),
];

/// Prints the digests of the current build (capture helper; always passes).
#[test]
#[ignore = "capture helper: run with --ignored --nocapture to regenerate PINNED"]
fn print_current_digests() {
    for (name, platform) in presets() {
        let a = protocol_digest(platform.clone(), App::Bfs, 1);
        let b = protocol_digest(platform.clone(), App::PageRank, 2);
        let c = machine_digest(platform);
        println!("    (\"{name}\", 0x{a:016x}, 0x{b:016x}, 0x{c:016x}),");
    }
}

#[test]
fn two_tier_protocol_results_are_bit_identical_to_pre_redesign() {
    for (name, platform) in presets() {
        let pinned = PINNED
            .iter()
            .find(|p| p.0 == name)
            .unwrap_or_else(|| panic!("no pinned digest for {name}"));
        let a = protocol_digest(platform.clone(), App::Bfs, 1);
        assert_eq!(
            a, pinned.1,
            "{name}: BFS protocol digest diverged (0x{a:016x} != 0x{:016x})",
            pinned.1
        );
        let b = protocol_digest(platform.clone(), App::PageRank, 2);
        assert_eq!(
            b, pinned.2,
            "{name}: PageRank cores=2 digest diverged (0x{b:016x} != 0x{:016x})",
            pinned.2
        );
    }
}

#[test]
fn two_tier_machine_access_path_is_bit_identical_to_pre_redesign() {
    for (name, platform) in presets() {
        let pinned = PINNED
            .iter()
            .find(|p| p.0 == name)
            .unwrap_or_else(|| panic!("no pinned digest for {name}"));
        let c = machine_digest(platform);
        assert_eq!(
            c, pinned.3,
            "{name}: machine/PEBS digest diverged (0x{c:016x} != 0x{:016x})",
            pinned.3
        );
    }
}
