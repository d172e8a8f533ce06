//! Calibrated platform presets for the paper testbeds and N-tier machines.
//!
//! Every constant is taken from, or derived from, numbers the paper reports
//! (§2.1, §6 Table 1, §7.3) and public spec sheets it cites. Capacities are
//! scaled down 1024x (`CAPACITY_SCALE` in the comments below) together with
//! the graph datasets (see `atmem-graph::datasets`) so a full figure sweep
//! runs on a laptop: the real machines have 96 GiB DRAM / 768 GiB NVM
//! (Optane testbed) and 16 GiB MCDRAM / 96 GiB DRAM (KNL). The *ratios*
//! between tiers — which drive every placement decision — and capacity
//! pressure (which graphs fit in the fast tier) are kept.
//!
//! A platform is an **ordered set of tiers**, hottest first: `tiers[0]` is
//! the small high-performance tier, `tiers[len - 1]` the large cold one.
//! The paper's two testbeds are the two-tier special case; the
//! [`Platform::hbm_dram_cxl`] and [`Platform::hbm_dram_cxl_nvm`] presets
//! model the HBM + DRAM + CXL (+ NVM) pools that ATMem-style placement
//! targets today. A per-pair link-bandwidth matrix caps migration streams
//! between specific tier pairs (e.g. a peer-to-peer HBM→CXL copy that must
//! cross both the on-package mesh and the CXL link); `f64::INFINITY`
//! means the copy speed is set purely by the endpoint tiers, which keeps
//! every two-tier preset bit-identical to the pre-N-tier model.

use crate::cache::CacheConfig;
use crate::cost::CostModel;
use crate::shard::MAX_TIERS;
use crate::tier::{TierId, TierSpec};

/// A complete description of a simulated heterogeneous memory machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Short machine name used in reports, e.g. `"NVM-DRAM"`.
    pub name: String,
    /// Ordered tier set, hottest first. `tiers[0]` is the tier
    /// [`TierId::FAST`] addresses; the last entry is the coldest
    /// (largest-capacity) tier, which [`TierId::SLOW`] addresses on the
    /// two-tier presets.
    ///
    /// [`TierId::FAST`]: crate::TierId::FAST
    /// [`TierId::SLOW`]: crate::TierId::SLOW
    pub tiers: Vec<TierSpec>,
    /// Per-pair migration-path bandwidth caps in bytes/ns:
    /// `link_bw[src][dst]` caps any copy stream from tier `src` to tier
    /// `dst`, on top of the endpoint tiers' own copy bandwidths.
    /// `f64::INFINITY` (the default everywhere on the two-tier presets)
    /// means no interconnect cap.
    pub(crate) link_bw: Vec<Vec<f64>>,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
    /// TLB entry count.
    pub tlb_entries: usize,
    /// Access cost constants.
    pub cost: CostModel,
    /// Whether allocations of 2 MiB or more use huge mappings. The Optane
    /// testbed runs with transparent huge pages; on KNL the flat-mode
    /// MCDRAM experiments in the paper show a much smaller TLB effect
    /// (Table 4), which we reproduce by restricting huge mappings there.
    pub(crate) huge_pages: bool,
    /// Single-thread copy bandwidth of the `mbind`-style system service in
    /// bytes/ns, including kernel bookkeeping. Calibrated so that the
    /// staged-migration speedups land in the paper's reported bands
    /// (Table 4: 1.3–2.7x on NVM-DRAM, 3.0–8.2x on MCDRAM-DRAM).
    pub(crate) mbind_copy_bw: f64,
    /// Fixed per-page overhead of the system service, nanoseconds
    /// (page allocation, rmap update, TLB shootdown IPI).
    pub(crate) mbind_page_overhead_ns: f64,
    /// TLB coalescing factor: contiguous base pages covered by one mapping
    /// share a TLB entry in groups of this many pages (1 = no coalescing).
    /// Models the limited coalescing of KNL-class cores, which is what
    /// gives `mbind` its (modest) TLB penalty on the MCDRAM testbed where
    /// huge pages are not in play (Table 4).
    pub tlb_coalesce: usize,
    /// Threads used by the ATMem staged migration (§6: 48 hardware threads
    /// on the Optane socket, 256 on KNL — we use the cores that matter for
    /// bandwidth saturation).
    pub migration_threads: usize,
}

/// An all-infinite link matrix for `n` tiers (no interconnect caps).
fn uncapped_links(n: usize) -> Vec<Vec<f64>> {
    vec![vec![f64::INFINITY; n]; n]
}

impl Platform {
    /// The Intel Xeon Platinum 8260L testbed: DDR4 DRAM (fast tier) next to
    /// Optane DC NVM in App Direct mode (slow tier).
    ///
    /// Paper constants: DRAM 104 GB/s, NVM 39 GB/s read / ~13 GB/s write,
    /// NVM latency ≈ 3x DRAM (§2.1); 35.75 MiB shared L3, 48 hardware
    /// threads (§6, Table 1).
    pub fn nvm_dram() -> Self {
        Platform {
            name: "NVM-DRAM".to_string(),
            tiers: vec![
                // 96 GiB / CAPACITY_SCALE = 96 MiB.
                TierSpec::new("DRAM", 96 * 1024 * 1024, 80.0, 104.0, 80.0, 6.0)
                    .with_random_bw_factor(0.9),
                // 768 GiB / CAPACITY_SCALE = 768 MiB. Random concurrent
                // reads reach ~30% of the sequential peak on Optane.
                TierSpec::new("Optane-NVM", 768 * 1024 * 1024, 240.0, 39.0, 13.0, 6.0)
                    .with_random_bw_factor(0.30),
            ],
            link_bw: uncapped_links(2),
            // 35.75 MiB L3 scaled like the datasets (the paper's hot
            // regions are ~10-50x the LLC; keeping that ratio is what makes
            // fine-grained placement observable at simulation scale).
            llc: CacheConfig::new(128 * 1024, 16, 64),
            // 1536 entries on the real part; scaled so that TLB reach
            // relative to dataset size matches the testbed (a splintered
            // hot region must overflow the TLB, as it does in Table 4).
            tlb_entries: 512,
            cost: CostModel::new(18.0, 60.0, 48),
            huge_pages: true,
            tlb_coalesce: 1,
            // Single kernel thread on a 2.4 GHz Xeon; with the per-page
            // bookkeeping below this lands the staged-migration speedup in
            // Table 4's NVM-DRAM band (1.3-2.7x).
            mbind_copy_bw: 12.0,
            mbind_page_overhead_ns: 200.0,
            migration_threads: 48,
        }
    }

    /// The Intel Knights Landing (Xeon Phi 7200) testbed: MCDRAM in flat
    /// mode (fast tier) next to DDR4 DRAM (slow tier).
    ///
    /// Paper constants: MCDRAM 400 GB/s, DDR4 ~90 GB/s (§2.1, §7.3);
    /// 16 GiB MCDRAM / 96 GiB DRAM (Table 1); weak 1.1 GHz cores make the
    /// single-threaded system service far slower than on the Xeon, which is
    /// why Table 4 shows larger migration speedups on this machine.
    pub fn mcdram_dram() -> Self {
        Platform {
            name: "MCDRAM-DRAM".to_string(),
            tiers: vec![
                // 16 GiB / CAPACITY_SCALE = 16 MiB.
                TierSpec::new("MCDRAM", 16 * 1024 * 1024, 150.0, 400.0, 380.0, 1.8)
                    .with_random_bw_factor(0.85),
                // 96 GiB / CAPACITY_SCALE = 96 MiB.
                TierSpec::new("DRAM", 96 * 1024 * 1024, 130.0, 90.0, 60.0, 1.8)
                    .with_random_bw_factor(0.9),
            ],
            link_bw: uncapped_links(2),
            // 512 KiB private L2 per tile; modelled aggregate scaled to the
            // same dataset scale as above.
            llc: CacheConfig::new(64 * 1024, 8, 64),
            // Scaled like the NVM testbed's (see above).
            tlb_entries: 4096,
            // 256 hardware threads; ~128 concurrently issuing memory ops.
            cost: CostModel::new(25.0, 70.0, 128),
            huge_pages: false,
            tlb_coalesce: 8,
            // Calibrated to land the staged-migration speedup in Table 4's
            // MCDRAM-DRAM band (3.0-8.2x): the weak in-order core cannot
            // come close to MCDRAM bandwidth single-threaded.
            mbind_copy_bw: 5.0,
            mbind_page_overhead_ns: 200.0,
            migration_threads: 64,
        }
    }

    /// A CXL-attached-memory machine: local DDR5 (fast tier) next to a
    /// CXL 1.1 Type-3 memory expander (slow tier). Not one of the paper's
    /// testbeds — provided because CXL is the heterogeneous memory system
    /// ATMem-style placement targets today: roughly double the load
    /// latency of local DRAM and about half the bandwidth through the
    /// x8 link, with no huge-page or kernel-service pathologies beyond
    /// the NUMA ones. Constants follow published CXL expander
    /// characterisations (~170-250 ns load-to-use, 20-30 GB/s per x8).
    pub fn cxl_dram() -> Self {
        Platform {
            name: "CXL-DRAM".to_string(),
            tiers: vec![
                // 64 GiB local / CAPACITY_SCALE.
                TierSpec::new("DDR5", 64 * 1024 * 1024, 70.0, 120.0, 100.0, 8.0)
                    .with_random_bw_factor(0.9),
                // 256 GiB expander / CAPACITY_SCALE.
                TierSpec::new("CXL-expander", 256 * 1024 * 1024, 190.0, 28.0, 24.0, 8.0)
                    .with_random_bw_factor(0.7),
            ],
            link_bw: uncapped_links(2),
            llc: CacheConfig::new(128 * 1024, 16, 64),
            tlb_entries: 512,
            cost: CostModel::new(16.0, 55.0, 32),
            huge_pages: true,
            tlb_coalesce: 1,
            mbind_copy_bw: 14.0,
            mbind_page_overhead_ns: 200.0,
            migration_threads: 32,
        }
    }

    /// A three-tier HBM + DRAM + CXL machine, the contemporary pool layout
    /// of "Heterogeneous Memory Pool Tuning"-class systems: a small
    /// on-package HBM stack, commodity DDR5, and a CXL Type-3 expander.
    ///
    /// Constants follow public HBM2e and CXL characterisations: HBM at
    /// ~450 GB/s with slightly worse load-to-use than DDR5, the expander
    /// as in [`Platform::cxl_dram`]. The link matrix caps direct HBM↔CXL
    /// copies below the path through DRAM — a peer-to-peer stream crosses
    /// both the on-package mesh and the CXL link — which is what makes
    /// multi-hop (cascaded) demotion plans worth modelling.
    pub fn hbm_dram_cxl() -> Self {
        let mut link_bw = uncapped_links(3);
        // Direct HBM↔CXL copies bottleneck on crossing both interconnects.
        link_bw[0][2] = 18.0;
        link_bw[2][0] = 18.0;
        Platform {
            name: "HBM-DRAM-CXL".to_string(),
            tiers: vec![
                // 16 GiB HBM2e / CAPACITY_SCALE.
                TierSpec::new("HBM", 16 * 1024 * 1024, 110.0, 450.0, 400.0, 2.0)
                    .with_random_bw_factor(0.85),
                // 64 GiB DDR5 / CAPACITY_SCALE.
                TierSpec::new("DRAM", 64 * 1024 * 1024, 70.0, 120.0, 100.0, 8.0)
                    .with_random_bw_factor(0.9),
                // 256 GiB expander / CAPACITY_SCALE.
                TierSpec::new("CXL-expander", 256 * 1024 * 1024, 190.0, 28.0, 24.0, 8.0)
                    .with_random_bw_factor(0.7),
            ],
            link_bw,
            llc: CacheConfig::new(128 * 1024, 16, 64),
            tlb_entries: 512,
            cost: CostModel::new(16.0, 55.0, 64),
            huge_pages: true,
            tlb_coalesce: 1,
            mbind_copy_bw: 14.0,
            mbind_page_overhead_ns: 200.0,
            migration_threads: 32,
        }
    }

    /// A four-tier HBM + DRAM + CXL + NVM machine: the three-tier pool of
    /// [`Platform::hbm_dram_cxl`] with an Optane-class persistent tier
    /// below it, for capacity-cliff experiments where even the expander
    /// overflows. Peer-to-peer copies that skip DRAM are capped harder the
    /// further apart the endpoints sit.
    pub(crate) fn hbm_dram_cxl_nvm() -> Self {
        let mut link_bw = uncapped_links(4);
        link_bw[0][2] = 18.0;
        link_bw[2][0] = 18.0;
        link_bw[0][3] = 10.0;
        link_bw[3][0] = 10.0;
        link_bw[2][3] = 8.0;
        link_bw[3][2] = 8.0;
        let mut p = Platform::hbm_dram_cxl();
        p.name = "HBM-DRAM-CXL-NVM".to_string();
        p.tiers.push(
            // 768 GiB / CAPACITY_SCALE.
            TierSpec::new("Optane-NVM", 768 * 1024 * 1024, 240.0, 39.0, 13.0, 6.0)
                .with_random_bw_factor(0.30),
        );
        p.link_bw = link_bw;
        p
    }

    /// A tiny platform for unit tests: two small tiers, small cache and TLB,
    /// deterministic and fast.
    pub fn testing() -> Self {
        Platform {
            name: "testing".to_string(),
            tiers: vec![
                TierSpec::new("fastmem", 4 * 1024 * 1024, 80.0, 104.0, 80.0, 6.0)
                    .with_random_bw_factor(0.9),
                TierSpec::new("slowmem", 32 * 1024 * 1024, 240.0, 39.0, 13.0, 6.0)
                    .with_random_bw_factor(0.30),
            ],
            link_bw: uncapped_links(2),
            llc: CacheConfig::new(16 * 1024, 8, 64),
            tlb_entries: 64,
            cost: CostModel::new(18.0, 60.0, 48),
            huge_pages: true,
            tlb_coalesce: 1,
            mbind_copy_bw: 12.0,
            mbind_page_overhead_ns: 900.0,
            migration_threads: 8,
        }
    }

    /// A tiny three-tier platform for unit tests of multi-hop plans:
    /// hot / warm / cold tiers small enough that cascades trigger quickly.
    pub fn testing_three() -> Self {
        let mut p = Platform::testing();
        p.name = "testing3".to_string();
        p.tiers = vec![
            TierSpec::new("hotmem", 2 * 1024 * 1024, 60.0, 200.0, 160.0, 6.0)
                .with_random_bw_factor(0.9),
            TierSpec::new("warmmem", 4 * 1024 * 1024, 80.0, 104.0, 80.0, 6.0)
                .with_random_bw_factor(0.9),
            TierSpec::new("coldmem", 32 * 1024 * 1024, 240.0, 39.0, 13.0, 6.0)
                .with_random_bw_factor(0.30),
        ];
        p.link_bw = uncapped_links(3);
        // Direct hot↔cold copies pay a modelled interconnect cap.
        p.link_bw[0][2] = 9.0;
        p.link_bw[2][0] = 9.0;
        p
    }

    /// Looks a preset up by its CLI name. Accepted names: `nvm`, `knl`,
    /// `cxl`, `hbm` (three-tier HBM-DRAM-CXL), `quad` (four-tier
    /// HBM-DRAM-CXL-NVM), `testing`, `testing3`.
    pub fn by_name(name: &str) -> Option<Platform> {
        match name {
            "nvm" => Some(Platform::nvm_dram()),
            "knl" => Some(Platform::mcdram_dram()),
            "cxl" => Some(Platform::cxl_dram()),
            "hbm" => Some(Platform::hbm_dram_cxl()),
            "quad" => Some(Platform::hbm_dram_cxl_nvm()),
            "testing" => Some(Platform::testing()),
            "testing3" => Some(Platform::testing_three()),
            _ => None,
        }
    }

    /// The CLI names [`Platform::by_name`] accepts, for usage strings.
    pub const PRESET_NAMES: &'static [&'static str] =
        &["nvm", "knl", "cxl", "hbm", "quad", "testing", "testing3"];

    /// The spec of the hottest tier (`tiers[0]`).
    pub fn fast(&self) -> &TierSpec {
        &self.tiers[0]
    }

    /// The spec of the coldest tier (`tiers[len - 1]`).
    pub fn slow(&self) -> &TierSpec {
        self.tiers.last().expect("platform has no tiers")
    }

    /// The display name of `tier`, from its [`TierSpec`]; falls back to the
    /// positional `tier{i}` form when the index is out of range (e.g. a
    /// stale id carried across platforms).
    pub(crate) fn tier_name(&self, tier: TierId) -> String {
        self.tiers
            .get(tier.index())
            .map_or_else(|| tier.to_string(), |spec| spec.name.clone())
    }

    /// The migration-path bandwidth cap between `src` and `dst`, bytes/ns.
    /// `f64::INFINITY` when the pair is uncapped or out of range.
    pub(crate) fn link_cap(&self, src: TierId, dst: TierId) -> f64 {
        self.link_bw
            .get(src.index())
            .and_then(|row| row.get(dst.index()))
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Returns a copy with the hottest and coldest tier capacities replaced
    /// (bytes). Useful for capacity-sensitivity experiments such as
    /// Figure 10.
    #[must_use]
    pub fn with_capacities(mut self, fast: usize, slow: usize) -> Self {
        self.tiers
            .first_mut()
            .expect("platform has no tiers")
            .capacity = fast;
        self.tiers
            .last_mut()
            .expect("platform has no tiers")
            .capacity = slow;
        self
    }

    /// Returns a copy with every tier capacity replaced (bytes),
    /// hottest-first.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` does not have one entry per tier.
    #[must_use]
    pub fn with_tier_capacities(mut self, capacities: &[usize]) -> Self {
        assert_eq!(
            capacities.len(),
            self.tiers.len(),
            "one capacity per tier required"
        );
        for (tier, &cap) in self.tiers.iter_mut().zip(capacities) {
            tier.capacity = cap;
        }
        self
    }

    /// Checks every value a machine is built from, naming the first bad
    /// one: [`with_capacities`](Platform::with_capacities),
    /// [`with_tier_capacities`](Platform::with_tier_capacities) and the
    /// public fields bypass [`TierSpec::new`] and [`CostModel::new`], so
    /// [`Machine::new`](crate::Machine::new) runs their checks again here,
    /// and those of the machine-wide values: 1 to
    /// [`MAX_TIERS`](crate::MAX_TIERS) tiers, a positive `mbind_copy_bw`, a
    /// finite non-negative `mbind_page_overhead_ns`, a tier-count square
    /// `link_bw` of positive entries (`+∞` = uncapped) and at least one
    /// migration thread.
    pub(crate) fn check(&self) {
        let n = self.tiers.len();
        assert!(
            (1..=MAX_TIERS).contains(&n),
            "platform `{}` must have 1..={MAX_TIERS} tiers",
            self.name
        );
        self.tiers.iter().for_each(TierSpec::check);
        self.cost.check();
        let (bw, overhead) = (self.mbind_copy_bw, self.mbind_page_overhead_ns);
        assert!(bw > 0.0, "mbind_copy_bw {bw} must be positive");
        assert!(
            overhead.is_finite() && overhead >= 0.0,
            "mbind_page_overhead_ns {overhead} must be finite and non-negative"
        );
        assert!(
            self.link_bw.len() == n && self.link_bw.iter().all(|row| row.len() == n),
            "link_bw matrix must be tier-count square"
        );
        for (src, row) in self.link_bw.iter().enumerate() {
            for (dst, &bw) in row.iter().enumerate() {
                assert!(bw > 0.0, "link_bw[{src}][{dst}] {bw} must be positive");
            }
        }
        assert!(
            self.migration_threads >= 1,
            "migration_threads must be at least 1"
        );
    }

    /// Returns a copy with a different LLC geometry.
    #[must_use]
    pub fn with_llc(mut self, llc: CacheConfig) -> Self {
        self.llc = llc;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    /// `Machine::new` on the testing platform after `edit`.
    fn build(edit: impl FnOnce(&mut Platform)) -> Machine {
        let mut p = Platform::testing();
        edit(&mut p);
        Machine::new(p)
    }

    #[test]
    #[should_panic(expected = "tier `fastmem` capacity 36865 must be positive and page-aligned")]
    fn an_unaligned_tier_capacity_is_rejected() {
        let p = Platform::testing().with_capacities(36865, 1 << 20);
        let _ = Machine::new(p);
    }

    #[test]
    #[should_panic(expected = "tier `slowmem` write_bw 0 must be positive")]
    fn a_tier_rate_must_be_positive() {
        build(|p| p.tiers[1].write_bw = 0.0);
    }

    #[test]
    #[should_panic(expected = "cost.llc_hit_ns -5 must be finite and positive")]
    fn a_negative_hit_latency_is_rejected() {
        build(|p| p.cost.llc_hit_ns = -5.0);
    }

    #[test]
    #[should_panic(expected = "cost.barrier_ns NaN must be finite and non-negative")]
    fn a_nan_barrier_cost_is_rejected() {
        build(|p| p.cost.barrier_ns = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "cost.remap_ns -2000 must be finite and non-negative")]
    fn a_negative_remap_cost_is_rejected() {
        build(|p| p.cost.remap_ns = -2_000.0);
    }

    #[test]
    #[should_panic(expected = "mbind_copy_bw 0 must be positive")]
    fn a_zero_mbind_bandwidth_is_rejected() {
        build(|p| p.mbind_copy_bw = 0.0);
    }

    #[test]
    #[should_panic(expected = "mbind_page_overhead_ns -1 must be finite and non-negative")]
    fn a_negative_mbind_page_overhead_is_rejected() {
        build(|p| p.mbind_page_overhead_ns = -1.0);
    }

    #[test]
    #[should_panic(expected = "link_bw[0][1] NaN must be positive")]
    fn a_nan_link_bandwidth_is_rejected() {
        build(|p| p.link_bw[0][1] = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "migration_threads must be at least 1")]
    fn zero_migration_threads_are_rejected() {
        build(|p| p.migration_threads = 0);
    }

    #[test]
    fn every_preset_passes_the_check() {
        for name in Platform::PRESET_NAMES {
            let _ = Machine::new(Platform::by_name(name).unwrap());
        }
    }

    #[test]
    fn presets_reflect_paper_ratios() {
        let p = Platform::nvm_dram();
        // NVM latency = 3x DRAM (paper §2.1).
        assert!((p.slow().load_latency_ns / p.fast().load_latency_ns - 3.0).abs() < 1e-9);
        // NVM bandwidth = 38% of DRAM (paper §2.1: 39 vs 104 GB/s).
        assert!((p.slow().read_bw / p.fast().read_bw - 0.375).abs() < 0.01);

        let k = Platform::mcdram_dram();
        // MCDRAM ~ 4.4x DRAM bandwidth (400 vs 90 GB/s).
        assert!(k.fast().read_bw / k.slow().read_bw > 4.0);
        // MCDRAM is the *small* tier on KNL.
        assert!(k.fast().capacity < k.slow().capacity);
    }

    #[test]
    fn capacity_scale_matches_real_machines() {
        const CAPACITY_SCALE: usize = 1024;
        let p = Platform::nvm_dram();
        assert_eq!(p.fast().capacity * CAPACITY_SCALE, 96 * 1024 * 1024 * 1024);
        let k = Platform::mcdram_dram();
        assert_eq!(k.fast().capacity * CAPACITY_SCALE, 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn cxl_preset_sits_between_the_testbeds() {
        let cxl = Platform::cxl_dram();
        let nvm = Platform::nvm_dram();
        // CXL latency gap (~2.7x) is milder than Optane's bandwidth cliff.
        let cxl_gap = cxl.slow().load_latency_ns / cxl.fast().load_latency_ns;
        assert!(cxl_gap > 2.0 && cxl_gap < 3.0, "gap {cxl_gap}");
        assert!(cxl.slow().read_bw < nvm.fast().read_bw);
        assert!(cxl.fast().capacity < cxl.slow().capacity);
    }

    #[test]
    fn builders_override_fields() {
        let p = Platform::testing().with_capacities(1 << 20, 2 << 20);
        assert_eq!(p.fast().capacity, 1 << 20);
        assert_eq!(p.slow().capacity, 2 << 20);
        let p = p.with_llc(CacheConfig::new(32 * 1024, 4, 64));
        assert_eq!(p.llc.sets(), 128);
    }

    #[test]
    fn two_tier_presets_have_uncapped_links() {
        for p in [
            Platform::nvm_dram(),
            Platform::mcdram_dram(),
            Platform::cxl_dram(),
            Platform::testing(),
        ] {
            assert_eq!(p.tiers.len(), 2);
            for s in 0..2 {
                for d in 0..2 {
                    assert_eq!(
                        p.link_cap(TierId::new(s), TierId::new(d)),
                        f64::INFINITY,
                        "{}: pair {s}->{d} capped",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn ntier_presets_order_tiers_hottest_first() {
        for p in [
            Platform::hbm_dram_cxl(),
            Platform::hbm_dram_cxl_nvm(),
            Platform::testing_three(),
        ] {
            assert!(p.tiers.len() >= 3, "{}", p.name);
            for w in p.tiers.windows(2) {
                // Hotness is not one-dimensional (Optane out-reads a CXL
                // expander but writes far slower); write bandwidth orders
                // every preset consistently.
                assert!(
                    w[0].write_bw > w[1].write_bw,
                    "{}: tier order must be hottest-first by write bandwidth",
                    p.name
                );
                assert!(
                    w[0].capacity <= w[1].capacity,
                    "{}: colder tiers must not shrink",
                    p.name
                );
            }
            // The peer-to-peer hot↔cold path is capped below the hop
            // through the middle tier — the reason cascades exist.
            let (hot, cold) = (TierId::new(0), TierId::new(p.tiers.len() - 1));
            assert!(p.link_cap(hot, cold) < p.slow().write_bw.max(p.fast().write_bw));
        }
    }

    #[test]
    fn preset_lookup_by_cli_name() {
        for &name in Platform::PRESET_NAMES {
            let p = Platform::by_name(name).unwrap_or_else(|| panic!("missing preset {name}"));
            assert!(!p.tiers.is_empty());
        }
        assert!(Platform::by_name("unknown").is_none());
        assert_eq!(Platform::by_name("hbm").unwrap().tiers.len(), 3);
        assert_eq!(Platform::by_name("quad").unwrap().tiers.len(), 4);
    }

    #[test]
    fn per_tier_capacity_builder() {
        let p = Platform::testing_three().with_tier_capacities(&[1 << 20, 2 << 20, 4 << 20]);
        assert_eq!(p.tiers[0].capacity, 1 << 20);
        assert_eq!(p.tiers[1].capacity, 2 << 20);
        assert_eq!(p.tiers[2].capacity, 4 << 20);
    }
}
