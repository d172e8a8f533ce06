//! Set-associative last-level cache model.
//!
//! The LLC is indexed by *physical* address, so a migrated page starts cold
//! in the cache (its lines had the old physical tags), matching real
//! hardware. ATMem's profiler samples LLC *read misses* (paper Eq. 1), which
//! this model produces as an event stream.

use crate::addr::PhysAddr;

/// Slots in the window side-memo (see [`Cache::window_access_slot`]). A
/// power of two so the memo index is the set index's low bits.
const MEMO_SLOTS: usize = 64;

/// Geometry of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line: usize,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is divisible by `assoc * line` and the resulting
    /// set count is a power of two.
    pub fn new(size: usize, assoc: usize, line: usize) -> Self {
        assert!(
            size > 0 && assoc > 0 && line > 0,
            "cache geometry must be positive"
        );
        assert_eq!(
            size % (assoc * line),
            0,
            "size must be a multiple of assoc*line"
        );
        let sets = size / (assoc * line);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig { size, assoc, line }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size / (self.assoc * self.line)
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss,
}

impl CacheOutcome {
    /// Whether the outcome is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Set-associative write-allocate LLC with per-set LRU replacement.
///
/// ## The window side-memo
///
/// The batched window engine revisits a small set of hot lines, and for those
/// the full per-set tag scan only serves to re-stamp an age that is already
/// known. The memo is a tiny direct-mapped cache, indexed by the low bits
/// of the *set* index, remembering the line that last probed through each
/// memo slot. A memo hit bumps the tick and the hit counter eagerly and
/// defers the LRU age re-stamp into the memo; deferral is sound because
/// ages are only ever *read* by the victim scan, every deferred stamp for a
/// set necessarily lives in that set's (unique) memo slot, and every real
/// probe applies the aliasing slot's deferred stamp before scanning. All
/// non-window operations flush the whole memo first, so hit/miss outcomes,
/// counters and every future eviction are bit-identical to eager
/// re-stamping.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * assoc + way]`; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// Per-way last-use tick for LRU.
    ages: Vec<u64>,
    tick: u64,
    set_mask: u64,
    line_shift: u32,
    read_hits: u64,
    read_misses: u64,
    write_hits: u64,
    write_misses: u64,
    /// Line id occupying each window-memo slot.
    memo_line: [u64; MEMO_SLOTS],
    /// Cache slot (`set * assoc + way`) that line sits in.
    memo_slot: [u32; MEMO_SLOTS],
    /// The line's deferred LRU age stamp.
    memo_tick: [u64; MEMO_SLOTS],
    /// Occupancy bitmap of the memo slots.
    memo_occ: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let ways = config.sets() * config.assoc;
        Cache {
            config,
            tags: vec![u64::MAX; ways],
            ages: vec![0; ways],
            tick: 0,
            set_mask: (config.sets() - 1) as u64,
            line_shift: config.line.trailing_zeros(),
            read_hits: 0,
            read_misses: 0,
            write_hits: 0,
            write_misses: 0,
            memo_line: [0; MEMO_SLOTS],
            memo_slot: [0; MEMO_SLOTS],
            memo_tick: [0; MEMO_SLOTS],
            memo_occ: 0,
        }
    }

    /// Applies every deferred LRU re-stamp and empties the memo. Must run
    /// before any age read (the victim scan) outside the window path and
    /// before any non-window mutation of replacement state.
    fn memo_flush(&mut self) {
        let mut occ = self.memo_occ;
        self.memo_occ = 0;
        while occ != 0 {
            let s = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            self.ages[self.memo_slot[s] as usize] = self.memo_tick[s];
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses the line containing `pa`; fills it on a miss.
    pub fn access(&mut self, pa: PhysAddr, write: bool) -> CacheOutcome {
        self.access_slot(pa, write).0
    }

    /// Like [`access`](Cache::access), but also returns the slot index
    /// (`set * assoc + way`) the line occupies afterwards, so follow-up
    /// touches of the same line can skip the tag scan.
    pub(crate) fn access_slot(&mut self, pa: PhysAddr, write: bool) -> (CacheOutcome, usize) {
        if self.memo_occ != 0 {
            self.memo_flush();
        }
        self.tick += 1;
        let line_id = pa.raw() >> self.line_shift;
        let set = (line_id & self.set_mask) as usize;
        let tag = line_id >> self.set_mask.count_ones();
        let base = set * self.config.assoc;
        let ways = &self.tags[base..base + self.config.assoc];

        let mut victim = 0usize;
        let mut victim_age = u64::MAX;
        for (w, &t) in ways.iter().enumerate() {
            if t == tag {
                self.ages[base + w] = self.tick;
                if write {
                    self.write_hits += 1;
                } else {
                    self.read_hits += 1;
                }
                return (CacheOutcome::Hit, base + w);
            }
            let age = self.ages[base + w];
            if age < victim_age {
                victim_age = age;
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.ages[base + victim] = self.tick;
        if write {
            self.write_misses += 1;
        } else {
            self.read_misses += 1;
        }
        (CacheOutcome::Miss, base + victim)
    }

    /// Guaranteed-hit re-touch of the line sitting in `slot` (as returned by
    /// [`access_slot`](Cache::access_slot) with no interleaving accesses):
    /// identical counter and LRU effects to another `access` of the same
    /// line, without the tag scan.
    pub(crate) fn rehit(&mut self, slot: usize, write: bool) {
        if self.memo_occ != 0 {
            self.memo_flush();
        }
        self.tick += 1;
        if write {
            self.write_hits += 1;
        } else {
            self.read_hits += 1;
        }
        self.ages[slot] = self.tick;
    }

    /// Replays `reads + writes` guaranteed-hit re-touches of the line in
    /// `slot` as one batch: counters, tick and the line's age end exactly as
    /// that many interleaved [`rehit`](Cache::rehit) calls would leave them
    /// (the interleaving order does not matter — every touch restamps the
    /// same slot). Used by the window engine to flush deferred same-line
    /// accesses before the next real probe.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `reads + writes` is zero.
    // Retained as the scalar-exact reference for the window settle path; the
    // engine itself now settles through the window memo, so production code
    // no longer calls this outside the equivalence tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn rehit_run(&mut self, slot: usize, reads: u64, writes: u64) {
        debug_assert!(reads + writes > 0, "empty rehit run");
        if self.memo_occ != 0 {
            self.memo_flush();
        }
        self.tick += reads + writes;
        self.read_hits += reads;
        self.write_hits += writes;
        self.ages[slot] = self.tick;
    }

    /// Batched window probe: like [`access_slot`](Cache::access_slot) but
    /// through the window side-memo, so a line probed recently on the window
    /// path skips the per-set tag scan entirely and has its LRU re-stamp
    /// deferred. Hit/miss outcomes, counters and all future evictions are
    /// identical to a scalar [`access`](Cache::access) of the same line.
    ///
    /// Only the batched window engine may use this: correctness relies on
    /// every interleaved non-window operation flushing the memo first,
    /// which [`access`]/[`access_slot`]/[`rehit`]/[`rehit_run`]/
    /// [`access_run`] all do.
    ///
    /// [`access`]: Cache::access
    /// [`access_slot`]: Cache::access_slot
    /// [`rehit`]: Cache::rehit
    /// [`rehit_run`]: Cache::rehit_run
    /// [`access_run`]: Cache::access_run
    pub(crate) fn window_access_slot(
        &mut self,
        pa: PhysAddr,
        write: bool,
    ) -> (CacheOutcome, usize) {
        self.tick += 1;
        let line_id = pa.raw() >> self.line_shift;
        let set = (line_id & self.set_mask) as usize;
        let s = set & (MEMO_SLOTS - 1);
        let bit = 1u64 << s;
        if self.memo_occ & bit != 0 && self.memo_line[s] == line_id {
            // Memo hit: the line is guaranteed resident (nothing can have
            // evicted it since its probe without flushing this slot first),
            // so the scalar probe would hit. Counters advance eagerly; the
            // LRU age re-stamp stays deferred in the memo.
            if write {
                self.write_hits += 1;
            } else {
                self.read_hits += 1;
            }
            self.memo_tick[s] = self.tick;
            return (CacheOutcome::Hit, self.memo_slot[s] as usize);
        }
        // Real probe. Any deferred re-stamp for this set lives in this memo
        // slot (sets map to memo slots many-to-one, but a set always maps to
        // the same slot), so applying the aliasing occupant's stamp first
        // makes the victim scan read exactly the ages the scalar loop would
        // have written.
        if self.memo_occ & bit != 0 {
            self.ages[self.memo_slot[s] as usize] = self.memo_tick[s];
        }
        let tag = line_id >> self.set_mask.count_ones();
        let base = set * self.config.assoc;
        let ways = &self.tags[base..base + self.config.assoc];
        let mut found = None;
        let mut victim = 0usize;
        let mut victim_age = u64::MAX;
        for (w, &t) in ways.iter().enumerate() {
            if t == tag {
                found = Some(base + w);
                break;
            }
            let age = self.ages[base + w];
            if age < victim_age {
                victim_age = age;
                victim = w;
            }
        }
        let (outcome, slot) = match found {
            Some(slot) => {
                self.ages[slot] = self.tick;
                if write {
                    self.write_hits += 1;
                } else {
                    self.read_hits += 1;
                }
                (CacheOutcome::Hit, slot)
            }
            None => {
                let slot = base + victim;
                self.tags[slot] = tag;
                self.ages[slot] = self.tick;
                if write {
                    self.write_misses += 1;
                } else {
                    self.read_misses += 1;
                }
                (CacheOutcome::Miss, slot)
            }
        };
        self.memo_line[s] = line_id;
        self.memo_slot[s] = slot as u32;
        self.memo_tick[s] = self.tick;
        self.memo_occ |= bit;
        (outcome, slot)
    }

    /// Settles `reads + writes` deferred guaranteed-hit touches of the line
    /// in `slot` accumulated by the window engine's line-run coalescing.
    /// The line was probed via [`window_access_slot`]
    /// (Cache::window_access_slot) when the run opened and no other cache
    /// operation has intervened, so it is still in the memo; the fallback
    /// is defensive.
    pub(crate) fn window_settle(&mut self, slot: usize, reads: u64, writes: u64) {
        debug_assert!(reads + writes > 0, "empty window settle");
        self.tick += reads + writes;
        self.read_hits += reads;
        self.write_hits += writes;
        let s = (slot / self.config.assoc) & (MEMO_SLOTS - 1);
        if self.memo_occ & (1 << s) != 0 && self.memo_slot[s] as usize == slot {
            self.memo_tick[s] = self.tick;
        } else {
            debug_assert!(false, "settled slot lost from the window memo");
            self.ages[slot] = self.tick;
        }
    }

    /// Adds another cache's hit/miss counters into this one (deterministic
    /// core merge: replacement state is discarded, totals are summed).
    pub(crate) fn absorb_counters(&mut self, other: &Cache) {
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.write_hits += other.write_hits;
        self.write_misses += other.write_misses;
    }

    /// Performs `count` consecutive accesses to the line containing `pa` as
    /// one batch, returning the outcome of the *first*. State and counters
    /// end exactly as `count` calls to [`access`](Cache::access) would leave
    /// them: after the first access fills or touches the line, the remaining
    /// `count - 1` are guaranteed hits that each advance the tick and
    /// refresh the line's age.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `count` is zero.
    pub fn access_run(&mut self, pa: PhysAddr, write: bool, count: usize) -> CacheOutcome {
        debug_assert!(count > 0, "empty cache run");
        let (outcome, slot) = self.access_slot(pa, write);
        if count > 1 {
            let extra = (count - 1) as u64;
            self.tick += extra;
            if write {
                self.write_hits += extra;
            } else {
                self.read_hits += extra;
            }
            self.ages[slot] = self.tick;
        }
        outcome
    }

    /// Drops every line (used when a machine resets between experiments).
    /// Deferred window re-stamps are discarded with the ages they targeted.
    pub fn flush(&mut self) {
        self.memo_occ = 0;
        self.tags.fill(u64::MAX);
        self.ages.fill(0);
    }

    /// Evicts every resident line whose line id satisfies `pred`, as a
    /// back-invalidation for reclaimed physical frames would. The vacated
    /// ways become immediate eviction victims (tag empty, age zero);
    /// counters are untouched.
    pub fn invalidate_where(&mut self, mut pred: impl FnMut(u64) -> bool) {
        if self.memo_occ != 0 {
            self.memo_flush();
        }
        let set_bits = self.set_mask.count_ones();
        for (slot, tag) in self.tags.iter_mut().enumerate() {
            if *tag == u64::MAX {
                continue;
            }
            let set = (slot / self.config.assoc) as u64;
            let line_id = (*tag << set_bits) | set;
            if pred(line_id) {
                *tag = u64::MAX;
                self.ages[slot] = 0;
            }
        }
    }

    /// The line id of every resident line, in unspecified order. Used by the
    /// machine invariant auditor to check that no line references a freed
    /// frame. Flushes the window memo first so audits see settled state.
    pub fn live_lines(&mut self) -> Vec<u64> {
        if self.memo_occ != 0 {
            self.memo_flush();
        }
        let set_bits = self.set_mask.count_ones();
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &tag)| tag != u64::MAX)
            .map(|(slot, &tag)| (tag << set_bits) | (slot / self.config.assoc) as u64)
            .collect()
    }

    /// Reconstructs the physical byte address of the first byte of a line id
    /// produced by [`Cache::live_lines`].
    pub fn line_base_addr(&self, line_id: u64) -> u64 {
        line_id << self.line_shift
    }

    /// The line id containing physical byte address `raw`.
    pub fn line_id_of(&self, raw: u64) -> u64 {
        raw >> self.line_shift
    }

    /// Read hits since creation or the last counter reset.
    pub fn read_hits(&self) -> u64 {
        self.read_hits
    }

    /// Read misses since creation or the last counter reset.
    pub fn read_misses(&self) -> u64 {
        self.read_misses
    }

    /// Write hits since creation or the last counter reset.
    pub fn write_hits(&self) -> u64 {
        self.write_hits
    }

    /// Write misses since creation or the last counter reset.
    pub fn write_misses(&self) -> u64 {
        self.write_misses
    }

    /// Zeroes all hit/miss counters, keeping contents.
    pub fn reset_counters(&mut self) {
        self.read_hits = 0;
        self.read_misses = 0;
        self.write_hits = 0;
        self.write_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn config_validates_geometry() {
        let c = CacheConfig::new(2 * 1024 * 1024, 16, 64);
        assert_eq!(c.sets(), 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        let _ = CacheConfig::new(3 * 64 * 2, 2, 64);
    }

    #[test]
    fn second_access_hits() {
        let mut c = small();
        let pa = PhysAddr::new(0x1000);
        assert_eq!(c.access(pa, false), CacheOutcome::Miss);
        assert_eq!(c.access(pa, false), CacheOutcome::Hit);
        // Same line, different byte.
        assert_eq!(c.access(PhysAddr::new(0x103f), false), CacheOutcome::Hit);
        assert_eq!(c.read_hits(), 2);
        assert_eq!(c.read_misses(), 1);
    }

    #[test]
    fn conflict_evicts_lru() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets*line = 256).
        let a = PhysAddr::new(0x0);
        let b = PhysAddr::new(0x100);
        let d = PhysAddr::new(0x200);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // b becomes LRU
        c.access(d, false); // evicts b
        assert_eq!(c.access(a, false), CacheOutcome::Hit);
        assert_eq!(c.access(b, false), CacheOutcome::Miss);
    }

    #[test]
    fn writes_are_counted_separately() {
        let mut c = small();
        let pa = PhysAddr::new(0x40);
        c.access(pa, true);
        c.access(pa, true);
        assert_eq!(c.write_misses(), 1);
        assert_eq!(c.write_hits(), 1);
        assert_eq!(c.read_misses(), 0);
    }

    #[test]
    fn rehit_run_matches_the_per_element_rehit_loop() {
        let mut batched = small();
        let mut looped = small();
        for &(addr, reads, writes) in &[
            (0x000u64, 4u64, 2u64),
            (0x100, 0, 3),
            (0x000, 5, 0),
            (0x200, 1, 1),
        ] {
            let pa = PhysAddr::new(addr);
            let (ob, sb) = batched.access_slot(pa, false);
            let (ol, sl) = looped.access_slot(pa, false);
            assert_eq!(ob, ol, "probe outcome at {addr:#x}");
            batched.rehit_run(sb, reads, writes);
            for _ in 0..reads {
                looped.rehit(sl, false);
            }
            for _ in 0..writes {
                looped.rehit(sl, true);
            }
        }
        assert_eq!(batched.read_hits(), looped.read_hits());
        assert_eq!(batched.read_misses(), looped.read_misses());
        assert_eq!(batched.write_hits(), looped.write_hits());
        assert_eq!(batched.write_misses(), looped.write_misses());
        // LRU ages agree: the same victims are chosen afterwards.
        for addr in (0..0x800u64).step_by(0x100) {
            assert_eq!(
                batched.access(PhysAddr::new(addr), false),
                looped.access(PhysAddr::new(addr), false)
            );
        }
    }

    #[test]
    fn access_run_matches_the_per_element_loop() {
        let mut batched = small();
        let mut looped = small();
        // Lines competing in the same set (stride 256), mixed reads/writes.
        for &(addr, write, count) in &[
            (0x000u64, false, 9usize),
            (0x100, false, 3),
            (0x000, true, 2),
            (0x200, false, 5),
            (0x100, true, 1),
            (0x300, false, 4),
            (0x000, false, 6),
        ] {
            let pa = PhysAddr::new(addr);
            let first_batched = batched.access_run(pa, write, count);
            let first_looped = looped.access(pa, write);
            for _ in 1..count {
                assert_eq!(looped.access(pa, write), CacheOutcome::Hit);
            }
            assert_eq!(first_batched, first_looped, "outcome at {addr:#x}");
        }
        assert_eq!(batched.read_hits(), looped.read_hits());
        assert_eq!(batched.read_misses(), looped.read_misses());
        assert_eq!(batched.write_hits(), looped.write_hits());
        assert_eq!(batched.write_misses(), looped.write_misses());
        // LRU ages agree: the same victims are chosen afterwards.
        for addr in (0..0x800u64).step_by(0x100) {
            assert_eq!(
                batched.access(PhysAddr::new(addr), false),
                looped.access(PhysAddr::new(addr), false)
            );
        }
    }

    #[test]
    fn window_api_matches_the_per_element_loop() {
        let mut windowed = small();
        let mut looped = small();
        // Window probes (memo path) interleaved with scalar accesses and
        // settles, with enough same-set lines (stride 256) to force
        // evictions while re-stamps are still deferred. Sets 0 and 1 both
        // appear, and lines 0x000/0x100 share set 0 so its memo slot keeps
        // getting re-probed.
        let script: &[(u64, bool, u64, u64, bool)] = &[
            // (addr, write, settle_reads, settle_writes, window)
            (0x000, false, 3, 0, true), // miss, fills; then settle 3 reads
            (0x040, false, 0, 0, true), // set 1: miss
            (0x000, false, 0, 2, true), // memo hit; settle 2 writes
            (0x100, false, 0, 0, true), // set 0 again: flushes 0x000's stamp
            (0x000, true, 1, 1, true),  // real probe (memo now 0x100), hit
            (0x200, false, 0, 0, true), // set 0 full: eviction under memo
            (0x040, false, 0, 0, false), // scalar access: flushes the memo
            (0x100, false, 4, 0, true),
            (0x300, false, 0, 0, true), // eviction again
            (0x000, false, 0, 0, true),
        ];
        for &(addr, write, sr, sw, window) in script {
            let pa = PhysAddr::new(addr);
            if window {
                let (ow, slot) = windowed.window_access_slot(pa, write);
                let (ol, sl) = looped.access_slot(pa, write);
                assert_eq!(ow, ol, "outcome at {addr:#x}");
                if sr + sw > 0 {
                    windowed.window_settle(slot, sr, sw);
                    looped.rehit_run(sl, sr, sw);
                }
            } else {
                assert_eq!(windowed.access(pa, write), looped.access(pa, write));
            }
            assert_eq!(windowed.read_hits(), looped.read_hits());
            assert_eq!(windowed.write_hits(), looped.write_hits());
            assert_eq!(windowed.read_misses(), looped.read_misses());
            assert_eq!(windowed.write_misses(), looped.write_misses());
        }
        // Replacement state is identical: the same victims are chosen.
        for addr in (0..0x800u64).step_by(0x100) {
            assert_eq!(
                windowed.access(PhysAddr::new(addr), false),
                looped.access(PhysAddr::new(addr), false),
                "probe of {addr:#x}"
            );
        }
    }

    #[test]
    fn deferred_restamps_reach_the_victim_scan() {
        // 4 sets x 2 ways: lines 0x000, 0x100, 0x200 all map to set 0.
        let mut c = small();
        let (o, _) = c.window_access_slot(PhysAddr::new(0x000), false);
        assert_eq!(o, CacheOutcome::Miss); // age 1
        let (o, _) = c.window_access_slot(PhysAddr::new(0x100), false);
        assert_eq!(o, CacheOutcome::Miss); // age 2
        let (o, slot) = c.window_access_slot(PhysAddr::new(0x000), false);
        assert_eq!(o, CacheOutcome::Hit);
        c.window_settle(slot, 3, 0); // 0x000 re-stamped to 6, deferred
                                     // Without the flush-before-scan the victim scan would see 0x000's
                                     // stale age and evict it; the deferred re-stamp makes 0x100 LRU.
        assert_eq!(c.access(PhysAddr::new(0x200), false), CacheOutcome::Miss);
        assert_eq!(c.access(PhysAddr::new(0x000), false), CacheOutcome::Hit);
        assert_eq!(c.access(PhysAddr::new(0x100), false), CacheOutcome::Miss);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        let pa = PhysAddr::new(0x40);
        c.access(pa, false);
        c.flush();
        assert_eq!(c.access(pa, false), CacheOutcome::Miss);
    }
}
