//! Set-associative last-level cache model.
//!
//! The LLC is indexed by *physical* address, so a migrated page starts cold
//! in the cache (its lines had the old physical tags), matching real
//! hardware. ATMem's profiler samples LLC *read misses* (paper Eq. 1), which
//! this model produces as an event stream.

use crate::addr::PhysAddr;

/// Tag lanes per set: the largest associativity modelled. Sixteen `u32`
/// tags are one 64-byte host cache line.
const LANES: usize = 16;
/// Tag of an empty way. Resident tags are strictly smaller (checked on
/// every probe), so an empty lane never matches.
const EMPTY: u32 = u32::MAX;
/// The value 1 in each of a word's sixteen nibbles.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;
/// Recency word of an empty 16-way set: way `p` at position `p`.
const ASCENDING_WAYS: u64 = 0xFEDC_BA98_7654_3210;

/// Geometry of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub(crate) size: usize,
    /// Associativity (ways per set).
    pub(crate) assoc: usize,
    /// Line size in bytes.
    pub(crate) line: usize,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is divisible by `assoc * line` and the resulting
    /// set count is a power of two, and if `assoc` exceeds 16: a set's
    /// replacement order is held as sixteen 4-bit way numbers, so wider
    /// sets are not modelled.
    pub fn new(size: usize, assoc: usize, line: usize) -> Self {
        assert!(
            size > 0 && assoc > 0 && line > 0,
            "cache geometry must be positive"
        );
        assert!(assoc <= LANES, "associativity above 16 is not modelled");
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
    pub(crate) fn sets(&self) -> usize {
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
    pub(crate) fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// The tags of one set, padded to [`LANES`] and aligned so a probe reads
/// exactly one host cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct TagRow([u32; LANES]);

/// Set-associative write-allocate LLC with exact per-set LRU replacement.
///
/// Recency is held as an *order*, not as timestamps: each set has one
/// `u64` of 4-bit way numbers, least recently used in the low nibble. A
/// hit moves its way to the top nibble, a miss takes the low nibble as the
/// victim and moves it to the top — so the victim is always the way whose
/// last touch is oldest, which is what a minimum scan over per-way last-use
/// ticks would pick. Empty ways sit at the low end in ascending way order
/// (they are "older" than any resident line, lowest way first), so fills
/// after a flush or an invalidation take them in that order.
///
/// A just-probed line is the top nibble of its set, and touching the top
/// nibble again changes nothing: that is why the guaranteed-hit re-touches
/// the batched engines coalesce (`rehit_run`, the tail of `access_run`)
/// only move counters.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// One row per set; lanes at and beyond `assoc` stay [`EMPTY`].
    tags: Vec<TagRow>,
    /// Per-set recency word: a permutation of `0..assoc` in the low `assoc`
    /// nibbles (LRU lowest), zero above.
    order: Vec<u64>,
    set_mask: u64,
    set_bits: u32,
    line_shift: u32,
    /// Bit position of the most-recently-used nibble, `4 * (assoc - 1)`.
    mru_shift: u32,
    /// Hit/miss counters, indexed by [`counter`].
    counts: [u64; 4],
}

/// Index into [`Cache::counts`]: read hits, read misses, write hits, write
/// misses.
fn counter(write: bool, miss: bool) -> usize {
    (write as usize) << 1 | miss as usize
}

/// The way number at position `pos` (0 = LRU) of a recency word.
fn way_at(order: u64, pos: usize) -> usize {
    (order >> (4 * pos)) as usize & 0xF
}

/// Moves `way` — present exactly once in the low nibbles of `order` — to
/// the nibble at bit `mru_shift`, closing the gap it leaves.
#[inline]
fn move_to_mru(order: u64, way: u64, mru_shift: u32) -> u64 {
    // SWAR search for the zero nibble of `order ^ way×0x1111…`. Borrows only
    // travel upwards, so the lowest flagged nibble is exact — which also
    // covers the zero padding above a narrow set when `way` is 0.
    let diff = order ^ way.wrapping_mul(NIBBLE_ONES);
    let found = diff.wrapping_sub(NIBBLE_ONES) & !diff & (NIBBLE_ONES << 3);
    debug_assert!(found != 0, "way {way} missing from recency word {order:#x}");
    let pos = found.trailing_zeros() - 3;
    let below = order & ((1 << pos) - 1);
    let above = (order >> pos >> 4) << pos;
    below | above | way << mru_shift
}

/// Bit `w` set for every lane `w` of `row` that holds `tag` (at most one,
/// for a resident tag): a sixteen-lane compare with no early exit, which
/// the compiler vectorises.
#[inline]
fn lanes_holding(row: &[u32; LANES], tag: u32) -> u32 {
    let mut matches = 0u32;
    for (lane, &t) in row.iter().enumerate() {
        matches |= ((t == tag) as u32) << lane;
    }
    matches
}

/// The recency word of a set some of whose ways were just emptied: the
/// empty ways ascending at the LRU end, then the survivors in their old
/// relative order.
fn order_after_vacating(row: &TagRow, order: u64, assoc: usize) -> u64 {
    let empty = (0..assoc).filter(|&w| row.0[w] == EMPTY);
    let resident = (0..assoc)
        .map(|p| way_at(order, p))
        .filter(|&w| row.0[w] != EMPTY);
    empty
        .chain(resident)
        .enumerate()
        .fold(0, |word, (p, w)| word | (w as u64) << (4 * p))
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        // `CacheConfig`'s fields are public, so a literal can bypass `new`.
        assert!(
            (1..=LANES).contains(&config.assoc),
            "associativity above 16 is not modelled"
        );
        let mut cache = Cache {
            config,
            tags: vec![TagRow([EMPTY; LANES]); config.sets()],
            order: vec![0; config.sets()],
            set_mask: (config.sets() - 1) as u64,
            set_bits: config.sets().trailing_zeros(),
            line_shift: config.line.trailing_zeros(),
            mru_shift: 4 * (config.assoc as u32 - 1),
            counts: [0; 4],
        };
        cache.flush();
        cache
    }

    /// The cache geometry.
    pub(crate) fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses the line containing `pa`; fills it on a miss.
    ///
    /// # Panics
    ///
    /// Panics if the line's tag does not fit 32 bits, which takes both a
    /// handful of sets and a physical address in the terabytes.
    pub fn access(&mut self, pa: PhysAddr, write: bool) -> CacheOutcome {
        self.access_slot(pa, write).0
    }

    /// Like [`access`](Cache::access), but also returns the slot
    /// (`set * 16 + way`) the line occupies afterwards, for a following
    /// [`rehit_run`](Cache::rehit_run).
    ///
    /// One straight-line path for hits, misses and every associativity: the
    /// sixteen-lane compare has no early exit, a miss is a "hit" on the LRU
    /// way, and the tag store and recency update run unconditionally.
    #[inline]
    pub(crate) fn access_slot(&mut self, pa: PhysAddr, write: bool) -> (CacheOutcome, usize) {
        let line_id = pa.raw() >> self.line_shift;
        let set = (line_id & self.set_mask) as usize;
        let tag = line_id >> self.set_bits;
        assert!(
            tag < EMPTY as u64,
            "line tag {tag:#x} does not fit the 32-bit LLC tag"
        );
        let tag = tag as u32;
        let row = &mut self.tags[set].0;
        let matches = lanes_holding(row, tag);
        let hit = matches != 0;
        let order = self.order[set];
        let way = if hit {
            matches.trailing_zeros() as u64
        } else {
            order & 0xF
        };
        row[way as usize & 0xF] = tag;
        self.order[set] = move_to_mru(order, way, self.mru_shift);
        self.counts[counter(write, !hit)] += 1;
        let outcome = if hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        (outcome, set * LANES + way as usize)
    }

    /// Records `reads + writes` guaranteed-hit re-touches of the line in
    /// `slot`, which the caller guarantees is the slot the latest
    /// [`access_slot`](Cache::access_slot) returned (the batched engines'
    /// line-run coalescing: no other cache operation happened since). The
    /// line already tops its set's recency word, so only counters move.
    pub(crate) fn rehit_run(&mut self, slot: usize, reads: u64, writes: u64) {
        debug_assert!(reads + writes > 0, "empty rehit run");
        debug_assert_eq!(
            way_at(self.order[slot / LANES], self.config.assoc - 1),
            slot % LANES,
            "rehit slot is not its set's most recently used way"
        );
        self.counts[counter(false, false)] += reads;
        self.counts[counter(true, false)] += writes;
    }

    /// Adds another cache's hit/miss counters into this one (deterministic
    /// core merge: replacement state is discarded, totals are summed).
    pub(crate) fn absorb_counters(&mut self, other: &Cache) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }

    /// Performs `count` consecutive accesses to the line containing `pa` as
    /// one batch, returning the outcome of the *first*. State and counters
    /// end exactly as `count` calls to [`access`](Cache::access) would leave
    /// them: after the first access fills or touches the line, the remaining
    /// `count - 1` are hits on the set's most recently used way.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `count` is zero.
    pub(crate) fn access_run(&mut self, pa: PhysAddr, write: bool, count: usize) -> CacheOutcome {
        debug_assert!(count > 0, "empty cache run");
        let outcome = self.access_slot(pa, write).0;
        self.counts[counter(write, false)] += (count - 1) as u64;
        outcome
    }

    /// Drops every line (used when a machine resets between experiments).
    pub(crate) fn flush(&mut self) {
        self.tags.fill(TagRow([EMPTY; LANES]));
        self.order
            .fill(ASCENDING_WAYS & (u64::MAX >> (60 - self.mru_shift)));
    }

    /// Evicts every resident line whose line id satisfies `pred`, as a
    /// back-invalidation for reclaimed physical frames would. The vacated
    /// ways become the set's next eviction victims, lowest way first, ahead
    /// of every line that stays; counters are untouched.
    pub(crate) fn invalidate_where(&mut self, mut pred: impl FnMut(u64) -> bool) {
        let assoc = self.config.assoc;
        for (set, (row, order)) in self.tags.iter_mut().zip(&mut self.order).enumerate() {
            let mut vacated = false;
            for tag in &mut row.0[..assoc] {
                if *tag != EMPTY && pred((*tag as u64) << self.set_bits | set as u64) {
                    *tag = EMPTY;
                    vacated = true;
                }
            }
            if vacated {
                *order = order_after_vacating(row, *order, assoc);
            }
        }
    }

    /// Evicts every resident line with an id in `first..=last` — exactly
    /// [`invalidate_where`](Cache::invalidate_where) with that range as the
    /// predicate, which is the whole of what frame reclamation asks for.
    ///
    /// Consecutive line ids map to consecutive sets, so a span no wider
    /// than the set count names at most one line per set: each is looked up
    /// in its own set (one tag-row compare) and the other sets are never
    /// read. The touched set is vacated and reordered by the same rule as
    /// the scan, and an untouched set is left alone by both, so the cache
    /// state afterwards is identical. Wider spans take the scan, which then
    /// costs less than a probe per line.
    pub(crate) fn invalidate_lines(&mut self, first: u64, last: u64) {
        debug_assert!(first <= last, "empty line span");
        if last - first >= self.tags.len() as u64 {
            return self.invalidate_where(|line| (first..=last).contains(&line));
        }
        let assoc = self.config.assoc;
        for line in first..=last {
            let tag = line >> self.set_bits;
            // Only tags below EMPTY are ever resident (checked on every
            // probe); a wider one must not be truncated into a match.
            if tag >= EMPTY as u64 {
                continue;
            }
            let set = (line & self.set_mask) as usize;
            let row = &mut self.tags[set];
            let matches = lanes_holding(&row.0, tag as u32);
            if matches != 0 {
                row.0[matches.trailing_zeros() as usize] = EMPTY;
                self.order[set] = order_after_vacating(row, self.order[set], assoc);
            }
        }
    }

    /// The line id of every resident line, in unspecified order. Used by the
    /// machine invariant auditor to check that no line references a freed
    /// frame.
    pub(crate) fn live_lines(&self) -> Vec<u64> {
        let mut lines = Vec::new();
        for (set, row) in self.tags.iter().enumerate() {
            for &tag in row.0.iter().filter(|&&tag| tag != EMPTY) {
                lines.push((tag as u64) << self.set_bits | set as u64);
            }
        }
        lines
    }

    /// Structural self-check for [`Machine::audit`](crate::Machine::audit):
    /// every recency word is a permutation of its set's ways with the empty
    /// ways at the LRU end in ascending order, no set holds a tag twice, and
    /// the padding lanes are empty. Returns the violations found.
    pub(crate) fn check(&self) -> Vec<String> {
        let assoc = self.config.assoc;
        let mut violations = Vec::new();
        for (set, (row, &order)) in self.tags.iter().zip(&self.order).enumerate() {
            let (ways, padding) = row.0.split_at(assoc);
            let listed = (0..assoc).fold(0u32, |seen, p| seen | 1 << way_at(order, p));
            if listed != (1 << assoc) - 1 || order >> self.mru_shift >> 4 != 0 {
                violations.push(format!(
                    "LLC set {set}: recency word {order:#x} is not a permutation of {assoc} ways"
                ));
                continue;
            }
            let empty = (0..assoc).filter(|&w| ways[w] == EMPTY);
            let lru_end = (0..empty.clone().count()).map(|p| way_at(order, p));
            if !empty.eq(lru_end) {
                violations.push(format!(
                    "LLC set {set}: empty ways are not the ascending LRU end of {order:#x}"
                ));
            }
            if let Some(w) = (0..assoc).find(|&w| ways[w] != EMPTY && ways[..w].contains(&ways[w]))
            {
                violations.push(format!("LLC set {set}: tag {:#x} is held twice", ways[w]));
            }
            if padding.iter().any(|&tag| tag != EMPTY) {
                violations.push(format!("LLC set {set}: tag in a lane beyond way {assoc}"));
            }
        }
        violations
    }

    /// Overwrites set 0's LRU nibble with its MRU way, so the recency word
    /// names a way twice (the planted fault the audit tests expect
    /// [`check`](Cache::check) to report).
    #[cfg(test)]
    pub(crate) fn corrupt_for_test(&mut self) {
        self.order[0] = (self.order[0] & !0xF) | self.order[0] >> self.mru_shift;
    }

    /// Reconstructs the physical byte address of the first byte of a line id
    /// produced by [`Cache::live_lines`].
    pub(crate) fn line_base_addr(&self, line_id: u64) -> u64 {
        line_id << self.line_shift
    }

    /// The line id containing physical byte address `raw`.
    pub(crate) fn line_id_of(&self, raw: u64) -> u64 {
        raw >> self.line_shift
    }

    /// Read hits since creation.
    pub fn read_hits(&self) -> u64 {
        self.counts[counter(false, false)]
    }

    /// Read misses since creation.
    pub fn read_misses(&self) -> u64 {
        self.counts[counter(false, true)]
    }

    /// Write hits since creation.
    pub(crate) fn write_hits(&self) -> u64 {
        self.counts[counter(true, false)]
    }

    /// Write misses since creation.
    pub(crate) fn write_misses(&self) -> u64 {
        self.counts[counter(true, true)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem_prop::prelude::*;

    /// The oracle: the implementation this one replaced — `u64` tags, a
    /// last-use tick per way, and a minimum-age scan per eviction (lowest
    /// way first on ties, i.e. among empty ways).
    struct StampCache {
        assoc: usize,
        set_mask: u64,
        set_bits: u32,
        line_shift: u32,
        /// `tags[set * assoc + way]`; `u64::MAX` marks an empty way.
        tags: Vec<u64>,
        ages: Vec<u64>,
        tick: u64,
        /// Read hits, read misses, write hits, write misses.
        counts: [u64; 4],
        /// Misses whose victim held a line, i.e. evictions from a full set.
        evictions: usize,
    }

    impl StampCache {
        fn new(config: CacheConfig) -> Self {
            let ways = config.sets() * config.assoc;
            StampCache {
                assoc: config.assoc,
                set_mask: (config.sets() - 1) as u64,
                set_bits: config.sets().trailing_zeros(),
                line_shift: config.line.trailing_zeros(),
                tags: vec![u64::MAX; ways],
                ages: vec![0; ways],
                tick: 0,
                counts: [0; 4],
                evictions: 0,
            }
        }

        /// The outcome and the `(set, way)` the line occupies afterwards.
        fn access_slot(&mut self, pa: PhysAddr, write: bool) -> (CacheOutcome, (usize, usize)) {
            self.tick += 1;
            let line_id = pa.raw() >> self.line_shift;
            let set = (line_id & self.set_mask) as usize;
            let tag = line_id >> self.set_bits;
            let base = set * self.assoc;
            let mut victim = 0usize;
            let mut victim_age = u64::MAX;
            for w in 0..self.assoc {
                if self.tags[base + w] == tag {
                    self.ages[base + w] = self.tick;
                    self.counts[counter(write, false)] += 1;
                    return (CacheOutcome::Hit, (set, w));
                }
                if self.ages[base + w] < victim_age {
                    victim_age = self.ages[base + w];
                    victim = w;
                }
            }
            if self.tags[base + victim] != u64::MAX {
                self.evictions += 1;
            }
            self.tags[base + victim] = tag;
            self.ages[base + victim] = self.tick;
            self.counts[counter(write, true)] += 1;
            (CacheOutcome::Miss, (set, victim))
        }

        /// `count` scalar accesses; the outcome of the first.
        fn access_run(&mut self, pa: PhysAddr, write: bool, count: usize) -> CacheOutcome {
            let first = self.access_slot(pa, write).0;
            for _ in 1..count {
                assert!(self.access_slot(pa, write).0.is_hit(), "repeat must hit");
            }
            first
        }

        fn rehit_run(&mut self, (set, way): (usize, usize), reads: u64, writes: u64) {
            self.tick += reads + writes;
            self.counts[counter(false, false)] += reads;
            self.counts[counter(true, false)] += writes;
            self.ages[set * self.assoc + way] = self.tick;
        }

        fn invalidate_where(&mut self, mut pred: impl FnMut(u64) -> bool) {
            for (slot, tag) in self.tags.iter_mut().enumerate() {
                let set = (slot / self.assoc) as u64;
                if *tag != u64::MAX && pred((*tag << self.set_bits) | set) {
                    *tag = u64::MAX;
                    self.ages[slot] = 0;
                }
            }
        }

        fn flush(&mut self) {
            self.tags.fill(u64::MAX);
            self.ages.fill(0);
        }

        /// Resident line ids in set-major, way-minor order — the order
        /// [`Cache::live_lines`] produces, so equality is way-exact.
        fn live_lines(&self) -> Vec<u64> {
            (self.tags.iter().enumerate())
                .filter(|(_, &tag)| tag != u64::MAX)
                .map(|(slot, &tag)| (tag << self.set_bits) | (slot / self.assoc) as u64)
                .collect()
        }
    }

    /// One script step: operation, line pick, write flag, and a small count
    /// (run length, rehit reads/writes, predicate width).
    type Step = (u32, usize, bool, usize);

    /// Runs one random script through the cache and the stamp oracle at one
    /// geometry, comparing outcome, slot, the four counters, the resident
    /// lines (way-exact) and the self-check after every step, then evicts
    /// every set completely so the whole victim order is compared. Returns
    /// the number of evictions from a full set during the script.
    fn run_script(assoc: usize, sets: usize, script: &[Step]) -> usize {
        let config = CacheConfig::new(sets * assoc * 64, assoc, 64);
        let mut cache = Cache::new(config);
        let mut oracle = StampCache::new(config);
        let ways = sets * assoc;
        // Twice as many lines as the cache holds, spread over every set, so
        // uniform picks miss about half the time.
        let pool = (2 * ways) as u64;
        let pa = |line: u64| PhysAddr::new(line * 64 + 8);
        let split = |slot: usize| (slot / LANES, slot % LANES);
        // Start full: the script evicts from its first miss.
        for line in 0..ways as u64 {
            assert_eq!(
                cache.access(pa(line), false),
                oracle.access_slot(pa(line), false).0
            );
        }
        for (step, &(op, pick, write, count)) in script.iter().enumerate() {
            let line = pick as u64 % pool;
            match op {
                0..=2 => {
                    let (got, slot) = cache.access_slot(pa(line), write);
                    let (want, at) = oracle.access_slot(pa(line), write);
                    assert_eq!((got, split(slot)), (want, at), "step {step}");
                }
                3..=4 => {
                    let (got, slot) = cache.access_slot(pa(line), write);
                    let (want, at) = oracle.access_slot(pa(line), write);
                    assert_eq!((got, split(slot)), (want, at), "step {step}");
                    let (reads, writes) = (count as u64, (pick % 3) as u64);
                    cache.rehit_run(slot, reads, writes);
                    oracle.rehit_run(at, reads, writes);
                }
                5..=6 => assert_eq!(
                    cache.access_run(pa(line), write, count),
                    oracle.access_run(pa(line), write, count),
                    "step {step}"
                ),
                7 => {
                    // A line-id range, as frame reclamation issues: it clips
                    // some ways of a few sets, or none (not resident, or
                    // past the pool).
                    let lo = pick as u64 % (pool + pool / 4);
                    let hi = lo + count as u64;
                    cache.invalidate_where(|id| (lo..hi).contains(&id));
                    oracle.invalidate_where(|id| (lo..hi).contains(&id));
                }
                // Whole-set invalidations and flushes thin out with the
                // number of lines they vacate, so sets stay mostly full and
                // keep evicting.
                8 if pick % (4 * assoc) == 0 => {
                    // Every way of one set.
                    let set = line & (sets as u64 - 1);
                    cache.invalidate_where(|id| id & (sets as u64 - 1) == set);
                    oracle.invalidate_where(|id| id & (sets as u64 - 1) == set);
                }
                9 if pick % (4 * ways) == 0 => {
                    cache.flush();
                    oracle.flush();
                }
                _ if pick % 16 == 0 => {
                    cache.counts = [0; 4];
                    oracle.counts = [0; 4];
                }
                _ => {}
            }
            assert_eq!(cache.counts, oracle.counts, "counters after step {step}");
            assert_eq!(
                cache.live_lines(),
                oracle.live_lines(),
                "lines, step {step}"
            );
            assert_eq!(
                cache.check(),
                Vec::<String>::new(),
                "self-check, step {step}"
            );
        }
        let evictions = oracle.evictions;
        // Drain: `assoc` never-seen lines per set evict everything, so the
        // complete victim order of every set is compared.
        for fresh in pool..pool + ways as u64 {
            let (got, slot) = cache.access_slot(pa(fresh), false);
            let (want, at) = oracle.access_slot(pa(fresh), false);
            assert_eq!((got, split(slot)), (want, at), "drain of line {fresh}");
        }
        assert_eq!(
            cache.live_lines(),
            oracle.live_lines(),
            "lines after the drain"
        );
        assert_eq!(cache.counts, oracle.counts, "counters after the drain");
        evictions
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn matches_the_stamp_scan_oracle(
            script in prop::collection::vec(
                (0u32..11, 0usize..100_000, any::<bool>(), 1usize..6),
                900..1200,
            ),
        ) {
            for assoc in [1, 2, 4, 8, 16] {
                for sets in [1, 4, 128] {
                    let evictions = run_script(assoc, sets, &script);
                    prop_assert!(
                        evictions >= 100,
                        "only {evictions} full-set evictions at {assoc} ways x {sets} sets"
                    );
                }
            }
        }
    }

    /// Fills, `invalidate_lines` on one clone against `invalidate_where`
    /// over the same id range on the other, at one geometry. After every
    /// step the two must agree on every tag lane, every recency word, the
    /// resident lines, the four counters and the self-check.
    fn run_invalidate_script(assoc: usize, sets: usize, script: &[Step]) {
        let config = CacheConfig::new(sets * assoc * 64, assoc, 64);
        let set_bits = sets.trailing_zeros();
        let mut targeted = Cache::new(config);
        let mut scanned = targeted.clone();
        let ways = (sets * assoc) as u64;
        // Lines of the largest tag that fits a lane: the ids just above
        // them have tags EMPTY and 2^32 + k, which truncate to "empty way"
        // and to the low resident tag k.
        let top = (EMPTY as u64 - 1) << set_bits;
        let pa = |line: u64| PhysAddr::new(line * 64);
        for (step, &(op, pick, write, count)) in script.iter().enumerate() {
            let pick = pick as u64;
            match op {
                0..=5 => {
                    // A burst of fills, mostly low ids, some under `top`.
                    for k in 0..count as u64 {
                        let line = pick.wrapping_mul(k + 1) % (2 * ways);
                        let line = if pick.is_multiple_of(5) {
                            top + line % sets as u64
                        } else {
                            line
                        };
                        assert_eq!(
                            targeted.access(pa(line), write),
                            scanned.access(pa(line), write)
                        );
                    }
                }
                _ => {
                    // Spans below, at and above the set count; starting
                    // anywhere, so most wrap the set index; some reaching
                    // past `top`, some aliasing low tags from 2^32 up.
                    let width = match pick % 4 {
                        0 => sets as u64,
                        1 => sets as u64 + 1 + count as u64,
                        _ => 1 + (pick / 4) % (sets as u64).max(2),
                    };
                    let first = match op {
                        6..=8 => pick % (2 * ways),
                        9 => top + pick % (sets as u64),
                        _ => (1u64 << 32 << set_bits) + pick % (2 * ways),
                    };
                    let last = first + width - 1;
                    targeted.invalidate_lines(first, last);
                    scanned.invalidate_where(|id| (first..=last).contains(&id));
                }
            }
            for set in 0..sets {
                assert_eq!(
                    (targeted.tags[set].0, targeted.order[set]),
                    (scanned.tags[set].0, scanned.order[set]),
                    "set {set} after step {step}"
                );
            }
            assert_eq!(targeted.live_lines(), scanned.live_lines(), "step {step}");
            assert_eq!(targeted.counts, scanned.counts, "counters, step {step}");
            assert_eq!(targeted.check(), Vec::<String>::new(), "step {step}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn invalidate_lines_matches_the_predicate_scan(
            script in prop::collection::vec(
                (0u32..11, 0usize..100_000, any::<bool>(), 1usize..6),
                300..400,
            ),
        ) {
            for assoc in [1, 2, 4, 8, 16] {
                for sets in [1, 4, 128] {
                    run_invalidate_script(assoc, sets, &script);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Vacating commutes: invalidating line spans one at a time, in any
        /// order, leaves the same tags, recency words and counters as one
        /// `invalidate_where` pass over their union. (A set's recency word
        /// after a vacate is a function of which ways are empty and the
        /// survivors' old order.) This is what lets `mbind` back-invalidate
        /// every frame it freed in one pass at the end of the call.
        #[test]
        fn invalidating_spans_in_any_order_matches_one_pass_over_their_union(
            fills in prop::collection::vec((0u64..4096, any::<bool>()), 300..900),
            spans in prop::collection::vec((0u64..4096, 0u64..160), 1..16),
            keys in prop::collection::vec(any::<u64>(), 16..17),
        ) {
            // Spans applied in the order of their (random) keys.
            let mut order: Vec<usize> = (0..spans.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            for (assoc, sets) in [(1, 4), (2, 32), (8, 128), (16, 128)] {
                let mut one_by_one = Cache::new(CacheConfig::new(sets * assoc * 64, assoc, 64));
                for &(line, write) in &fills {
                    one_by_one.access(PhysAddr::new(line * 64), write);
                }
                let mut union = one_by_one.clone();
                for &i in &order {
                    let (first, width) = spans[i];
                    one_by_one.invalidate_lines(first, first + width);
                }
                union.invalidate_where(|line| {
                    spans.iter().any(|&(first, width)| (first..=first + width).contains(&line))
                });
                for set in 0..sets {
                    prop_assert_eq!(
                        (one_by_one.tags[set].0, one_by_one.order[set]),
                        (union.tags[set].0, union.order[set]),
                        "set {} at {} ways x {} sets", set, assoc, sets
                    );
                }
                prop_assert_eq!(one_by_one.counts, union.counts);
                prop_assert!(one_by_one.check().is_empty());
            }
        }
    }

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
    #[should_panic(expected = "associativity above 16 is not modelled")]
    fn assoc_above_16_is_rejected() {
        let _ = CacheConfig::new(32 * 64 * 4, 32, 64);
    }

    #[test]
    #[should_panic(expected = "does not fit the 32-bit LLC tag")]
    fn oversized_line_tag_is_rejected() {
        // 4 sets: a tier-1 address (bit 40) leaves a 33-bit tag.
        small().access(PhysAddr::new(1 << 40), false);
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
            assert_eq!((ob, sb), (ol, sl), "probe at {addr:#x}");
            batched.rehit_run(sb, reads, writes);
            // A re-touch is a plain access of the line that was just probed.
            for _ in 0..reads {
                assert_eq!(looped.access(pa, false), CacheOutcome::Hit);
            }
            for _ in 0..writes {
                assert_eq!(looped.access(pa, true), CacheOutcome::Hit);
            }
        }
        assert_eq!(batched.counts, looped.counts);
        // Replacement state agrees: the same victims are chosen afterwards.
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
        assert_eq!(batched.counts, looped.counts);
        // Replacement state agrees: the same victims are chosen afterwards.
        for addr in (0..0x800u64).step_by(0x100) {
            assert_eq!(
                batched.access(PhysAddr::new(addr), false),
                looped.access(PhysAddr::new(addr), false)
            );
        }
    }

    #[test]
    fn a_rehit_line_survives_the_next_eviction() {
        // 4 sets x 2 ways: lines 0x000, 0x100, 0x200 all map to set 0.
        let mut c = small();
        assert_eq!(c.access(PhysAddr::new(0x000), false), CacheOutcome::Miss);
        assert_eq!(c.access(PhysAddr::new(0x100), false), CacheOutcome::Miss);
        let (o, slot) = c.access_slot(PhysAddr::new(0x000), false);
        assert_eq!(o, CacheOutcome::Hit);
        c.rehit_run(slot, 3, 0);
        // 0x100 is the LRU line, so the fill of 0x200 evicts it.
        assert_eq!(c.access(PhysAddr::new(0x200), false), CacheOutcome::Miss);
        assert_eq!(c.access(PhysAddr::new(0x000), false), CacheOutcome::Hit);
        assert_eq!(c.access(PhysAddr::new(0x100), false), CacheOutcome::Miss);
        assert_eq!(c.read_hits(), 5);
    }

    #[test]
    fn invalidated_ways_refill_lowest_way_first() {
        // One set of four ways, filled in way order 0..4.
        let mut c = Cache::new(CacheConfig::new(256, 4, 64));
        let slots: Vec<usize> = (0..4u64)
            .map(|line| c.access_slot(PhysAddr::new(line * 64), false).1)
            .collect();
        assert_eq!(slots, [0, 1, 2, 3]);
        // Vacate ways 3 and 1 (in that recency order they were 4th and 2nd).
        c.invalidate_where(|id| id == 3 || id == 1);
        assert_eq!(c.check(), Vec::<String>::new());
        let refill: Vec<usize> = (10..14u64)
            .map(|line| c.access_slot(PhysAddr::new(line * 64), false).1)
            .collect();
        // Empty ways first, ascending; then the survivors, oldest first.
        assert_eq!(refill, [1, 3, 0, 2]);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        let pa = PhysAddr::new(0x40);
        c.access(pa, false);
        c.flush();
        assert_eq!(c.access(pa, false), CacheOutcome::Miss);
    }

    #[test]
    fn self_check_flags_planted_faults() {
        let mut c = small();
        for line in 0..8u64 {
            c.access(PhysAddr::new(line * 64), false);
        }
        assert!(c.check().is_empty());
        c.corrupt_for_test();
        let violations = c.check();
        assert!(
            violations.iter().any(|v| v.contains("not a permutation")),
            "planted fault not reported: {violations:?}"
        );
        // An empty way above a resident one in the recency word.
        let mut c = small();
        c.access(PhysAddr::new(0), false);
        c.order[0] = 0x10;
        assert!(c.check().iter().any(|v| v.contains("empty ways")));
        // A duplicated tag and a tag in a padding lane.
        let mut c = small();
        c.tags[1].0 = [7; LANES];
        let violations = c.check();
        assert!(violations.iter().any(|v| v.contains("held twice")));
        assert!(violations.iter().any(|v| v.contains("beyond way 2")));
    }
}
