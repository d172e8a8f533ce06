//! LRU translation-lookaside buffer model.
//!
//! One entry covers one mapping unit: a 4 KiB page of a base mapping or a
//! whole 2 MiB huge mapping (keys produced by
//! [`Mapping::tlb_key`](crate::mapping::Mapping::tlb_key)). A miss costs a
//! page walk in the cost model; counting misses after migration is how the
//! simulator reproduces Table 4 of the paper.

/// "No node": ends the recency list, the free list and the hash chains.
const NIL: u32 = u32::MAX;

/// One resident entry: its key, its neighbours in the recency list (`prev`
/// is towards the most recently used end) and the next entry hashed to the
/// same bucket. A vacant node is chained through `next` on the free list.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
    chain: u32,
}

/// Exact-LRU TLB with a fixed number of entries (512 on the NVM-DRAM
/// preset, 4096 on KNL).
///
/// Entries live in a node array threaded into a doubly linked recency list
/// (`head` = most recently used, `tail` = the LRU victim) and are found
/// through a chained hash table of node indices (multiplicative hash, two
/// buckets per entry, so chains are mostly empty or one node long). Every
/// operation is O(1) whatever the capacity: a hit is one bucket probe and
/// a move-to-front, a miss evicts `tail`.
///
/// Each access is the unique most recent one when it happens, so
/// move-to-front keeps the list in exactly the order a per-entry "last
/// access tick" would sort it, and `tail` is the entry with the minimum
/// tick. That only holds because every touch is applied *when it happens*:
/// a side-memo that defers re-stamps and settles them later, out of tick
/// order, cannot be layered on a recency list — and a plain hit is cheap
/// enough not to need one.
#[derive(Debug)]
pub struct Tlb {
    nodes: Vec<Node>,
    /// First node of each bucket's chain.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash keeps the top bits.
    shift: u32,
    head: u32,
    tail: u32,
    free: u32,
    len: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        assert!(
            capacity < NIL as usize / 2,
            "TLB capacity exceeds u32 node ids"
        );
        let buckets = (capacity * 2).next_power_of_two();
        Tlb {
            nodes: Vec::with_capacity(capacity),
            buckets: vec![NIL; buckets],
            shift: 64 - buckets.trailing_zeros(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Bucket of `key` (Fibonacci multiplicative hash, top bits).
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The node holding `key`, if resident.
    #[inline]
    fn find(&self, key: u64) -> Option<u32> {
        let mut n = self.buckets[self.bucket(key)];
        while n != NIL {
            let node = &self.nodes[n as usize];
            if node.key == key {
                return Some(n);
            }
            n = node.chain;
        }
        None
    }

    /// Takes node `n` out of its bucket's chain.
    fn unchain(&mut self, n: u32) {
        let Node { key, chain, .. } = self.nodes[n as usize];
        let b = self.bucket(key);
        if self.buckets[b] == n {
            self.buckets[b] = chain;
            return;
        }
        let mut p = self.buckets[b];
        while self.nodes[p as usize].chain != n {
            p = self.nodes[p as usize].chain;
        }
        self.nodes[p as usize].chain = chain;
    }

    fn unlink(&mut self, n: u32) {
        let Node { prev, next, .. } = self.nodes[n as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.nodes[x as usize].prev = prev,
        }
    }

    fn push_front(&mut self, n: u32) {
        let old = self.head;
        self.nodes[n as usize].prev = NIL;
        self.nodes[n as usize].next = old;
        match old {
            NIL => self.tail = n,
            h => self.nodes[h as usize].prev = n,
        }
        self.head = n;
    }

    /// Makes `key` resident as the most recently used entry, evicting the
    /// LRU entry if the TLB is full.
    fn fill(&mut self, key: u64) {
        let n = if self.len == self.capacity {
            let victim = self.tail;
            self.unchain(victim);
            self.unlink(victim);
            victim
        } else {
            self.len += 1;
            match self.free {
                NIL => {
                    self.nodes.push(Node {
                        key,
                        prev: NIL,
                        next: NIL,
                        chain: NIL,
                    });
                    (self.nodes.len() - 1) as u32
                }
                n => {
                    self.free = self.nodes[n as usize].next;
                    n
                }
            }
        };
        let b = self.bucket(key);
        self.nodes[n as usize].key = key;
        self.nodes[n as usize].chain = self.buckets[b];
        self.buckets[b] = n;
        self.push_front(n);
    }

    /// Drops the resident entry in node `n`.
    fn remove(&mut self, n: u32) {
        self.unchain(n);
        self.unlink(n);
        self.nodes[n as usize].next = self.free;
        self.free = n;
        self.len -= 1;
    }

    /// Number of entries the TLB can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total hits recorded since creation or the last [`reset_counters`].
    ///
    /// [`reset_counters`]: Tlb::reset_counters
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses recorded since creation or the last [`reset_counters`].
    ///
    /// [`reset_counters`]: Tlb::reset_counters
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up `key`; returns `true` on a hit. On a miss the entry is
    /// filled (evicting the LRU entry if full).
    #[inline]
    pub fn access(&mut self, key: u64) -> bool {
        if let Some(n) = self.find(key) {
            self.hits += 1;
            if self.head != n {
                self.unlink(n);
                self.push_front(n);
            }
            return true;
        }
        self.misses += 1;
        self.fill(key);
        false
    }

    /// Performs `count` consecutive lookups of the same `key` as one batch,
    /// returning the outcome of the *first* (`true` = hit). State and
    /// counters end exactly as `count` calls to [`access`](Tlb::access)
    /// would leave them: after the first lookup fills or refreshes the
    /// entry, the remaining `count - 1` are hits of the most recently used
    /// entry, which move nothing.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `count` is zero.
    #[inline]
    pub fn access_run(&mut self, key: u64, count: usize) -> bool {
        debug_assert!(count > 0, "empty TLB run");
        let hit = self.access(key);
        self.hits += (count - 1) as u64;
        hit
    }

    /// Records `count` further hits of `key`, which the caller guarantees
    /// is the most recently accessed key (the window engine's line-run
    /// coalescing: no other TLB operation happened since it probed `key`),
    /// so only the counter moves. The fallback probe is defensive.
    #[inline]
    pub(crate) fn rehit(&mut self, key: u64, count: usize) {
        debug_assert!(count > 0, "empty TLB rehit");
        if self.head != NIL && self.nodes[self.head as usize].key == key {
            self.hits += count as u64;
        } else {
            debug_assert!(false, "rehit key is not the most recently used entry");
            self.access_run(key, count);
        }
    }

    /// Invalidates a single entry, as a TLB shootdown for one unit would.
    pub fn invalidate(&mut self, key: u64) {
        if let Some(n) = self.find(key) {
            self.remove(n);
        }
    }

    /// Invalidates every entry whose key satisfies `pred` (range shootdown).
    pub fn invalidate_where(&mut self, mut pred: impl FnMut(u64) -> bool) {
        let mut n = self.head;
        while n != NIL {
            let Node { key, next, .. } = self.nodes[n as usize];
            if pred(key) {
                self.remove(n);
            }
            n = next;
        }
    }

    /// The keys of every resident entry, most recently used first. Used by
    /// the machine invariant auditor.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        let mut n = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(n as usize)?;
            n = node.next;
            Some(node.key)
        })
    }

    /// Drops all entries (full flush), keeping the counters.
    pub fn flush(&mut self) {
        self.nodes.clear();
        self.buckets.fill(NIL);
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
        self.len = 0;
    }

    /// Zeroes the hit/miss counters, keeping the entries. Used to scope the
    /// post-migration TLB-miss measurement to one application iteration.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Adds another TLB's hit/miss counters into this one (deterministic
    /// core merge: entries are discarded, totals are summed).
    pub(crate) fn absorb_counters(&mut self, other: &Tlb) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Structural self-check for [`Machine::audit`](crate::Machine::audit):
    /// the recency list, the hash chains and the free list must describe
    /// the same `len <= capacity` entries. Returns the violations found.
    pub(crate) fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.len > self.capacity {
            violations.push(format!(
                "TLB holds {} entries, capacity {}",
                self.len, self.capacity
            ));
        }
        // Walks are bounded by the node count so a corrupt cycle ends them.
        let bound = self.nodes.len();
        let mut listed = 0usize;
        let mut prev = NIL;
        let mut n = self.head;
        while let Some(node) = self.nodes.get(n as usize).filter(|_| listed < bound) {
            if node.prev != prev {
                violations.push(format!("TLB node {n} has a broken back link"));
            }
            if self.find(node.key) != Some(n) {
                violations.push(format!(
                    "TLB entry {:#x} is listed but not hashed to its node",
                    node.key
                ));
            }
            listed += 1;
            prev = n;
            n = node.next;
        }
        if n != NIL || self.tail != prev {
            violations.push("TLB recency list does not end at its tail".to_string());
        }
        let mut hashed = 0usize;
        for &first in &self.buckets {
            let mut n = first;
            while let Some(node) = self.nodes.get(n as usize).filter(|_| hashed <= bound) {
                hashed += 1;
                n = node.chain;
            }
        }
        let mut vacant = 0usize;
        let mut n = self.free;
        while let Some(node) = self.nodes.get(n as usize).filter(|_| vacant <= bound) {
            vacant += 1;
            n = node.next;
        }
        if listed != self.len || hashed != self.len || listed + vacant != bound {
            violations.push(format!(
                "TLB index drift: len {}, {listed} listed, {hashed} hashed, \
                 {vacant} vacant of {bound} nodes",
                self.len
            ));
        }
        violations
    }

    /// Unhashes the LRU entry without unlinking it, so the recency list
    /// names a key the table cannot find (the planted fault the audit
    /// tests expect [`check`](Tlb::check) to report).
    #[cfg(test)]
    pub(crate) fn corrupt_for_test(&mut self) {
        self.unchain(self.tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem_prop::prelude::*;
    use std::collections::HashMap;

    /// The oracle: a map from key to the tick of its last access and a full
    /// minimum scan per eviction.
    struct StampTlb {
        stamps: HashMap<u64, u64>,
        capacity: usize,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl StampTlb {
        fn new(capacity: usize) -> Self {
            StampTlb {
                stamps: HashMap::new(),
                capacity,
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, key: u64) -> bool {
            self.tick += 1;
            if let Some(ts) = self.stamps.get_mut(&key) {
                *ts = self.tick;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if self.stamps.len() >= self.capacity {
                let (&victim, _) = self.stamps.iter().min_by_key(|&(_, &ts)| ts).unwrap();
                self.stamps.remove(&victim);
            }
            self.stamps.insert(key, self.tick);
            false
        }

        /// `count` scalar accesses; the outcome of the first.
        fn access_run(&mut self, key: u64, count: usize) -> bool {
            let first = self.access(key);
            for _ in 1..count {
                assert!(self.access(key), "repeat of key {key} must hit");
            }
            first
        }

        fn sorted_keys(&self) -> Vec<u64> {
            let mut keys: Vec<u64> = self.stamps.keys().copied().collect();
            keys.sort_unstable();
            keys
        }
    }

    fn sorted_keys(tlb: &Tlb) -> Vec<u64> {
        let mut keys: Vec<u64> = tlb.keys().collect();
        keys.sort_unstable();
        keys
    }

    /// Keys for a script against a TLB of `capacity`: a group sharing one
    /// bucket (long chains, mid-chain removal), two small keys, and a dense
    /// range far wider than the capacity so random draws thrash.
    fn key_pool(capacity: usize) -> Vec<u64> {
        let probe = Tlb::new(capacity);
        let home = probe.bucket(1);
        let mut pool: Vec<u64> = (2..)
            .filter(|&k| probe.bucket(k) == home)
            .take(capacity.min(6) + 2)
            .collect();
        pool.extend([1, 56]);
        pool.extend(1000..1000 + 4 * capacity as u64 + 8);
        pool
    }

    /// Runs one random script through the new TLB and the stamp oracle,
    /// comparing every return value, the counters, `len` and the resident
    /// key set after every step, and the structural self-check. The first
    /// `prefill` pool keys are accessed before the script starts. Returns
    /// the number of script steps that evicted (missed on a full TLB).
    fn run_script(capacity: usize, prefill: usize, script: &[(u32, usize, usize)]) -> usize {
        let pool = key_pool(capacity);
        let mut tlb = Tlb::new(capacity);
        let mut oracle = StampTlb::new(capacity);
        for &key in &pool[..prefill] {
            assert_eq!(tlb.access(key), oracle.access(key), "prefill of {key}");
        }
        // Range shootdowns and flushes thin out with the capacity, so a
        // large TLB stays full and keeps evicting instead of draining.
        let sparse = (capacity / 8).max(1);
        let mut evictions = 0;
        // The key `rehit` may name: the one the previous step accessed.
        let mut last: Option<u64> = None;
        for (step, &(op, pick, count)) in script.iter().enumerate() {
            let key = pool[pick % pool.len()];
            let (was_full, misses_before) = (tlb.len() == capacity, tlb.misses());
            match (op, last) {
                (0..=2, _) => {
                    assert_eq!(tlb.access(key), oracle.access(key), "step {step}");
                    last = Some(key);
                }
                (3..=4, _) => {
                    assert_eq!(
                        tlb.access_run(key, count),
                        oracle.access_run(key, count),
                        "step {step}"
                    );
                    last = Some(key);
                }
                (5..=6, Some(mru)) => {
                    tlb.rehit(mru, count);
                    assert!(oracle.access_run(mru, count), "step {step}");
                }
                (5..=6, None) => {
                    assert_eq!(tlb.access(key), oracle.access(key), "step {step}");
                    last = Some(key);
                }
                (7, _) => {
                    tlb.invalidate(key);
                    oracle.stamps.remove(&key);
                    last = None;
                }
                (8, _) => {
                    let m = ((count + 1) * sparse) as u64;
                    tlb.invalidate_where(|k| k % m == 0);
                    oracle.stamps.retain(|&k, _| k % m != 0);
                    last = None;
                }
                _ => {
                    // Full flushes are rare in real runs; keep them rare
                    // here so scripts reach steady-state eviction.
                    if pick % (8 * sparse) == 0 {
                        tlb.flush();
                        oracle.stamps.clear();
                        last = None;
                    }
                }
            }
            assert_eq!(tlb.hits(), oracle.hits, "hits after step {step}");
            assert_eq!(tlb.misses(), oracle.misses, "misses after step {step}");
            assert_eq!(tlb.len(), oracle.stamps.len(), "len after step {step}");
            assert_eq!(sorted_keys(&tlb), oracle.sorted_keys(), "keys, step {step}");
            assert_eq!(tlb.check(), Vec::<String>::new(), "self-check, step {step}");
            if was_full && tlb.misses() > misses_before {
                evictions += 1;
            }
        }
        evictions
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn matches_the_stamp_scan_oracle(
            cap_pick in 0usize..4,
            script in prop::collection::vec((0u32..10, 0usize..10_000, 1usize..5), 1..400),
        ) {
            run_script([1, 2, 3, 8][cap_pick], 0, &script);
        }

        #[test]
        fn matches_the_stamp_scan_oracle_at_512_entries(
            script in prop::collection::vec((0u32..10, 0usize..10_000, 1usize..5), 2500..3000),
        ) {
            // Starts full (more distinct keys than entries), so the script
            // thrashes at the production capacity from its first miss.
            let evictions = run_script(512, 512 + 64, &script);
            prop_assert!(evictions >= 100, "only {evictions} evictions at 512 entries");
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.access(1));
        assert!(tlb.access(1));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.access(1);
        tlb.access(2);
        tlb.access(1); // 2 is now LRU
        tlb.access(3); // evicts 2
        assert!(tlb.access(1));
        assert!(!tlb.access(2));
    }

    #[test]
    fn capacity_is_respected() {
        let mut tlb = Tlb::new(8);
        for k in 0..100 {
            tlb.access(k);
        }
        assert_eq!(tlb.len(), 8);
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut tlb = Tlb::new(4);
        tlb.access(7);
        tlb.invalidate(7);
        assert!(!tlb.access(7));
    }

    #[test]
    fn invalidate_where_is_selective() {
        let mut tlb = Tlb::new(8);
        for k in 0..6 {
            tlb.access(k);
        }
        tlb.invalidate_where(|k| k % 2 == 0);
        assert_eq!(tlb.len(), 3);
        assert!(tlb.access(1));
        assert!(!tlb.access(0));
    }

    #[test]
    fn access_run_matches_the_per_element_loop() {
        let mut batched = Tlb::new(4);
        let mut looped = Tlb::new(4);
        // Runs interleaved with competing keys, enough to force evictions.
        for &(key, count) in &[
            (1u64, 5usize),
            (2, 3),
            (1, 2),
            (3, 1),
            (4, 7),
            (5, 2),
            (1, 4),
            (6, 1),
            (2, 6),
        ] {
            let first_batched = batched.access_run(key, count);
            let first_looped = looped.access(key);
            for _ in 1..count {
                assert!(looped.access(key), "repeat of key {key} must hit");
            }
            assert_eq!(first_batched, first_looped, "outcome for key {key}");
        }
        assert_eq!(batched.hits(), looped.hits());
        assert_eq!(batched.misses(), looped.misses());
        // The LRU state is identical too: future evictions agree.
        for k in 100..120 {
            assert_eq!(batched.access(k), looped.access(k));
        }
    }

    #[test]
    fn window_api_matches_the_per_element_loop() {
        let mut windowed = Tlb::new(3);
        let mut looped = Tlb::new(3);
        // The window engine's call shape — `access_run` on a key change,
        // then `rehit` for the touches it coalesced — interleaved with
        // scalar accesses and enough distinct keys to force evictions.
        let script: &[(u64, usize, usize)] = &[
            (1, 2, 3), // miss, fills; three coalesced touches
            (56, 1, 0),
            (2, 1, 1), // miss, fills
            (1, 2, 0), // hit
            (3, 1, 2), // miss, full: evicts
            (1, 1, 0),
            (2, 2, 4),
            (3, 1, 0),
            (4, 2, 1), // eviction again
            (1, 4, 0),
        ];
        for &(key, count, coalesced) in script {
            let got = windowed.access_run(key, count);
            if coalesced > 0 {
                windowed.rehit(key, coalesced);
            }
            let want = looped.access(key);
            for _ in 1..count + coalesced {
                assert!(looped.access(key), "repeat of key {key} must hit");
            }
            assert_eq!(got, want, "outcome for key {key}");
            assert_eq!(windowed.hits(), looped.hits(), "hits after key {key}");
            assert_eq!(windowed.misses(), looped.misses(), "misses after key {key}");
        }
        // Replacement state is identical: future evictions agree.
        for k in 100..130 {
            assert_eq!(windowed.access(k), looped.access(k), "probe of {k}");
        }
        assert_eq!(windowed.hits(), looped.hits());
        assert_eq!(windowed.misses(), looped.misses());
    }

    #[test]
    fn rehit_counts_hits_and_keeps_the_entry_most_recent() {
        let mut tlb = Tlb::new(2);
        assert!(!tlb.access_run(1, 1));
        assert!(!tlb.access_run(2, 1));
        assert!(tlb.access_run(1, 1)); // 1 is most recent again, 2 is LRU
        tlb.rehit(1, 2);
        assert!(!tlb.access(3), "3 must miss");
        assert!(tlb.access(1), "re-touched 1 must survive the eviction");
        assert!(!tlb.access(2), "2 was LRU and must have been evicted");
        assert_eq!(tlb.hits(), 4);
    }

    #[test]
    fn self_check_flags_planted_faults() {
        let mut tlb = Tlb::new(4);
        for k in 0..4 {
            tlb.access(k);
        }
        assert!(tlb.check().is_empty());
        tlb.corrupt_for_test();
        let violations = tlb.check();
        assert!(
            violations.iter().any(|v| v.contains("not hashed")),
            "planted fault not reported: {violations:?}"
        );
    }

    #[test]
    fn reset_counters_keeps_entries() {
        let mut tlb = Tlb::new(4);
        tlb.access(1);
        tlb.reset_counters();
        assert_eq!(tlb.misses(), 0);
        assert!(tlb.access(1), "entry should have survived the reset");
    }
}
