//! Memory tiers: identifiers, performance specifications, and backing storage.

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::addr::{PAGE_SHIFT, PAGE_SIZE};
use crate::cost::{CostModel, SimDuration};
use crate::frame::FrameRun;
use crate::shard::{BlockSegment, Chunk, CHUNK_SHIFT, CHUNK_SIZE};

/// Identifier of a memory tier on a [`Machine`](crate::Machine).
///
/// A typical heterogeneous memory system has exactly two tiers; the constants
/// [`TierId::FAST`] and [`TierId::SLOW`] name them. The type nonetheless
/// supports machines with more tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(u8);

impl TierId {
    /// The small-capacity high-performance tier (DRAM next to Optane NVM, or
    /// MCDRAM next to DDR4 on KNL).
    pub const FAST: TierId = TierId(0);
    /// The large-capacity low-performance tier (Optane NVM, or DDR4 on KNL).
    pub const SLOW: TierId = TierId(1);

    /// Creates a tier identifier from a machine-local index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds 255 (far beyond any real tier count).
    pub const fn new(index: usize) -> Self {
        assert!(index <= u8::MAX as usize, "tier index out of range");
        TierId(index as u8)
    }

    /// Machine-local index of the tier.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The id one tier hotter (lower index), or `None` at the hottest tier.
    pub const fn hotter(self) -> Option<TierId> {
        match self.0 {
            0 => None,
            i => Some(TierId(i - 1)),
        }
    }

    /// The id one tier colder (higher index) on a machine with `num_tiers`
    /// tiers, or `None` at the coldest tier.
    pub const fn colder(self, num_tiers: usize) -> Option<TierId> {
        if (self.0 as usize) + 1 < num_tiers {
            Some(TierId(self.0 + 1))
        } else {
            None
        }
    }
}

impl fmt::Display for TierId {
    /// Positional form, `tier{i}`. Ids carry no machine context, so the
    /// human-readable tier name must come from the platform:
    /// [`Platform::tier_name`](crate::platform::Platform::tier_name) resolves
    /// an id against the tier set (e.g. `"HBM"`, `"DRAM"`), falling back to
    /// this positional form for out-of-range ids.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Performance and capacity specification of one memory tier.
///
/// Bandwidths are in bytes per nanosecond (equal to GB/s), latencies in
/// nanoseconds. The values for the two paper testbeds live in
/// [`Platform`](crate::platform::Platform) presets.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Human-readable name, e.g. `"DRAM"` or `"Optane-NVM"`.
    pub name: String,
    /// Capacity in bytes. Must be a multiple of [`PAGE_SIZE`].
    pub capacity: usize,
    /// Idle load-to-use latency of one cache-line fill, in nanoseconds.
    pub load_latency_ns: f64,
    /// Peak sequential read bandwidth, bytes/ns (== GB/s).
    pub read_bw: f64,
    /// Peak sequential write bandwidth, bytes/ns (== GB/s).
    pub write_bw: f64,
    /// Copy bandwidth achievable by a single thread, bytes/ns. Multi-threaded
    /// copies scale linearly in thread count until the tier peak is reached.
    pub per_thread_copy_bw: f64,
    /// Fraction of the peak bandwidth available to *random* (cache-line
    /// granular) demand accesses, in (0, 1]. Optane NVM collapses under
    /// random concurrent reads to well below its sequential figure (Peng et
    /// al., MEMSYS'19, cited by the paper), which is where the >3x
    /// application slowdowns of Figure 1a come from despite the 3x latency
    /// gap. Sequential copy engines (migration) still see the full peak.
    pub random_bw_factor: f64,
}

impl TierSpec {
    /// Creates a specification, validating geometry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not page-aligned, the latency is not
    /// finite and positive, or any rate is non-positive.
    pub fn new(
        name: impl Into<String>,
        capacity: usize,
        load_latency_ns: f64,
        read_bw: f64,
        write_bw: f64,
        per_thread_copy_bw: f64,
    ) -> Self {
        let spec = TierSpec {
            name: name.into(),
            capacity,
            load_latency_ns,
            read_bw,
            write_bw,
            per_thread_copy_bw,
            random_bw_factor: 1.0,
        };
        spec.check();
        spec
    }

    /// The checks of [`new`](TierSpec::new) and
    /// [`with_random_bw_factor`](TierSpec::with_random_bw_factor), naming
    /// the tier and the value that fails.
    pub(crate) fn check(&self) {
        let (tier, capacity, latency) = (&self.name, self.capacity, self.load_latency_ns);
        assert!(
            capacity > 0 && capacity.is_multiple_of(PAGE_SIZE),
            "tier `{tier}` capacity {capacity} must be positive and page-aligned"
        );
        assert!(
            latency.is_finite() && latency > 0.0,
            "tier `{tier}` load latency {latency} must be finite and positive"
        );
        let rates = [("read_bw", self.read_bw), ("write_bw", self.write_bw)];
        for (what, bw) in rates
            .into_iter()
            .chain([("per_thread_copy_bw", self.per_thread_copy_bw)])
        {
            assert!(bw > 0.0, "tier `{tier}` {what} {bw} must be positive");
        }
        let factor = self.random_bw_factor;
        assert!(
            factor > 0.0 && factor <= 1.0,
            "tier `{tier}` random_bw_factor {factor} must be in (0, 1]"
        );
    }

    /// Sets the random-access bandwidth factor (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is in (0, 1].
    #[must_use]
    pub fn with_random_bw_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        self.random_bw_factor = factor;
        self
    }

    /// Number of 4 KiB frames on the tier.
    pub fn frame_count(&self) -> usize {
        self.capacity / PAGE_SIZE
    }

    /// Effective copy read bandwidth with `threads` copier threads.
    pub fn copy_read_bw(&self, threads: usize) -> f64 {
        (self.per_thread_copy_bw * threads.max(1) as f64).min(self.read_bw)
    }

    /// Effective copy write bandwidth with `threads` copier threads.
    pub fn copy_write_bw(&self, threads: usize) -> f64 {
        (self.per_thread_copy_bw * threads.max(1) as f64).min(self.write_bw)
    }
}

/// What keeps an adopted buffer alive while read-only pages alias it: the
/// caller's own `Arc`, type-erased.
pub(crate) type KeepAlive = Arc<dyn Any + Send + Sync>;

/// Pages no machine is using, locked once per [`TierStorage`] call. A new
/// slab is cut only while the pool is empty, so the process never holds
/// more than the peak number of pages live at once, rounded up to a slab.
/// One pool for the process: slab memory is never returned to the
/// allocator, so a pool that died with its thread would strand it.
static POOL: Mutex<Pool> = Mutex::new(Pool {
    recycled: Vec::new(),
    fresh: Vec::new(),
});

#[derive(Debug)]
struct Pool {
    /// Released by a machine, holding what their last frame held: handed
    /// out first.
    recycled: Vec<Chunk>,
    /// Cut from a slab and never handed out: known zero. Popped in address
    /// order, so the pages of a run backed at once lie back to back.
    fresh: Vec<Chunk>,
}

/// The pool, whether or not a thread panicked holding it: a `Vec` push or
/// pop leaves it valid at every step.
fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Takes `n` pages, recycled ones first; with `zero` they read zero
    /// (and come in address order), without their bytes are unspecified.
    fn take(&mut self, n: usize, zero: bool) -> Vec<Chunk> {
        let mut pages = self
            .recycled
            .split_off(self.recycled.len().saturating_sub(n));
        if zero {
            Chunk::zero(&mut pages);
        }
        while pages.len() < n {
            if self.fresh.is_empty() {
                self.fresh.extend(Chunk::slab().rev());
            }
            pages.extend(self.fresh.pop());
        }
        pages
    }

    /// One page, its bytes unspecified.
    fn page(&mut self) -> Chunk {
        self.take(1, false).pop().expect("one page taken")
    }
}

/// The slot's frame backs a mapping (a [`TierStorage`] flag).
const MAPPED: u8 = 1;
/// The slot's bytes are a staging run's, until its replay
/// ([`TierStorage::pin`]). A slot is backed exactly while mapped or pinned.
const PINNED: u8 = 2;
/// The slot's page is a stretch of an adopted buffer: never written, never
/// pooled.
pub(crate) const READ_ONLY: u8 = 4;

/// log2 of [`LEAF`].
pub(crate) const LEAF_SHIFT: u32 = 9;
/// Slots per [`Leaf`] of the page table: 512 frames, 2 MiB of a tier.
pub(crate) const LEAF: usize = 1 << LEAF_SHIFT;

/// The pages and flags of [`LEAF`] consecutive slots of the page table,
/// made the first time one of them is backed.
#[derive(Debug)]
pub(crate) struct Leaf {
    pub(crate) pages: [Option<Chunk>; LEAF],
    /// [`MAPPED`], [`PINNED`] and [`READ_ONLY`], slot for slot.
    pub(crate) flags: [u8; LEAF],
}

/// The page and flags of `slot` in `dir`, its leaf made if it has none.
fn entry(dir: &mut [Option<Box<Leaf>>], slot: usize) -> (&mut Option<Chunk>, &mut u8) {
    let leaf = dir[slot >> LEAF_SHIFT].get_or_insert_with(|| {
        Box::new(Leaf {
            pages: [const { None }; LEAF],
            flags: [0; LEAF],
        })
    });
    let i = slot & (LEAF - 1);
    (&mut leaf.pages[i], &mut leaf.flags[i])
}

/// An adopted buffer: the host addresses its read-only pages span (inside
/// it, so disjoint from every other's), how many there are, and the
/// keep-alive held once for all of them.
#[derive(Debug)]
struct Held {
    span: Range<usize>,
    pages: usize,
    keep: KeepAlive,
}

/// Host backing of every tier of one machine: data written through the
/// simulator *actually lives here*, so migration really moves bytes.
///
/// A tier is a row of slots, one per 4 KiB frame, and a slot holds a page
/// ([`Chunk`]) exactly while its frame backs a mapping or is *pinned* (a
/// staged region's source frame, until its replay); a staging run's own
/// frames never are. A page may be *read-only*, a stretch of a buffer the
/// caller handed over ([`adopt_frames`](TierStorage::adopt_frames)): every
/// write path first trades it for an owned copy
/// ([`owned`](TierStorage::owned)), the per-core views refuse to write it,
/// and it is dropped, never pooled.
#[derive(Debug)]
pub(crate) struct TierStorage {
    /// The page table's directory: leaf `slot >> LEAF_SHIFT` holds slot
    /// `tier * stride + frame`. A leaf is made only once one of its frames
    /// is backed, so a machine costs host memory for the frames it backs,
    /// not for its capacity. The per-core views read it (`shard::TiersView`).
    pub(crate) dir: Vec<Option<Box<Leaf>>>,
    /// The adopted buffers the read-only pages alias.
    held: Vec<Held>,
    /// Bytes copied from one page into another: a copy-on-write, an
    /// adoption's partial page, an `mbind` move off a pinned frame.
    pub(crate) copied: u64,
    /// Slots per tier: the widest tier's frame count.
    pub(crate) stride: usize,
}

impl TierStorage {
    /// Storage for the given tiers, nothing backed yet.
    pub(crate) fn new(specs: &[TierSpec]) -> Self {
        let stride = specs.iter().map(TierSpec::frame_count).max().unwrap_or(0);
        let leaves = (specs.len() * stride).div_ceil(LEAF);
        TierStorage {
            dir: (0..leaves).map(|_| None).collect(),
            held: Vec::new(),
            copied: 0,
            stride,
        }
    }

    /// Slots backed by a page.
    pub(crate) fn backed(&self) -> usize {
        let leaves = self.dir.iter().flatten();
        leaves.map(|leaf| leaf.pages.iter().flatten().count()).sum()
    }

    /// The page of `slot`, if it is backed.
    fn page(&self, slot: usize) -> Option<&Chunk> {
        let leaf = self.dir[slot >> LEAF_SHIFT].as_ref()?;
        leaf.pages[slot & (LEAF - 1)].as_ref()
    }

    /// The flags of `slot`.
    fn flags(&self, slot: usize) -> u8 {
        let leaf = self.dir[slot >> LEAF_SHIFT].as_ref();
        leaf.map_or(0, |leaf| leaf.flags[slot & (LEAF - 1)])
    }

    /// `slot` named as a frame of a tier, for a message.
    fn frame(&self, slot: usize) -> String {
        let tier = TierId::new(slot / self.stride);
        format!("frame {} of {tier}", slot % self.stride)
    }

    /// The table slots of `run` on `tier`.
    fn slots(&self, tier: TierId, run: FrameRun) -> Range<usize> {
        let first = tier.index() * self.stride + run.start as usize;
        first..first + run.count as usize
    }

    /// The table slots of `piece`, a page-aligned segment.
    fn segment_slots(&self, piece: &BlockSegment) -> Range<usize> {
        let first = piece.tier.index() * self.stride + (piece.offset >> PAGE_SHIFT);
        first..first + (piece.len >> PAGE_SHIFT)
    }

    /// Panics, naming `writer`, if `slot` is pinned: a pinned frame is
    /// written by its own replay alone.
    fn assert_unpinned(&self, slot: usize, writer: &str) {
        assert!(
            self.flags(slot) & PINNED == 0,
            "{writer} would overwrite pinned frames: {} is yet to be replayed",
            self.frame(slot)
        );
    }

    /// Notes that the frames of `run` now back a mapping, backing each one
    /// that was not. With `zero` (a fresh allocation, which panics on a
    /// pinned frame) they read zero; without (a migration destination) their
    /// bytes are unspecified, and a pinned frame keeps its page, or an owned
    /// copy of a read-only one.
    pub(crate) fn map_frames(&mut self, tier: TierId, run: FrameRun, zero: bool) {
        let mut pool = pool();
        let slots = self.slots(tier, run);
        let mut pages = pool.take(slots.len(), zero).into_iter();
        for slot in slots {
            if zero {
                self.assert_unpinned(slot, "a fresh allocation");
            }
            let (page, flags) = entry(&mut self.dir, slot);
            *flags |= MAPPED;
            if page.is_none() {
                *page = pages.next();
            } else {
                self.owned(slot, &mut pool);
            }
        }
        pool.recycled.extend(pages);
    }

    /// Maps the frames of `run`, a run of a fresh allocation, onto `src`:
    /// the allocation's bytes from the run's first page on (past `src` they
    /// read zero). A page wholly inside `src` aliases it, read-only, with
    /// `keep` held; a partial one is a pool page with `src` copied in.
    /// Panics on a pinned frame.
    pub(crate) fn adopt_frames(
        &mut self,
        tier: TierId,
        run: FrameRun,
        src: &[u8],
        keep: &KeepAlive,
    ) {
        for (k, slot) in self.slots(tier, run).enumerate() {
            self.assert_unpinned(slot, "a fresh allocation");
            let rest = src.get(k * PAGE_SIZE..).unwrap_or_default();
            let bytes = &rest[..rest.len().min(PAGE_SIZE)];
            let (page, flags) = entry(&mut self.dir, slot);
            if bytes.len() < PAGE_SIZE {
                let mut copy = pool().take(1, true).pop().expect("one page taken");
                copy.bytes_mut()[..bytes.len()].copy_from_slice(bytes);
                (*page, *flags) = (Some(copy), MAPPED);
                self.copied += bytes.len() as u64;
                continue;
            }
            (*page, *flags) = (Some(Chunk::alias(bytes)), MAPPED | READ_ONLY);
            let at = bytes.as_ptr() as usize;
            match self.held.iter_mut().find(|h| Arc::ptr_eq(&h.keep, keep)) {
                Some(h) => {
                    h.span = h.span.start.min(at)..h.span.end.max(at + PAGE_SIZE);
                    h.pages += 1;
                }
                None => self.held.push(Held {
                    span: at..at + PAGE_SIZE,
                    pages: 1,
                    keep: Arc::clone(keep),
                }),
            }
        }
    }

    /// The page of backed `slot`, to write: the one gate to
    /// [`Chunk::bytes_mut`] on a slot. A read-only page is first traded for
    /// a pool page holding a copy of its bytes.
    fn owned(&mut self, slot: usize, pool: &mut Pool) -> &mut Chunk {
        if self.flags(slot) & READ_ONLY != 0 {
            let (alias, _) = self.take(slot).expect("a read-only slot is backed");
            let mut copy = pool.page();
            copy.bytes_mut().copy_from_slice(alias.bytes());
            *entry(&mut self.dir, slot).0 = Some(copy);
            self.copied += PAGE_SIZE as u64;
            self.release(alias, true, pool);
        }
        let page = entry(&mut self.dir, slot).0.as_mut();
        page.expect("tier storage access to an unbacked chunk")
    }

    /// Takes the page out of `slot`, if it holds one, with whether it was
    /// read-only.
    fn take(&mut self, slot: usize) -> Option<(Chunk, bool)> {
        let (page, flags) = entry(&mut self.dir, slot);
        let read_only = *flags & READ_ONLY != 0;
        *flags &= !READ_ONLY;
        page.take().map(|page| (page, read_only))
    }

    /// Gives back a page taken out of the table: a pool page to the pool; a
    /// read-only one is dropped, and its buffer's keep-alive with the last
    /// page that aliases it.
    fn release(&mut self, page: Chunk, read_only: bool, pool: &mut Pool) {
        if !read_only {
            return pool.recycled.push(page);
        }
        let at = page.bytes().as_ptr() as usize;
        let held = self.held.iter().position(|h| h.span.contains(&at));
        let held = held.expect("a read-only page's buffer is held");
        self.held[held].pages -= 1;
        if self.held[held].pages == 0 {
            self.held.swap_remove(held);
        }
    }

    /// Clears `flag`, which every slot of `slots` must have, releasing the
    /// page of each then neither mapped nor pinned.
    fn clear(&mut self, slots: Range<usize>, flag: u8, what: &str) {
        let mut pool = pool();
        for slot in slots {
            let (_, flags) = entry(&mut self.dir, slot);
            assert!(*flags & flag != 0, "{what} a frame that was not");
            *flags &= !flag;
            if *flags & (MAPPED | PINNED) == 0 {
                if let Some((page, read_only)) = self.take(slot) {
                    self.release(page, read_only, &mut pool);
                }
            }
        }
    }

    /// Notes that the frames of `run` no longer back a mapping, releasing
    /// the page of every one that is not pinned.
    pub(crate) fn unmap_frames(&mut self, tier: TierId, run: FrameRun) {
        self.clear(self.slots(tier, run), MAPPED, "unmapped");
    }

    /// Pins the frames of `piece`, mapped and unpinned: they keep their
    /// pages until [`unpin`](TierStorage::unpin) or
    /// [`replay`](TierStorage::replay), mapped or not.
    pub(crate) fn pin(&mut self, piece: BlockSegment) {
        for slot in self.segment_slots(&piece) {
            let (_, flags) = entry(&mut self.dir, slot);
            assert!(
                *flags & (MAPPED | PINNED) == MAPPED,
                "pinned an unmapped or pinned frame"
            );
            *flags |= PINNED;
        }
    }

    /// Undoes [`pin`](TierStorage::pin), releasing the page of every frame
    /// that is not mapped.
    pub(crate) fn unpin(&mut self, piece: BlockSegment) {
        self.clear(self.segment_slots(&piece), PINNED, "unpinned");
    }

    /// Mutable view of the byte range `[offset, offset + len)` of `tier`,
    /// through the write gate.
    #[cfg(test)]
    pub(crate) fn slice_mut(&mut self, tier: TierId, offset: usize, len: usize) -> &mut [u8] {
        let (slot, within) = self.locate(tier, offset);
        &mut self.owned(slot, &mut pool()).bytes_mut()[within..within + len]
    }

    /// Table slot of the page holding byte `offset` of `tier`, and the
    /// byte's offset within the page.
    fn locate(&self, tier: TierId, offset: usize) -> (usize, usize) {
        let frame = offset >> CHUNK_SHIFT;
        assert!(frame < self.stride, "offset {offset} is beyond {tier}");
        let slot = tier.index() * self.stride + frame;
        (slot, offset & (CHUNK_SIZE - 1))
    }

    /// Immutable view of the byte range `[offset, offset + len)` of `tier`,
    /// inside one backed page.
    pub(crate) fn slice(&self, tier: TierId, offset: usize, len: usize) -> &[u8] {
        let (slot, within) = self.locate(tier, offset);
        let page = self.page(slot);
        &page
            .expect("tier storage access to an unbacked chunk")
            .bytes()[within..within + len]
    }

    /// Moves the pages of `src`, one staging run's pinned sources, into the
    /// mapped frames of `dst` (no longer), in order, and unpins `src`. Each
    /// destination takes its source's page, read-only flag and all: no byte
    /// is copied. Every source page is taken out before any is placed, so a
    /// destination overlapping the source (a rollback remapped onto its own
    /// pinned frames, in any permutation) needs no bounce. A source frame
    /// still mapped but no destination gets a pool page back.
    pub(crate) fn replay(&mut self, src: &[BlockSegment], dst: &[BlockSegment]) {
        let mut pool = pool();
        let sources: Vec<usize> = src.iter().flat_map(|s| self.segment_slots(s)).collect();
        let targets: Vec<usize> = dst.iter().flat_map(|d| self.segment_slots(d)).collect();
        let moving = sources[..targets.len()].iter();
        let pages: Vec<_> = moving.map(|&slot| self.take(slot)).collect();
        for (&slot, page) in targets.iter().zip(pages) {
            let (page, read_only) = page.expect("a pinned frame is backed");
            if let Some((own, read_only)) = self.take(slot) {
                self.release(own, read_only, &mut pool);
            }
            let (target, flags) = entry(&mut self.dir, slot);
            *target = Some(page);
            *flags |= if read_only { READ_ONLY } else { 0 };
        }
        for &slot in &sources {
            if self.flags(slot) & MAPPED != 0 && self.page(slot).is_none() {
                *entry(&mut self.dir, slot).0 = Some(pool.page());
            }
        }
        drop(pool);
        for &piece in src {
            self.unpin(piece);
        }
    }

    /// Moves the page of mapped frame `src` to `dst`, an unbacked, unpinned
    /// frame that replaces it in a mapping (an `mbind` page move): `dst`
    /// takes the page, read-only flag and all, and `src` is unmapped. A
    /// pinned `src` keeps its page for its replay; `dst` gets a copy.
    pub(crate) fn move_page(&mut self, src: (TierId, u32), dst: (TierId, u32)) {
        let from = self.slots(src.0, FrameRun::new(src.1, 1)).start;
        let to = self.slots(dst.0, FrameRun::new(dst.1, 1)).start;
        self.assert_unpinned(to, "an mbind page copy");
        assert!(
            self.flags(from) & MAPPED != 0 && self.page(to).is_none(),
            "a page move needs a mapped source and an unbacked destination"
        );
        let (page, read_only) = match self.page(from) {
            Some(pinned) if self.flags(from) & PINNED != 0 => {
                let mut copy = pool().page();
                copy.bytes_mut().copy_from_slice(pinned.bytes());
                self.copied += PAGE_SIZE as u64;
                (copy, false)
            }
            _ => self.take(from).expect("a mapped frame is backed"),
        };
        *entry(&mut self.dir, from).1 &= !MAPPED;
        let (target, flags) = entry(&mut self.dir, to);
        *target = Some(page);
        *flags = MAPPED | if read_only { READ_ONLY } else { 0 };
    }

    /// Copies the byte range `[offset, offset + len)` of `tier` out, across
    /// pages; an unbacked page reads as zero.
    pub(crate) fn to_vec(&self, tier: TierId, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut done = 0;
        for piece in (BlockSegment { tier, offset, len }).chunks() {
            let (slot, within) = self.locate(tier, piece.offset);
            if let Some(page) = self.page(slot) {
                out[done..done + piece.len]
                    .copy_from_slice(&page.bytes()[within..within + piece.len]);
            }
            done += piece.len;
        }
        out
    }

    /// Checks the pages against `mapped`, every frame run a mapping owns
    /// (and whether its allocation is read-only), and `pinned`, every
    /// staged segment: exactly those frames are flagged mapped and pinned
    /// (each is, and no more are), a frame is backed exactly when flagged,
    /// and a read-only page maps a read-only allocation and aliases a held
    /// buffer, held for exactly its pages. Returns the violations.
    pub(crate) fn check(
        &self,
        mapped: impl Iterator<Item = (TierId, FrameRun, bool)>,
        pinned: impl Iterator<Item = BlockSegment>,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let mut given = [0usize; 2];
        let mapped =
            mapped.map(|(tier, run, read_only)| (self.slots(tier, run), read_only, MAPPED));
        let pinned = pinned.map(|piece| (self.segment_slots(&piece), true, PINNED));
        for (slots, read_only, flag) in mapped.chain(pinned) {
            given[usize::from(flag == PINNED)] += slots.len();
            for slot in slots {
                let (flags, frame) = (self.flags(slot), || self.frame(slot));
                if flags & flag == 0 {
                    violations.push(format!("{} is given but not flagged {flag:#b}", frame()));
                }
                if !read_only && flags & READ_ONLY != 0 {
                    violations.push(format!("read-only {} maps a writable allocation", frame()));
                }
            }
        }
        let mut flagged = [0usize; 2];
        let mut aliasing = vec![0usize; self.held.len()];
        for (first, leaf) in self.dir.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (i, (page, &flags)) in leaf.pages.iter().zip(&leaf.flags).enumerate() {
                let frame = || self.frame(first * LEAF + i);
                flagged[0] += usize::from(flags & MAPPED != 0);
                flagged[1] += usize::from(flags & PINNED != 0);
                if page.is_some() != (flags & (MAPPED | PINNED) != 0) {
                    violations.push(format!("{} has flags {flags:#b}", frame()));
                }
                if flags & READ_ONLY == 0 {
                    continue;
                }
                let at = page
                    .as_ref()
                    .map_or(0, |page| page.bytes().as_ptr() as usize);
                match self.held.iter().position(|h| h.span.contains(&at)) {
                    Some(held) => aliasing[held] += 1,
                    None => violations.push(format!("read-only {} aliases nothing", frame())),
                }
            }
        }
        if flagged != given {
            violations.push(format!(
                "{flagged:?} frames are flagged mapped and pinned, the mappings and staged sources place {given:?}"
            ));
        }
        for (held, aliasing) in self.held.iter().zip(aliasing) {
            if held.pages != aliasing || aliasing == 0 {
                let pages = held.pages;
                violations.push(format!(
                    "a buffer held for {pages} pages is aliased by {aliasing}"
                ));
            }
        }
        violations
    }
}

impl Drop for TierStorage {
    fn drop(&mut self) {
        // Read-only pages are dropped here, their keep-alives after.
        let mut pool = pool();
        for leaf in self.dir.iter_mut().flatten() {
            for (page, flags) in leaf.pages.iter_mut().zip(leaf.flags) {
                pool.recycled
                    .extend(page.take().filter(|_| flags & READ_ONLY == 0));
            }
        }
    }
}

/// A tier assembled from its spec and its frame allocator. Its bytes live
/// in the machine's [`TierStorage`].
#[derive(Debug)]
pub(crate) struct Tier {
    pub(crate) spec: TierSpec,
    pub(crate) frames: crate::frame::FrameAllocator,
    /// [`CostModel::miss_cost`] of this tier, `[read, write]`: evaluated
    /// once per machine, because it divides by the bandwidth and the access
    /// engines pay it on every LLC miss.
    pub(crate) miss: [SimDuration; 2],
}

impl Tier {
    pub(crate) fn new(spec: TierSpec, cost: &CostModel) -> Self {
        let frames = crate::frame::FrameAllocator::new(spec.frame_count());
        let miss = [cost.miss_cost(&spec, false), cost.miss_cost(&spec, true)];
        Tier { spec, frames, miss }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ids_are_distinct_and_displayable() {
        assert_ne!(TierId::FAST, TierId::SLOW);
        assert_eq!(TierId::FAST.to_string(), "tier0");
        assert_eq!(TierId::SLOW.to_string(), "tier1");
        assert_eq!(TierId::new(3).to_string(), "tier3");
    }

    #[test]
    fn hotter_and_colder_walk_the_tier_order() {
        assert_eq!(TierId::new(0).hotter(), None);
        assert_eq!(TierId::new(2).hotter(), Some(TierId::new(1)));
        assert_eq!(TierId::new(0).colder(3), Some(TierId::new(1)));
        assert_eq!(TierId::new(2).colder(3), None);
    }

    #[test]
    fn spec_frame_count() {
        let spec = TierSpec::new("t", 16 * PAGE_SIZE, 80.0, 104.0, 80.0, 6.0);
        assert_eq!(spec.frame_count(), 16);
    }

    #[test]
    fn copy_bandwidth_saturates_at_tier_peak() {
        let spec = TierSpec::new("t", PAGE_SIZE, 80.0, 104.0, 80.0, 6.0);
        assert!((spec.copy_read_bw(1) - 6.0).abs() < 1e-9);
        assert!((spec.copy_read_bw(4) - 24.0).abs() < 1e-9);
        assert!((spec.copy_read_bw(48) - 104.0).abs() < 1e-9);
        assert!((spec.copy_write_bw(48) - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_capacity_panics() {
        let _ = TierSpec::new("t", PAGE_SIZE + 1, 80.0, 104.0, 80.0, 6.0);
    }

    fn storage() -> TierStorage {
        let fast = TierSpec::new("f", 96 * PAGE_SIZE, 80.0, 104.0, 80.0, 6.0);
        let slow = TierSpec::new("s", 320 * PAGE_SIZE, 80.0, 104.0, 80.0, 6.0);
        TierStorage::new(&[fast, slow])
    }

    /// `pages` frames from `frame` of `tier` as one segment.
    fn segment(tier: TierId, frame: usize, pages: usize) -> BlockSegment {
        BlockSegment {
            tier,
            offset: frame * PAGE_SIZE,
            len: pages * PAGE_SIZE,
        }
    }

    /// Fills frame `frame` of `tier` with `byte`.
    fn fill(s: &mut TierStorage, tier: TierId, frame: usize, byte: u8) {
        s.slice_mut(tier, frame * PAGE_SIZE, PAGE_SIZE).fill(byte);
    }

    /// The first byte of frame `frame` of `tier`, if the whole page holds it.
    fn page(s: &TierStorage, tier: TierId, frame: usize) -> Option<u8> {
        let bytes = s.slice(tier, frame * PAGE_SIZE, PAGE_SIZE);
        bytes.iter().all(|&b| b == bytes[0]).then_some(bytes[0])
    }

    /// Where frame `frame` of `tier` lives in host memory.
    fn host(s: &TierStorage, tier: TierId, frame: usize) -> *const u8 {
        s.slice(tier, frame * PAGE_SIZE, PAGE_SIZE).as_ptr()
    }

    #[test]
    fn storage_round_trips_bytes() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(0, 2), true);
        s.slice_mut(TierId::SLOW, 100, 4)
            .copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(s.slice(TierId::SLOW, 100, 4), &[1, 2, 3, 4]);
        assert_eq!(s.to_vec(TierId::SLOW, 98, 8), [0, 0, 1, 2, 3, 4, 0, 0]);
    }

    #[test]
    fn chunks_are_backed_by_their_first_frame_and_released_by_their_last() {
        // One frame per chunk: a page is backed exactly while its frame is.
        let mut s = storage();
        let run = FrameRun::new(61, 5);
        s.map_frames(TierId::FAST, run, false);
        assert_eq!(s.backed(), 5);
        s.map_frames(TierId::FAST, FrameRun::new(0, 1), false);
        s.unmap_frames(TierId::FAST, run);
        assert_eq!(s.backed(), 1, "frame 0 keeps its page");
        assert!(s
            .check(
                [(TierId::FAST, FrameRun::new(0, 1), false)].into_iter(),
                [].into_iter()
            )
            .is_empty());
        s.unmap_frames(TierId::FAST, FrameRun::new(0, 1));
        assert_eq!(s.backed(), 0);
        assert!(s.check([].into_iter(), [].into_iter()).is_empty());
    }

    #[test]
    fn a_dirty_chunk_is_zeroed_where_asked_and_only_there() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(0, 3), false);
        for frame in 0..3 {
            fill(&mut s, TierId::SLOW, frame, 0xA5);
        }
        // Frame 1's page goes back to the pool, dirty, and the frame comes
        // back as a fresh allocation's: zero, whatever page it got.
        s.unmap_frames(TierId::SLOW, FrameRun::new(1, 1));
        s.map_frames(TierId::SLOW, FrameRun::new(1, 1), true);
        assert_eq!(page(&s, TierId::SLOW, 1), Some(0));
        assert_eq!(
            [0, 2].map(|frame| page(&s, TierId::SLOW, frame)),
            [Some(0xA5); 2]
        );
    }

    #[test]
    fn copy_out_spans_chunks_and_reads_unbacked_ones_as_zero() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(0, 1), false);
        s.map_frames(TierId::SLOW, FrameRun::new(2, 1), false);
        s.slice_mut(TierId::SLOW, PAGE_SIZE - 2, 2).fill(7);
        s.slice_mut(TierId::SLOW, 2 * PAGE_SIZE, 2).fill(9);
        let out = s.to_vec(TierId::SLOW, PAGE_SIZE - 2, PAGE_SIZE + 4);
        assert_eq!(out[..2], [7, 7]);
        assert!(out[2..PAGE_SIZE + 2].iter().all(|&b| b == 0));
        assert_eq!(out[PAGE_SIZE + 2..], [9, 9]);
    }

    #[test]
    #[should_panic(expected = "unbacked chunk")]
    fn slice_of_an_unbacked_chunk_panics() {
        let _ = storage().slice(TierId::SLOW, CHUNK_SIZE, 8);
    }

    /// An `mbind` page move hands the page over; off a pinned frame, which
    /// must keep its bytes for the replay, it copies them.
    #[test]
    fn copy_page_moves_one_page_between_tiers() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(5, 2), false);
        fill(&mut s, TierId::SLOW, 5, 3);
        fill(&mut s, TierId::SLOW, 6, 4);
        let five = host(&s, TierId::SLOW, 5);
        s.move_page((TierId::SLOW, 5), (TierId::FAST, 2));
        assert_eq!(host(&s, TierId::FAST, 2), five, "the page changed hands");
        assert_eq!((page(&s, TierId::FAST, 2), s.copied), (Some(3), 0));

        let pinned = segment(TierId::SLOW, 6, 1);
        s.pin(pinned);
        s.move_page((TierId::SLOW, 6), (TierId::FAST, 3));
        assert_eq!(page(&s, TierId::FAST, 3), Some(4));
        assert_eq!(page(&s, TierId::SLOW, 6), Some(4), "the pinned page stays");
        assert_eq!(s.copied, PAGE_SIZE as u64);
        s.unpin(pinned);
        let mapped = [(TierId::FAST, FrameRun::new(2, 2), false)];
        assert!(s.check(mapped.into_iter(), [].into_iter()).is_empty());
        assert_eq!(s.backed(), 2);
    }

    #[test]
    fn a_pinned_chunk_outlives_its_mappings_until_unpinned() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(0, 4), false);
        fill(&mut s, TierId::SLOW, 1, 7);
        let pinned = segment(TierId::SLOW, 1, 2);
        s.pin(pinned);
        s.unmap_frames(TierId::SLOW, FrameRun::new(0, 4));
        assert_eq!(s.slice(TierId::SLOW, PAGE_SIZE, 2), [7, 7], "still backed");
        assert_eq!(s.backed(), 2);
        assert!(s.check([].into_iter(), [pinned].into_iter()).is_empty());
        let violations = s.check([].into_iter(), [].into_iter());
        assert!(
            violations
                .iter()
                .any(|v| v.contains("[0, 2] frames are flagged mapped and pinned")),
            "{violations:#?}"
        );
        s.unpin(pinned);
        assert_eq!(s.backed(), 0);
        assert!(s.check([].into_iter(), [].into_iter()).is_empty());
    }

    #[test]
    fn replay_hands_over_every_staged_page() {
        let mut s = storage();
        // A source of five pages in two segments, pinned, then unmapped...
        let src = [segment(TierId::SLOW, 0, 3), segment(TierId::SLOW, 10, 2)];
        s.map_frames(TierId::SLOW, FrameRun::new(0, 3), false);
        s.map_frames(TierId::SLOW, FrameRun::new(10, 2), false);
        let frames = [0, 1, 2, 10, 11];
        for (k, frame) in frames.into_iter().enumerate() {
            fill(&mut s, TierId::SLOW, frame, k as u8 + 1);
        }
        let pages = frames.map(|frame| host(&s, TierId::SLOW, frame));
        for piece in src {
            s.pin(piece);
        }
        s.unmap_frames(TierId::SLOW, FrameRun::new(0, 3));
        s.unmap_frames(TierId::SLOW, FrameRun::new(10, 2));
        // ...into two fast segments the remap mapped.
        let dst = [segment(TierId::FAST, 0, 4), segment(TierId::FAST, 7, 1)];
        s.map_frames(TierId::FAST, FrameRun::new(0, 4), false);
        s.map_frames(TierId::FAST, FrameRun::new(7, 1), false);
        s.replay(&src, &dst);
        for (k, frame) in [0, 1, 2, 3, 7].into_iter().enumerate() {
            assert_eq!(host(&s, TierId::FAST, frame), pages[k], "page {k}");
            assert_eq!(page(&s, TierId::FAST, frame), Some(k as u8 + 1));
        }
        assert_eq!(s.copied, 0);
        assert_eq!(s.backed(), 5, "the sources are unpinned and unbacked");
        let mapped = [
            (TierId::FAST, FrameRun::new(0, 4), false),
            (TierId::FAST, FrameRun::new(7, 1), false),
        ];
        assert!(s.check(mapped.into_iter(), [].into_iter()).is_empty());
    }

    /// A storage whose slow frame 0 aliases the first page of a buffer a
    /// page and 100 bytes long, and whose frame 1 holds a copy of the rest.
    fn adopted() -> (TierStorage, Arc<Vec<u8>>) {
        let buffer: Arc<Vec<u8>> =
            Arc::new((0..PAGE_SIZE + 100).map(|i| (i * 7 % 251) as u8).collect());
        let keep: KeepAlive = Arc::clone(&buffer) as KeepAlive;
        let mut s = storage();
        s.adopt_frames(TierId::SLOW, FrameRun::new(0, 2), &buffer, &keep);
        (s, buffer)
    }

    #[test]
    fn adoption_aliases_whole_chunks_and_copies_the_rest() {
        let buffer: Arc<Vec<u8>> = Arc::new((0..3 * PAGE_SIZE + 100).map(|i| i as u8).collect());
        let keep: KeepAlive = Arc::clone(&buffer) as KeepAlive;
        let mut s = storage();
        s.adopt_frames(TierId::SLOW, FrameRun::new(0, 5), &buffer, &keep);
        drop(keep);
        let slot = s.stride;
        let read_only = |k: usize| s.flags(slot + k) & READ_ONLY != 0;
        assert_eq!(
            (0..5).map(read_only).collect::<Vec<_>>(),
            [true, true, true, false, false]
        );
        for k in 0..3 {
            assert_eq!(
                host(&s, TierId::SLOW, k),
                buffer[k * PAGE_SIZE..].as_ptr(),
                "a whole page is the buffer itself"
            );
        }
        assert_eq!(Arc::strong_count(&buffer), 2, "held once for three pages");
        assert_eq!(s.copied, 100, "only the partial page is copied");
        let image = s.to_vec(TierId::SLOW, 0, 5 * PAGE_SIZE);
        assert_eq!(image[..buffer.len()], buffer[..]);
        assert!(
            image[buffer.len()..].iter().all(|&b| b == 0),
            "the tail reads zero"
        );
        let mapped = [(TierId::SLOW, FrameRun::new(0, 5), true)];
        assert!(s.check(mapped.into_iter(), [].into_iter()).is_empty());
        let mapped = [(TierId::SLOW, FrameRun::new(0, 5), false)];
        let violations = s.check(mapped.into_iter(), [].into_iter());
        assert!(
            violations[0].contains("read-only frame 0 of tier1 maps a writable allocation"),
            "{violations:#?}"
        );
    }

    /// Every write path of the storage trades a read-only page for an owned
    /// copy first: the buffer is never written, the storage lets it go, and
    /// reads what the write left on top of the buffer's bytes.
    #[test]
    fn every_write_copies_a_read_only_chunk_first() {
        type Write = fn(&mut TierStorage);
        type Effect = fn(&mut [u8]);
        let writes: [(&str, Write, Effect); 2] = [
            (
                "slice_mut",
                |s| s.slice_mut(TierId::SLOW, 8, 4).fill(0),
                |b| b[8..12].fill(0),
            ),
            (
                "map_frames",
                |s| {
                    // A pinned page remapped: the new mapping may write it.
                    let pinned = segment(TierId::SLOW, 0, 1);
                    s.pin(pinned);
                    s.unmap_frames(TierId::SLOW, FrameRun::new(0, 1));
                    s.map_frames(TierId::SLOW, FrameRun::new(0, 1), false);
                    s.unpin(pinned);
                },
                |_| {},
            ),
        ];
        for (name, write, effect) in writes {
            let (mut s, buffer) = adopted();
            let original = buffer.to_vec();
            let mut expect = original.clone();
            effect(&mut expect);
            write(&mut s);
            assert_eq!(
                s.flags(s.stride) & READ_ONLY,
                0,
                "{name} wrote a read-only page"
            );
            assert_eq!(
                Arc::strong_count(&buffer),
                1,
                "{name} kept the buffer alive"
            );
            assert!(*buffer == original, "{name} wrote the buffer");
            assert!(s.to_vec(TierId::SLOW, 0, buffer.len()) == expect, "{name}");
        }
    }

    #[test]
    fn an_unbacked_read_only_chunk_is_dropped_with_its_buffer() {
        let (mut s, buffer) = adopted();
        s.unmap_frames(TierId::SLOW, FrameRun::new(0, 2));
        assert_eq!(s.backed(), 0);
        assert!((0..2 * s.stride).all(|slot| s.flags(slot) == 0));
        assert_eq!(Arc::strong_count(&buffer), 1);
        let (s, buffer) = adopted();
        drop(s);
        assert_eq!(Arc::strong_count(&buffer), 1);
    }

    /// A replay takes every source page out before it places any, so a
    /// permutation of the source's own frames needs no bounce buffer.
    #[test]
    fn a_bounced_replay_resolves_a_cycle() {
        let mut s = storage();
        // Pages 0 and 1 trade places: no copy order does that in place.
        s.map_frames(TierId::FAST, FrameRun::new(0, 2), false);
        fill(&mut s, TierId::FAST, 0, 1);
        fill(&mut s, TierId::FAST, 1, 2);
        let src = [segment(TierId::FAST, 1, 1), segment(TierId::FAST, 0, 1)];
        for piece in src {
            s.pin(piece);
        }
        s.replay(&src, &[segment(TierId::FAST, 0, 2)]);
        assert_eq!(
            [0, 1].map(|f| page(&s, TierId::FAST, f)),
            [Some(2), Some(1)]
        );
        assert_eq!(s.copied, 0);
        let mapped = [(TierId::FAST, FrameRun::new(0, 2), false)];
        assert!(s.check(mapped.into_iter(), [].into_iter()).is_empty());
    }
}
