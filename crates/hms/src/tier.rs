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

/// What keeps an adopted buffer alive while read-only chunks alias it: the
/// caller's own `Arc`, type-erased.
pub(crate) type KeepAlive = Arc<dyn Any + Send + Sync>;

/// Slab chunks no machine is using. Chunks carry no tier and no offset, and a new
/// slab is cut only while the pool is empty, so the process never holds
/// more than the peak number of chunks live at once, rounded up to a slab.
/// One pool for the process, not one per thread: slab memory is never
/// returned to the allocator, so a pool that died with its thread would
/// strand it.
static POOL: Mutex<Pool> = Mutex::new(Pool {
    recycled: Vec::new(),
    fresh: Vec::new(),
});

#[derive(Debug)]
struct Pool {
    /// Released by a machine: holding whatever their last frames held, and
    /// already touched — handed out first.
    recycled: Vec<Chunk>,
    /// Cut from a slab and never handed out: known zero.
    fresh: Vec<Chunk>,
}

/// The pool, whether or not a thread panicked holding it: a `Vec` push or
/// pop leaves it valid at every step.
fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a chunk out of the pool, and whether it may hold non-zero bytes.
fn acquire() -> (Chunk, bool) {
    let mut pool = pool();
    if let Some(chunk) = pool.recycled.pop() {
        return (chunk, true);
    }
    if pool.fresh.is_empty() {
        pool.fresh.extend(Chunk::slab());
    }
    (pool.fresh.pop().expect("a slab holds chunks"), false)
}

/// Returns slab chunks to the pool (never a read-only one: see
/// [`TierStorage::unback`]).
fn release(chunks: impl IntoIterator<Item = Chunk>) {
    pool().recycled.extend(chunks);
}

/// Frames per chunk.
const CHUNK_FRAMES: u32 = (CHUNK_SIZE >> PAGE_SHIFT) as u32;

/// Bookkeeping of one chunk slot of a [`TierStorage`].
#[derive(Debug, Clone, Copy, Default)]
struct ChunkState {
    /// Frames of the chunk that back a mapping.
    mapped: u32,
    /// Frames of the chunk whose bytes an outstanding staging run is yet to
    /// replay (see [`TierStorage::pin`]). The chunk is backed exactly while
    /// `mapped` or `pinned` is non-zero.
    pinned: u32,
    /// Whether an unmapped frame of the backed chunk may hold non-zero
    /// bytes: set for a recycled chunk and by every unmap. A fresh
    /// allocation zeroes the frames it takes from a dirty chunk only, so a
    /// slab's lazily zeroed memory is never touched just to clear it.
    dirty: bool,
}

impl ChunkState {
    fn backed(self) -> bool {
        self.mapped > 0 || self.pinned > 0
    }
}

/// Splits `run` on `tier` at chunk boundaries: the table slot and the byte
/// range within the chunk, for every chunk the run touches.
fn pieces(
    stride: usize,
    tier: TierId,
    run: FrameRun,
) -> impl Iterator<Item = (usize, Range<usize>)> {
    let bytes = BlockSegment {
        tier,
        offset: (run.start as usize) << PAGE_SHIFT,
        len: run.bytes(),
    };
    bytes.chunks().map(move |piece| {
        let within = piece.offset & (CHUNK_SIZE - 1);
        let slot = tier.index() * stride + (piece.offset >> CHUNK_SHIFT);
        (slot, within..within + piece.len)
    })
}

/// Host backing of every tier of one machine. Data written through the
/// simulator *actually lives here*, so migration really moves bytes and
/// correctness is observable from the outside.
///
/// Frame numbers are the simulated address space; chunks are host memory.
/// A tier is a row of chunk slots ([`CHUNK_SIZE`] each), and a slot holds a [`Chunk`]
/// exactly while a frame in it backs a mapping: the first mapped frame
/// takes a chunk from the pool, the last unmapped frame returns it,
/// dropping the machine returns the rest. A staged region's source frames
/// are *pinned* until their bytes are replayed, and keep their chunk backed
/// after a remap unmaps them. A staging run's own frames are never mapped
/// or pinned, hence never backed.
///
/// A slot may instead be *read-only*: backed by a stretch of a buffer the
/// caller handed over ([`adopt_frames`](TierStorage::adopt_frames)), kept
/// alive beside the table. Every write path here first trades such a chunk
/// for an owned copy of its bytes ([`owned`](TierStorage::owned)); the
/// per-core views refuse to write it; it is dropped, never pooled.
#[derive(Debug)]
pub(crate) struct TierStorage {
    /// Slot `tier * stride + chunk index within the tier`; the slots past
    /// a tier's last chunk stay empty. The per-core views read it directly
    /// (`shard::TiersView`).
    table: Vec<Option<Chunk>>,
    /// Index for index with `table`: whether the slot's chunk aliases an
    /// adopted buffer. The per-core views read it before a write.
    read_only: Vec<bool>,
    /// Index for index with `table`: the adopted buffer a read-only slot's
    /// chunk aliases, kept alive for as long as the chunk is in the table.
    keep: Vec<Option<KeepAlive>>,
    /// Index for index with `table`.
    state: Vec<ChunkState>,
    /// Slots per tier: the widest tier's chunk count.
    stride: usize,
}

impl TierStorage {
    /// Storage for the given tiers, nothing backed yet.
    pub(crate) fn new(specs: &[TierSpec]) -> Self {
        let chunks = specs.iter().map(|s| s.capacity.div_ceil(CHUNK_SIZE));
        let stride = chunks.max().unwrap_or(0);
        let slots = specs.len() * stride;
        TierStorage {
            table: (0..slots).map(|_| None).collect(),
            read_only: vec![false; slots],
            keep: (0..slots).map(|_| None).collect(),
            state: vec![ChunkState::default(); slots],
            stride,
        }
    }

    /// The chunk table (see the field docs).
    pub(crate) fn table(&self) -> &[Option<Chunk>] {
        &self.table
    }

    /// The read-only flags (see the field docs).
    pub(crate) fn read_only(&self) -> &[bool] {
        &self.read_only
    }

    /// The table's slots per tier.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Notes that the frames of `run` now back a mapping, backing every
    /// chunk that was not backed. Their bytes are unspecified (see
    /// [`zero_frames`](TierStorage::zero_frames)).
    pub(crate) fn map_frames(&mut self, tier: TierId, run: FrameRun) {
        for (slot, bytes) in pieces(self.stride, tier, run) {
            self.map_piece(slot, bytes.len());
        }
    }

    /// [`map_frames`](TierStorage::map_frames) within one slot: `len` bytes
    /// of frames. A new frame in a read-only slot belongs to an allocation
    /// that may write it, so the slot trades its chunk for an owned copy.
    fn map_piece(&mut self, slot: usize, len: usize) {
        if !self.state[slot].backed() {
            let (chunk, dirty) = acquire();
            self.state[slot].dirty = dirty;
            self.table[slot] = Some(chunk);
        } else if self.read_only[slot] {
            self.owned(slot);
        }
        self.state[slot].mapped += (len >> PAGE_SHIFT) as u32;
    }

    /// Maps the frames of `run`, a run of a fresh allocation, onto `src`:
    /// the allocation's bytes from the run's first page on (shorter than
    /// the run at the allocation's end; its pages past `src` read zero).
    /// A slot whose whole chunk the run covers, with bytes wholly inside
    /// `src`, takes no pool chunk: it aliases `src`, read-only, and holds
    /// `keep`. The other slots are mapped as usual and `src` copied in.
    pub(crate) fn adopt_frames(
        &mut self,
        tier: TierId,
        run: FrameRun,
        mut src: &[u8],
        keep: &KeepAlive,
    ) {
        for (slot, bytes) in pieces(self.stride, tier, run) {
            let take = src.len().min(bytes.len());
            if take == CHUNK_SIZE && !self.state[slot].backed() {
                self.table[slot] = Some(Chunk::alias(&src[..take]));
                self.read_only[slot] = true;
                self.keep[slot] = Some(Arc::clone(keep));
                let state = &mut self.state[slot];
                // The frames hold the buffer's bytes, not zero.
                (state.mapped, state.dirty) = (CHUNK_FRAMES, true);
            } else {
                self.map_piece(slot, bytes.len());
                let dirty = self.state[slot].dirty;
                let (head, tail) = self.owned(slot).bytes_mut()[bytes].split_at_mut(take);
                head.copy_from_slice(&src[..take]);
                if dirty {
                    tail.fill(0);
                }
            }
            src = &src[take..];
        }
    }

    /// The chunk of `slot`, to write: the one gate to
    /// [`Chunk::bytes_mut`]. A read-only slot first trades its chunk for a
    /// pool chunk holding a copy of its bytes, and lets the adopted buffer
    /// go.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not backed.
    fn owned(&mut self, slot: usize) -> &mut Chunk {
        if self.read_only[slot] {
            let (mut copy, _) = acquire();
            let alias = self.table[slot]
                .as_ref()
                .expect("a read-only slot is backed");
            copy.bytes_mut().copy_from_slice(alias.bytes());
            self.table[slot] = Some(copy);
            self.read_only[slot] = false;
            self.keep[slot] = None;
            self.state[slot].dirty = true;
        }
        self.table[slot]
            .as_mut()
            .expect("tier storage access to an unbacked chunk")
    }

    /// Empties `slot`: a slab chunk goes back to the pool, a read-only one
    /// is dropped with its keep-alive.
    fn unback(&mut self, slot: usize) {
        let chunk = self.table[slot].take();
        if std::mem::take(&mut self.read_only[slot]) {
            self.keep[slot] = None;
        } else {
            release(chunk);
        }
    }

    /// Notes that the frames of `run` no longer back a mapping, releasing
    /// every chunk left with neither a mapped nor a pinned frame.
    ///
    /// # Panics
    ///
    /// Panics if more frames are unmapped from a chunk than were mapped.
    pub(crate) fn unmap_frames(&mut self, tier: TierId, run: FrameRun) {
        for (slot, bytes) in pieces(self.stride, tier, run) {
            let state = &mut self.state[slot];
            state.mapped = state
                .mapped
                .checked_sub((bytes.len() >> PAGE_SHIFT) as u32)
                .expect("unmapped more frames than the chunk had mapped");
            state.dirty = true;
            if !state.backed() {
                self.unback(slot);
            }
        }
    }

    /// Pins the frames of `piece`, a page-aligned segment within one chunk
    /// whose frames back a mapping: their chunk stays backed, bytes and
    /// all, until [`unpin`](TierStorage::unpin), whether or not they stay
    /// mapped.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not backed.
    pub(crate) fn pin(&mut self, piece: BlockSegment) {
        let (slot, _) = self.locate(piece.tier, piece.offset);
        let state = &mut self.state[slot];
        assert!(state.backed(), "pinned frames of an unbacked chunk");
        state.pinned += (piece.len >> PAGE_SHIFT) as u32;
    }

    /// Undoes one [`pin`](TierStorage::pin) of `piece`, releasing its chunk
    /// if that leaves it with neither a mapped nor a pinned frame.
    ///
    /// # Panics
    ///
    /// Panics if more frames are unpinned from a chunk than were pinned.
    pub(crate) fn unpin(&mut self, piece: BlockSegment) {
        let (slot, _) = self.locate(piece.tier, piece.offset);
        let state = &mut self.state[slot];
        state.pinned = state
            .pinned
            .checked_sub((piece.len >> PAGE_SHIFT) as u32)
            .expect("unpinned more frames than the chunk had pinned");
        if !state.backed() {
            self.unback(slot);
        }
    }

    /// Makes the mapped frames of `run` read zero: what a fresh allocation
    /// owes its caller, and a migration destination (whose caller copies
    /// data in) does not.
    pub(crate) fn zero_frames(&mut self, tier: TierId, run: FrameRun) {
        for (slot, bytes) in pieces(self.stride, tier, run) {
            if self.state[slot].dirty {
                self.owned(slot).bytes_mut()[bytes].fill(0);
            }
        }
    }

    /// Table slot of the chunk holding byte `offset` of `tier`, and the
    /// byte's offset within the chunk.
    fn locate(&self, tier: TierId, offset: usize) -> (usize, usize) {
        let chunk = offset >> CHUNK_SHIFT;
        assert!(chunk < self.stride, "offset {offset} is beyond {tier}");
        (
            tier.index() * self.stride + chunk,
            offset & (CHUNK_SIZE - 1),
        )
    }

    /// Immutable view of the byte range `[offset, offset + len)` of `tier`.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a chunk boundary or its chunk is not
    /// backed.
    pub(crate) fn slice(&self, tier: TierId, offset: usize, len: usize) -> &[u8] {
        let (slot, within) = self.locate(tier, offset);
        let chunk = self.table[slot]
            .as_ref()
            .expect("tier storage access to an unbacked chunk");
        &chunk.bytes()[within..within + len]
    }

    /// Mutable view of the byte range `[offset, offset + len)` of `tier`.
    ///
    /// # Panics
    ///
    /// As [`slice`](TierStorage::slice).
    pub(crate) fn slice_mut(&mut self, tier: TierId, offset: usize, len: usize) -> &mut [u8] {
        let (slot, within) = self.locate(tier, offset);
        &mut self.owned(slot).bytes_mut()[within..within + len]
    }

    /// Copies `len` bytes from byte `src` to byte `dst`, each a `(tier,
    /// offset)` pair whose range lies within one backed chunk. Within one
    /// chunk the two ranges may overlap (memmove).
    pub(crate) fn copy(&mut self, src: (TierId, usize), dst: (TierId, usize), len: usize) {
        let (src_slot, from) = self.locate(src.0, src.1);
        let (dst_slot, to) = self.locate(dst.0, dst.1);
        self.owned(dst_slot);
        // Lift the destination chunk out of the table for the copy: one
        // `&mut` chunk beside a `&` to the rest.
        let mut chunk = self.table[dst_slot]
            .take()
            .expect("tier storage access to an unbacked chunk");
        if src_slot == dst_slot {
            chunk.bytes_mut().copy_within(from..from + len, to);
        } else {
            chunk.bytes_mut()[to..to + len].copy_from_slice(self.slice(src.0, src.1, len));
        }
        self.table[dst_slot] = Some(chunk);
    }

    /// Moves the bytes of `src` into `dst`, in order: two lists of
    /// page-aligned pieces, each within one chunk, `dst` no longer in total.
    ///
    /// A whole destination chunk whose bytes are a whole source chunk that
    /// nothing maps and only this move pins takes that chunk: the two table
    /// slots swap, read-only flag and keep-alive with them. Other pieces are
    /// copied. With `bounce` (the destination
    /// overlaps the source, whose pages it may permute in a cycle no copy
    /// order resolves) the whole source is read before anything is written.
    pub(crate) fn replay(&mut self, src: &[BlockSegment], dst: &[BlockSegment], bounce: bool) {
        if bounce {
            let mut image = Vec::new();
            for s in src {
                image.extend_from_slice(self.slice(s.tier, s.offset, s.len));
            }
            let mut done = 0;
            for d in dst {
                self.slice_mut(d.tier, d.offset, d.len)
                    .copy_from_slice(&image[done..done + d.len]);
                done += d.len;
            }
            return;
        }
        // The source piece under the cursor and the bytes of it consumed.
        let (mut at, mut used) = (0, 0);
        for d in dst {
            let s = src[at];
            if used == 0 && d.len == CHUNK_SIZE && s.len == CHUNK_SIZE {
                let (from, _) = self.locate(s.tier, s.offset);
                let (to, _) = self.locate(d.tier, d.offset);
                let (source, target) = (self.state[from], self.state[to]);
                if source.mapped == 0 && source.pinned == CHUNK_FRAMES && target.pinned == 0 {
                    self.table.swap(from, to);
                    self.read_only.swap(from, to);
                    self.keep.swap(from, to);
                    at += 1;
                    continue;
                }
            }
            let mut done = 0;
            while done < d.len {
                let s = src[at];
                let len = (s.len - used).min(d.len - done);
                self.copy((s.tier, s.offset + used), (d.tier, d.offset + done), len);
                done += len;
                used += len;
                if used == s.len {
                    (at, used) = (at + 1, 0);
                }
            }
        }
    }

    /// Copies the byte range `[offset, offset + len)` of `tier` out, across
    /// chunks; an unbacked chunk reads as zero.
    pub(crate) fn to_vec(&self, tier: TierId, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut done = 0;
        for piece in (BlockSegment { tier, offset, len }).chunks() {
            let (slot, within) = self.locate(tier, piece.offset);
            if let Some(chunk) = &self.table[slot] {
                out[done..done + piece.len]
                    .copy_from_slice(&chunk.bytes()[within..within + piece.len]);
            }
            done += piece.len;
        }
        out
    }

    /// Checks the chunk invariants against `mapped`, every in-bounds frame
    /// run a mapping owns (and whether its allocation is read-only), and
    /// `pinned`, every segment the outstanding staging runs have pinned:
    /// each chunk's mapped-frame and pinned-frame counts equal the frames
    /// those place in it, and a chunk is backed exactly when one of the
    /// counts is non-zero — so no mapped or pinned frame is unbacked. A
    /// read-only slot maps frames of read-only allocations only and holds
    /// its keep-alive; no other slot holds one. Returns the violations.
    pub(crate) fn check(
        &self,
        mapped: impl Iterator<Item = (TierId, FrameRun, bool)>,
        pinned: impl Iterator<Item = BlockSegment>,
    ) -> Vec<String> {
        let mut placed = vec![ChunkState::default(); self.state.len()];
        // Slots in which a frame of a writable allocation is mapped.
        let mut writable = vec![false; self.state.len()];
        for (tier, run, read_only) in mapped {
            for (slot, bytes) in pieces(self.stride, tier, run) {
                placed[slot].mapped += (bytes.len() >> PAGE_SHIFT) as u32;
                writable[slot] |= !read_only;
            }
        }
        for piece in pinned {
            placed[self.locate(piece.tier, piece.offset).0].pinned +=
                (piece.len >> PAGE_SHIFT) as u32;
        }
        let mut violations = Vec::new();
        for (slot, (state, placed)) in self.state.iter().zip(placed).enumerate() {
            let (tier, chunk) = (TierId::new(slot / self.stride), slot % self.stride);
            let backed = self.table[slot].is_some();
            if state.mapped != placed.mapped {
                violations.push(format!(
                    "chunk {chunk} of {tier} counts {} mapped frames, the mappings place {} in it",
                    state.mapped, placed.mapped
                ));
            }
            if state.pinned != placed.pinned {
                violations.push(format!(
                    "chunk {chunk} of {tier} counts {} pinned frames, the staged sources place {} in it",
                    state.pinned, placed.pinned
                ));
            }
            if backed != state.backed() {
                violations.push(format!(
                    "chunk {chunk} of {tier} is {} with {} mapped and {} pinned frames counted",
                    if backed { "backed" } else { "unbacked" },
                    state.mapped,
                    state.pinned
                ));
            }
            if self.read_only[slot] != self.keep[slot].is_some() {
                violations.push(format!(
                    "chunk {chunk} of {tier} is {} but {} an adopted buffer alive",
                    if self.read_only[slot] {
                        "read-only"
                    } else {
                        "writable"
                    },
                    if self.keep[slot].is_some() {
                        "keeps"
                    } else {
                        "does not keep"
                    }
                ));
            }
            if self.read_only[slot] && writable[slot] {
                violations.push(format!(
                    "read-only chunk {chunk} of {tier} maps a frame of a writable allocation"
                ));
            }
        }
        violations
    }
}

impl Drop for TierStorage {
    fn drop(&mut self) {
        // Read-only chunks are dropped here, their keep-alives after.
        let slab = self.table.drain(..).zip(&self.read_only);
        release(slab.filter_map(|(chunk, &read_only)| chunk.filter(|_| !read_only)));
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
        let fast = TierSpec::new("f", 3 * CHUNK_SIZE / 2, 80.0, 104.0, 80.0, 6.0);
        let slow = TierSpec::new("s", 5 * CHUNK_SIZE, 80.0, 104.0, 80.0, 6.0);
        TierStorage::new(&[fast, slow])
    }

    #[test]
    fn storage_round_trips_bytes() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(0, 2));
        // A mapped frame's bytes are unspecified until zeroed: the chunk
        // may come back from another test through the pool.
        s.zero_frames(TierId::SLOW, FrameRun::new(0, 2));
        s.slice_mut(TierId::SLOW, 100, 4)
            .copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(s.slice(TierId::SLOW, 100, 4), &[1, 2, 3, 4]);
        assert_eq!(s.to_vec(TierId::SLOW, 98, 8), [0, 0, 1, 2, 3, 4, 0, 0]);
    }

    #[test]
    fn chunks_are_backed_by_their_first_frame_and_released_by_their_last() {
        let mut s = storage();
        let frames = (CHUNK_SIZE / PAGE_SIZE) as u32;
        let backed = |s: &TierStorage| s.table.iter().filter(|c| c.is_some()).count();
        // A run over the tail of chunk 0 and the head of the fast tier's
        // partial chunk 1.
        let run = FrameRun::new(frames - 3, 5);
        s.map_frames(TierId::FAST, run);
        assert_eq!(backed(&s), 2);
        s.map_frames(TierId::FAST, FrameRun::new(0, 1));
        s.unmap_frames(TierId::FAST, run);
        assert_eq!(backed(&s), 1, "frame 0 keeps chunk 0");
        assert!(s
            .check(
                [(TierId::FAST, FrameRun::new(0, 1), false)].into_iter(),
                [].into_iter()
            )
            .is_empty());
        s.unmap_frames(TierId::FAST, FrameRun::new(0, 1));
        assert_eq!(backed(&s), 0);
        assert!(s.check([].into_iter(), [].into_iter()).is_empty());
    }

    #[test]
    fn a_dirty_chunk_is_zeroed_where_asked_and_only_there() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(0, 3));
        s.slice_mut(TierId::SLOW, 0, 3 * PAGE_SIZE).fill(0xA5);
        // Frame 1 goes and comes back while its neighbours keep the chunk.
        s.unmap_frames(TierId::SLOW, FrameRun::new(1, 1));
        s.map_frames(TierId::SLOW, FrameRun::new(1, 1));
        let page = |s: &TierStorage, frame: usize| {
            let bytes = s.slice(TierId::SLOW, frame * PAGE_SIZE, PAGE_SIZE);
            (bytes[0], bytes.iter().all(|&b| b == bytes[0]))
        };
        assert_eq!(
            page(&s, 1),
            (0xA5, true),
            "a re-mapped frame is as it was left"
        );
        s.zero_frames(TierId::SLOW, FrameRun::new(1, 1));
        assert_eq!(page(&s, 1), (0, true));
        assert_eq!((page(&s, 0), page(&s, 2)), ((0xA5, true), (0xA5, true)));
    }

    #[test]
    fn copy_out_spans_chunks_and_reads_unbacked_ones_as_zero() {
        let mut s = storage();
        let frames = (CHUNK_SIZE / PAGE_SIZE) as u32;
        s.map_frames(TierId::SLOW, FrameRun::new(frames - 1, 1));
        s.map_frames(TierId::SLOW, FrameRun::new(2 * frames, 1));
        s.slice_mut(TierId::SLOW, CHUNK_SIZE - 2, 2).fill(7);
        s.slice_mut(TierId::SLOW, 2 * CHUNK_SIZE, 2).fill(9);
        let out = s.to_vec(TierId::SLOW, CHUNK_SIZE - 2, CHUNK_SIZE + 4);
        assert_eq!(out[..2], [7, 7]);
        assert!(out[2..CHUNK_SIZE + 2].iter().all(|&b| b == 0));
        assert_eq!(out[CHUNK_SIZE + 2..], [9, 9]);
    }

    #[test]
    #[should_panic(expected = "unbacked chunk")]
    fn slice_of_an_unbacked_chunk_panics() {
        let _ = storage().slice(TierId::SLOW, CHUNK_SIZE, 8);
    }

    #[test]
    fn copy_page_moves_one_page_between_tiers() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(5, 1));
        s.map_frames(TierId::FAST, FrameRun::new(2, 1));
        s.slice_mut(TierId::SLOW, 5 * PAGE_SIZE, PAGE_SIZE).fill(3);
        s.copy(
            (TierId::SLOW, 5 * PAGE_SIZE),
            (TierId::FAST, 2 * PAGE_SIZE),
            PAGE_SIZE,
        );
        assert!(s
            .slice(TierId::FAST, 2 * PAGE_SIZE, PAGE_SIZE)
            .iter()
            .all(|&b| b == 3));
    }

    #[test]
    fn copy_within_one_chunk_is_a_memmove() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(5, 1));
        let ramp: Vec<u8> = (0..16).collect();
        s.slice_mut(TierId::SLOW, 5 * PAGE_SIZE, 16)
            .copy_from_slice(&ramp);
        s.copy(
            (TierId::SLOW, 5 * PAGE_SIZE),
            (TierId::SLOW, 5 * PAGE_SIZE + 4),
            12,
        );
        assert_eq!(s.slice(TierId::SLOW, 5 * PAGE_SIZE + 4, 12), &ramp[..12]);
    }

    /// `pages` frames from `frame` of `tier` as one segment.
    fn segment(tier: TierId, frame: usize, pages: usize) -> BlockSegment {
        BlockSegment {
            tier,
            offset: frame * PAGE_SIZE,
            len: pages * PAGE_SIZE,
        }
    }

    #[test]
    fn a_pinned_chunk_outlives_its_mappings_until_unpinned() {
        let mut s = storage();
        s.map_frames(TierId::SLOW, FrameRun::new(0, 4));
        s.slice_mut(TierId::SLOW, PAGE_SIZE, PAGE_SIZE).fill(7);
        let pinned = segment(TierId::SLOW, 1, 2);
        s.pin(pinned);
        s.unmap_frames(TierId::SLOW, FrameRun::new(0, 4));
        assert_eq!(s.slice(TierId::SLOW, PAGE_SIZE, 2), [7, 7], "still backed");
        assert!(s.check([].into_iter(), [pinned].into_iter()).is_empty());
        let violations = s.check([].into_iter(), [].into_iter());
        assert!(
            violations
                .iter()
                .any(|v| v.contains("counts 2 pinned frames, the staged sources place 0")),
            "{violations:#?}"
        );
        s.unpin(pinned);
        assert!(s.table.iter().all(Option::is_none));
        assert!(s.check([].into_iter(), [].into_iter()).is_empty());
    }

    #[test]
    fn replay_hands_over_whole_free_chunks_and_copies_the_rest() {
        let mut s = storage();
        let frames = CHUNK_SIZE / PAGE_SIZE;
        // A source of a whole chunk plus two pages, unmapped but pinned...
        let src = [
            segment(TierId::SLOW, 0, frames),
            segment(TierId::SLOW, 3 * frames, 2),
        ];
        s.map_frames(TierId::SLOW, FrameRun::new(0, frames as u32));
        s.map_frames(TierId::SLOW, FrameRun::new(3 * frames as u32, 2));
        s.slice_mut(TierId::SLOW, 0, CHUNK_SIZE).fill(1);
        s.slice_mut(TierId::SLOW, 3 * CHUNK_SIZE, 2 * PAGE_SIZE)
            .fill(2);
        for piece in src {
            s.pin(piece);
        }
        s.unmap_frames(TierId::SLOW, FrameRun::new(0, frames as u32));
        s.unmap_frames(TierId::SLOW, FrameRun::new(3 * frames as u32, 2));
        // ...into a whole fast chunk and two pages of the next one.
        let dst = [
            segment(TierId::FAST, 0, frames),
            segment(TierId::FAST, frames, 2),
        ];
        s.map_frames(TierId::FAST, FrameRun::new(0, frames as u32 + 2));
        let whole = s.table[0].as_ref().map(|c| c.bytes().as_ptr());
        let source = s.table[s.stride].as_ref().map(|c| c.bytes().as_ptr());
        s.replay(&src, &dst, false);
        assert_eq!(s.table[0].as_ref().map(|c| c.bytes().as_ptr()), source);
        assert_eq!(
            s.table[s.stride].as_ref().map(|c| c.bytes().as_ptr()),
            whole
        );
        let image = s.to_vec(TierId::FAST, 0, CHUNK_SIZE + 2 * PAGE_SIZE);
        assert!(image[..CHUNK_SIZE].iter().all(|&b| b == 1));
        assert!(image[CHUNK_SIZE..].iter().all(|&b| b == 2));
        for piece in src {
            s.unpin(piece);
        }
        let mapped = [(TierId::FAST, FrameRun::new(0, frames as u32 + 2), false)];
        assert!(s.check(mapped.into_iter(), [].into_iter()).is_empty());
    }

    /// A storage whose slow slot 0 aliases the first chunk of a buffer a
    /// chunk and 100 bytes long, and whose slot 1 holds a copy of the rest.
    fn adopted() -> (TierStorage, Arc<Vec<u8>>) {
        let buffer: Arc<Vec<u8>> =
            Arc::new((0..CHUNK_SIZE + 100).map(|i| (i * 7 % 251) as u8).collect());
        let keep: KeepAlive = Arc::clone(&buffer) as KeepAlive;
        let mut s = storage();
        s.adopt_frames(
            TierId::SLOW,
            FrameRun::new(0, CHUNK_FRAMES + 1),
            &buffer,
            &keep,
        );
        (s, buffer)
    }

    #[test]
    fn adoption_aliases_whole_chunks_and_copies_the_rest() {
        let (s, buffer) = adopted();
        let slot = s.stride;
        assert!(s.read_only()[slot] && !s.read_only()[slot + 1]);
        assert_eq!(
            s.table[slot].as_ref().map(|c| c.bytes().as_ptr()),
            Some(buffer.as_ptr()),
            "a whole chunk is the buffer itself"
        );
        assert_eq!(Arc::strong_count(&buffer), 2, "the storage keeps it alive");
        let image = s.to_vec(TierId::SLOW, 0, CHUNK_SIZE + PAGE_SIZE);
        assert_eq!(image[..buffer.len()], buffer[..]);
        assert!(
            image[buffer.len()..].iter().all(|&b| b == 0),
            "the tail reads zero"
        );
        let mapped = [(TierId::SLOW, FrameRun::new(0, CHUNK_FRAMES + 1), true)];
        assert!(s.check(mapped.into_iter(), [].into_iter()).is_empty());
        let mapped = [(TierId::SLOW, FrameRun::new(0, CHUNK_FRAMES + 1), false)];
        let violations = s.check(mapped.into_iter(), [].into_iter());
        assert!(
            violations[0].contains("read-only chunk 0 of tier1 maps a frame of a writable"),
            "{violations:#?}"
        );
    }

    /// Every write path of the storage trades a read-only chunk for an owned
    /// copy first: the buffer is never written, and the storage reads what
    /// the write left on top of the buffer's bytes.
    #[test]
    fn every_write_copies_a_read_only_chunk_first() {
        type Write = fn(&mut TierStorage);
        type Effect = fn(&mut [u8]);
        let writes: [(&str, Write, Effect); 5] = [
            (
                "slice_mut",
                |s| s.slice_mut(TierId::SLOW, 8, 4).fill(0),
                |b| b[8..12].fill(0),
            ),
            (
                "zero_frames",
                |s| s.zero_frames(TierId::SLOW, FrameRun::new(1, 1)),
                |b| b[PAGE_SIZE..2 * PAGE_SIZE].fill(0),
            ),
            (
                "copy",
                |s| s.copy((TierId::SLOW, CHUNK_SIZE), (TierId::SLOW, 0), 4),
                |b| b.copy_within(CHUNK_SIZE..CHUNK_SIZE + 4, 0),
            ),
            (
                "map_frames",
                |s| {
                    s.unmap_frames(TierId::SLOW, FrameRun::new(3, 1));
                    s.map_frames(TierId::SLOW, FrameRun::new(3, 1));
                },
                |_| {},
            ),
            (
                "replay",
                |s| {
                    let page = |frame| segment(TierId::SLOW, frame, 1);
                    s.replay(&[page(2), page(1)], &[page(1), page(2)], true);
                },
                |b| b[PAGE_SIZE..3 * PAGE_SIZE].rotate_left(PAGE_SIZE),
            ),
        ];
        for (name, write, effect) in writes {
            let (mut s, buffer) = adopted();
            let original = buffer.to_vec();
            let mut expect = original.clone();
            effect(&mut expect);
            write(&mut s);
            assert!(!s.read_only()[s.stride], "{name} wrote a read-only chunk");
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
        s.unmap_frames(TierId::SLOW, FrameRun::new(0, CHUNK_FRAMES + 1));
        assert!(s.table.iter().all(Option::is_none));
        assert!(!s.read_only().contains(&true));
        assert_eq!(Arc::strong_count(&buffer), 1);
        let (s, buffer) = adopted();
        drop(s);
        assert_eq!(Arc::strong_count(&buffer), 1);
    }

    #[test]
    fn a_bounced_replay_resolves_a_cycle() {
        let mut s = storage();
        // Pages 0 and 1 trade places: no copy order does that in place.
        s.map_frames(TierId::FAST, FrameRun::new(0, 2));
        s.slice_mut(TierId::FAST, 0, PAGE_SIZE).fill(1);
        s.slice_mut(TierId::FAST, PAGE_SIZE, PAGE_SIZE).fill(2);
        let src = [segment(TierId::FAST, 1, 1), segment(TierId::FAST, 0, 1)];
        s.replay(&src, &[segment(TierId::FAST, 0, 2)], true);
        let image = s.to_vec(TierId::FAST, 0, 2 * PAGE_SIZE);
        assert!(image[..PAGE_SIZE].iter().all(|&b| b == 2));
        assert!(image[PAGE_SIZE..].iter().all(|&b| b == 1));
    }
}
