//! Sharded parallel simulation: per-core state and the core access engine.
//!
//! The simulated machine is split into **shared read-mostly state** (tiers
//! and their byte storage, the frame allocators, the mapping table, the
//! allocation registry, the platform description) and **per-core state**
//! (`CoreCtx`: private TLB, private LLC, local clock, local counters,
//! local PEBS sampler). A [`CoreHandle`] bundles one core's mutable
//! context with shared borrows of everything else and owns
//! the *entire* accounted access engine — the scalar path, the batched
//! window engine and the bulk block engine — behind the one declaration of
//! those operations, [`MemPort`]. [`Machine`](crate::Machine) itself keeps
//! one resident `CoreCtx` and is a `MemPort` only by lending a handle over
//! it, so the single-core simulator is the n=1 special case of the sharded
//! one by construction.
//!
//! ## The deterministic reduction contract
//!
//! [`Machine::run_cores`](crate::Machine::run_cores) forks `n` cold
//! `CoreCtx`s, runs one closure per core under [`std::thread::scope`],
//! and merges in **core order** regardless of OS scheduling:
//!
//! * access counters and TLB/LLC hit/miss totals are **summed**;
//! * per-core PEBS streams are **concatenated in core order** (each core
//!   has an independent jitter RNG derived from the machine seed and its
//!   core id, so the merged stream is a pure function of seed, core count
//!   and partition);
//! * the machine clock advances by the **maximum** per-core elapsed time
//!   plus one modeled phase-barrier cost
//!   ([`CostModel::barrier_cost`](crate::cost::CostModel::barrier_cost)).
//!
//! With `n = 1`, `run_cores` does not fork at all: the closure runs against
//! the machine's own resident core, no barrier is charged, and every piece
//! of simulated state ends bit-identical to the scalar engine.
//!
//! ## The partition contract
//!
//! Shared tier storage is handed to cores as a [`TiersView`] of raw
//! pointers. Cores may *read* any mapped byte concurrently; a byte
//! **written** by one core during a phase must not be read or written by
//! any other core in the same phase (kernels partition their output ranges
//! to guarantee this, merging cross-core contributions at phase barriers).
//! Violating the contract is a data race on simulated memory — the same
//! bug it would be on real hardware.

use std::ptr::NonNull;

use crate::addr::{
    PhysAddr, VirtAddr, VirtRange, HUGE_PAGE_FRAMES, LINE_SIZE, PAGE_SHIFT, PAGE_SIZE,
};
use crate::cache::Cache;
use crate::cost::{SimClock, SimDuration};
#[cfg(doc)]
use crate::error::HmsError;
use crate::error::Result;
use crate::machine::Scalar;
use crate::mapping::{Mapping, MappingTable, PageKind};
use crate::pebs::Pebs;
use crate::platform::Platform;
use crate::tier::{Leaf, Tier, TierId, TierStorage, LEAF, LEAF_SHIFT, READ_ONLY};
use crate::tlb::Tlb;

/// Maximum number of tiers a machine (and the residency caches, and a
/// `TiersView`) can carry. Platform presets range from two (the paper
/// testbeds) to four (HBM-DRAM-CXL-NVM).
pub(crate) const MAX_TIERS: usize = 8;

/// What each element of a batched index window does, for
/// [`CoreHandle::access_window`]. Passed as a const generic so each op's
/// loop monomorphizes branch-free. `OP_RMW` is simulated as a read followed
/// by a guaranteed-hit write of the same line, exactly like
/// [`CoreHandle::read_modify_write`].
const OP_READ: u8 = 0;
/// Write each element (see [`OP_READ`]).
const OP_WRITE: u8 = 1;
/// Read-modify-write each element (see [`OP_READ`]).
const OP_RMW: u8 = 2;

/// Access totals local to one simulated core.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) accesses: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) bytes_migrated: u64,
}

/// One physically contiguous piece of a bulk access: `len` bytes starting
/// at byte `offset` of `tier`'s storage. Produced by
/// [`CoreHandle::access_block`] and [`resolve_block`]; consumed by the
/// `TrackedVec` bulk calls and the migration copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockSegment {
    /// Tier whose storage backs this piece.
    pub(crate) tier: TierId,
    /// Byte offset into the tier storage.
    pub(crate) offset: usize,
    /// Length in bytes.
    pub(crate) len: usize,
}

impl BlockSegment {
    /// The segment split at [`CHUNK_SIZE`] boundaries of the tier: frames
    /// are contiguous within a mapping, host memory only within a chunk.
    pub(crate) fn chunks(mut self) -> impl Iterator<Item = BlockSegment> {
        std::iter::from_fn(move || {
            (self.len > 0).then(|| {
                let len = self.len.min(CHUNK_SIZE - (self.offset & (CHUNK_SIZE - 1)));
                let piece = BlockSegment { len, ..self };
                self.offset += len;
                self.len -= len;
                piece
            })
        })
    }
}

/// The private state of one simulated core.
///
/// Everything that the access path mutates lives here; everything it only
/// reads (mappings, tier specs, tier storage geometry) stays on the
/// machine and is shared. Forked cores start with **cold** TLB and LLC —
/// real cores do not inherit another core's private cache contents — so
/// multi-core cache state is intentionally not bit-identical to the scalar
/// engine (see the module docs); counters, streams and the clock still
/// merge deterministically.
#[derive(Debug)]
pub(crate) struct CoreCtx {
    pub(crate) tlb: Tlb,
    pub(crate) llc: Cache,
    pub(crate) clock: SimClock,
    pub(crate) pebs: Pebs,
    pub(crate) counters: Counters,
}

impl CoreCtx {
    /// Builds the machine's resident core: cold TLB/LLC sized from the
    /// platform, clock at zero, a PEBS sampler with the given seed.
    pub(crate) fn resident(platform: &Platform, pebs_seed: u64) -> Self {
        CoreCtx {
            tlb: Tlb::new(platform.tlb_entries),
            llc: Cache::new(platform.llc),
            clock: SimClock::new(),
            pebs: Pebs::new(pebs_seed),
            counters: Counters::default(),
        }
    }

    /// Forks the per-core context for simulated core `core_id`: cold
    /// TLB/LLC, clock at zero (it will measure this core's phase-local
    /// elapsed time) and a PEBS sampler with an independent deterministic
    /// stream.
    pub(crate) fn fork(&self, platform: &Platform, core_id: usize) -> CoreCtx {
        CoreCtx {
            tlb: Tlb::new(platform.tlb_entries),
            llc: Cache::new(platform.llc),
            clock: SimClock::new(),
            pebs: self.pebs.fork(core_id),
            counters: Counters::default(),
        }
    }
}

/// log2 of [`CHUNK_SIZE`].
pub(crate) const CHUNK_SHIFT: u32 = PAGE_SHIFT;
/// Size of one [`Chunk`] of host backing: 4 KiB, one frame, so host memory
/// is exactly the mapped and pinned frames. At 256 KiB a chunk stayed
/// resident while any of its frames was mapped (a quarter of `serve_mixed`'s
/// memory) and a migrated page sharing one with a frame left behind was
/// copied, where a page of its own is handed over.
pub(crate) const CHUNK_SIZE: usize = 1 << CHUNK_SHIFT;

/// Chunks are carved from allocations this large: glibc serves a request of
/// 32 MiB or more with an `mmap` of its own whatever its adaptive threshold
/// has drifted to, so chunk memory is lazily zeroed pages that never sit in
/// the allocator's heap. (Chunks allocated one by one land in that heap once
/// the program has freed its first large buffer, and long-lived chunks
/// between short-lived buffers pinned 17 MiB of freed heap on
/// `regular_sweep`.)
const SLAB_SIZE: usize = 32 << 20;

/// One [`CHUNK_SIZE`] page of host memory backing a simulated frame: either
/// an exclusive stretch of a slab that lives as long as the process, or a
/// read-only stretch of an adopted buffer ([`Chunk::alias`]).
///
/// The page is held as a raw pointer rather than a `&'static mut [u8]` so
/// that the per-core [`TiersView`]s and the owner's own
/// [`bytes`](Chunk::bytes) / [`bytes_mut`](Chunk::bytes_mut) all derive from
/// one root pointer: a view stays valid however often safe code has
/// borrowed the page in between.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// Start of `CHUNK_SIZE` bytes: of a leaked slab that no other chunk
    /// covers (slab chunks are made by [`Chunk::slab`] alone and are not
    /// `Clone`), or of an adopted buffer that the owning `TierStorage` keeps
    /// alive and never writes.
    ptr: NonNull<u8>,
}

// SAFETY: a slab chunk is the only handle to its bytes, and an alias chunk's
// bytes are an immutable buffer of `Sync` scalars; neither has thread-affine
// state, so moving a chunk to another thread moves plain bytes.
unsafe impl Send for Chunk {}
// SAFETY: `&Chunk` exposes reads only (`bytes`). The one way to write through
// a shared chunk is `TiersView::bytes_mut`, which refuses read-only slots,
// exists only while the owning storage is mutably borrowed for the view and
// is governed by the partition contract (module docs).
unsafe impl Sync for Chunk {}

impl Chunk {
    /// Allocates a slab of zero bytes (left to the allocator to zero
    /// lazily) for the life of the process and cuts it into chunks in
    /// address order, each pointer derived from the slab's. Its last chunk
    /// stays uncut, so chunks lying back to back lie in one slab.
    pub(crate) fn slab() -> impl DoubleEndedIterator<Item = Chunk> {
        let root = Box::leak(vec![0u8; SLAB_SIZE].into_boxed_slice()).as_mut_ptr();
        (0..SLAB_SIZE / CHUNK_SIZE - 1).map(move |k| Chunk {
            ptr: NonNull::new(root.wrapping_add(k * CHUNK_SIZE)).expect("a slab is not at null"),
        })
    }

    /// Zeroes `chunks`, slab chunks no table holds, sorted into address
    /// order with one `fill` per stretch of them lying back to back: a
    /// `fill` per 4 KiB chunk takes about twice the memory time.
    pub(crate) fn zero(chunks: &mut [Chunk]) {
        chunks.sort_unstable_by_key(|chunk| chunk.ptr);
        let at = |chunk: &Chunk| chunk.ptr.as_ptr() as usize;
        for stretch in chunks.chunk_by_mut(|a, b| at(b) == at(a) + CHUNK_SIZE) {
            // SAFETY: the stretch is chunks lying back to back, so inside
            // one slab (`Chunk::slab`), the one leaked allocation the first
            // chunk's pointer derives from; they are slab chunks this call
            // holds `&mut` and no table holds, so no one else's bytes.
            let len = stretch.len() * CHUNK_SIZE;
            unsafe { std::slice::from_raw_parts_mut(stretch[0].ptr.as_ptr(), len) }.fill(0);
        }
    }

    /// A read-only chunk over `bytes`, exactly [`CHUNK_SIZE`] of an adopted
    /// buffer. The caller keeps the buffer alive and unwritten for as long
    /// as the chunk lives, and never asks it for
    /// [`bytes_mut`](Chunk::bytes_mut): `TierStorage` holds the buffer's
    /// keep-alive while any page aliases it and trades the chunk for an
    /// owned copy before any write, and `TiersView::bytes_mut` refuses it.
    pub(crate) fn alias(bytes: &[u8]) -> Chunk {
        assert_eq!(bytes.len(), CHUNK_SIZE, "an alias chunk covers one chunk");
        Chunk {
            ptr: NonNull::from(bytes).cast(),
        }
    }

    /// The chunk's bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` starts CHUNK_SIZE bytes that live as long as `self`:
        // a leaked allocation only `self` covers, or an adopted buffer its
        // storage keeps alive. The only writer through a shared chunk is a
        // `TiersView`, and one exists only while the owning storage is
        // mutably borrowed for it, so no `&Chunk` from outside this module
        // coexists with one; an alias chunk is never written at all.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), CHUNK_SIZE) }
    }

    /// The chunk's bytes, mutably. Slab chunks only: `TierStorage` reaches
    /// this through its one write gate, which first trades a read-only
    /// chunk for an owned copy.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as `bytes`, `&mut self` is exclusive, and a slab chunk's
        // bytes belong to no one else.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), CHUNK_SIZE) }
    }
}

/// The bytes of a scalar slice as they sit in host memory, which on a
/// little-endian host is exactly their little-endian encoding: what an
/// adopted buffer's chunks alias. `None` on a big-endian host, whose
/// adoptions copy instead.
pub(crate) fn scalar_bytes<T: Scalar>(values: &[T]) -> Option<&[u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: every `Scalar` is a primitive integer or float: no
        // padding, every byte initialised, and `u8` has alignment 1. The
        // view borrows `values`, so it lives no longer than they do.
        Some(unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
        })
    } else {
        None
    }
}

/// A `Copy`, thread-shareable view of the tiers: their specs and the page
/// table of the machine's [`TierStorage`], no frame allocators (cores never
/// allocate).
///
/// # Safety
///
/// The view borrows the storage mutably for `'a`, so no other code can touch
/// tier bytes (or back and release chunks) while any copy of the view is
/// live. Concurrent use across cores is governed by the partition contract
/// (module docs): concurrent reads of any byte are fine; bytes written by
/// one core in a phase must not be accessed by another. `bytes`/`bytes_mut`
/// materialise references only over the exact requested range, so disjoint
/// accesses never create aliasing references, and `bytes_mut` refuses a
/// read-only slot (an adopted buffer's bytes) in every build.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TiersView<'a> {
    tiers: &'a [Tier],
    /// [`TierStorage::dir`]: slot `tier * stride + (offset >> CHUNK_SHIFT)`
    /// of the page table holds the page backing that frame of the tier, if
    /// any, and its flags.
    dir: &'a [Option<Box<Leaf>>],
    stride: usize,
}

impl<'a> TiersView<'a> {
    pub(crate) fn new(tiers: &'a [Tier], storage: &'a mut TierStorage) -> Self {
        let storage: &'a TierStorage = storage;
        TiersView {
            tiers,
            dir: &storage.dir,
            stride: storage.stride,
        }
    }

    /// The cost of an LLC miss serviced by `tier` (a write miss if
    /// `write`), from the machine's per-tier table.
    #[inline]
    fn miss_cost(&self, tier: TierId, write: bool) -> SimDuration {
        self.tiers[tier.index()].miss[usize::from(write)]
    }

    /// Host address of byte `offset` of `tier`, checked — in release builds
    /// too — to lie, with the `len - 1` bytes after it, inside one backed
    /// chunk of that tier, and for a `WRITE` one that is not read-only: an
    /// access that fails the check would read or write host memory no
    /// simulated frame owns, or write an adopted buffer. A read pays no
    /// load for the read-only flag.
    #[inline]
    fn ptr<const WRITE: bool>(&self, tier: TierId, offset: usize, len: usize) -> *mut u8 {
        let (chunk, within) = (offset >> CHUNK_SHIFT, offset & (CHUNK_SIZE - 1));
        // `chunk < stride`, or an offset past the tier's end would land in
        // the next tier's slots.
        if within + len <= CHUNK_SIZE && chunk < self.stride {
            let slot = tier.index() * self.stride + chunk;
            if let Some(Some(leaf)) = self.dir.get(slot >> LEAF_SHIFT) {
                let i = slot & (LEAF - 1);
                if let Some(backing) = &leaf.pages[i] {
                    if !WRITE || leaf.flags[i] & READ_ONLY == 0 {
                        // SAFETY: `within + len <= CHUNK_SIZE` (checked), so
                        // the offset pointer stays inside the chunk's
                        // allocation.
                        return unsafe { backing.ptr.as_ptr().add(within) };
                    }
                }
            }
        }
        self.bad_access(tier, offset, len)
    }

    /// The panic of a failed [`ptr`](TiersView::ptr) check, out of line: one
    /// cold call is all the accessors carry, so they stay small enough to
    /// inline into the access engines.
    #[cold]
    #[inline(never)]
    fn bad_access(&self, tier: TierId, offset: usize, len: usize) -> ! {
        let (chunk, within) = (offset >> CHUNK_SHIFT, offset & (CHUNK_SIZE - 1));
        if within + len > CHUNK_SIZE {
            panic!(
                "tier storage access crosses a chunk boundary: {len} bytes at {offset} of {tier}"
            );
        }
        if chunk >= self.stride || tier.index() >= self.tiers.len() {
            panic!("tier storage access beyond the tier: byte {offset} of {tier}");
        }
        let slot = tier.index() * self.stride + chunk;
        if let Some(Some(leaf)) = self.dir.get(slot >> LEAF_SHIFT) {
            if leaf.pages[slot & (LEAF - 1)].is_some() {
                panic!("tier storage write to a read-only chunk (an adopted buffer): byte {offset} of {tier}");
            }
        }
        panic!("tier storage access to an unbacked chunk: byte {offset} of {tier}");
    }

    /// Borrows `len` bytes of `tier`'s storage starting at `offset`.
    #[inline]
    pub(crate) fn bytes(&self, tier: TierId, offset: usize, len: usize) -> &[u8] {
        let ptr = self.ptr::<false>(tier, offset, len);
        // SAFETY: `ptr..ptr + len` lies inside a live chunk (checked by
        // `ptr`), the storage outlives 'a, and the partition contract
        // forbids concurrent writes to these bytes.
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }

    /// Mutably borrows `len` bytes of `tier`'s storage starting at
    /// `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the bytes lie in a read-only chunk, besides
    /// [`ptr`](TiersView::ptr)'s other checks.
    #[allow(clippy::mut_from_ref)] // the view is a shared window over storage owned elsewhere
    #[inline]
    pub(crate) fn bytes_mut(&self, tier: TierId, offset: usize, len: usize) -> &mut [u8] {
        let ptr = self.ptr::<true>(tier, offset, len);
        // SAFETY: `ptr..ptr + len` lies inside a live slab chunk (checked by
        // `ptr`), the storage outlives 'a and is mutably borrowed for it, and
        // the partition contract guarantees no other core touches bytes this
        // core writes during a phase; the reference covers only the
        // requested range, so disjoint ranges never alias.
        unsafe { std::slice::from_raw_parts_mut(ptr, len) }
    }
}

/// One simulated core's access engine: a mutable borrow of that core's
/// private state (TLB, LLC, clock, counters, PEBS sampler) plus
/// shared borrows of the machine's read-mostly state.
///
/// Obtained from [`Machine::run_cores`](crate::Machine::run_cores) (one per
/// core, on its own OS thread) — or implicitly: [`Machine`](crate::Machine)
/// is a [`MemPort`] by lending a handle over its resident core. Every
/// [`MemPort`] operation has its one body here.
#[derive(Debug)]
pub struct CoreHandle<'a> {
    core: &'a mut CoreCtx,
    mappings: &'a MappingTable,
    platform: &'a Platform,
    tiers: TiersView<'a>,
}

impl<'a> CoreHandle<'a> {
    pub(crate) fn new(
        core: &'a mut CoreCtx,
        mappings: &'a MappingTable,
        platform: &'a Platform,
        tiers: TiersView<'a>,
    ) -> Self {
        CoreHandle {
            core,
            mappings,
            platform,
            tiers,
        }
    }

    /// This core's phase-local elapsed simulated time.
    #[cfg(test)]
    pub(crate) fn elapsed(&self) -> SimDuration {
        self.core.clock.now()
    }

    /// Performs an accounted access of `len` bytes at `va` and returns the
    /// (tier, storage offset) servicing it. The access must not cross a
    /// page boundary (guaranteed for naturally aligned scalars).
    #[inline]
    fn access(&mut self, va: VirtAddr, len: usize, write: bool) -> Result<(TierId, usize)> {
        debug_assert!(len > 0 && va.page_offset() + len <= PAGE_SIZE);
        let mapping = self.mappings.lookup(va)?;
        self.core.counters.accesses += 1;
        if write {
            self.core.counters.writes += 1;
        } else {
            self.core.counters.reads += 1;
        }

        let tlb_hit = self
            .core
            .tlb
            .access(mapping.tlb_key(va, self.platform.tlb_coalesce));
        let (frame, offset) = mapping.translate(va);
        let pa = frame.phys_addr(offset).line_aligned();
        let llc_hit = self.core.llc.access(pa, write).is_hit();
        self.charge_probe(!tlb_hit, llc_hit, frame.tier, write, va);
        Ok((frame.tier, frame.byte_offset() + offset))
    }

    /// Charges one probe the caller has just made of the TLB and the LLC:
    /// the page walk if `walk`, then the LLC hit, or the miss to `tier`
    /// and, on a read miss that PEBS samples (at `va`), the sample. Every
    /// accounted path composes a probe's cost here, so the f64 adds run in
    /// one order and the engines stay bit-identical to the scalar loop.
    #[inline]
    fn charge_probe(&mut self, walk: bool, hit: bool, tier: TierId, write: bool, va: VirtAddr) {
        let cost_model = &self.platform.cost;
        let mut cost = SimDuration::ZERO;
        if walk {
            cost += cost_model.walk_cost();
        }
        if hit {
            cost += cost_model.hit_cost();
        } else {
            cost += self.tiers.miss_cost(tier, write);
            if !write && self.core.pebs.on_read_miss(va) {
                cost += cost_model.sample_cost();
            }
        }
        self.core.clock.advance(cost);
    }

    /// [`MemPort::read`].
    #[inline]
    fn read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        let (tier, off) = self.access(va, T::SIZE, false)?;
        let bytes = self.tiers.bytes(tier, off, T::SIZE);
        Ok(T::from_le_slice(bytes))
    }

    /// [`MemPort::write`].
    #[inline]
    fn write<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        let (tier, off) = self.access(va, T::SIZE, true)?;
        let bytes = self.tiers.bytes_mut(tier, off, T::SIZE);
        value.write_le_slice(bytes);
        Ok(())
    }

    /// [`MemPort::read_modify_write`].
    #[inline]
    fn read_modify_write<T: Scalar>(&mut self, va: VirtAddr, f: impl FnOnce(T) -> T) -> Result<T> {
        debug_assert!(va.page_offset() + T::SIZE <= PAGE_SIZE);
        let mapping = self.mappings.lookup(va)?;
        self.core.counters.accesses += 2;
        self.core.counters.reads += 1;
        self.core.counters.writes += 1;
        let (frame, offset) = mapping.translate(va);
        let pa = frame.phys_addr(offset).line_aligned();

        // Read half: charged as `access(va, _, false)`. The write half's
        // TLB lookup is folded into the run.
        let tlb_hit = self
            .core
            .tlb
            .access_run(mapping.tlb_key(va, self.platform.tlb_coalesce), 2);
        let (outcome, slot) = self.core.llc.access_slot(pa, false);
        self.charge_probe(!tlb_hit, outcome.is_hit(), frame.tier, false, va);

        // Write half: a guaranteed hit on the just-probed line, which is
        // already its set's most recently used way — a counter bump.
        self.core.llc.rehit_run(slot, 0, 1);
        let mut wcost = SimDuration::ZERO;
        wcost += self.platform.cost.hit_cost();
        self.core.clock.advance(wcost);

        let bytes = self
            .tiers
            .bytes_mut(frame.tier, frame.byte_offset() + offset, T::SIZE);
        let old = T::from_le_slice(bytes);
        f(old).write_le_slice(bytes);
        Ok(old)
    }

    /// [`MemPort::peek`].
    fn peek<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        let mapping = self.mappings.lookup(va)?;
        let (frame, offset) = mapping.translate(va);
        let bytes = self
            .tiers
            .bytes(frame.tier, frame.byte_offset() + offset, T::SIZE);
        Ok(T::from_le_slice(bytes))
    }

    /// [`MemPort::poke`].
    fn poke<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        let mapping = self.mappings.lookup(va)?;
        let (frame, offset) = mapping.translate(va);
        let bytes = self
            .tiers
            .bytes_mut(frame.tier, frame.byte_offset() + offset, T::SIZE);
        value.write_le_slice(bytes);
        Ok(())
    }

    /// [`MemPort::read_gather`].
    fn read_gather<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        out: &mut [T],
    ) -> Result<()> {
        assert_eq!(indices.len(), out.len(), "index/output length mismatch");
        check_window_width(elem_count);
        let tiers = self.tiers;
        self.access_window::<T, OP_READ>(base, elem_count, indices, |k, tier, offset| {
            out[k] = T::from_le_slice(tiers.bytes(tier, offset, T::SIZE));
        })
    }

    /// [`MemPort::write_scatter`].
    fn write_scatter<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        values: &[T],
    ) -> Result<()> {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        check_window_width(elem_count);
        let tiers = self.tiers;
        self.access_window::<T, OP_WRITE>(base, elem_count, indices, |k, tier, offset| {
            values[k].write_le_slice(tiers.bytes_mut(tier, offset, T::SIZE));
        })
    }

    /// [`MemPort::gather_update`].
    fn gather_update<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        mut f: impl FnMut(usize, T) -> T,
    ) -> Result<()> {
        check_window_width(elem_count);
        let tiers = self.tiers;
        self.access_window::<T, OP_RMW>(base, elem_count, indices, |k, tier, offset| {
            let bytes = tiers.bytes_mut(tier, offset, T::SIZE);
            let old = T::from_le_slice(bytes);
            f(k, old).write_le_slice(bytes);
        })
    }

    /// The batched random-access window engine behind
    /// [`read_gather`](CoreHandle::read_gather),
    /// [`write_scatter`](CoreHandle::write_scatter) and
    /// [`gather_update`](CoreHandle::gather_update).
    ///
    /// Processes `indices` **in window order** (never sorted — reordering
    /// would change LLC replacement decisions and the PEBS stream) and
    /// coalesces maximal *consecutive* runs of elements that land on the
    /// same cache line. Because a line sits inside one page, which sits
    /// inside one TLB translation unit, which sits inside one mapping, a
    /// same-line element is a guaranteed TLB hit and a guaranteed LLC hit
    /// in the scalar loop; the engine therefore defers those bumps (counts
    /// per structure) and flushes them — via [`Tlb::rehit`] and
    /// [`Cache::rehit_run`] — immediately before the next *real* probe
    /// of that structure, before returning an error, and at window end.
    /// Between flush points no other TLB/LLC operation happens, so the
    /// entry being re-touched is still the most recently used one of its
    /// structure: re-touching it moves nothing but the hit counters, and
    /// every replacement / sampling decision is made on exactly the state
    /// the scalar loop would have had. The TLB run additionally extends
    /// across lines while the translation key is unchanged (keys are
    /// location-unique). Key changes and line changes are plain
    /// [`Tlb::access_run`] / [`Cache::access_slot`] probes — neither
    /// structure keeps window-private state. Clock, counters and PEBS are
    /// still charged per element, in order, with the identical f64 cost
    /// composition — so all simulated state ends bit-identical to the
    /// scalar loop.
    ///
    /// `data` is invoked once per element, in order, with the element's
    /// window slot and its `(tier, storage offset)` (after accounting): the
    /// caller borrows the bytes, shared for a read and mutably for a write,
    /// so a read never claims `&mut` over an adopted buffer.
    fn access_window<T: Scalar, const OP: u8>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        mut data: impl FnMut(usize, TierId, usize),
    ) -> Result<()> {
        let coalesce = self.platform.tlb_coalesce;
        let hit_cost = self.platform.cost.hit_cost();
        let write_probe = OP == OP_WRITE;
        // TLB touches per element: the RMW write half folds its lookup into
        // the read's run, exactly like `read_modify_write`.
        let tlb_per_elem = if OP == OP_RMW { 2 } else { 1 };
        // Guaranteed-hit element cost, composed once exactly as the scalar
        // loop composes it per element (`ZERO + hit_cost`).
        let mut rest_cost = SimDuration::ZERO;
        rest_cost += hit_cost;

        // One-entry mapping memo: windows overwhelmingly stay inside one
        // array, so most iterations skip the mapping-table call entirely.
        let mut cur: Option<Mapping> = None;
        // Current TLB run: deferred guaranteed-hit touches of `run_key`.
        let mut run_key = 0u64;
        let mut run_key_valid = false;
        let mut tlb_pending = 0usize;
        // Current line run: deferred guaranteed-hit touches of `cur_slot`.
        let mut cur_vline = 0u64;
        let mut line_valid = false;
        let mut cur_slot = 0usize;
        let mut pending_reads = 0u64;
        let mut pending_writes = 0u64;

        for (k, &i) in indices.iter().enumerate() {
            let i = i as usize;
            // Hard check, not debug_assert: in release builds an out-of-range
            // index would silently alias a neighboring element of the same
            // mapping (the window engine trusts `i` for address arithmetic).
            assert!(
                i < elem_count,
                "window index {i} out of bounds ({elem_count})"
            );
            let va = VirtAddr::new(base.raw() + (i * T::SIZE) as u64);
            let vline = va.raw() / LINE_SIZE as u64;

            if line_valid && vline == cur_vline {
                // Hot path: the element continues the current line run. Same
                // line means same page, same translation unit, same mapping,
                // so the scalar loop's TLB access and LLC access are both
                // guaranteed hits — defer their bumps and charge everything
                // else exactly as the scalar loop would.
                let mapping = cur.expect("line run without a mapping");
                match OP {
                    OP_READ => {
                        self.core.counters.accesses += 1;
                        self.core.counters.reads += 1;
                        tlb_pending += 1;
                        pending_reads += 1;
                        self.core.clock.advance(rest_cost);
                    }
                    OP_WRITE => {
                        self.core.counters.accesses += 1;
                        self.core.counters.writes += 1;
                        tlb_pending += 1;
                        pending_writes += 1;
                        self.core.clock.advance(rest_cost);
                    }
                    _ => {
                        self.core.counters.accesses += 2;
                        self.core.counters.reads += 1;
                        self.core.counters.writes += 1;
                        tlb_pending += 2;
                        pending_reads += 1;
                        pending_writes += 1;
                        self.core.clock.advance(rest_cost);
                        self.core.clock.advance(rest_cost);
                    }
                }
                let (frame, offset) = mapping.translate(va);
                data(k, frame.tier, frame.byte_offset() + offset);
                continue;
            }

            // New line: resolve the mapping (memo first), scalar order —
            // lookup precedes the counter charge, so an unmapped element
            // leaves totals exactly where the scalar loop would.
            let vpage = va.page_index();
            let mapping = match cur {
                Some(m) if vpage >= m.vpage_start && vpage < m.vpage_start + m.pages as u64 => m,
                _ => match self.mappings.lookup(va) {
                    Ok(m) => {
                        cur = Some(m);
                        m
                    }
                    Err(e) => {
                        // Flush deferred bumps so partial state matches the
                        // scalar loop's at the failing element.
                        if tlb_pending > 0 {
                            self.core.tlb.rehit(run_key, tlb_pending);
                        }
                        if pending_reads + pending_writes > 0 {
                            self.core
                                .llc
                                .rehit_run(cur_slot, pending_reads, pending_writes);
                        }
                        return Err(e);
                    }
                },
            };
            match OP {
                OP_READ => {
                    self.core.counters.accesses += 1;
                    self.core.counters.reads += 1;
                }
                OP_WRITE => {
                    self.core.counters.accesses += 1;
                    self.core.counters.writes += 1;
                }
                _ => {
                    self.core.counters.accesses += 2;
                    self.core.counters.reads += 1;
                    self.core.counters.writes += 1;
                }
            }

            // TLB: extend the key run (guaranteed hit on the just-touched
            // entry, no hash lookup) or flush the pending touches and probe.
            let key = mapping.tlb_key(va, coalesce);
            let pay_walk = if run_key_valid && key == run_key {
                tlb_pending += tlb_per_elem;
                false
            } else {
                if tlb_pending > 0 {
                    self.core.tlb.rehit(run_key, tlb_pending);
                    tlb_pending = 0;
                }
                let tlb_hit = self.core.tlb.access_run(key, tlb_per_elem);
                run_key = key;
                run_key_valid = true;
                !tlb_hit
            };

            // LLC: flush the deferred same-line touches, then probe the new
            // line on exactly the state the scalar loop would have had.
            if pending_reads + pending_writes > 0 {
                self.core
                    .llc
                    .rehit_run(cur_slot, pending_reads, pending_writes);
                pending_reads = 0;
                pending_writes = 0;
            }
            let (frame, offset) = mapping.translate(va);
            let pa = frame.phys_addr(offset).line_aligned();
            let (outcome, slot) = self.core.llc.access_slot(pa, write_probe);
            cur_slot = slot;
            cur_vline = vline;
            line_valid = true;

            self.charge_probe(pay_walk, outcome.is_hit(), frame.tier, write_probe, va);
            if OP == OP_RMW {
                // Write half: a guaranteed rehit of the just-probed line —
                // deferred like any other same-line touch.
                pending_writes += 1;
                self.core.clock.advance(rest_cost);
            }
            data(k, frame.tier, frame.byte_offset() + offset);
        }

        // Window end: flush whatever is still deferred.
        if tlb_pending > 0 {
            self.core.tlb.rehit(run_key, tlb_pending);
        }
        if pending_reads + pending_writes > 0 {
            self.core
                .llc
                .rehit_run(cur_slot, pending_reads, pending_writes);
        }
        Ok(())
    }

    /// Performs an accounted bulk access over `range`, simulated as
    /// `range.len / elem` consecutive scalar accesses of `elem` bytes each,
    /// and returns the storage segments backing the range in address order,
    /// each physically contiguous and inside one chunk of host memory.
    ///
    /// This is the fast path behind the `TrackedVec` slice APIs: the mapping
    /// table is consulted once per mapping chunk, the TLB once per
    /// translation unit and the LLC once per cache line, instead of once per
    /// element. Simulated state nevertheless ends **bit-identical** to the
    /// equivalent per-element [`read`](MemPort::read)/[`write`](MemPort::write)
    /// loop — TLB and LLC counters and replacement state, access counters,
    /// the PEBS stream (including RNG state and sample costs) and the
    /// simulated clock. The key observation is that within a
    /// sequential run only the *first* access to a translation unit or cache
    /// line can miss; the batched update replays the exact counter updates
    /// of the scalar path, and advances the clock once per element with the
    /// identically composed cost (f64 accumulation order matters).
    ///
    /// `elem` must divide [`LINE_SIZE`] and `range` must be `elem`-aligned
    /// at both ends, so that no element straddles a cache line — the bulk
    /// analogue of the scalar path's no-page-straddle invariant.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if any byte of `range` is unmapped. Chunks
    /// before the first unmapped page have already been charged, exactly
    /// as the per-element loop would have charged them before erroring.
    ///
    /// # Panics
    ///
    /// Panics if `elem` does not divide [`LINE_SIZE`] or `range` is not
    /// `elem`-aligned.
    pub(crate) fn access_block(
        &mut self,
        range: VirtRange,
        elem: usize,
        write: bool,
    ) -> Result<Vec<BlockSegment>> {
        assert!(
            elem > 0 && LINE_SIZE.is_multiple_of(elem),
            "element size must divide a cache line"
        );
        assert!(
            range.start.raw().is_multiple_of(elem as u64) && range.len.is_multiple_of(elem),
            "bulk range must be element-aligned"
        );
        let mut segments = Vec::new();
        if range.len == 0 {
            return Ok(segments);
        }

        let coalesce = self.platform.tlb_coalesce;
        let hit_cost = self.platform.cost.hit_cost();
        // Non-first elements of a line run each cost exactly one LLC hit;
        // composed once here, identically to the scalar loop's
        // `ZERO + hit_cost` per element.
        let mut rest_cost = SimDuration::ZERO;
        rest_cost += hit_cost;

        let mut va = range.start;
        let end = range.end();
        while va < end {
            let mapping = self.mappings.lookup(va)?;
            let chunk_end = mapping.vrange().end().min(end);
            let chunk_len = chunk_end.offset_from(va) as usize;
            let chunk_elems = (chunk_len / elem) as u64;
            self.core.counters.accesses += chunk_elems;
            if write {
                self.core.counters.writes += chunk_elems;
            } else {
                self.core.counters.reads += chunk_elems;
            }

            // Frames are contiguous within a mapping, so both the physical
            // address and the tier-storage offset advance linearly with the
            // virtual address for the rest of the chunk.
            let (frame, offset) = mapping.translate(va);
            let pa_base = frame.phys_addr(offset).raw();
            let piece = BlockSegment {
                tier: frame.tier,
                offset: frame.byte_offset() + offset,
                len: chunk_len,
            };
            segments.extend(piece.chunks());

            let mut unit_va = va;
            while unit_va < chunk_end {
                let unit_end = tlb_unit_end(&mapping, unit_va, coalesce).min(chunk_end);
                let unit_elems = unit_end.offset_from(unit_va) as usize / elem;
                let tlb_hit = self
                    .core
                    .tlb
                    .access_run(mapping.tlb_key(unit_va, coalesce), unit_elems);

                let mut line_va = unit_va;
                // Lines advance in lockstep with the virtual address inside
                // a chunk, so the aligned physical address just steps by
                // LINE_SIZE after the first line of the unit.
                let mut pa = PhysAddr::new(pa_base + line_va.offset_from(va)).line_aligned();
                while line_va < unit_end {
                    let line_end = VirtAddr::new(line_va.line_aligned().raw() + LINE_SIZE as u64)
                        .min(unit_end);
                    let count = line_end.offset_from(line_va) as usize / elem;
                    let hit = self.core.llc.access_run(pa, write, count).is_hit();

                    // The first element of the run is the scalar probe:
                    // only it can pay the walk, the fill and the PEBS
                    // sample.
                    let walk = line_va == unit_va && !tlb_hit;
                    self.charge_probe(walk, hit, frame.tier, write, line_va);
                    // The remaining elements are guaranteed hits with a warm
                    // TLB entry: one clock advance each, exactly as the
                    // scalar loop performs them.
                    for _ in 1..count {
                        self.core.clock.advance(rest_cost);
                    }
                    line_va = line_end;
                    pa = PhysAddr::new(pa.raw() + LINE_SIZE as u64);
                }
                unit_va = unit_end;
            }
            va = chunk_end;
        }
        Ok(segments)
    }

    /// The mapping table, for the unaccounted counterpart of
    /// [`access_block`](CoreHandle::access_block): [`resolve_block`].
    pub(crate) fn mappings(&self) -> &MappingTable {
        self.mappings
    }

    /// Borrows `len` bytes of `tier`'s backing storage. Bulk data path
    /// only: the access must already have been charged via
    /// [`access_block`](CoreHandle::access_block), or be an unaccounted one
    /// ([`resolve_block`]).
    pub(crate) fn storage_slice(&self, tier: TierId, offset: usize, len: usize) -> &[u8] {
        self.tiers.bytes(tier, offset, len)
    }

    /// Mutable counterpart of [`storage_slice`](CoreHandle::storage_slice).
    pub(crate) fn storage_slice_mut(
        &mut self,
        tier: TierId,
        offset: usize,
        len: usize,
    ) -> &mut [u8] {
        self.tiers.bytes_mut(tier, offset, len)
    }
}

/// Rejects index windows over objects too large for `u32` indices. The
/// window engine addresses elements through `&[u32]`, so a vec beyond
/// 2^32 elements would silently truncate indices on the billion-edge path;
/// such sweeps must go through the range-based block engine instead
/// ([`TrackedVec::read_slice`](crate::TrackedVec::read_slice) /
/// [`TrackedVec::write_slice`](crate::TrackedVec::write_slice)).
#[inline]
fn check_window_width(elem_count: usize) {
    assert!(
        elem_count <= u32::MAX as usize + 1,
        "window over {elem_count} elements exceeds u32 index range; \
         use read_slice/write_slice for large sweeps"
    );
}

/// End of the TLB translation unit containing `va` under `mapping`: the
/// address at which [`Mapping::tlb_key`] first changes. Huge mappings share
/// one key per huge unit; base pages in a fully covered coalescing group
/// share one key per group; everything else is per-page. Mirrors the key
/// logic exactly so `access_block` batches precisely the accesses the
/// per-element loop would send to the same TLB entry.
fn tlb_unit_end(mapping: &Mapping, va: VirtAddr, coalesce: usize) -> VirtAddr {
    let vpage = va.page_index();
    let end_page = match mapping.kind {
        PageKind::Huge2M => (vpage / HUGE_PAGE_FRAMES as u64 + 1) * HUGE_PAGE_FRAMES as u64,
        PageKind::Base4K => {
            if coalesce > 1 {
                let group = vpage / coalesce as u64;
                let group_start = group * coalesce as u64;
                let group_end = group_start + coalesce as u64;
                if mapping.vpage_start <= group_start
                    && group_end <= mapping.vpage_start + mapping.pages as u64
                {
                    group_end
                } else {
                    vpage + 1
                }
            } else {
                vpage + 1
            }
        }
    };
    VirtAddr::new(end_page << PAGE_SHIFT)
}

/// Resolves `range` to the physically contiguous storage segments backing
/// it, one per mapping met — split each with [`BlockSegment::chunks`] before
/// touching its bytes: the mapping walk of [`CoreHandle::access_block`] with nothing charged
/// — no counter, TLB, LLC, clock or PEBS effect. What
/// [`MemPort::peek`] / [`MemPort::poke`] are to `read` / `write` (the
/// `TrackedVec` fill / load / copy-out path, and the migration copies).
///
/// # Errors
///
/// [`HmsError::Unmapped`] if any byte of `range` is unmapped.
pub(crate) fn resolve_block(
    mappings: &MappingTable,
    range: VirtRange,
) -> Result<Vec<BlockSegment>> {
    let mut segments = Vec::new();
    let mut va = range.start;
    let end = range.end();
    while va < end {
        let mapping = mappings.lookup(va)?;
        let chunk_end = mapping.vrange().end().min(end);
        let (frame, offset) = mapping.translate(va);
        segments.push(BlockSegment {
            tier: frame.tier,
            offset: frame.byte_offset() + offset,
            len: chunk_end.offset_from(va) as usize,
        });
        va = chunk_end;
    }
    Ok(segments)
}

/// The memory-access surface kernel-side code is written against:
/// `TrackedVec`, `MemCtx` and the graph kernels take any `&mut impl MemPort`,
/// so the same kernel body runs on the [`Machine`](crate::Machine) and
/// inside a core partition.
///
/// Every operation is declared here and implemented once, on
/// [`CoreHandle`]. A port is anything that can lend a core
/// ([`with_core`](MemPort::with_core), the one required item): a
/// `CoreHandle` lends itself, a `Machine` lends a handle over its resident
/// core — which is why the single-core simulator is the n=1 case of the
/// sharded one by construction.
pub trait MemPort {
    /// Runs `f` on the core this port reaches memory through.
    fn with_core<R>(&mut self, f: impl FnOnce(&mut CoreHandle<'_>) -> R) -> R;

    /// Reads a little-endian scalar through the full accounted path:
    /// mapping lookup, TLB, LLC, cost model, PEBS.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    #[inline]
    fn read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        self.with_core(|core| core.read(va))
    }

    /// Writes a little-endian scalar through the full accounted path.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    #[inline]
    fn write<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        self.with_core(|core| core.write(va, value))
    }

    /// Accounted read-modify-write of one scalar: simulated exactly as a
    /// [`read`](MemPort::read) followed by a [`write`](MemPort::write) of
    /// the same address, but with one address translation and one storage
    /// round-trip on the host. Returns the *old* value.
    ///
    /// The write half is a guaranteed TLB and LLC hit (the read just
    /// touched both), so all counters, the PEBS stream and the clock end
    /// bit-identical to the two-call sequence. This is the fast path for
    /// scatter updates like `next[u] += share`.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    #[inline]
    fn read_modify_write<T: Scalar>(&mut self, va: VirtAddr, f: impl FnOnce(T) -> T) -> Result<T> {
        self.with_core(|core| core.read_modify_write(va, f))
    }

    /// Reads a scalar without advancing the clock or touching TLB/cache.
    /// Intended for test assertions and initialisation outside the measured
    /// region.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    fn peek<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        self.with_core(|core| core.peek(va))
    }

    /// Writes a scalar without advancing the clock or touching TLB/cache.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    fn poke<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        self.with_core(|core| core.poke(va, value))
    }

    /// Accounted indexed gather: reads element `indices[k]` of an array of
    /// `elem_count` `T`s based at `base` into `out[k]`, for every `k`.
    ///
    /// Runs on the batched window engine, so simulated state ends
    /// **bit-identical** to the equivalent [`read`](MemPort::read) loop — on
    /// the success path and, since counters are charged per element after
    /// each translation resolves, on the error path as well.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if any accessed address is unmapped. Elements
    /// before the failing one have been charged exactly as the scalar loop
    /// would have charged them; the failing element has not.
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `out` differ in length, or on an index out of
    /// bounds (`>= elem_count`) — an out-of-range index would otherwise
    /// silently alias a neighboring element.
    fn read_gather<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        out: &mut [T],
    ) -> Result<()> {
        self.with_core(|core| core.read_gather(base, elem_count, indices, out))
    }

    /// Accounted indexed scatter: writes `values[k]` into element
    /// `indices[k]` of an array of `elem_count` `T`s based at `base`, for
    /// every `k`, in index order.
    ///
    /// Runs on the batched window engine, so simulated state ends
    /// **bit-identical** to the equivalent [`write`](MemPort::write) loop.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if any accessed address is unmapped; partial
    /// state matches the scalar loop (see
    /// [`read_gather`](MemPort::read_gather)).
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `values` differ in length, or on an
    /// out-of-bounds index.
    fn write_scatter<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        values: &[T],
    ) -> Result<()> {
        self.with_core(|core| core.write_scatter(base, elem_count, indices, values))
    }

    /// Accounted indexed read-modify-write window: for every `k` in index
    /// order, replaces element `indices[k]` with `f(k, old)`, where `old` is
    /// the element's current value. Duplicate indices observe earlier
    /// updates from the same window, exactly like the per-element loop.
    ///
    /// Runs on the batched window engine, so simulated state ends
    /// **bit-identical** to the equivalent
    /// [`read_modify_write`](MemPort::read_modify_write) loop (which is
    /// itself bit-identical to a read + write pair per element).
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if any accessed address is unmapped; partial
    /// state matches the scalar loop (see
    /// [`read_gather`](MemPort::read_gather)).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds index.
    fn gather_update<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        f: impl FnMut(usize, T) -> T,
    ) -> Result<()> {
        self.with_core(|core| core.gather_update(base, elem_count, indices, f))
    }
}

impl MemPort for CoreHandle<'_> {
    #[inline]
    fn with_core<R>(&mut self, f: impl FnOnce(&mut CoreHandle<'_>) -> R) -> R {
        f(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{Machine, Placement};
    use crate::platform::Platform;
    use crate::shard::{MemPort, CHUNK_SIZE};
    use crate::tier::TierId;
    use crate::tracked::TrackedVec;

    fn machine() -> Machine {
        Machine::new(Platform::testing().with_capacities(64 * 1024, 8 * 1024 * 1024))
    }

    /// The release-mode soundness fix: an out-of-range window index is a
    /// hard panic in every profile, never a silent alias of a neighboring
    /// element. (This test is also run under `--release` by ci.sh.)
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn window_bounds_check_is_a_hard_check() {
        let mut m = machine();
        let v = TrackedVec::<u32>::new(&mut m, 1024, Placement::Slow).unwrap();
        // Index 9 is mapped (the vec has 1024 elements) but out of range for
        // the declared window width of 8 — only the hard check can catch it.
        let mut out = [0u32; 1];
        let _ = m.read_gather::<u32>(v.range().start, 8, &[9], &mut out);
    }

    /// Host memory exists only under mapped frames: reaching for a chunk
    /// nothing is mapped in is a hard panic in every profile, not a read of
    /// whatever the table slot points at. (Also run under `--release` by
    /// ci.sh.)
    #[test]
    #[should_panic(expected = "unbacked chunk")]
    fn unbacked_chunk_access_is_a_hard_check() {
        let mut m = machine();
        let _v = TrackedVec::<u32>::new(&mut m, 1024, Placement::Slow).unwrap();
        m.with_core(|core| core.storage_slice(TierId::SLOW, 2 * CHUNK_SIZE, 4).len());
    }

    /// Consecutive chunks of a tier are anywhere in host memory: a slice
    /// that runs off the end of one is a hard panic in every profile,
    /// although the chunk after it is backed too. (Also run under
    /// `--release` by ci.sh.)
    #[test]
    #[should_panic(expected = "crosses a chunk boundary")]
    fn chunk_crossing_slice_is_a_hard_check() {
        let mut m = machine();
        let _v = TrackedVec::<u8>::new(&mut m, 2 * CHUNK_SIZE, Placement::Slow).unwrap();
        m.with_core(|core| core.storage_slice(TierId::SLOW, CHUNK_SIZE - 8, 16).len());
    }

    /// The per-core backstop behind an adopted vec's own refusals: a raw
    /// accounted write into a chunk that aliases an adopted buffer is a
    /// hard panic in every profile. (Also run under `--release` by ci.sh.)
    #[test]
    #[should_panic(expected = "write to a read-only chunk")]
    fn write_to_a_read_only_chunk_is_a_hard_check() {
        let mut m = machine();
        let buffer = std::sync::Arc::new(vec![7u32; CHUNK_SIZE / 4]);
        let v = TrackedVec::adopt(&mut m, buffer, Placement::Slow).unwrap();
        assert_eq!(m.read::<u32>(v.range().start), Ok(7));
        let _ = m.write::<u32>(v.range().start, 1);
    }

    /// The u32-truncation fix: a window over an object wider than the u32
    /// index range is rejected at the boundary instead of silently
    /// truncating indices. (Also run under `--release` by ci.sh.)
    #[test]
    #[should_panic(expected = "u32 index range")]
    fn windows_beyond_u32_index_range_are_rejected() {
        let mut m = machine();
        let v = TrackedVec::<u32>::new(&mut m, 1024, Placement::Slow).unwrap();
        let mut out = [0u32; 1];
        let _ = m.read_gather::<u32>(v.range().start, (1usize << 32) + 2, &[0], &mut out);
    }
}
