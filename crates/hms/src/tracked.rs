//! Typed views over simulated allocations.
//!
//! [`TrackedVec<T>`] is the array type graph kernels use: every element
//! access goes through the machine's accounted path (TLB, LLC, cost model,
//! PEBS), so access patterns drive both simulated time and the profiler.
//! The vector does not borrow the machine — accessors take any
//! `&mut impl `[`MemPort`] explicitly (the [`Machine`] itself, or one
//! [`CoreHandle`](crate::CoreHandle) of a sharded phase) — so a
//! kernel can interleave accesses to many arrays and the same kernel body
//! runs on the scalar and the sharded engine.
//!
//! Outside the measured region — loading inputs, resetting state, copying
//! results out — the **unaccounted** calls apply: [`TrackedVec::peek`] /
//! [`TrackedVec::poke`] per element, [`TrackedVec::peek_run`] for a run of
//! them, and [`TrackedVec::fill_from`], [`TrackedVec::fill`],
//! [`TrackedVec::fill_with`] and [`TrackedVec::to_vec`] for whole arrays.
//! They read or change bytes in tier storage and nothing else: no counter,
//! TLB, LLC, clock or PEBS effect. Inside the measured region `peek_run`
//! alone applies, to read back in bounded chunks what a kernel has already
//! read accounted (see its docs).

use std::marker::PhantomData;
use std::sync::Arc;

use crate::addr::{VirtAddr, VirtRange};
use crate::error::Result;
use crate::machine::{Machine, Placement, Scalar};
use crate::mapping::MappingTable;
use crate::shard::{resolve_block, scalar_bytes, BlockSegment, MemPort};
use crate::tier::KeepAlive;

/// A fixed-length typed array living in simulated memory.
#[derive(Debug)]
pub struct TrackedVec<T> {
    range: VirtRange,
    len: usize,
    name: Option<Box<str>>,
    /// Made by [`adopt`](TrackedVec::adopt): every write is refused.
    read_only: bool,
    _marker: PhantomData<T>,
}

impl<T: Scalar> TrackedVec<T> {
    /// Allocates a tracked array of `len` elements with the given placement.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from [`Machine::alloc`].
    pub fn new(machine: &mut Machine, len: usize, placement: Placement) -> Result<Self> {
        let range = machine.alloc(len.max(1) * T::SIZE, placement)?;
        Ok(TrackedVec {
            range,
            len,
            name: None,
            read_only: false,
            _marker: PhantomData,
        })
    }

    /// Allocates a **read-only** tracked array holding `values`, copying
    /// only its partial last 4 KiB page into tier storage: every whole page
    /// *is* that stretch of `values` (all of it is copied on a big-endian
    /// host). Frames, mappings and every simulated bit of every
    /// later access are those [`new`](TrackedVec::new) +
    /// [`fill_from`](TrackedVec::fill_from) give.
    ///
    /// Reads and migrations work as on any array. Every write through the
    /// vec (`set`, `update`, `write_slice`, `scatter`, `gather_update`,
    /// `poke`, the fills) panics naming it, before any simulated state
    /// changes; a raw [`MemPort::write`] into an aliased chunk panics too.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from [`Machine::alloc`].
    pub fn adopt(machine: &mut Machine, values: Arc<Vec<T>>, placement: Placement) -> Result<Self> {
        let len = values.len();
        let bytes = len.max(1) * T::SIZE;
        let src = scalar_bytes(&values);
        let range = match src {
            Some(src) => {
                let keep = values.clone() as KeepAlive;
                machine.alloc_from(bytes, placement, Some((src, &keep)))?
            }
            None => machine.alloc(bytes, placement)?,
        };
        let vec = TrackedVec {
            range,
            len,
            name: None,
            read_only: false,
            _marker: PhantomData,
        };
        if src.is_none() {
            vec.fill_from(machine, &values);
        }
        Ok(TrackedVec {
            read_only: true,
            ..vec
        })
    }

    /// Panics, naming the vec, if it refuses writes: called by every write
    /// before it touches anything.
    #[inline]
    fn check_writable(&self, what: &str) {
        if self.read_only {
            self.refuse_write(what);
        }
    }

    /// The panic of [`check_writable`](TrackedVec::check_writable), out of
    /// line so the scalar accessors stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn refuse_write(&self, what: &str) -> ! {
        panic!(
            "tracked vec `{}`: {what} to a read-only (adopted) array",
            self.label()
        )
    }

    /// Attaches a display name, used in panic messages for out-of-bounds
    /// window indices and use-after-free. The ATMem runtime sets this to the
    /// name the array is registered under.
    pub fn set_name(&mut self, name: &str) {
        self.name = Some(name.into());
    }

    /// Name used in diagnostics.
    fn label(&self) -> &str {
        self.name.as_deref().unwrap_or("<unnamed>")
    }

    /// Panics (naming the vec) on any out-of-bounds window index. The window
    /// is validated *before* any simulated state changes.
    fn check_window(&self, what: &str, indices: &[u32]) {
        for &i in indices {
            assert!(
                (i as usize) < self.len,
                "tracked vec `{}`: {what} index {i} out of bounds (len {})",
                self.label(),
                self.len
            );
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing virtual range.
    pub fn range(&self) -> VirtRange {
        self.range
    }

    /// Virtual address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics (naming the vec) if `i >= len` — in release builds too: the
    /// allocation is rounded up to whole pages, so an address past the end
    /// would otherwise silently reach its tail padding.
    #[inline]
    pub fn addr_of(&self, i: usize) -> VirtAddr {
        if i >= self.len {
            self.index_out_of_bounds(i);
        }
        self.range.start.add((i * T::SIZE) as u64)
    }

    /// The panic of a failed [`addr_of`](TrackedVec::addr_of) check, out of
    /// line so the scalar accessors stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn index_out_of_bounds(&self, i: usize) -> ! {
        panic!(
            "tracked vec `{}`: index {i} out of bounds (len {})",
            self.label(),
            self.len
        )
    }

    /// Accounted read of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if the element is unmapped (a tracked array is always fully
    /// mapped while alive, so this indicates use-after-free).
    #[inline]
    pub fn get(&self, machine: &mut impl MemPort, i: usize) -> T {
        machine
            .read::<T>(self.addr_of(i))
            .expect("tracked element unmapped")
    }

    /// Accounted write of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if the element is unmapped, or (naming the vec) if it was
    /// [adopted](TrackedVec::adopt).
    #[inline]
    pub fn set(&self, machine: &mut impl MemPort, i: usize, value: T) {
        self.check_writable("set");
        machine
            .write::<T>(self.addr_of(i), value)
            .expect("tracked element unmapped");
    }

    /// Accounted read-modify-write of element `i`: `x[i] = f(x[i])`,
    /// returning the old value. Simulated bit-identically to
    /// [`get`](TrackedVec::get) followed by [`set`](TrackedVec::set) but
    /// with one address translation on the host — the fast path for scatter
    /// updates like `next[u] += share`.
    ///
    /// # Panics
    ///
    /// Panics if the element is unmapped, or (naming the vec) if it was
    /// [adopted](TrackedVec::adopt).
    #[inline]
    pub fn update(&self, machine: &mut impl MemPort, i: usize, f: impl FnOnce(T) -> T) -> T {
        self.check_writable("update");
        machine
            .read_modify_write::<T>(self.addr_of(i), f)
            .expect("tracked element unmapped")
    }

    /// Accounted bulk read of `out.len()` consecutive elements starting at
    /// element `start`, through the block engine's fast path.
    ///
    /// Simulated state (counters, TLB/LLC contents, PEBS stream, clock) ends
    /// bit-identical to the equivalent [`get`](TrackedVec::get) loop; only
    /// host wall-clock time differs.
    ///
    /// # Panics
    ///
    /// Panics if `start + out.len() > self.len()` or if the range is
    /// unmapped (use-after-free).
    pub fn read_slice(&self, machine: &mut impl MemPort, start: usize, out: &mut [T]) {
        assert!(
            start + out.len() <= self.len,
            "slice [{start}, {}) out of bounds (len {})",
            start + out.len(),
            self.len
        );
        if out.is_empty() {
            return;
        }
        let range = VirtRange::new(self.addr_of(start), out.len() * T::SIZE);
        machine.with_core(|core| {
            let segments = core
                .access_block(range, T::SIZE, false)
                .expect("tracked range unmapped");
            let mut rest = &mut out[..];
            for seg in segments {
                let (head, tail) = rest.split_at_mut(seg.len / T::SIZE);
                let bytes = core.storage_slice(seg.tier, seg.offset, seg.len);
                for (slot, chunk) in head.iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
                    *slot = T::from_le_slice(chunk);
                }
                rest = tail;
            }
            debug_assert!(rest.is_empty());
        });
    }

    /// Accounted bulk write of `values` to consecutive elements starting at
    /// element `start`, through the block engine's fast path.
    ///
    /// Simulated state ends bit-identical to the equivalent
    /// [`set`](TrackedVec::set) loop; only host wall-clock time differs.
    ///
    /// # Panics
    ///
    /// Panics if `start + values.len() > self.len()` or if the range is
    /// unmapped, or (naming the vec) if it was [adopted](TrackedVec::adopt).
    pub fn write_slice(&self, machine: &mut impl MemPort, start: usize, values: &[T]) {
        self.check_writable("write_slice");
        assert!(
            start + values.len() <= self.len,
            "slice [{start}, {}) out of bounds (len {})",
            start + values.len(),
            self.len
        );
        if values.is_empty() {
            return;
        }
        let range = VirtRange::new(self.addr_of(start), values.len() * T::SIZE);
        machine.with_core(|core| {
            let segments = core
                .access_block(range, T::SIZE, true)
                .expect("tracked range unmapped");
            let mut rest = values;
            for seg in segments {
                let (head, tail) = rest.split_at(seg.len / T::SIZE);
                let bytes = core.storage_slice_mut(seg.tier, seg.offset, seg.len);
                for (&value, chunk) in head.iter().zip(bytes.chunks_exact_mut(T::SIZE)) {
                    value.write_le_slice(chunk);
                }
                rest = tail;
            }
            debug_assert!(rest.is_empty());
        });
    }

    /// Accounted bulk scan: calls `f(index, value)` for `len` consecutive
    /// elements starting at element `start`, through the block engine's fast
    /// path.
    ///
    /// Simulated state ends bit-identical to the equivalent
    /// [`get`](TrackedVec::get) loop; only host wall-clock time differs.
    /// Note that `f` observes values as of the start of the scan — a kernel
    /// whose loop body writes elements it will scan later (e.g. in-place
    /// label propagation) must use the per-element path instead.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()` or if the range is unmapped.
    pub fn scan(
        &self,
        machine: &mut impl MemPort,
        start: usize,
        len: usize,
        mut f: impl FnMut(usize, T),
    ) {
        assert!(
            start + len <= self.len,
            "scan [{start}, {}) out of bounds (len {})",
            start + len,
            self.len
        );
        if len == 0 {
            return;
        }
        let range = VirtRange::new(self.addr_of(start), len * T::SIZE);
        machine.with_core(|core| {
            let segments = core
                .access_block(range, T::SIZE, false)
                .expect("tracked range unmapped");
            let mut i = start;
            for seg in segments {
                for bytes in core
                    .storage_slice(seg.tier, seg.offset, seg.len)
                    .chunks_exact(T::SIZE)
                {
                    f(i, T::from_le_slice(bytes));
                    i += 1;
                }
            }
            debug_assert_eq!(i, start + len);
        });
    }

    /// Accounted indexed gather: reads element `indices[k]` into `out[k]`
    /// for every `k`, in order, through [`MemPort::read_gather`].
    ///
    /// Simulated state ends bit-identical to the equivalent
    /// [`get`](TrackedVec::get) loop; only per-call host overhead is hoisted
    /// out of the loop. This is the companion to the slice fast path for the
    /// *irregular* side of a kernel (e.g. SpMV's `x[col]` stream).
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `out` differ in length, an index is out of
    /// bounds (the message names the vec, and the window is rejected before
    /// any simulated state changes), or the array is unmapped
    /// (use-after-free).
    pub fn gather(&self, machine: &mut impl MemPort, indices: &[u32], out: &mut [T]) {
        self.check_window("gather", indices);
        machine
            .read_gather::<T>(self.range.start, self.len, indices, out)
            .unwrap_or_else(|e| panic!("tracked vec `{}` unmapped: {e}", self.label()));
    }

    /// Accounted indexed scatter: writes `values[k]` to element `indices[k]`
    /// for every `k`, in order, through [`MemPort::write_scatter`]'s batched
    /// window engine. Duplicate indices are written in order (the last value
    /// wins), exactly like the per-element loop.
    ///
    /// Simulated state ends bit-identical to the equivalent
    /// [`set`](TrackedVec::set) loop; only host wall-clock time differs.
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `values` differ in length, an index is out of
    /// bounds (the message names the vec, and the window is rejected before
    /// any simulated state changes), the array is unmapped
    /// (use-after-free), or (naming the vec) it was [adopted](TrackedVec::adopt).
    pub fn scatter(&self, machine: &mut impl MemPort, indices: &[u32], values: &[T]) {
        self.check_writable("scatter");
        self.check_window("scatter", indices);
        machine
            .write_scatter::<T>(self.range.start, self.len, indices, values)
            .unwrap_or_else(|e| panic!("tracked vec `{}` unmapped: {e}", self.label()));
    }

    /// Accounted indexed read-modify-write window: for every `k` in order,
    /// replaces element `indices[k]` with `f(k, old)` where `old` is the
    /// element's current value, through [`MemPort::gather_update`]'s batched
    /// window engine. Duplicate indices observe earlier updates from the
    /// same window, exactly like an [`update`](TrackedVec::update) loop.
    ///
    /// Simulated state ends bit-identical to the equivalent
    /// [`update`](TrackedVec::update) loop (itself bit-identical to a
    /// [`get`](TrackedVec::get) + [`set`](TrackedVec::set) pair per
    /// element); only host wall-clock time differs. This is the fast path
    /// for scatter-update phases like PageRank's `next[u] += share`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds (the message names the vec, and
    /// the window is rejected before any simulated state changes), the
    /// array is unmapped (use-after-free), or (naming the vec) it was
    /// [adopted](TrackedVec::adopt).
    pub fn gather_update(
        &self,
        machine: &mut impl MemPort,
        indices: &[u32],
        f: impl FnMut(usize, T) -> T,
    ) {
        self.check_writable("gather_update");
        self.check_window("gather_update", indices);
        machine
            .gather_update::<T>(self.range.start, self.len, indices, f)
            .unwrap_or_else(|e| panic!("tracked vec `{}` unmapped: {e}", self.label()));
    }

    /// **Untracked** read of element `i`: no simulated cost, no TLB/LLC
    /// state change, no PEBS sample — invisible to the profiler and the
    /// clock. For setup, verification and result extraction outside the
    /// measured region; the accounted counterpart is
    /// [`get`](TrackedVec::get).
    #[doc(alias = "get")]
    pub fn peek(&self, machine: &mut impl MemPort, i: usize) -> T {
        machine
            .peek::<T>(self.addr_of(i))
            .expect("tracked element unmapped")
    }

    /// **Untracked** write of element `i`: no simulated cost, no TLB/LLC
    /// state change, no PEBS sample — invisible to the profiler and the
    /// clock. For bulk initialisation outside the timed region; the
    /// accounted counterpart is [`set`](TrackedVec::set).
    ///
    /// # Panics
    ///
    /// Panics if the element is unmapped, or (naming the vec) if it was
    /// [adopted](TrackedVec::adopt).
    #[doc(alias = "set")]
    pub fn poke(&self, machine: &mut impl MemPort, i: usize, value: T) {
        self.check_writable("poke");
        machine
            .poke::<T>(self.addr_of(i), value)
            .expect("tracked element unmapped");
    }

    /// Unaccounted bulk read of `out.len()` consecutive elements starting at
    /// element `start`: what [`read_slice`](TrackedVec::read_slice) copies,
    /// with nothing charged — as [`fill_from`](TrackedVec::fill_from) is to
    /// [`write_slice`](TrackedVec::write_slice).
    ///
    /// Inside a measured region this is only for bytes the kernel has
    /// already read through an accounted call and not written since: the
    /// accounted read charges the access once, in sequence order, and this
    /// call reads the same values back in bounded chunks, so no host copy
    /// of a whole stream has to be held in between.
    ///
    /// # Panics
    ///
    /// Panics if `start + out.len() > self.len()`, or (naming the vec) if
    /// the range is unmapped.
    pub fn peek_run(&self, machine: &mut impl MemPort, start: usize, out: &mut [T]) {
        assert!(
            start + out.len() <= self.len,
            "tracked vec `{}`: peek_run [{start}, {}) out of bounds (len {})",
            self.label(),
            start + out.len(),
            self.len
        );
        machine.with_core(|core| {
            let mut rest = &mut out[..];
            for seg in self.resolve(core.mappings(), start, rest.len()) {
                let (head, tail) = rest.split_at_mut(seg.len / T::SIZE);
                let bytes = core.storage_slice(seg.tier, seg.offset, seg.len);
                for (slot, chunk) in head.iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
                    *slot = T::from_le_slice(chunk);
                }
                rest = tail;
            }
            debug_assert!(rest.is_empty());
        });
    }

    /// The storage segments backing elements `start..start + len`, each
    /// inside one chunk of host memory, resolved without accounting.
    ///
    /// Segments end only at page boundaries (mappings are page-granular)
    /// and elements are naturally aligned, so a segment always holds a
    /// whole number of elements, in index order across segments.
    ///
    /// # Panics
    ///
    /// Panics (naming the vec) if the array is unmapped (use-after-free).
    fn resolve(&self, mappings: &MappingTable, start: usize, len: usize) -> Vec<BlockSegment> {
        let range = VirtRange::new(
            self.range.start.add((start * T::SIZE) as u64),
            len * T::SIZE,
        );
        resolve_block(mappings, range)
            .unwrap_or_else(|e| panic!("tracked vec `{}` unmapped: {e}", self.label()))
            .into_iter()
            .flat_map(BlockSegment::chunks)
            .collect()
    }

    /// Bulk **unaccounted** initialisation: element `i` becomes `f(i)`, for
    /// `i` ascending. Like every bulk unaccounted call
    /// ([`fill_from`](TrackedVec::fill_from), [`fill`](TrackedVec::fill),
    /// [`to_vec`](TrackedVec::to_vec), [`values`](TrackedVec::values)) it leaves the data image exactly as
    /// the [`poke`](TrackedVec::poke) / [`peek`](TrackedVec::peek) loop
    /// would and no other trace: no counter, TLB or LLC state, clock or
    /// PEBS effect. Only the host cost differs — one mapping walk
    /// per physically contiguous segment instead of one lookup per element.
    ///
    /// # Panics
    ///
    /// Panics (naming the vec) if the array is unmapped (use-after-free) or
    /// was [adopted](TrackedVec::adopt).
    pub fn fill_with(&self, machine: &mut impl MemPort, mut f: impl FnMut(usize) -> T) {
        self.check_writable("fill");
        machine.with_core(|core| {
            let mut i = 0;
            for seg in self.resolve(core.mappings(), 0, self.len) {
                let bytes = core.storage_slice_mut(seg.tier, seg.offset, seg.len);
                for chunk in bytes.chunks_exact_mut(T::SIZE) {
                    f(i).write_le_slice(chunk);
                    i += 1;
                }
            }
            debug_assert_eq!(i, self.len);
        });
    }

    /// Bulk unaccounted initialisation from a slice (see
    /// [`fill_with`](TrackedVec::fill_with)).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`, or (naming the vec) if the
    /// array is unmapped or was [adopted](TrackedVec::adopt).
    pub fn fill_from(&self, machine: &mut impl MemPort, values: &[T]) {
        self.check_writable("fill_from");
        assert_eq!(values.len(), self.len, "length mismatch in fill_from");
        machine.with_core(|core| {
            let mut rest = values;
            for seg in self.resolve(core.mappings(), 0, self.len) {
                let (head, tail) = rest.split_at(seg.len / T::SIZE);
                let bytes = core.storage_slice_mut(seg.tier, seg.offset, seg.len);
                for (&value, chunk) in head.iter().zip(bytes.chunks_exact_mut(T::SIZE)) {
                    value.write_le_slice(chunk);
                }
                rest = tail;
            }
            debug_assert!(rest.is_empty());
        });
    }

    /// Bulk unaccounted fill with one value (see
    /// [`fill_with`](TrackedVec::fill_with)).
    ///
    /// # Panics
    ///
    /// Panics (naming the vec) if the array is unmapped or was
    /// [adopted](TrackedVec::adopt).
    pub fn fill(&self, machine: &mut impl MemPort, value: T) {
        self.fill_with(machine, |_| value);
    }

    /// Iterates the elements in index order, unaccounted (see
    /// [`fill_with`](TrackedVec::fill_with)), straight out of tier storage:
    /// the way to fold an array (a checksum) without a host copy of it.
    /// Takes the machine, not any port: the iterator borrows tier storage
    /// for as long as it lives, which a core lent for one call cannot give.
    ///
    /// # Panics
    ///
    /// Panics (naming the vec) if the array is unmapped.
    pub fn values<'a>(&self, machine: &'a Machine) -> impl Iterator<Item = T> + 'a
    where
        T: 'a,
    {
        let segments = self.resolve(machine.mappings(), 0, self.len);
        segments.into_iter().flat_map(move |seg| {
            machine
                .storage_slice(seg.tier, seg.offset, seg.len)
                .chunks_exact(T::SIZE)
                .map(T::from_le_slice)
        })
    }

    /// Copies the array out of simulated memory, unaccounted (see
    /// [`fill_with`](TrackedVec::fill_with)).
    ///
    /// # Panics
    ///
    /// Panics (naming the vec) if the array is unmapped.
    pub fn to_vec(&self, machine: &mut impl MemPort) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        machine.with_core(|core| {
            for seg in self.resolve(core.mappings(), 0, self.len) {
                let bytes = core.storage_slice(seg.tier, seg.offset, seg.len);
                out.extend(bytes.chunks_exact(T::SIZE).map(T::from_le_slice));
            }
        });
        debug_assert_eq!(out.len(), self.len);
        out
    }

    /// Frees the backing allocation. The vector must not be used afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::free`] errors (e.g. double free).
    pub fn free(self, machine: &mut Machine) -> Result<()> {
        machine.free(self.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::tier::TierId;

    fn machine() -> Machine {
        Machine::new(Platform::testing())
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = machine();
        let v = TrackedVec::<u64>::new(&mut m, 100, Placement::Slow).unwrap();
        for i in 0..100 {
            v.set(&mut m, i, (i * i) as u64);
        }
        for i in 0..100 {
            assert_eq!(v.get(&mut m, i), (i * i) as u64);
        }
    }

    #[test]
    fn fill_from_and_to_vec() {
        let mut m = machine();
        let v = TrackedVec::<f64>::new(&mut m, 8, Placement::Fast).unwrap();
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        v.fill_from(&mut m, &data);
        assert_eq!(v.to_vec(&mut m), data);
    }

    #[test]
    fn accounted_access_advances_clock_unaccounted_does_not() {
        let mut m = machine();
        let v = TrackedVec::<u32>::new(&mut m, 16, Placement::Slow).unwrap();
        let t0 = m.now();
        v.poke(&mut m, 0, 9);
        let _ = v.peek(&mut m, 0);
        assert_eq!(m.now(), t0, "peek/poke must be free");
        let _ = v.get(&mut m, 0);
        assert!(m.now() > t0, "get must cost simulated time");
    }

    /// The tentpole guarantee: the bulk slice path leaves every piece of
    /// simulated state — counters, clock, PEBS sample stream — bit-identical
    /// to the per-element loop it replaces. At period 1 the drained PEBS
    /// stream is every read miss in order; the drawn period checks that
    /// unsampled misses are not charged the sample cost.
    #[test]
    fn bulk_access_is_bit_identical_to_the_scalar_loop() {
        for (period, jitter) in [(7, 3), (1, 0)] {
            // Fast tier too small for the whole array: Preferred(FAST) spills
            // to SLOW mid-range, so the bulk path crosses mapping (and tier)
            // chunk boundaries.
            let platform = || Platform::testing().with_capacities(64 * 1024, 8 * 1024 * 1024);
            let mut bulk = Machine::new(platform());
            let mut scalar = Machine::new(platform());
            for m in [&mut bulk, &mut scalar] {
                m.pebs_enable(period, jitter);
            }
            let n = 40_000; // 160 000 bytes of u32: spills past the fast tier.
            let vb =
                TrackedVec::<u32>::new(&mut bulk, n, Placement::Preferred(TierId::FAST)).unwrap();
            let vs =
                TrackedVec::<u32>::new(&mut scalar, n, Placement::Preferred(TierId::FAST)).unwrap();

            let values: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();

            // Full write.
            vb.write_slice(&mut bulk, 0, &values);
            for (i, &x) in values.iter().enumerate() {
                vs.set(&mut scalar, i, x);
            }
            // Full read, now with warm TLB/LLC state.
            let mut out = vec![0u32; n];
            vb.read_slice(&mut bulk, 0, &mut out);
            for (i, &x) in values.iter().enumerate() {
                assert_eq!(vs.get(&mut scalar, i), x);
            }
            assert_eq!(out, values, "bulk read returned wrong data");

            // Interior, cache-line-unaligned scan (element 3 = byte 12).
            let (start, len) = (3, 12_345);
            let mut sum_b = 0u64;
            vb.scan(&mut bulk, start, len, |_, x| sum_b += u64::from(x));
            let mut sum_s = 0u64;
            for i in start..start + len {
                sum_s += u64::from(vs.get(&mut scalar, i));
            }
            assert_eq!(sum_b, sum_s);

            // Interior overwrite at an odd offset.
            let patch: Vec<u32> = (0..4_321u32).collect();
            vb.write_slice(&mut bulk, 777, &patch);
            for (k, &x) in patch.iter().enumerate() {
                vs.set(&mut scalar, 777 + k, x);
            }

            // Random scatter via read-modify-write vs get-then-set.
            let mut state = 0x9e3779b97f4a7c15u64;
            for _ in 0..5_000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = (state >> 33) as usize % n;
                let old_b = vb.update(&mut bulk, i, |x| x.wrapping_add(7));
                let old_s = vs.get(&mut scalar, i);
                vs.set(&mut scalar, i, old_s.wrapping_add(7));
                assert_eq!(old_b, old_s);
            }

            // Indexed gather vs the per-element read loop.
            let indices: Vec<u32> = (0..8_000)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as u32 % n as u32
                })
                .collect();
            let mut gathered = vec![0u32; indices.len()];
            vb.gather(&mut bulk, &indices, &mut gathered);
            for (&i, &got) in indices.iter().zip(&gathered) {
                assert_eq!(vs.get(&mut scalar, i as usize), got, "gather at {i}");
            }

            assert_eq!(bulk.stats(), scalar.stats(), "machine counters diverge");
            assert_eq!(
                bulk.now().as_ns().to_bits(),
                scalar.now().as_ns().to_bits(),
                "simulated clocks diverge"
            );
            assert_eq!(
                bulk.pebs_drain(),
                scalar.pebs_drain(),
                "PEBS streams diverge"
            );
        }
    }

    /// Builds an index window that exercises every path of the window
    /// engine: sequential same-line runs, exact duplicates (RMW on the same
    /// element twice in a row), strided jumps that stay in one translation
    /// unit, and random jumps across pages and the tier boundary.
    fn mixed_window(n: usize, len: usize, state: &mut u64) -> Vec<u32> {
        let mut step = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) as usize % n
        };
        let mut w = Vec::with_capacity(len);
        while w.len() < len {
            let i = step();
            match w.len() % 4 {
                // Consecutive elements: same cache line for a few steps.
                0 => {
                    for k in 0..4.min(n - i) {
                        w.push((i + k) as u32);
                    }
                }
                // Exact duplicates back to back.
                1 => {
                    w.push(i as u32);
                    w.push(i as u32);
                }
                // Line-strided walk within a page.
                2 => {
                    for k in (0..64).step_by(16) {
                        w.push(((i + k) % n) as u32);
                    }
                }
                // Pure random jump.
                _ => w.push(i as u32),
            }
        }
        w.truncate(len);
        w
    }

    /// The PR 2 tentpole guarantee: the batched window engine behind
    /// `scatter` and `gather_update` leaves every piece of simulated state
    /// bit-identical to the per-element loop, across mapping-chunk, tier,
    /// page and huge-mapping boundaries.
    #[test]
    fn window_engine_is_bit_identical_to_the_scalar_loop() {
        for (period, jitter) in [(5, 2), (1, 0)] {
            // Preferred(FAST) spills to SLOW mid-array: windows cross mapping
            // chunks, the tier boundary, base pages and coalescing groups.
            let platform = || Platform::testing().with_capacities(64 * 1024, 8 * 1024 * 1024);
            let mut bulk = Machine::new(platform());
            let mut scalar = Machine::new(platform());
            for m in [&mut bulk, &mut scalar] {
                m.pebs_enable(period, jitter);
            }
            let n = 40_000;
            let vb =
                TrackedVec::<u32>::new(&mut bulk, n, Placement::Preferred(TierId::FAST)).unwrap();
            let vs =
                TrackedVec::<u32>::new(&mut scalar, n, Placement::Preferred(TierId::FAST)).unwrap();
            let init: Vec<u32> = (0..n as u32).collect();
            vb.fill_from(&mut bulk, &init);
            vs.fill_from(&mut scalar, &init);

            let mut state = 0xd1b54a32d192ed03u64;
            // Scatter vs the per-element set loop.
            let widx = mixed_window(n, 6_000, &mut state);
            let wvals: Vec<u32> = (0..widx.len() as u32).map(|k| k.wrapping_mul(97)).collect();
            vb.scatter(&mut bulk, &widx, &wvals);
            for (&i, &x) in widx.iter().zip(&wvals) {
                vs.set(&mut scalar, i as usize, x);
            }

            // Gather-update vs the per-element update loop (itself
            // bit-identical to get + set). Duplicate indices must observe the
            // in-window updates before them.
            let uidx = mixed_window(n, 6_000, &mut state);
            let mut olds_b = Vec::with_capacity(uidx.len());
            vb.gather_update(&mut bulk, &uidx, |k, x| {
                olds_b.push(x);
                x.wrapping_add(k as u32)
            });
            for (k, &i) in uidx.iter().enumerate() {
                let old = vs.update(&mut scalar, i as usize, |x| x.wrapping_add(k as u32));
                assert_eq!(olds_b[k], old, "RMW old value diverges at window slot {k}");
            }

            // Gather sees the combined result through the same engine.
            let gidx = mixed_window(n, 6_000, &mut state);
            let mut got_b = vec![0u32; gidx.len()];
            vb.gather(&mut bulk, &gidx, &mut got_b);
            for (&i, &got) in gidx.iter().zip(&got_b) {
                assert_eq!(vs.get(&mut scalar, i as usize), got, "gather at {i}");
            }

            assert_eq!(bulk.stats(), scalar.stats(), "machine counters diverge");
            assert_eq!(bulk.now(), scalar.now(), "simulated clocks diverge");
            assert_eq!(
                bulk.pebs_drain(),
                scalar.pebs_drain(),
                "PEBS streams diverge"
            );
            assert_eq!(
                vb.to_vec(&mut bulk),
                vs.to_vec(&mut scalar),
                "data diverges"
            );
        }
    }

    /// Same guarantee across a huge-mapping / base-page boundary: a large
    /// slow-tier array gets 2 MiB mappings for its aligned middle and base
    /// pages for the tail, and windows jump across the seam.
    #[test]
    fn window_engine_crosses_huge_mapping_boundaries() {
        for (period, jitter) in [(11, 4), (1, 0)] {
            let platform = || Platform::testing().with_capacities(64 * 1024, 16 * 1024 * 1024);
            let mut bulk = Machine::new(platform());
            let mut scalar = Machine::new(platform());
            for m in [&mut bulk, &mut scalar] {
                m.pebs_enable(period, jitter);
            }
            // 5 MiB of u64: two full 2 MiB huge units plus a base-page tail.
            let n = (5 * 1024 * 1024) / 8;
            let vb = TrackedVec::<u64>::new(&mut bulk, n, Placement::Slow).unwrap();
            let vs = TrackedVec::<u64>::new(&mut scalar, n, Placement::Slow).unwrap();

            let mut state = 0x2545f4914f6cdd1du64;
            let widx = mixed_window(n, 4_000, &mut state);
            let wvals: Vec<u64> = (0..widx.len() as u64).collect();
            vb.scatter(&mut bulk, &widx, &wvals);
            for (&i, &x) in widx.iter().zip(&wvals) {
                vs.set(&mut scalar, i as usize, x);
            }

            let uidx = mixed_window(n, 4_000, &mut state);
            vb.gather_update(&mut bulk, &uidx, |_, x| x ^ 0x5a5a);
            for &i in &uidx {
                vs.update(&mut scalar, i as usize, |x| x ^ 0x5a5a);
            }

            assert_eq!(bulk.stats(), scalar.stats(), "machine counters diverge");
            assert_eq!(bulk.now(), scalar.now(), "simulated clocks diverge");
            assert_eq!(bulk.pebs_drain(), scalar.pebs_drain());
        }
    }

    /// The error path charges exactly what the scalar loop charges: elements
    /// before the unmapped one in full, nothing for the failing element
    /// (this is the ROADMAP-noted `read_gather` drift fix).
    #[test]
    fn window_error_path_matches_the_scalar_loop() {
        for (period, jitter) in [(3, 1), (1, 0)] {
            let mut bulk = machine();
            let mut scalar = machine();
            for m in [&mut bulk, &mut scalar] {
                m.pebs_enable(period, jitter);
            }
            // Only `live` elements are mapped; the machine-level call is told
            // the array is `n` elements long, so indices past the mapping hit
            // unmapped memory mid-window.
            let n = 4096;
            let live = 1024;
            let vb = TrackedVec::<u32>::new(&mut bulk, live, Placement::Slow).unwrap();
            let vs = TrackedVec::<u32>::new(&mut scalar, live, Placement::Slow).unwrap();
            let base_b = vb.range().start;
            let base_s = vs.range().start;

            // A window that walks some live lines then steps off the mapping.
            let indices: Vec<u32> = [0u32, 1, 2, 64, 64, 700, 701, 2048, 3].to_vec();
            let mut out = vec![0u32; indices.len()];
            let err_b = bulk.read_gather::<u32>(base_b, n, &indices, &mut out);
            assert!(err_b.is_err(), "gather should hit the unmapped tail");
            let mut scalar_failed = false;
            for &i in &indices {
                match scalar.read::<u32>(base_s.add((i as usize * 4) as u64)) {
                    Ok(_) => {}
                    Err(_) => {
                        scalar_failed = true;
                        break;
                    }
                }
            }
            assert!(scalar_failed);
            assert_eq!(bulk.stats(), scalar.stats(), "error-path totals diverge");
            assert_eq!(bulk.now(), scalar.now(), "error-path clocks diverge");
            assert_eq!(bulk.pebs_drain(), scalar.pebs_drain());
        }
    }

    #[test]
    fn window_panics_name_the_vec() {
        let mut m = machine();
        let mut v = TrackedVec::<u32>::new(&mut m, 8, Placement::Slow).unwrap();
        v.set_name("pr.next");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.gather(&mut m, &[9], &mut [0u32]);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("pr.next") && msg.contains("out of bounds"),
            "panic message should name the vec: {msg}"
        );
    }

    /// Everything simulated that an access could disturb, read without
    /// draining: counters and occupancy, the clock, the PEBS unit's state
    /// (countdown, jitter stream and buffer).
    fn observables(m: &Machine) -> impl PartialEq + std::fmt::Debug {
        (m.stats(), m.now(), format!("{:?}", m.pebs()))
    }

    /// Runs every bulk unaccounted call on `vb` (through `bulk`) and the
    /// `poke`/`peek` loop it replaces on `vs` (through `looped`), checking
    /// the data images agree after each.
    fn bulk_vs_loops(
        bulk: &mut Machine,
        vb: &TrackedVec<u32>,
        looped: &mut Machine,
        vs: &TrackedVec<u32>,
    ) {
        let n = vb.len();
        let peeked = |m: &mut Machine, v: &TrackedVec<u32>| -> Vec<u32> {
            (0..n).map(|i| v.peek(m, i)).collect()
        };
        let values: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();

        vb.fill_from(bulk, &values);
        for (i, &x) in values.iter().enumerate() {
            vs.poke(looped, i, x);
        }
        assert_eq!(peeked(bulk, vb), values, "fill_from image");
        assert!(vb.values(bulk).eq(peeked(looped, vs)), "values");
        assert_eq!(
            vb.to_vec(bulk),
            peeked(looped, vs),
            "to_vec after fill_from"
        );

        vb.fill(bulk, 0xA5A5_0001);
        for i in 0..n {
            vs.poke(looped, i, 0xA5A5_0001);
        }
        assert_eq!(vb.to_vec(bulk), peeked(looped, vs), "fill image");

        let mut order = Vec::with_capacity(n);
        vb.fill_with(bulk, |i| {
            order.push(i);
            !(i as u32)
        });
        for i in 0..n {
            vs.poke(looped, i, !(i as u32));
        }
        assert!(order.iter().copied().eq(0..n), "fill_with visits 0..n");
        assert_eq!(peeked(bulk, vb), peeked(looped, vs), "fill_with image");
        for (start, len) in [(0, n), (1, n - 1), (4_095, 2_049), (n, 0)] {
            let mut run = vec![0; len];
            vb.peek_run(bulk, start, &mut run);
            assert_eq!(run, peeked(looped, vs)[start..start + len], "peek_run");
        }
        assert_eq!(
            vb.to_vec(bulk),
            peeked(looped, vs),
            "to_vec after fill_with"
        );
    }

    /// "Unaccounted" is checked, not assumed: the segment-wise
    /// `fill_from` / `fill` / `fill_with` / `to_vec` / `values` / `peek_run` produce the
    /// images of the per-element `poke`/`peek` loops, and leave counters, clock,
    /// TLB/LLC contents and the PEBS buffer untouched — on a fresh contiguous allocation, across `mbind`-splintered per-page
    /// mappings on two tiers, and through a `CoreHandle` of a sharded phase.
    #[test]
    fn bulk_unaccounted_ops_match_poke_peek_loops() {
        for (period, jitter) in [(7, 3), (1, 0)] {
            let platform = || Platform::testing().with_capacities(256 * 1024, 8 * 1024 * 1024);
            let mut bulk = Machine::new(platform());
            let mut looped = Machine::new(platform());
            for m in [&mut bulk, &mut looped] {
                m.pebs_enable(period, jitter);
            }
            // Accounted traffic around the bulk calls: were a bulk call to
            // touch the TLB or LLC, these sweeps would hit and miss differently
            // on the two machines.
            let sweep = |m: &mut Machine, v: &TrackedVec<u32>| {
                for i in (0..v.len()).step_by(13) {
                    let x = v.get(m, i);
                    v.set(m, i, x.rotate_left(1));
                }
            };

            let n = 30_000; // 29.3 pages of u32
            for splinter in [false, true] {
                let vb = TrackedVec::<u32>::new(&mut bulk, n, Placement::Slow).unwrap();
                let vs = TrackedVec::<u32>::new(&mut looped, n, Placement::Slow).unwrap();
                if splinter {
                    // The middle third moves to the fast tier page by page.
                    for (m, v) in [(&mut bulk, &vb), (&mut looped, &vs)] {
                        let third = VirtRange::new(v.range().start.add(10 * 4096), 10 * 4096);
                        m.migrate_mbind(third, TierId::FAST).unwrap();
                        assert!(
                            m.mappings_in(v.range()).len() >= 12,
                            "mbind should leave per-page mappings"
                        );
                    }
                }
                sweep(&mut bulk, &vb);
                sweep(&mut looped, &vs);

                let before = observables(&bulk);
                // `looped` is both sides' reference here: the loops are known
                // unaccounted (`accounted_access_advances_clock_...`).
                bulk_vs_loops(&mut bulk, &vb, &mut looped, &vs);
                assert_eq!(observables(&bulk), before, "a bulk call was accounted");

                sweep(&mut bulk, &vb);
                sweep(&mut looped, &vs);
                assert_eq!(vb.to_vec(&mut bulk), vs.to_vec(&mut looped));
            }

            // Through a `CoreHandle`: each simulated core owns one array.
            let owned = |m: &mut Machine| -> Vec<TrackedVec<u32>> {
                (0..2)
                    .map(|_| TrackedVec::<u32>::new(m, 5_000, Placement::Slow).unwrap())
                    .collect()
            };
            let (cb, cs) = (owned(&mut bulk), owned(&mut looped));
            bulk.run_cores(2, |core, h| {
                let v = &cb[core];
                for i in 0..v.len() {
                    v.set(h, i, i as u32);
                }
                let before = h.elapsed();
                let values: Vec<u32> = (0..v.len() as u32).map(|i| i ^ 0x5555).collect();
                v.fill_from(h, &values);
                assert_eq!(v.to_vec(h), values);
                let mut run = vec![0; 1_000];
                v.peek_run(h, 2_000, &mut run);
                assert_eq!(run, values[2_000..3_000]);
                v.fill(h, 9);
                v.fill_with(h, |i| 3 * i as u32);
                assert_eq!(h.elapsed(), before, "a bulk call advanced a core clock");
                (0..v.len()).fold(0u64, |acc, i| acc + u64::from(v.get(h, i)))
            });
            looped.run_cores(2, |core, h| {
                let v = &cs[core];
                for i in 0..v.len() {
                    v.set(h, i, i as u32);
                }
                for i in 0..v.len() {
                    v.poke(h, i, i as u32 ^ 0x5555);
                }
                for i in 0..v.len() {
                    let _ = v.peek(h, i);
                    v.poke(h, i, 9);
                    v.poke(h, i, 3 * i as u32);
                }
                (0..v.len()).fold(0u64, |acc, i| acc + u64::from(v.get(h, i)))
            });
            for (vb, vs) in cb.iter().zip(&cs) {
                assert_eq!(vb.to_vec(&mut bulk), vs.to_vec(&mut looped));
            }

            assert_eq!(bulk.stats(), looped.stats(), "machine counters diverge");
            assert_eq!(bulk.now(), looped.now(), "simulated clocks diverge");
            assert_eq!(
                bulk.pebs_drain(),
                looped.pebs_drain(),
                "PEBS streams diverge"
            );
            assert_eq!(bulk.audit(), Vec::<String>::new());
            assert_eq!(looped.audit(), Vec::<String>::new());
        }
    }

    #[test]
    #[should_panic(expected = "tracked vec `spmv.y` unmapped")]
    fn bulk_calls_on_a_freed_array_name_the_vec() {
        let mut m = machine();
        let mut v = TrackedVec::<f64>::new(&mut m, 64, Placement::Slow).unwrap();
        v.set_name("spmv.y");
        m.free(v.range()).unwrap();
        for fill in [
            |v: &TrackedVec<f64>, m: &mut Machine| v.fill(m, 0.0),
            |v: &TrackedVec<f64>, m: &mut Machine| v.fill_from(m, &[0.0; 64]),
        ] {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fill(&v, &mut m)))
                .unwrap_err();
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("`spmv.y` unmapped"), "anonymous panic: {msg}");
        }
        let _ = v.to_vec(&mut m);
    }

    /// Runs `write` on an adopted vec named `csr.neighbors`: it must panic
    /// naming the vec and the operation, leave every simulated observable
    /// and the buffer as they were, and the machine audit-clean.
    fn assert_refused(what: &str, write: impl FnOnce(&TrackedVec<u32>, &mut Machine)) {
        let mut m = machine();
        m.pebs_enable(1, 0);
        let buffer = Arc::new((0..70_000u32).collect::<Vec<_>>());
        let mut v = TrackedVec::adopt(&mut m, Arc::clone(&buffer), Placement::Slow).unwrap();
        v.set_name("csr.neighbors");
        let _ = v.get(&mut m, 5);
        let before = observables(&m);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| write(&v, &mut m)))
            .expect_err("a write to an adopted vec went through");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains(&format!(
                "tracked vec `csr.neighbors`: {what} to a read-only"
            )),
            "{msg}"
        );
        assert_eq!(observables(&m), before, "{what} changed simulated state");
        assert!(buffer.iter().copied().eq(0..70_000));
        assert!(v.values(&m).eq(0..70_000));
        assert_eq!(m.audit(), Vec::<String>::new());
    }

    #[test]
    fn write_to_an_adopted_vec_set_panics_naming_it() {
        assert_refused("set", |v, m| v.set(m, 5, 1));
    }

    #[test]
    fn write_to_an_adopted_vec_update_panics_naming_it() {
        assert_refused("update", |v, m| {
            v.update(m, 5, |x| x + 1);
        });
    }

    #[test]
    fn write_to_an_adopted_vec_write_slice_panics_naming_it() {
        assert_refused("write_slice", |v, m| v.write_slice(m, 0, &[1, 2, 3]));
    }

    #[test]
    fn write_to_an_adopted_vec_scatter_panics_naming_it() {
        assert_refused("scatter", |v, m| v.scatter(m, &[1, 70_000 - 1], &[1, 2]));
    }

    #[test]
    fn write_to_an_adopted_vec_gather_update_panics_naming_it() {
        assert_refused("gather_update", |v, m| {
            v.gather_update(m, &[1, 2], |_, x| x)
        });
    }

    #[test]
    fn write_to_an_adopted_vec_unaccounted_panics_naming_it() {
        assert_refused("poke", |v, m| v.poke(m, 5, 1));
        assert_refused("fill", |v, m| v.fill(m, 1));
        assert_refused("fill_from", |v, m| v.fill_from(m, &vec![1; 70_000]));
    }

    /// An adopted vec reads as its buffer through every read path, on one
    /// core and two, and costs exactly what a copied one costs.
    #[test]
    fn an_adopted_vec_reads_and_costs_as_a_copied_one() {
        let platform = || Platform::testing().with_capacities(256 * 1024, 8 * 1024 * 1024);
        let values: Vec<u64> = (0..300_000u64)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();
        let mut adopted = Machine::new(platform());
        let mut copied = Machine::new(platform());
        let va =
            TrackedVec::adopt(&mut adopted, Arc::new(values.clone()), Placement::Slow).unwrap();
        let vc = TrackedVec::new(&mut copied, values.len(), Placement::Slow).unwrap();
        vc.fill_from(&mut copied, &values);
        let indices: Vec<u32> = (0..5_000u32)
            .map(|k| k.wrapping_mul(40_503) % 300_000)
            .collect();
        let mut reads = Vec::new();
        for (m, v) in [(&mut adopted, &va), (&mut copied, &vc)] {
            m.pebs_enable(7, 3);
            let mut block = vec![0; 100_000];
            v.read_slice(m, 123, &mut block);
            let mut gathered = vec![0; indices.len()];
            v.gather(m, &indices, &mut gathered);
            let sums = m.run_cores(2, |core, h| {
                let mut sum = 0u64;
                v.scan(h, core * 150_000, 150_000, |_, x| sum = sum.wrapping_add(x));
                sum.wrapping_add(v.get(h, core))
            });
            reads.push((block, gathered, sums, v.to_vec(m), v.peek(m, 299_999)));
        }
        assert!(reads[0] == reads[1], "an adopted vec reads differently");
        assert_eq!(reads[0].3, values);
        assert_eq!(observables(&adopted), observables(&copied));
        assert_eq!(adopted.pebs_drain(), copied.pebs_drain());
    }

    /// A three-element vec named like a kernel array: its allocation is a
    /// whole page, so an index past the end still lands in mapped memory.
    fn short_vec(m: &mut Machine) -> TrackedVec<u64> {
        let mut v = TrackedVec::<u64>::new(m, 3, Placement::Slow).unwrap();
        v.set_name("pr.rank");
        v
    }

    #[test]
    #[should_panic(expected = "tracked vec `pr.rank`: index 3 out of bounds (len 3)")]
    fn scalar_index_past_the_end_get_is_a_hard_check() {
        let mut m = machine();
        short_vec(&mut m).get(&mut m, 3);
    }

    #[test]
    #[should_panic(expected = "tracked vec `pr.rank`: index 5 out of bounds (len 3)")]
    fn scalar_index_past_the_end_set_is_a_hard_check() {
        let mut m = machine();
        short_vec(&mut m).set(&mut m, 5, 42);
    }

    #[test]
    #[should_panic(expected = "tracked vec `pr.rank`: index 4 out of bounds (len 3)")]
    fn scalar_index_past_the_end_update_is_a_hard_check() {
        let mut m = machine();
        short_vec(&mut m).update(&mut m, 4, |x| x + 1);
    }

    #[test]
    #[should_panic(expected = "tracked vec `pr.rank`: index 5 out of bounds (len 3)")]
    fn scalar_index_past_the_end_peek_is_a_hard_check() {
        let mut m = machine();
        short_vec(&mut m).peek(&mut m, 5);
    }

    #[test]
    #[should_panic(expected = "tracked vec `pr.rank`: index 3 out of bounds (len 3)")]
    fn scalar_index_past_the_end_poke_is_a_hard_check() {
        let mut m = machine();
        short_vec(&mut m).poke(&mut m, 3, 7);
    }

    #[test]
    #[should_panic(expected = "tracked vec `pr.rank`: peek_run [2, 4) out of bounds (len 3)")]
    fn peek_run_past_the_end_is_a_hard_check() {
        let mut m = machine();
        short_vec(&mut m).peek_run(&mut m, 2, &mut [0; 2]);
    }

    #[test]
    fn placement_is_respected() {
        let mut m = machine();
        let v = TrackedVec::<u64>::new(&mut m, 1024, Placement::Fast).unwrap();
        assert_eq!(m.resident_bytes(v.range(), TierId::FAST), v.range().len);
    }

    #[test]
    fn free_releases() {
        let mut m = machine();
        let used0 = m.stats().bytes_used[TierId::SLOW.index()];
        let v = TrackedVec::<u64>::new(&mut m, 4096, Placement::Slow).unwrap();
        assert!(m.stats().bytes_used[TierId::SLOW.index()] > used0);
        v.free(&mut m).unwrap();
        assert_eq!(m.stats().bytes_used[TierId::SLOW.index()], used0);
    }

    #[test]
    fn zero_len_vec_is_usable() {
        let mut m = machine();
        let v = TrackedVec::<u32>::new(&mut m, 0, Placement::Slow).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.to_vec(&mut m), Vec::<u32>::new());
    }
}
