//! Typed views over simulated allocations.
//!
//! [`TrackedVec<T>`] is the array type graph kernels use: every element
//! access goes through the machine's accounted path (TLB, LLC, cost model,
//! PEBS), so access patterns drive both simulated time and the profiler.
//! The vector does not borrow the machine — accessors take any
//! `&mut impl `[`MemPort`] explicitly (the [`Machine`] itself, or one
//! [`CoreHandle`](crate::shard::CoreHandle) of a sharded phase) — so a
//! kernel can interleave accesses to many arrays and the same kernel body
//! runs on the scalar and the sharded engine.

use std::marker::PhantomData;

use crate::addr::{VirtAddr, VirtRange};
use crate::error::Result;
use crate::machine::{Machine, Placement, Scalar};
use crate::shard::MemPort;

/// A fixed-length typed array living in simulated memory.
#[derive(Debug)]
pub struct TrackedVec<T> {
    range: VirtRange,
    len: usize,
    name: Option<Box<str>>,
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
            _marker: PhantomData,
        })
    }

    /// Wraps an existing allocation (used by the ATMem runtime, which
    /// performs registration itself).
    ///
    /// The allocation must be at least `len * T::SIZE` bytes.
    pub fn from_range(range: VirtRange, len: usize) -> Self {
        assert!(
            range.len >= len * T::SIZE,
            "range too small for {len} elements"
        );
        TrackedVec {
            range,
            len,
            name: None,
            _marker: PhantomData,
        }
    }

    /// Attaches a display name, used in panic messages for out-of-bounds
    /// window indices and use-after-free. The ATMem runtime sets this to the
    /// name the array is registered under.
    pub fn set_name(&mut self, name: &str) {
        self.name = Some(name.into());
    }

    /// The display name, if one was set.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
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
    /// Panics if `i >= len` in debug builds.
    #[inline]
    pub fn addr_of(&self, i: usize) -> VirtAddr {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.range.start.add((i * T::SIZE) as u64)
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
    /// Panics if the element is unmapped.
    #[inline]
    pub fn set(&self, machine: &mut impl MemPort, i: usize, value: T) {
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
    /// Panics if the element is unmapped.
    #[inline]
    pub fn update(&self, machine: &mut impl MemPort, i: usize, f: impl FnOnce(T) -> T) -> T {
        machine
            .read_modify_write::<T>(self.addr_of(i), f)
            .expect("tracked element unmapped")
    }

    /// Accounted bulk read of `out.len()` consecutive elements starting at
    /// element `start`, through [`Machine::access_block`]'s fast path.
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
        let segments = machine
            .access_block(range, T::SIZE, false)
            .expect("tracked range unmapped");
        let mut rest = &mut out[..];
        for seg in segments {
            let (head, tail) = rest.split_at_mut(seg.len / T::SIZE);
            let bytes = machine.storage_slice(seg.tier, seg.offset, seg.len);
            for (slot, chunk) in head.iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
                *slot = T::from_le_slice(chunk);
            }
            rest = tail;
        }
        debug_assert!(rest.is_empty());
    }

    /// Accounted bulk write of `values` to consecutive elements starting at
    /// element `start`, through [`Machine::access_block`]'s fast path.
    ///
    /// Simulated state ends bit-identical to the equivalent
    /// [`set`](TrackedVec::set) loop; only host wall-clock time differs.
    ///
    /// # Panics
    ///
    /// Panics if `start + values.len() > self.len()` or if the range is
    /// unmapped.
    pub fn write_slice(&self, machine: &mut impl MemPort, start: usize, values: &[T]) {
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
        let segments = machine
            .access_block(range, T::SIZE, true)
            .expect("tracked range unmapped");
        let mut rest = values;
        for seg in segments {
            let (head, tail) = rest.split_at(seg.len / T::SIZE);
            let bytes = machine.storage_slice_mut(seg.tier, seg.offset, seg.len);
            for (&value, chunk) in head.iter().zip(bytes.chunks_exact_mut(T::SIZE)) {
                value.write_le_slice(chunk);
            }
            rest = tail;
        }
        debug_assert!(rest.is_empty());
    }

    /// Accounted bulk scan: calls `f(index, value)` for `len` consecutive
    /// elements starting at element `start`, through
    /// [`Machine::access_block`]'s fast path.
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
        let segments = machine
            .access_block(range, T::SIZE, false)
            .expect("tracked range unmapped");
        let mut i = start;
        for seg in segments {
            for bytes in machine
                .storage_slice(seg.tier, seg.offset, seg.len)
                .chunks_exact(T::SIZE)
            {
                f(i, T::from_le_slice(bytes));
                i += 1;
            }
        }
        debug_assert_eq!(i, start + len);
    }

    /// Accounted indexed gather: reads element `indices[k]` into `out[k]`
    /// for every `k`, in order, through [`Machine::read_gather`].
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
    /// for every `k`, in order, through [`Machine::write_scatter`]'s batched
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
    /// any simulated state changes), or the array is unmapped
    /// (use-after-free).
    pub fn scatter(&self, machine: &mut impl MemPort, indices: &[u32], values: &[T]) {
        self.check_window("scatter", indices);
        machine
            .write_scatter::<T>(self.range.start, self.len, indices, values)
            .unwrap_or_else(|e| panic!("tracked vec `{}` unmapped: {e}", self.label()));
    }

    /// Accounted indexed read-modify-write window: for every `k` in order,
    /// replaces element `indices[k]` with `f(k, old)` where `old` is the
    /// element's current value, through [`Machine::gather_update`]'s batched
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
    /// the window is rejected before any simulated state changes) or the
    /// array is unmapped (use-after-free).
    pub fn gather_update(
        &self,
        machine: &mut impl MemPort,
        indices: &[u32],
        f: impl FnMut(usize, T) -> T,
    ) {
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
    #[doc(alias = "set")]
    pub fn poke(&self, machine: &mut impl MemPort, i: usize, value: T) {
        machine
            .poke::<T>(self.addr_of(i), value)
            .expect("tracked element unmapped");
    }

    /// Bulk unaccounted initialisation from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn fill_from(&self, machine: &mut impl MemPort, values: &[T]) {
        assert_eq!(values.len(), self.len, "length mismatch in fill_from");
        for (i, v) in values.iter().enumerate() {
            self.poke(machine, i, *v);
        }
    }

    /// Bulk unaccounted fill with one value.
    pub fn fill(&self, machine: &mut impl MemPort, value: T) {
        for i in 0..self.len {
            self.poke(machine, i, value);
        }
    }

    /// Copies the array out of simulated memory (unaccounted).
    pub fn to_vec(&self, machine: &mut impl MemPort) -> Vec<T> {
        (0..self.len).map(|i| self.peek(machine, i)).collect()
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
    /// simulated state — counters, clock, PEBS sample stream, trace stream —
    /// bit-identical to the per-element loop it replaces.
    #[test]
    fn bulk_access_is_bit_identical_to_the_scalar_loop() {
        // Fast tier too small for the whole array: Preferred(FAST) spills
        // to SLOW mid-range, so the bulk path crosses mapping (and tier)
        // chunk boundaries.
        let platform = || Platform::testing().with_capacities(64 * 1024, 8 * 1024 * 1024);
        let mut bulk = Machine::new(platform());
        let mut scalar = Machine::new(platform());
        for m in [&mut bulk, &mut scalar] {
            m.pebs_enable(7, 3);
            m.trace_enable();
        }
        let n = 40_000; // 160 000 bytes of u32: spills past the fast tier.
        let vb = TrackedVec::<u32>::new(&mut bulk, n, Placement::Preferred(TierId::FAST)).unwrap();
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
            bulk.pebs_drain(),
            scalar.pebs_drain(),
            "PEBS streams diverge"
        );
        assert_eq!(
            bulk.trace_drain(),
            scalar.trace_drain(),
            "trace streams diverge"
        );
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
        // Preferred(FAST) spills to SLOW mid-array: windows cross mapping
        // chunks, the tier boundary, base pages and coalescing groups.
        let platform = || Platform::testing().with_capacities(64 * 1024, 8 * 1024 * 1024);
        let mut bulk = Machine::new(platform());
        let mut scalar = Machine::new(platform());
        for m in [&mut bulk, &mut scalar] {
            m.pebs_enable(5, 2);
            m.trace_enable();
        }
        let n = 40_000;
        let vb = TrackedVec::<u32>::new(&mut bulk, n, Placement::Preferred(TierId::FAST)).unwrap();
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

        // Gather-update vs the per-element update loop (which PR 1 proved
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
            bulk.trace_drain(),
            scalar.trace_drain(),
            "trace streams diverge"
        );
        assert_eq!(
            vb.to_vec(&mut bulk),
            vs.to_vec(&mut scalar),
            "data diverges"
        );
    }

    /// Same guarantee across a huge-mapping / base-page boundary: a large
    /// slow-tier array gets 2 MiB mappings for its aligned middle and base
    /// pages for the tail, and windows jump across the seam.
    #[test]
    fn window_engine_crosses_huge_mapping_boundaries() {
        let platform = || Platform::testing().with_capacities(64 * 1024, 16 * 1024 * 1024);
        let mut bulk = Machine::new(platform());
        let mut scalar = Machine::new(platform());
        for m in [&mut bulk, &mut scalar] {
            m.pebs_enable(11, 4);
            m.trace_enable();
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
        assert_eq!(bulk.trace_drain(), scalar.trace_drain());
    }

    /// The error path charges exactly what the scalar loop charges: elements
    /// before the unmapped one in full, nothing for the failing element
    /// (this is the ROADMAP-noted `read_gather` drift fix).
    #[test]
    fn window_error_path_matches_the_scalar_loop() {
        let mut bulk = machine();
        let mut scalar = machine();
        for m in [&mut bulk, &mut scalar] {
            m.pebs_enable(3, 1);
            m.trace_enable();
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
        assert_eq!(bulk.trace_drain(), scalar.trace_drain());
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
