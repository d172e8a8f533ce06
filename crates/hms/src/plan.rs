//! Compiled access plans: the "compile" tier above the window engine.
//!
//! The window engine ([`CoreHandle::access_window`], `access_block`) already
//! batches guaranteed hits, but it still pays a per-element price on every
//! execution: mapping memo checks, TLB key derivation, address translation,
//! branchy accounting. Graph kernels replay the *same* iteration space —
//! CSR row sweeps, dense elementwise passes, frontier expansions — many
//! times over an unchanged placement, so almost all of that work is
//! recomputation of a pure function of `(indices, mapping table)`.
//!
//! This module splits the work in two:
//!
//! * **Compile** ([`CoreHandle::compile_window`] /
//!   [`CoreHandle::compile_sweep`]) lowers an iteration space against the
//!   current mapping table into per-tier **run descriptors**: maximal
//!   consecutive same-line element runs ([`WindowPlan`]) or per-TLB-unit
//!   line sequences ([`SweepPlan`]), each carrying the precomputed TLB key,
//!   line-aligned physical address, backing-tier storage offset and element
//!   counts. Compilation touches *no* simulated state — it charges nothing
//!   and can fail (unmapped address) without side effects.
//! * **Replay** ([`CoreHandle::run_plan_gather`] and friends) walks the run
//!   descriptors with tight inner loops, issuing exactly the TLB/LLC
//!   operations, clock advances and counter updates the window engine would
//!   have issued for the same accesses — so every piece of simulated state
//!   ends **bit-identical** to the per-access path.
//!
//! ## Fallback triggers
//!
//! Replay only models the silent fast path. Whenever per-access detail is
//! observable — PEBS sampling enabled, tracing enabled, or a fault plan
//! armed on the machine — [`MemPort::plan_ready`] reports `false` and
//! callers must take the ordinary window path. Replay hard-asserts these
//! conditions rather than silently diverging.
//!
//! ## Generation-based invalidation
//!
//! Every structural change to the mapping table (allocation, free,
//! migration, remap — anything that inserts or removes a [`Mapping`]) bumps
//! [`MappingTable::generation`]. A plan records the generation it was
//! lowered against; [`WindowPlan::matches`] / [`SweepPlan::matches`] reject
//! a stale plan so callers recompile, and replay asserts the generation so
//! a stale plan can never be replayed against moved data.

use crate::addr::{PhysAddr, VirtAddr, VirtRange, LINE_SIZE};
use crate::cost::SimDuration;
use crate::error::Result;
use crate::machine::Scalar;
use crate::mapping::Mapping;
use crate::shard::{tlb_unit_end, BlockSegment, CoreHandle, MAX_TIERS, OP_READ, OP_RMW, OP_WRITE};
use crate::tier::TierId;

/// One maximal run of consecutive window elements landing on the same
/// cache line, with everything replay needs precomputed.
#[derive(Debug, Clone, Copy)]
struct LineRun {
    /// TLB key of the translation unit containing the line.
    key: u64,
    /// Line-aligned physical address.
    pa: u64,
    /// Line-aligned byte offset into the backing tier's storage.
    line_off: usize,
    /// Elements in this run.
    count: u32,
    /// On the run that *opens* a TLB-key group: total elements in the whole
    /// group (used to size the deferred TLB settle). Zero on runs that
    /// continue the previous run's key.
    group_elems: u32,
    /// Index of the backing tier.
    tier: u8,
}

/// A compiled indexed window: the lowering of one `(base, indices)`
/// gather/scatter/update iteration space against a specific mapping-table
/// generation.
///
/// Obtained from [`MemPort::compile_window`]; replayed by
/// [`MemPort::run_plan_gather`], [`MemPort::run_plan_scatter`] and
/// [`MemPort::run_plan_update`]. The plan is operation-agnostic: the same
/// compiled runs serve reads, writes and read-modify-writes.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    base: VirtAddr,
    elem_size: usize,
    elem_count: u64,
    generation: u64,
    runs: Vec<LineRun>,
    /// Per element, in window order: byte offset of the element within its
    /// cache line.
    offs: Vec<u8>,
    /// The indices the plan was compiled from, for [`WindowPlan::matches`].
    indices: Vec<u32>,
    total: u64,
}

impl WindowPlan {
    /// Number of elements the plan covers.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether the plan covers no elements.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Whether this plan is still valid for the given mapping generation
    /// and describes exactly the window `(base, elem_size, elem_count,
    /// indices)`. A `false` result means the caller must recompile.
    pub fn matches(
        &self,
        generation: u64,
        base: VirtAddr,
        elem_size: usize,
        elem_count: u64,
        indices: &[u32],
    ) -> bool {
        self.generation == generation
            && self.base == base
            && self.elem_size == elem_size
            && self.elem_count == elem_count
            && self.indices == indices
    }
}

/// One physically contiguous chunk of a compiled sweep (one mapping's
/// worth), mirroring the per-chunk stage of `access_block`.
#[derive(Debug, Clone, Copy)]
struct PlanChunk {
    /// Elements in the chunk.
    elems: u64,
    /// Backing tier index.
    tier: u8,
    /// Number of [`PlanUnit`]s belonging to this chunk.
    units: u32,
    /// Line-aligned physical address of the chunk's first line; lines step
    /// by [`LINE_SIZE`] from here across all units of the chunk.
    pa_first: u64,
}

/// One TLB translation unit of a sweep chunk.
#[derive(Debug, Clone, Copy)]
struct PlanUnit {
    /// TLB key shared by every access in the unit.
    key: u64,
    /// Elements in the unit.
    elems: u64,
    /// Cache lines the unit spans.
    lines: u32,
    /// Elements on the first line (it may start mid-line).
    first_count: u32,
    /// Elements on the last line (it may end mid-line).
    last_count: u32,
}

/// A compiled contiguous sweep: the lowering of one `(range, elem)` bulk
/// pass against a specific mapping-table generation.
///
/// Obtained from [`MemPort::compile_sweep`]; replayed (for reads or
/// writes — the plan is direction-agnostic) by
/// [`MemPort::run_plan_sweep`]. Iteration spaces are `u64`/range-based
/// throughout, so billion-element sweeps never round-trip through `u32`
/// indices.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    start: VirtAddr,
    len: usize,
    elem: usize,
    generation: u64,
    chunks: Vec<PlanChunk>,
    units: Vec<PlanUnit>,
    segments: Vec<BlockSegment>,
    total_elems: u64,
}

impl SweepPlan {
    /// Number of elements the sweep covers.
    pub fn len(&self) -> usize {
        self.total_elems as usize
    }

    /// Whether the sweep covers no elements.
    pub fn is_empty(&self) -> bool {
        self.total_elems == 0
    }

    /// The physically contiguous storage segments backing the sweep, in
    /// address order — the same segments `access_block` would return, for
    /// the bulk data path ([`MemPort::storage_slice`] /
    /// [`MemPort::storage_slice_mut`]).
    pub fn segments(&self) -> &[BlockSegment] {
        &self.segments
    }

    /// Whether this plan is still valid for the given mapping generation
    /// and describes exactly the sweep `(range, elem)`.
    pub fn matches(&self, generation: u64, range: VirtRange, elem: usize) -> bool {
        self.generation == generation
            && self.start == range.start
            && self.len == range.len
            && self.elem == elem
    }
}

impl CoreHandle<'_> {
    /// Whether compiled-plan replay is currently allowed on this core:
    /// plans model only the silent fast path, so PEBS sampling and tracing
    /// force the per-access window engine.
    pub fn plan_ready(&self) -> bool {
        !self.core.pebs.is_enabled() && !self.core.tracer.is_enabled()
    }

    /// The current mapping-table generation (see
    /// [`MappingTable::generation`](crate::MappingTable::generation)).
    pub fn mapping_generation(&self) -> u64 {
        self.mappings.generation()
    }

    /// Lowers an indexed window into a [`WindowPlan`] against the current
    /// mapping table. Charges nothing to simulated state.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`](crate::HmsError::Unmapped) if any element is
    /// unmapped — with *no* side effects, unlike the window engine, which
    /// charges elements preceding the failure. Callers fall back to the
    /// window path to reproduce the partial-charge error semantics.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `elem_count` (the same hard
    /// check the window engine applies per element).
    pub fn compile_window<T: Scalar>(
        &self,
        base: VirtAddr,
        elem_count: u64,
        indices: &[u32],
    ) -> Result<WindowPlan> {
        let coalesce = self.platform.tlb_coalesce;
        let mut runs: Vec<LineRun> = Vec::with_capacity(indices.len() / 2 + 1);
        let mut offs = Vec::with_capacity(indices.len());
        let mut memo: Option<Mapping> = None;
        let mut cur_vline = 0u64;
        let mut line_valid = false;
        let mut cur_key = 0u64;
        let mut key_valid = false;
        let mut group_start = 0usize;

        for &i in indices {
            let i = i as u64;
            assert!(
                i < elem_count,
                "window index {i} out of bounds ({elem_count})"
            );
            let va = VirtAddr::new(base.raw() + i * T::SIZE as u64);
            let off = (va.raw() % LINE_SIZE as u64) as usize;
            debug_assert!(off + T::SIZE <= LINE_SIZE, "element straddles a line");
            let vline = va.raw() / LINE_SIZE as u64;

            if line_valid && vline == cur_vline {
                runs.last_mut().expect("line run exists").count += 1;
            } else {
                let vpage = va.page_index();
                let mapping = match memo {
                    Some(m) if vpage >= m.vpage_start && vpage < m.vpage_start + m.pages as u64 => {
                        m
                    }
                    _ => {
                        let m = self.mappings.lookup(va)?;
                        memo = Some(m);
                        m
                    }
                };
                let key = mapping.tlb_key(va, coalesce);
                let (frame, offset) = mapping.translate(va);
                let pa = frame.phys_addr(offset).line_aligned().raw();
                let line_off = frame.byte_offset() + (offset & !(LINE_SIZE - 1));
                if !(key_valid && key == cur_key) {
                    cur_key = key;
                    key_valid = true;
                    group_start = runs.len();
                }
                runs.push(LineRun {
                    key,
                    pa,
                    line_off,
                    count: 1,
                    group_elems: 0,
                    tier: frame.tier.index() as u8,
                });
                cur_vline = vline;
                line_valid = true;
            }
            runs[group_start].group_elems += 1;
            offs.push(off as u8);
        }

        Ok(WindowPlan {
            base,
            elem_size: T::SIZE,
            elem_count,
            generation: self.mappings.generation(),
            runs,
            offs,
            indices: indices.to_vec(),
            total: indices.len() as u64,
        })
    }

    /// Replays a compiled window as a gather (the plan analogue of
    /// [`MemPort::read_gather`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan is stale (mapping generation moved), PEBS or
    /// tracing is enabled, or `out` does not match the plan's length.
    pub fn run_plan_gather<T: Scalar>(&mut self, plan: &WindowPlan, out: &mut [T]) {
        assert_eq!(out.len(), plan.len(), "plan/output length mismatch");
        self.replay_window::<T, OP_READ>(plan, |k, bytes| {
            out[k] = T::from_le_slice(bytes);
        });
    }

    /// Replays a compiled window as a scatter (the plan analogue of
    /// [`MemPort::write_scatter`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan is stale, PEBS or tracing is enabled, or
    /// `values` does not match the plan's length.
    pub fn run_plan_scatter<T: Scalar>(&mut self, plan: &WindowPlan, values: &[T]) {
        assert_eq!(values.len(), plan.len(), "plan/value length mismatch");
        self.replay_window::<T, OP_WRITE>(plan, |k, bytes| {
            values[k].write_le_slice(bytes);
        });
    }

    /// Replays a compiled window as a read-modify-write sweep (the plan
    /// analogue of [`MemPort::gather_update`]). `f` sees elements in window
    /// order, exactly like the scalar loop.
    ///
    /// # Panics
    ///
    /// Panics if the plan is stale or PEBS or tracing is enabled.
    pub fn run_plan_update<T: Scalar>(
        &mut self,
        plan: &WindowPlan,
        mut f: impl FnMut(usize, T) -> T,
    ) {
        self.replay_window::<T, OP_RMW>(plan, |k, bytes| {
            let old = T::from_le_slice(bytes);
            f(k, old).write_le_slice(bytes);
        });
    }

    /// The replay engine behind the three `run_plan_*` window entry points:
    /// issues exactly the TLB/LLC operations, counter updates and clock
    /// advances `access_window` would issue for the same accesses, in the
    /// same order, so all simulated state ends bit-identical — but with the
    /// per-element mapping/translation/key work already folded into the
    /// compiled runs.
    fn replay_window<T: Scalar, const OP: u8>(
        &mut self,
        plan: &WindowPlan,
        mut data: impl FnMut(usize, &mut [u8]),
    ) {
        assert_eq!(plan.elem_size, T::SIZE, "plan element size mismatch");
        assert_eq!(
            plan.generation,
            self.mappings.generation(),
            "stale plan replayed across a mapping change; recompile"
        );
        assert!(
            self.plan_ready(),
            "plan replay requires PEBS sampling and tracing disabled"
        );

        let write_probe = OP == OP_WRITE;
        let per_elem = if OP == OP_RMW { 2 } else { 1 };
        let walk_cost = self.platform.cost.walk_cost();
        let hit_cost = self.platform.cost.hit_cost();
        // Guaranteed-hit element cost, composed exactly as the scalar loop
        // composes it (`ZERO + hit_cost`).
        let mut rest_cost = SimDuration::ZERO;
        rest_cost += hit_cost;
        let mut tier_miss = [SimDuration::ZERO; MAX_TIERS];
        for (i, slot) in tier_miss.iter_mut().enumerate().take(self.tiers.len()) {
            *slot = self
                .platform
                .cost
                .miss_cost(self.tiers.spec_at(i), write_probe);
        }

        // Counters are per-element u64 bumps in the engine; their totals are
        // order-independent, so one batched charge is bit-identical.
        let n = plan.total;
        match OP {
            OP_READ => {
                self.core.counters.accesses += n;
                self.core.counters.reads += n;
            }
            OP_WRITE => {
                self.core.counters.accesses += n;
                self.core.counters.writes += n;
            }
            _ => {
                self.core.counters.accesses += 2 * n;
                self.core.counters.reads += n;
                self.core.counters.writes += n;
            }
        }

        let mut cur_key = 0u64;
        let mut tlb_pending = 0usize;
        let mut k = 0usize;

        for r in &plan.runs {
            // TLB: a group-opening run settles the previous group's deferred
            // touches and probes; runs continuing the key defer everything
            // (their touches were pre-counted into the opener's
            // `group_elems`).
            let pay_walk = if r.group_elems > 0 {
                if tlb_pending > 0 {
                    self.core.tlb.rehit(cur_key, tlb_pending);
                }
                let tlb_hit = self.core.tlb.access_run(r.key, per_elem);
                tlb_pending = (r.group_elems as usize - 1) * per_elem;
                cur_key = r.key;
                !tlb_hit
            } else {
                false
            };

            // LLC: probe the line, then count the run's other touches — all
            // guaranteed hits on the line just probed, which the window
            // engine flushes before its next probe; they only move
            // counters, so charging them here is the same.
            let (outcome, slot) = self.core.llc.access_slot(PhysAddr::new(r.pa), write_probe);
            let rest = (r.count - 1) as u64;
            let (reads, writes) = match OP {
                OP_READ => (rest, 0),
                OP_WRITE => (0, rest),
                _ => (rest, rest + 1),
            };
            if reads + writes > 0 {
                self.core.llc.rehit_run(slot, reads, writes);
            }

            // First element of the run: scalar cost composition. PEBS is
            // asserted disabled, so the engine's `on_read_miss` would be a
            // pure no-op — skipping it is bit-identical.
            let mut cost = SimDuration::ZERO;
            if pay_walk {
                cost += walk_cost;
            }
            if outcome.is_hit() {
                cost += hit_cost;
            } else {
                cost += tier_miss[r.tier as usize];
            }
            self.core.clock.advance(cost);
            if OP == OP_RMW {
                self.core.clock.advance(rest_cost);
            }

            // Remaining elements: one clock advance each (two for RMW).
            for _ in 0..rest {
                self.core.clock.advance(rest_cost);
                if OP == OP_RMW {
                    self.core.clock.advance(rest_cost);
                }
            }

            // Data: one storage borrow per line, sliced per element in
            // window order.
            let line = self
                .tiers
                .bytes_mut(TierId::new(r.tier as usize), r.line_off, LINE_SIZE);
            let mut off_idx = k;
            for _ in 0..r.count {
                let off = plan.offs[off_idx] as usize;
                data(off_idx, &mut line[off..off + T::SIZE]);
                off_idx += 1;
            }
            k = off_idx;
        }

        if tlb_pending > 0 {
            self.core.tlb.rehit(cur_key, tlb_pending);
        }
    }

    /// Lowers a contiguous element sweep into a [`SweepPlan`] against the
    /// current mapping table. Charges nothing to simulated state.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`](crate::HmsError::Unmapped) if any byte of
    /// `range` is unmapped — with no side effects.
    ///
    /// # Panics
    ///
    /// Panics if `elem` does not divide [`LINE_SIZE`] or `range` is not
    /// `elem`-aligned (the same contract as `access_block`).
    pub fn compile_sweep(&self, range: VirtRange, elem: usize) -> Result<SweepPlan> {
        assert!(
            elem > 0 && LINE_SIZE.is_multiple_of(elem),
            "element size must divide a cache line"
        );
        assert!(
            range.start.raw().is_multiple_of(elem as u64) && range.len.is_multiple_of(elem),
            "bulk range must be element-aligned"
        );
        let coalesce = self.platform.tlb_coalesce;
        let mut chunks = Vec::new();
        let mut units = Vec::new();
        let mut segments = Vec::new();
        let full_line = LINE_SIZE / elem;

        let mut va = range.start;
        let end = range.end();
        while va < end {
            let mapping = self.mappings.lookup(va)?;
            let chunk_end = mapping.vrange().end().min(end);
            let chunk_len = chunk_end.offset_from(va) as usize;
            let (frame, offset) = mapping.translate(va);
            segments.push(BlockSegment {
                tier: frame.tier,
                offset: frame.byte_offset() + offset,
                len: chunk_len,
            });
            let pa_first = frame.phys_addr(offset).line_aligned().raw();

            let mut unit_count = 0u32;
            let mut unit_va = va;
            while unit_va < chunk_end {
                let unit_end = tlb_unit_end(&mapping, unit_va, coalesce).min(chunk_end);
                let unit_elems = unit_end.offset_from(unit_va) / elem as u64;
                let first_line_end =
                    VirtAddr::new(unit_va.line_aligned().raw() + LINE_SIZE as u64).min(unit_end);
                let first_count = (first_line_end.offset_from(unit_va) as usize / elem) as u32;
                let (lines, last_count) = if first_line_end >= unit_end {
                    (1u32, first_count)
                } else {
                    let remaining = unit_end.offset_from(first_line_end) as usize;
                    let full = remaining / LINE_SIZE;
                    let tail = remaining % LINE_SIZE;
                    if tail > 0 {
                        (1 + full as u32 + 1, (tail / elem) as u32)
                    } else {
                        (1 + full as u32, full_line as u32)
                    }
                };
                units.push(PlanUnit {
                    key: mapping.tlb_key(unit_va, coalesce),
                    elems: unit_elems,
                    lines,
                    first_count,
                    last_count,
                });
                unit_count += 1;
                unit_va = unit_end;
            }
            chunks.push(PlanChunk {
                elems: (chunk_len / elem) as u64,
                tier: frame.tier.index() as u8,
                units: unit_count,
                pa_first,
            });
            va = chunk_end;
        }

        Ok(SweepPlan {
            start: range.start,
            len: range.len,
            elem,
            generation: self.mappings.generation(),
            chunks,
            units,
            segments,
            total_elems: (range.len / elem) as u64,
        })
    }

    /// Replays a compiled sweep's accounting (the plan analogue of
    /// [`MemPort::access_block`]); the data path goes through
    /// [`SweepPlan::segments`] and the storage-slice APIs exactly as it
    /// does after `access_block`.
    ///
    /// # Panics
    ///
    /// Panics if the plan is stale or PEBS or tracing is enabled.
    pub fn run_plan_sweep(&mut self, plan: &SweepPlan, write: bool) {
        assert_eq!(
            plan.generation,
            self.mappings.generation(),
            "stale plan replayed across a mapping change; recompile"
        );
        assert!(
            self.plan_ready(),
            "plan replay requires PEBS sampling and tracing disabled"
        );
        let walk_cost = self.platform.cost.walk_cost();
        let hit_cost = self.platform.cost.hit_cost();
        let mut rest_cost = SimDuration::ZERO;
        rest_cost += hit_cost;
        let full_line = (LINE_SIZE / plan.elem) as u32;

        let mut unit_idx = 0usize;
        for chunk in &plan.chunks {
            self.core.counters.accesses += chunk.elems;
            if write {
                self.core.counters.writes += chunk.elems;
            } else {
                self.core.counters.reads += chunk.elems;
            }
            let miss_cost = self
                .platform
                .cost
                .miss_cost(self.tiers.spec_at(chunk.tier as usize), write);

            let mut pa = chunk.pa_first;
            for u in &plan.units[unit_idx..unit_idx + chunk.units as usize] {
                let tlb_hit = self.core.tlb.access_run(u.key, u.elems as usize);
                for l in 0..u.lines {
                    let count = if l == 0 {
                        u.first_count
                    } else if l + 1 == u.lines {
                        u.last_count
                    } else {
                        full_line
                    };
                    let hit = self
                        .core
                        .llc
                        .access_run(PhysAddr::new(pa), write, count as usize)
                        .is_hit();
                    let mut first_cost = SimDuration::ZERO;
                    if l == 0 && !tlb_hit {
                        first_cost += walk_cost;
                    }
                    if hit {
                        first_cost += hit_cost;
                    } else {
                        first_cost += miss_cost;
                    }
                    self.core.clock.advance(first_cost);
                    for _ in 1..count {
                        self.core.clock.advance(rest_cost);
                    }
                    pa += LINE_SIZE as u64;
                }
            }
            unit_idx += chunk.units as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::addr::{VirtRange, PAGE_SIZE};
    use crate::machine::{Machine, Placement};
    use crate::platform::Platform;
    use crate::tier::TierId;
    use crate::tracked::TrackedVec;

    /// Preferred(FAST) spills to SLOW mid-array: plans cross mapping
    /// chunks, the tier boundary, base pages and coalescing groups.
    fn spill_machine() -> Machine {
        Machine::new(Platform::testing().with_capacities(64 * 1024, 8 * 1024 * 1024))
    }

    /// Same mixed pattern the window-engine model tests use: same-line
    /// runs, exact duplicates, line strides, random jumps.
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
                0 => {
                    for k in 0..4.min(n - i) {
                        w.push((i + k) as u32);
                    }
                }
                1 => {
                    w.push(i as u32);
                    w.push(i as u32);
                }
                2 => {
                    for k in (0..64).step_by(16) {
                        w.push(((i + k) % n) as u32);
                    }
                }
                _ => w.push(i as u32),
            }
        }
        w.truncate(len);
        w
    }

    /// The tentpole guarantee: replaying a compiled window leaves every
    /// piece of simulated state bit-identical to the window engine (which
    /// PR 2 proved bit-identical to the scalar loop) — counters, clock,
    /// TLB/LLC state, and data.
    #[test]
    fn plan_replay_is_bit_identical_to_the_window_engine() {
        let mut pm = spill_machine();
        let mut wm = spill_machine();
        let n = 40_000;
        let vp = TrackedVec::<u32>::new(&mut pm, n, Placement::Preferred(TierId::FAST)).unwrap();
        let vw = TrackedVec::<u32>::new(&mut wm, n, Placement::Preferred(TierId::FAST)).unwrap();
        let init: Vec<u32> = (0..n as u32).collect();
        vp.fill_from(&mut pm, &init);
        vw.fill_from(&mut wm, &init);
        let (bp, bw) = (vp.range().start, vw.range().start);

        let mut state = 0xd1b54a32d192ed03u64;
        // Scatter.
        let widx = mixed_window(n, 6_000, &mut state);
        let wvals: Vec<u32> = (0..widx.len() as u32).map(|k| k.wrapping_mul(97)).collect();
        let plan = pm.compile_window::<u32>(bp, n as u64, &widx).unwrap();
        assert!(plan.matches(pm.mapping_generation(), bp, 4, n as u64, &widx));
        assert_eq!(plan.len(), widx.len());
        pm.run_plan_scatter(&plan, &wvals);
        wm.write_scatter(bw, n, &widx, &wvals).unwrap();

        // Read-modify-write; duplicates must observe in-window updates.
        let uidx = mixed_window(n, 6_000, &mut state);
        let uplan = pm.compile_window::<u32>(bp, n as u64, &uidx).unwrap();
        let mut olds_p = Vec::with_capacity(uidx.len());
        pm.run_plan_update(&uplan, |k, x: u32| {
            olds_p.push(x);
            x.wrapping_add(k as u32)
        });
        let mut olds_w = Vec::with_capacity(uidx.len());
        wm.gather_update(bw, n, &uidx, |k, x: u32| {
            olds_w.push(x);
            x.wrapping_add(k as u32)
        })
        .unwrap();
        assert_eq!(olds_p, olds_w, "RMW old values diverge");

        // Gather sees the combined result.
        let gidx = mixed_window(n, 6_000, &mut state);
        let gplan = pm.compile_window::<u32>(bp, n as u64, &gidx).unwrap();
        let mut got_p = vec![0u32; gidx.len()];
        pm.run_plan_gather(&gplan, &mut got_p);
        let mut got_w = vec![0u32; gidx.len()];
        wm.read_gather(bw, n, &gidx, &mut got_w).unwrap();
        assert_eq!(got_p, got_w, "gathered values diverge");

        assert_eq!(pm.stats(), wm.stats(), "machine counters diverge");
        assert_eq!(pm.now(), wm.now(), "simulated clocks diverge");
        assert_eq!(vp.to_vec(&mut pm), vw.to_vec(&mut wm), "data diverges");
    }

    /// Window plans across the huge-mapping / base-page seam of a large
    /// slow-tier array.
    #[test]
    fn plan_replay_crosses_huge_mapping_boundaries() {
        let platform = || Platform::testing().with_capacities(64 * 1024, 16 * 1024 * 1024);
        let mut pm = Machine::new(platform());
        let mut wm = Machine::new(platform());
        let n = (5 * 1024 * 1024) / 8;
        let vp = TrackedVec::<u64>::new(&mut pm, n, Placement::Slow).unwrap();
        let vw = TrackedVec::<u64>::new(&mut wm, n, Placement::Slow).unwrap();
        let (bp, bw) = (vp.range().start, vw.range().start);

        let mut state = 0x2545f4914f6cdd1du64;
        let widx = mixed_window(n, 4_000, &mut state);
        let wvals: Vec<u64> = (0..widx.len() as u64).collect();
        let plan = pm.compile_window::<u64>(bp, n as u64, &widx).unwrap();
        pm.run_plan_scatter(&plan, &wvals);
        wm.write_scatter(bw, n, &widx, &wvals).unwrap();

        let uidx = mixed_window(n, 4_000, &mut state);
        let uplan = pm.compile_window::<u64>(bp, n as u64, &uidx).unwrap();
        pm.run_plan_update(&uplan, |_, x: u64| x ^ 0x5a5a);
        wm.gather_update(bw, n, &uidx, |_, x: u64| x ^ 0x5a5a)
            .unwrap();

        assert_eq!(pm.stats(), wm.stats(), "machine counters diverge");
        assert_eq!(pm.now(), wm.now(), "simulated clocks diverge");
    }

    /// Sweep plans replay `access_block` bit-identically, for reads and
    /// writes, over both a spilled base-page array and a huge-mapped one —
    /// and one compiled plan serves both directions.
    #[test]
    fn sweep_replay_is_bit_identical_to_access_block() {
        let platform = || Platform::testing().with_capacities(64 * 1024, 16 * 1024 * 1024);
        let mut pm = Machine::new(platform());
        let mut wm = Machine::new(platform());
        let n = 40_000;
        let vp = TrackedVec::<u32>::new(&mut pm, n, Placement::Preferred(TierId::FAST)).unwrap();
        let vw = TrackedVec::<u32>::new(&mut wm, n, Placement::Preferred(TierId::FAST)).unwrap();
        let hn = (5 * 1024 * 1024) / 8;
        let hp = TrackedVec::<u64>::new(&mut pm, hn, Placement::Slow).unwrap();
        let hw = TrackedVec::<u64>::new(&mut wm, hn, Placement::Slow).unwrap();

        let plan = pm.compile_sweep(vp.range(), 4).unwrap();
        assert!(plan.matches(pm.mapping_generation(), vp.range(), 4));
        assert_eq!(plan.len(), n);
        pm.run_plan_sweep(&plan, false);
        let segs = wm.access_block(vw.range(), 4, false).unwrap();
        assert_eq!(plan.segments(), &segs[..], "segments diverge");
        pm.run_plan_sweep(&plan, true);
        wm.access_block(vw.range(), 4, true).unwrap();

        let hplan = pm.compile_sweep(hp.range(), 8).unwrap();
        pm.run_plan_sweep(&hplan, false);
        wm.access_block(hw.range(), 8, false).unwrap();

        assert_eq!(pm.stats(), wm.stats(), "machine counters diverge");
        assert_eq!(pm.now(), wm.now(), "simulated clocks diverge");
    }

    /// Any migration (here the `mbind` baseline) bumps the mapping
    /// generation, so `matches` rejects the compiled plan and callers
    /// recompile.
    #[test]
    fn migration_invalidates_compiled_plans() {
        let mut m = spill_machine();
        let v = TrackedVec::<u32>::new(&mut m, 4096, Placement::Slow).unwrap();
        let base = v.range().start;
        let idx: Vec<u32> = (0..1024).collect();
        let gen0 = m.mapping_generation();
        let wplan = m.compile_window::<u32>(base, 4096, &idx).unwrap();
        let splan = m.compile_sweep(v.range(), 4).unwrap();
        assert!(wplan.matches(gen0, base, 4, 4096, &idx));
        assert!(splan.matches(gen0, v.range(), 4));
        m.migrate_mbind(
            VirtRange::new(base, v.range().len.next_multiple_of(PAGE_SIZE)),
            TierId::FAST,
        )
        .unwrap();
        assert_ne!(
            m.mapping_generation(),
            gen0,
            "migration must bump the generation"
        );
        assert!(!wplan.matches(m.mapping_generation(), base, 4, 4096, &idx));
        assert!(!splan.matches(m.mapping_generation(), v.range(), 4));
        // Recompilation against the new placement succeeds.
        let wplan2 = m.compile_window::<u32>(base, 4096, &idx).unwrap();
        assert!(wplan2.matches(m.mapping_generation(), base, 4, 4096, &idx));
    }

    /// Replaying a stale plan is a hard error, not silent divergence.
    #[test]
    #[should_panic(expected = "stale plan")]
    fn stale_plan_replay_panics() {
        let mut m = spill_machine();
        let v = TrackedVec::<u32>::new(&mut m, 4096, Placement::Slow).unwrap();
        let base = v.range().start;
        let idx: Vec<u32> = (0..64).collect();
        let plan = m.compile_window::<u32>(base, 4096, &idx).unwrap();
        m.migrate_mbind(
            VirtRange::new(base, v.range().len.next_multiple_of(PAGE_SIZE)),
            TierId::FAST,
        )
        .unwrap();
        let mut out = vec![0u32; idx.len()];
        m.run_plan_gather(&plan, &mut out);
    }

    /// PEBS sampling makes per-access detail observable, so replay refuses
    /// to run (callers check `plan_ready` and fall back).
    #[test]
    #[should_panic(expected = "PEBS sampling and tracing disabled")]
    fn replay_with_pebs_enabled_panics() {
        let mut m = spill_machine();
        let v = TrackedVec::<u32>::new(&mut m, 4096, Placement::Slow).unwrap();
        let idx: Vec<u32> = (0..64).collect();
        let plan = m
            .compile_window::<u32>(v.range().start, 4096, &idx)
            .unwrap();
        assert!(m.plan_ready());
        m.pebs_enable(5, 2);
        assert!(!m.plan_ready());
        let mut out = vec![0u32; idx.len()];
        m.run_plan_gather(&plan, &mut out);
    }

    /// Compilation is side-effect free: an unmapped element fails the
    /// compile without charging anything, unlike the window engine's
    /// partial-charge error path.
    #[test]
    fn compile_failure_charges_nothing() {
        let mut m = spill_machine();
        let v = TrackedVec::<u32>::new(&mut m, 1024, Placement::Slow).unwrap();
        let base = v.range().start;
        let before = m.stats();
        assert!(m
            .compile_window::<u32>(base, 1 << 20, &[0, 5, 500_000])
            .is_err());
        assert!(m.compile_sweep(VirtRange::new(base, 1 << 20), 4).is_err());
        assert_eq!(m.stats(), before, "failed compilation must charge nothing");
    }

    /// The release-mode soundness fix: an out-of-range window index is a
    /// hard panic in every profile, never a silent alias of a neighboring
    /// element. (This test is also run under `--release` by ci.sh.)
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn window_bounds_check_is_a_hard_check() {
        let mut m = spill_machine();
        let v = TrackedVec::<u32>::new(&mut m, 1024, Placement::Slow).unwrap();
        // Index 9 is mapped (the vec has 1024 elements) but out of range for
        // the declared window width of 8 — only the hard check can catch it.
        let mut out = [0u32; 1];
        let _ = m.read_gather::<u32>(v.range().start, 8, &[9], &mut out);
    }

    /// Compilation applies the same hard bounds check as the window engine.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn compile_applies_the_hard_bounds_check() {
        let mut m = spill_machine();
        let v = TrackedVec::<u32>::new(&mut m, 1024, Placement::Slow).unwrap();
        let _ = m.compile_window::<u32>(v.range().start, 8, &[9]);
    }

    /// The u32-truncation fix: a window over an object wider than the u32
    /// index range is rejected at the boundary instead of silently
    /// truncating indices; large sweeps go through the range-based plans.
    #[test]
    #[should_panic(expected = "u32 index range")]
    fn windows_beyond_u32_index_range_are_rejected() {
        let mut m = spill_machine();
        let v = TrackedVec::<u32>::new(&mut m, 1024, Placement::Slow).unwrap();
        let mut out = [0u32; 1];
        let _ = m.read_gather::<u32>(v.range().start, (1usize << 32) + 2, &[0], &mut out);
    }
}
