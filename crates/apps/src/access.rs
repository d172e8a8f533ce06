//! The kernel-facing access API: [`MemCtx`] bundles a memory port (the
//! machine, or one simulated core of it) with a simulated-core count so
//! kernels take *one* context parameter.
//!
//! Kernels drive their *sequential* streams (CSR arrays, property-array
//! fills, damping sweeps) through [`MemCtx::read_run`]/[`MemCtx::write_run`]
//! and their *irregular* phases (neighbour-indexed gathers, scatters and
//! scatter-updates) through [`MemCtx::gather`], [`MemCtx::scatter`] and
//! [`MemCtx::gather_update`]. Each operation calls its [`TrackedVec`]
//! engine directly — block translation for streams, the window engine for
//! irregular index windows — and those produce bit-identical simulated
//! state to per-element `get`/`set` loops (the fidelity guarantee stated
//! once on [`MemPort`]'s operations), at a fraction of the host cost. The
//! operation, not a mode, picks the rung; the per-element loops survive as
//! the oracle the engines are property-tested against (`tests/access_prop.rs`).
//!
//! ## Sharded execution
//!
//! `MemCtx` is generic over any [`MemPort`] — the concrete `Machine` (the
//! default) or a per-core `CoreHandle` inside a phase. The
//! [`par_cores`](MemCtx::par_cores) knob, set once by the runner or
//! harness via [`with_cores`](MemCtx::with_cores), tells kernels how many
//! simulated cores to partition each phase over, and
//! [`run_cores`](MemCtx::run_cores) runs one such phase, handing every
//! core a context over that core. The
//! regular kernels split their streaming phases by contiguous range; the
//! traversal kernels (BFS, SSSP, BC) partition each frontier level,
//! routing discovered vertices through per-owner queues
//! (`atmem_hms::OwnerQueues`) so every property write stays single-writer
//! and the next frontier is canonical for any core count. PageRank, SpMV
//! and CC have one body each: one core is the degenerate partition, which
//! `Machine::run_cores` runs on the resident core with no fork, merge or
//! barrier.

use std::ops::Range;
use std::sync::Mutex;

use atmem_hms::{CoreHandle, Machine, MemPort, Scalar, TrackedVec};

/// Accessor context handed to kernels: a memory port plus the
/// simulated-core count, chosen once by the runner or harness.
#[derive(Debug)]
pub struct MemCtx<'a, M: MemPort = Machine> {
    machine: &'a mut M,
    par_cores: usize,
}

impl<'a, M: MemPort> MemCtx<'a, M> {
    /// Wraps `machine` as a one-core context.
    pub fn bulk(machine: &'a mut M) -> Self {
        MemCtx {
            machine,
            par_cores: 1,
        }
    }

    /// Sets the number of simulated cores kernels should partition their
    /// phases over (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "core count must be positive");
        self.par_cores = cores;
        self
    }

    /// The simulated-core count kernels partition over (1 = everything on
    /// the machine's resident core).
    pub fn par_cores(&self) -> usize {
        self.par_cores
    }

    /// Escape hatch to the underlying memory port (e.g. for stats
    /// snapshots or unaccounted peeks mid-kernel).
    pub fn machine(&mut self) -> &mut M {
        self.machine
    }

    /// Accounted read of element `i`.
    #[inline]
    pub fn get<T: Scalar>(&mut self, v: &TrackedVec<T>, i: usize) -> T {
        v.get(self.machine, i)
    }

    /// Accounted write of element `i`.
    #[inline]
    pub fn set<T: Scalar>(&mut self, v: &TrackedVec<T>, i: usize, value: T) {
        v.set(self.machine, i, value);
    }

    /// Accounted read-modify-write of element `i`, returning the old value:
    /// one read access followed by one write access to the element, fused
    /// into one translation and one storage round-trip.
    #[inline]
    pub fn update<T: Scalar>(&mut self, v: &TrackedVec<T>, i: usize, f: impl FnOnce(T) -> T) -> T {
        v.update(self.machine, i, f)
    }

    /// Accounted read of `out.len()` consecutive elements starting at
    /// `start`.
    pub fn read_run<T: Scalar>(&mut self, v: &TrackedVec<T>, start: usize, out: &mut [T]) {
        if !out.is_empty() {
            v.read_slice(self.machine, start, out);
        }
    }

    /// Accounted write of `values` to consecutive elements starting at
    /// `start`.
    pub fn write_run<T: Scalar>(&mut self, v: &TrackedVec<T>, start: usize, values: &[T]) {
        if !values.is_empty() {
            v.write_slice(self.machine, start, values);
        }
    }

    /// Accounted read of the elements `range`, keeping no copy: the charge
    /// of a [`read_run`](MemCtx::read_run), for a stream the caller reads
    /// back in bounded chunks with [`TrackedVec::peek_run`].
    pub(crate) fn charge_run<T: Scalar>(&mut self, v: &TrackedVec<T>, range: Range<usize>) {
        v.scan(self.machine, range.start, range.len(), |_, _| {});
    }

    /// Accounted indexed gather: reads element `indices[k]` into `out[k]`,
    /// in window order.
    pub fn gather<T: Scalar>(&mut self, v: &TrackedVec<T>, indices: &[u32], out: &mut [T]) {
        if !indices.is_empty() {
            v.gather(self.machine, indices, out);
        }
    }

    /// Accounted indexed scatter: writes `values[k]` to element
    /// `indices[k]`, in window order (duplicates: last write wins).
    pub fn scatter<T: Scalar>(&mut self, v: &TrackedVec<T>, indices: &[u32], values: &[T]) {
        if !indices.is_empty() {
            v.scatter(self.machine, indices, values);
        }
    }

    /// Accounted indexed scatter-update: replaces element `indices[k]` with
    /// `f(k, old)` for every `k` in window order. Duplicate indices observe
    /// earlier updates from the same window.
    pub fn gather_update<T: Scalar>(
        &mut self,
        v: &TrackedVec<T>,
        indices: &[u32],
        f: impl FnMut(usize, T) -> T,
    ) {
        if !indices.is_empty() {
            v.gather_update(self.machine, indices, f);
        }
    }
}

impl MemCtx<'_, Machine> {
    /// Runs one sharded phase over [`par_cores`](MemCtx::par_cores)
    /// simulated cores: `f(core_id, ctx)` once per core, `ctx` being a
    /// context over that core. Results come back in core order;
    /// `Machine::run_cores` states the reduction and partition contracts,
    /// and runs a one-core phase on the machine's resident core.
    pub fn run_cores<R: Send>(
        &mut self,
        f: impl Fn(usize, MemCtx<'_, CoreHandle<'_>>) -> R + Sync,
    ) -> Vec<R> {
        self.machine
            .run_cores(self.par_cores, |c, h| f(c, MemCtx::bulk(h)))
    }

    /// [`run_cores`](MemCtx::run_cores) with per-core host state: core `c`
    /// also gets `&mut state[c]` (`state` is first resized to `par_cores`
    /// slots). Kernels keep their staging buffers there across iterations:
    /// a multi-megabyte `Vec` allocated afresh per phase goes back to the
    /// OS on drop and is page-faulted in again on the next iteration.
    pub(crate) fn run_cores_with<S: Default + Send, R: Send>(
        &mut self,
        state: &mut Vec<S>,
        f: impl Fn(usize, MemCtx<'_, CoreHandle<'_>>, &mut S) -> R + Sync,
    ) -> Vec<R> {
        state.resize_with(self.par_cores, S::default);
        let slots: Vec<Mutex<&mut S>> = state.iter_mut().map(Mutex::new).collect();
        self.run_cores(|c, ctx| {
            let mut slot = slots[c].lock().expect("each core locks only its own slot");
            f(c, ctx, &mut slot)
        })
    }
}
