//! The kernel-facing access API: [`MemCtx`] bundles a memory port (the
//! machine, or one simulated core of it) with an [`AccessMode`] so kernels
//! take *one* context parameter instead of threading `(machine, mode)`
//! pairs through every call.
//!
//! Kernels drive their *sequential* streams (CSR arrays, property-array
//! fills, damping sweeps) through [`MemCtx::read_run`]/[`MemCtx::write_run`]
//! and their *irregular* phases (neighbour-indexed gathers, scatters and
//! scatter-updates) through [`MemCtx::gather`], [`MemCtx::scatter`] and
//! [`MemCtx::gather_update`]. [`AccessMode::Bulk`] routes both through the
//! simulator's batched fast paths — block translation for streams, the
//! window engine for irregular index windows — which produce bit-identical
//! simulated state to [`AccessMode::Scalar`]'s per-element loops (the
//! fidelity guarantee stated once on [`MemPort`]'s operations), at a
//! fraction of the host cost. Those are
//! the three rungs of the access ladder — scalar oracle, block engine,
//! window engine — and there is exactly one `MemCtx` method per operation;
//! the mode, not the call site, picks the rung.
//!
//! ## Sharded execution
//!
//! `MemCtx` is generic over any [`MemPort`] — the concrete `Machine` (the
//! default) or a per-core `CoreHandle` inside a phase. The
//! [`par_cores`](MemCtx::par_cores) knob, set once by the runner or
//! harness via [`with_cores`](MemCtx::with_cores), tells sharded-capable
//! kernels how many simulated cores to partition each phase over, and
//! [`run_cores`](MemCtx::run_cores) runs one such phase, handing every
//! core a context of the same mode. The
//! regular kernels split their streaming phases by contiguous range; the
//! traversal kernels (BFS, BFS-dir, SSSP, BC) partition each frontier
//! level, routing discovered vertices through per-owner queues
//! (`atmem_hms::OwnerQueues`) so every property write stays single-writer
//! and the next frontier is canonical for any core count. Kernels without
//! a sharded body simply ignore the knob and run scalar. At
//! `par_cores == 1` every kernel but `triangles` takes its serial body
//! (`triangles` has one body: one core is the degenerate partition, which
//! `Machine::run_cores` runs on the resident core, bit-identical to the
//! pre-sharding engine).

use atmem_hms::{CoreHandle, Machine, MemPort, Scalar, TrackedVec};

/// How a kernel's accesses are driven through the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// One simulated access per element (the historical path).
    Scalar,
    /// Batched accesses through the bulk fast paths.
    #[default]
    Bulk,
}

/// Accessor context handed to kernels: a memory port plus the access mode
/// and simulated-core count, chosen once by the runner or harness. This
/// (with [`AccessMode`]) is the only mode surface — kernels have no mode
/// state of their own.
#[derive(Debug)]
pub struct MemCtx<'a, M: MemPort = Machine> {
    machine: &'a mut M,
    mode: AccessMode,
    par_cores: usize,
}

impl<'a, M: MemPort> MemCtx<'a, M> {
    /// Wraps `machine` with an explicit access mode.
    pub fn new(machine: &'a mut M, mode: AccessMode) -> Self {
        MemCtx {
            machine,
            mode,
            par_cores: 1,
        }
    }

    /// Wraps `machine` with the default [`AccessMode::Bulk`].
    pub fn bulk(machine: &'a mut M) -> Self {
        MemCtx::new(machine, AccessMode::Bulk)
    }

    /// Wraps `machine` with [`AccessMode::Scalar`].
    pub fn scalar(machine: &'a mut M) -> Self {
        MemCtx::new(machine, AccessMode::Scalar)
    }

    /// Sets the number of simulated cores sharded-capable kernels should
    /// partition their phases over (builder-style).
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

    /// The simulated-core count sharded kernels partition over (1 = the
    /// historical scalar path).
    pub fn par_cores(&self) -> usize {
        self.par_cores
    }

    /// The access mode this context dispatches on.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// Escape hatch to the underlying memory port (e.g. for stats
    /// snapshots or unaccounted peeks mid-kernel).
    pub fn machine(&mut self) -> &mut M {
        self.machine
    }

    /// Accounted read of element `i` — identical in both modes.
    #[inline]
    pub fn get<T: Scalar>(&mut self, v: &TrackedVec<T>, i: usize) -> T {
        v.get(self.machine, i)
    }

    /// Accounted write of element `i` — identical in both modes.
    #[inline]
    pub fn set<T: Scalar>(&mut self, v: &TrackedVec<T>, i: usize, value: T) {
        v.set(self.machine, i, value);
    }

    /// Accounted read-modify-write of element `i`, returning the old value.
    ///
    /// Both modes perform exactly one read access followed by one write
    /// access to the element; `Bulk` folds the pair into the machine's
    /// fused RMW path (one translation, one storage round-trip) with
    /// identical counters.
    #[inline]
    pub fn update<T: Scalar>(&mut self, v: &TrackedVec<T>, i: usize, f: impl FnOnce(T) -> T) -> T {
        match self.mode {
            AccessMode::Bulk => v.update(self.machine, i, f),
            AccessMode::Scalar => {
                let old = v.get(self.machine, i);
                v.set(self.machine, i, f(old));
                old
            }
        }
    }

    /// Accounted read of `out.len()` consecutive elements starting at
    /// `start`.
    pub fn read_run<T: Scalar>(&mut self, v: &TrackedVec<T>, start: usize, out: &mut [T]) {
        if out.is_empty() {
            return;
        }
        match self.mode {
            AccessMode::Bulk => v.read_slice(self.machine, start, out),
            AccessMode::Scalar => {
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = v.get(self.machine, start + k);
                }
            }
        }
    }

    /// Accounted write of `values` to consecutive elements starting at
    /// `start`.
    pub fn write_run<T: Scalar>(&mut self, v: &TrackedVec<T>, start: usize, values: &[T]) {
        if values.is_empty() {
            return;
        }
        match self.mode {
            AccessMode::Bulk => v.write_slice(self.machine, start, values),
            AccessMode::Scalar => {
                for (k, &value) in values.iter().enumerate() {
                    v.set(self.machine, start + k, value);
                }
            }
        }
    }

    /// Accounted indexed gather: reads element `indices[k]` into `out[k]`,
    /// in window order.
    pub fn gather<T: Scalar>(&mut self, v: &TrackedVec<T>, indices: &[u32], out: &mut [T]) {
        if indices.is_empty() {
            return;
        }
        match self.mode {
            AccessMode::Bulk => v.gather(self.machine, indices, out),
            AccessMode::Scalar => {
                for (&i, slot) in indices.iter().zip(out.iter_mut()) {
                    *slot = v.get(self.machine, i as usize);
                }
            }
        }
    }

    /// Accounted indexed scatter: writes `values[k]` to element
    /// `indices[k]`, in window order (duplicates: last write wins).
    pub fn scatter<T: Scalar>(&mut self, v: &TrackedVec<T>, indices: &[u32], values: &[T]) {
        if indices.is_empty() {
            return;
        }
        match self.mode {
            AccessMode::Bulk => v.scatter(self.machine, indices, values),
            AccessMode::Scalar => {
                for (&i, &value) in indices.iter().zip(values.iter()) {
                    v.set(self.machine, i as usize, value);
                }
            }
        }
    }

    /// Accounted indexed scatter-update: replaces element `indices[k]` with
    /// `f(k, old)` for every `k` in window order. Duplicate indices observe
    /// earlier updates from the same window.
    pub fn gather_update<T: Scalar>(
        &mut self,
        v: &TrackedVec<T>,
        indices: &[u32],
        mut f: impl FnMut(usize, T) -> T,
    ) {
        if indices.is_empty() {
            return;
        }
        match self.mode {
            AccessMode::Bulk => v.gather_update(self.machine, indices, f),
            AccessMode::Scalar => {
                for (k, &i) in indices.iter().enumerate() {
                    let i = i as usize;
                    let old = v.get(self.machine, i);
                    v.set(self.machine, i, f(k, old));
                }
            }
        }
    }
}

impl MemCtx<'_, Machine> {
    /// Runs one sharded phase over [`par_cores`](MemCtx::par_cores)
    /// simulated cores: `f(core_id, ctx)` once per core, `ctx` being a
    /// context of this one's mode over that core. Results come back in core
    /// order; `Machine::run_cores` states the reduction and partition
    /// contracts, and runs a one-core phase on the machine's resident core.
    pub fn run_cores<R: Send>(
        &mut self,
        f: impl Fn(usize, MemCtx<'_, CoreHandle<'_>>) -> R + Sync,
    ) -> Vec<R> {
        let mode = self.mode;
        self.machine
            .run_cores(self.par_cores, |c, h| f(c, MemCtx::new(h, mode)))
    }
}
