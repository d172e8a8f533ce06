//! Synthetic access-pattern workloads.
//!
//! Graph kernels are the paper's evaluation vehicle, but controlled
//! synthetic patterns are what isolate the runtime's behaviour in tests,
//! examples, and microbenchmarks: [`HotWindow`] is a hot-window pattern
//! with a configurable skew, run over a [`TrackedVec`] through the
//! accounted path.

use atmem::Atmem;
use atmem_hms::TrackedVec;
use atmem_rng::SmallRng;

/// A hot-window pattern: `hot_fraction` of accesses land uniformly in the
/// window, the rest uniformly over the whole array.
#[derive(Debug, Clone, Copy)]
pub struct HotWindow {
    /// First element of the window.
    pub start: usize,
    /// Window length in elements.
    pub len: usize,
    /// Fraction of accesses that stay inside the window, `[0, 1]`.
    pub hot_fraction: f64,
}

impl HotWindow {
    /// Runs `accesses` accounted reads over `v` with this pattern.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the array.
    pub fn drive(&self, rt: &mut Atmem, v: &TrackedVec<u64>, accesses: usize, seed: u64) {
        assert!(self.start + self.len <= v.len(), "window exceeds array");
        assert!((0.0..=1.0).contains(&self.hot_fraction));
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..accesses {
            let idx = if rng.gen::<f64>() < self.hot_fraction {
                self.start + rng.gen_range(0..self.len)
            } else {
                rng.gen_range(0..v.len())
            };
            let _ = v.get(rt.machine_mut(), idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem::AtmemConfig;
    use atmem_hms::Platform;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    #[test]
    fn hot_window_concentrates_samples() {
        let mut rt = runtime();
        let v = rt.malloc::<u64>(64 * 1024, "synth").unwrap();
        rt.profiling_start().unwrap();
        HotWindow {
            start: 8192,
            len: 4096,
            hot_fraction: 0.9,
        }
        .drive(&mut rt, &v, 100_000, 11);
        rt.profiling_stop().unwrap();
        let obj = rt.registry().iter().next().unwrap();
        let geometry = obj.geometry();
        let window_chunks =
            (8192 * 8 / geometry.chunk_bytes)..((8192 + 4096) * 8 / geometry.chunk_bytes + 1);
        let in_window: u64 = obj.samples()[window_chunks.clone()].iter().sum();
        let total = obj.total_samples();
        assert!(
            in_window as f64 > 0.5 * total as f64,
            "window {window_chunks:?} got {in_window}/{total}"
        );
    }

    #[test]
    #[should_panic(expected = "window exceeds array")]
    fn oversized_window_rejected() {
        let mut rt = runtime();
        let v = rt.malloc::<u64>(100, "tiny").unwrap();
        HotWindow {
            start: 50,
            len: 100,
            hot_fraction: 0.5,
        }
        .drive(&mut rt, &v, 1, 0);
    }
}
