//! Sample statistics, the simulated-state digest, and host-side probes
//! (`/proc` readers, fingerprint).

use std::time::Instant;

/// Wall-clock samples of one timed item, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, seconds: f64) {
        self.0.push(seconds);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        v
    }

    /// The headline estimator: on a shared host the slow tail is the
    /// neighbours' doing, the fastest sample is the program's.
    pub fn fastest(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// (q1, median, q3) as Python's `statistics.quantiles(v, n=4)` gives
    /// them; a single sample is its own quartiles.
    pub fn quartiles(&self) -> (f64, f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return (x, x, x);
        }
        let q = |i: usize| {
            let pos = i * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (q(1), q(2), q(3))
    }

    pub fn median(&self) -> f64 {
        self.quartiles().1
    }
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Fastest of `reps` timings of `f`, in seconds.
pub fn fastest_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| timed(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// FNV-1a over 64-bit words: the `sim_digest`. It covers bit patterns of
/// simulated clocks, ratios, checksums and counters, so two commits that
/// simulate the same thing agree exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `(cpu_ns, runqueue_wait_ns)` of the calling thread from
/// `/proc/thread-self/schedstat`; zeros where the file is missing.
pub fn thread_sched() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on, as JSON members (no braces).
pub fn fingerprint_json(seed: u64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Best effort: the driver's checkout is not a git repository, and git
    // must not go looking for one above it.
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env(
            "GIT_CEILING_DIRECTORIES",
            concat!(env!("CARGO_MANIFEST_DIR"), "/../.."),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"available_parallelism\": {threads}, \"cpu_model\": {}, \"build_profile\": \"{profile}\", \
         \"git_rev\": {}, \"seed\": {seed}",
        crate::json::quote(cpu),
        crate::json::quote(&git)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s = Samples((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(Samples(vec![3.0, 1.0, 2.0]).quartiles(), (1.0, 2.0, 3.0));
        assert_eq!(Samples(vec![4.0]).quartiles(), (4.0, 4.0, 4.0));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of eight zero bytes.
        let mut h = Fnv::default();
        h.u64(0);
        assert_eq!(h.finish(), 0xa8c7_f832_281a_39c5);
    }
}
