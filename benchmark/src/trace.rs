//! In-memory spans around the calls into each layer.
//!
//! A traced rep is a tree: `rep` → one span per workload item (a protocol
//! run, a churn configuration, the serving session) → one span per call
//! into a public function of `graph`/`hms`/`core`/`apps`. Span names are
//! the per-layer metric names without their `_s` suffix. Spans are kept in
//! memory and written out when the run ends; a span's self time is its
//! duration minus what its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The traced rep this span belongs to.
    pub run_id: u32,
    /// A call the untraced program does not make (`analyze`/`build_plan`
    /// repeated outside `optimize()` to time them): excluded from the
    /// traced-vs-untraced overhead.
    pub side: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans when enabled; when not, every method is a no-op around
/// the caller's closure, so one body serves the traced and the untraced
/// form of a workload.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u32,
    side_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
            side_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next traced rep; spans entered from here on carry its id.
    pub fn next_run(&mut self) {
        self.run_id += 1;
    }

    pub fn enter(&mut self, name: &str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
            side: false,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration in seconds (0 when disabled).
    pub fn exit(&mut self, id: usize) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
        self.spans[id].seconds()
    }

    /// A leaf span around `f`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// A leaf span around a call the untraced program does not make; callers
    /// make it only when [`Tracer::enabled`].
    pub fn side_span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        assert!(self.enabled, "side calls belong to the traced run");
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        self.spans[id].side = true;
        self.side_ns += self.spans[id].end_ns - self.spans[id].start_ns;
        r
    }

    /// Seconds spent in side spans so far.
    pub fn side_seconds(&self) -> f64 {
        self.side_ns as f64 / 1e9
    }

    /// Name of the depth-1 ancestor (the workload item) of span `i`, if it
    /// lies below one.
    fn item_of(&self, mut i: usize) -> Option<&str> {
        let mut chain = vec![i];
        while let Some(p) = self.spans[i].parent {
            chain.push(p);
            i = p;
        }
        // chain ends at the root `rep`; the item is the one before it.
        (chain.len() >= 3).then(|| self.spans[chain[chain.len() - 2]].name.as_str())
    }

    /// Per-rep sums of span seconds, reduced to the fastest rep: by span
    /// name (inclusive and self time), and by (item, span name).
    pub fn sums(&self) -> Sums {
        let mut by_name: BTreeMap<(String, u32), f64> = BTreeMap::new();
        let mut self_by_name: BTreeMap<(String, u32), f64> = BTreeMap::new();
        let mut by_item: BTreeMap<(String, String, u32), f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *by_name.entry((s.name.clone(), s.run_id)).or_default() += s.seconds();
            *self_by_name.entry((s.name.clone(), s.run_id)).or_default() += s.seconds();
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                *self_by_name
                    .entry((parent.name.clone(), parent.run_id))
                    .or_default() -= s.seconds();
            }
            if let Some(item) = self.item_of(i) {
                *by_item
                    .entry((item.to_string(), s.name.clone(), s.run_id))
                    .or_default() += s.seconds();
            }
        }
        let mut sums = Sums::default();
        for ((name, _), secs) in by_name {
            let e = sums.by_name.entry(name).or_insert(f64::INFINITY);
            *e = e.min(secs);
        }
        for ((name, _), secs) in self_by_name {
            let e = sums.self_by_name.entry(name).or_insert(f64::INFINITY);
            *e = e.min(secs);
        }
        for ((item, name, _), secs) in by_item {
            let e = sums.by_item.entry((item, name)).or_insert(f64::INFINITY);
            *e = e.min(secs);
        }
        sums
    }

    /// Share of the traced reps' wall time that no leaf span accounts for:
    /// the self time of every span that has children, over the root spans.
    pub fn unattributed_frac(&self) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let (mut own, mut root) = (0u64, 0u64);
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            if covered > 0 {
                own += (s.end_ns - s.start_ns).saturating_sub(covered);
            }
            if s.parent.is_none() {
                root += s.end_ns - s.start_ns;
            }
        }
        if root == 0 {
            0.0
        } else {
            own as f64 / root as f64
        }
    }

    /// Seconds one span costs the traced program, calibrated on a scratch
    /// tracer. Spans per rep times this, over the rep, bounds the tracing
    /// overhead far below what two or three noisy reps can resolve.
    pub fn span_cost_s() -> f64 {
        const N: usize = 10_000;
        let mut scratch = Tracer::new(true);
        let started = Instant::now();
        for _ in 0..N {
            scratch.span("calibration", || ());
        }
        started.elapsed().as_secs_f64() / N as f64
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {}, \"run_id\": {}, \"side\": {}}}",
                    crate::json::quote(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.run_id,
                    s.side
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Span seconds summed per traced rep and reduced to the fastest rep.
#[derive(Debug, Default)]
pub struct Sums {
    pub by_name: BTreeMap<String, f64>,
    /// Like `by_name`, minus what the spans' children cover.
    pub self_by_name: BTreeMap<String, f64>,
    pub by_item: BTreeMap<(String, String), f64>,
}

impl Sums {
    pub fn name(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_name(&self, name: &str) -> f64 {
        self.self_by_name.get(name).copied().unwrap_or(0.0)
    }

    pub fn item(&self, item: &str, name: &str) -> f64 {
        self.by_item
            .get(&(item.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_group_by_item_and_take_the_fastest_rep() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.next_run();
            let rep = t.enter("rep");
            let item = t.enter("item.a");
            t.span("layer.x", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.side_span("layer.side", || ());
            t.exit(item);
            t.exit(rep);
        }
        let sums = t.sums();
        assert!(sums.item("item.a", "layer.x") >= 0.002);
        assert!(sums.name("layer.x") < 0.5);
        assert_eq!(sums.item("item.b", "layer.x"), 0.0);
        assert!(t.unattributed_frac() < 0.5);
        assert!(crate::json::parse(&t.to_json()).is_ok());
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn crossing_spans_are_rejected() {
        let mut t = Tracer::new(true);
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
