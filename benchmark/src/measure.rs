//! One run of one workload: set-up, a discarded warm-up rep, timed reps
//! for `--seconds`, then the metrics.
//!
//! Host-time headlines are the sum over the workload's items of the
//! *fastest* of the k samples of each item. On this shared host the median
//! of a 3–5 s body drifts by a third between back-to-back processes while
//! CPU time tracks wall time (so it is not preemption, and normalising by
//! a calibration loop did not help); the per-item fastest repeats within a
//! few percent. Median, quartiles and maximum are reported beside it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::quote;
use crate::metrics::{self, MetricDef};
use crate::trace::Tracer;
use crate::util::{fingerprint_json, peak_rss_mb, thread_sched, timed, Samples};
use crate::workloads::{self, Rep, Sim};
use crate::{probes, DETAIL_PREFIX, OUT_DIR};

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Measuring time; reps continue until it has passed.
    pub seconds: f64,
    pub trace: bool,
    /// Reps to take however long they last.
    pub min_reps: usize,
    /// How many times the inputs are generated for `setup_s`.
    pub setup_reps: usize,
    /// Graph scale reduction (`check` only).
    pub shrink: u32,
}

impl Opts {
    /// The settings of a driver run.
    pub fn driver(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Opts {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            // k >= 5 per item for the headline; a traced rep is one
            // untraced plus one decomposed pass, twice is enough.
            min_reps: if trace { 2 } else { 5 },
            setup_reps: if trace { 1 } else { 3 },
            shrink: 0,
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub opts: Opts,
    /// Every metric of the run's kind (end-to-end, or per-layer when
    /// traced), in definition order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Host seconds per timed item.
    pub items: Vec<(String, Samples)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    /// Run-queue wait above 2 % of the measured time, or an item whose
    /// slowest sample is over 1.5x its fastest. The numbers are not
    /// changed; the flag says how far to trust them.
    pub noisy: bool,
}

impl Outcome {
    pub fn reps(&self) -> usize {
        self.items.first().map_or(0, |(_, s)| s.len())
    }

    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(&def.name),
                    quote(def.unit)
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The line the driver reads.
    fn contract_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            self.metrics_json()
        )
    }

    /// Everything about the run, for `results.json`.
    fn detail_json(&self) -> String {
        let items: Vec<String> = self
            .items
            .iter()
            .map(|(name, s)| {
                let (q1, median, q3) = s.quartiles();
                format!(
                    "{}: {{\"fastest_s\": {}, \"q1_s\": {q1}, \"median_s\": {median}, \
                     \"q3_s\": {q3}, \"max_s\": {}, \"k\": {}}}",
                    quote(name),
                    s.fastest(),
                    s.max(),
                    s.len()
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        format!(
            "{{\"workload\": {}, \"traced\": {}, {}, \"k\": {}, \"noisy\": {}, \
             \"sim_digest\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
             \"items\": {{{}}}, \"metrics\": {}}}",
            quote(&self.opts.workload),
            self.opts.trace,
            fingerprint_json(self.opts.seed),
            self.reps(),
            self.noisy,
            self.digest,
            self.attempted,
            self.failures.len(),
            failures.join(", "),
            items.join(", "),
            self.metrics_json()
        )
    }

    /// The readable report, the detail line, then the contract line last:
    /// what the driver and a parent `run` expect on standard output.
    pub fn report(&self) {
        self.print();
        println!("{DETAIL_PREFIX}{}", self.detail_json());
        println!("{}", self.contract_json());
    }

    /// Every metric by name with its unit, for people.
    fn print(&self) {
        let o = &self.opts;
        println!(
            "== {} (seed {}, {}, k = {}{})",
            o.workload,
            o.seed,
            if o.trace { "traced" } else { "untraced" },
            self.reps(),
            if self.noisy { ", NOISY" } else { "" }
        );
        for (name, s) in &self.items {
            let (q1, median, q3) = s.quartiles();
            println!(
                "   item {name}: fastest {:.4} s, quartiles {q1:.4} / {median:.4} / {q3:.4} s, max {:.4} s",
                s.fastest(),
                s.max()
            );
        }
        for (def, value) in &self.metrics {
            let bound = def
                .bound
                .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
            println!(
                "   {:<44} {value:>16.6} {:<6} ({} is better{bound})",
                def.name,
                def.unit,
                def.better.name()
            );
            if def.name == "sim_speedup" {
                let (lo, hi) = metrics::PAPER_NVM_BAND;
                println!(
                    "   {:<44} paper's NVM-DRAM average band {lo}-{hi}x; the model is validated \
                     against such bands only, not against hardware",
                    ""
                );
            }
        }
        println!(
            "   sim_digest {:016x}; {} checks, {} failed",
            self.digest,
            self.attempted,
            self.failures.len()
        );
        for failure in &self.failures {
            println!("   FAILED: {failure}");
        }
    }
}

/// Runs workload `opts.workload`; `None` if there is no such workload.
pub fn measure(opts: &Opts) -> Option<Outcome> {
    // Set-up, repeated for a median (the generators are deterministic, so
    // every repetition builds the same inputs).
    let mut setup = Samples::default();
    let mut built = None;
    for _ in 0..opts.setup_reps.max(1) {
        let (workload, times) = workloads::build(&opts.workload, opts.seed, opts.shrink)?;
        setup.push(times.total());
        built = Some((workload, times));
    }
    let (mut workload, setup_times) = built.expect("at least one set-up");
    let items = workload.items();

    // Warm-up: the all-slow reference and one discarded rep, which pays
    // the process's first page faults and fills the allocator.
    let mut checks = Sim::default();
    let ((reference_ms, warm), cold_s) = timed(|| {
        let reference_ms = workload.reference(&mut checks);
        (reference_ms, workload.rep(&mut Tracer::new(false)))
    });
    let mut attempted = warm.sim.checks;
    let mut failures = warm.sim.failures.clone();
    let mut rep_setup = Samples::default();

    let mut host = vec![Samples::default(); items.len()];
    let mut traced_host = vec![Samples::default(); items.len()];
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut record = |rep: Rep, what: &str, into: &mut [Samples], checks: &mut Sim| {
        for (samples, secs) in into.iter_mut().zip(&rep.host) {
            samples.push(*secs);
        }
        attempted += rep.sim.checks;
        failures.extend(rep.sim.failures.iter().cloned());
        checks.check(rep.sim == warm.sim, || {
            format!(
                "{what} rep differs from the warm-up in simulated state (digest {:016x} vs {:016x})",
                rep.sim.digest.finish(),
                warm.sim.digest.finish()
            )
        });
    };
    let (cpu_before, wait_before) = thread_sched();
    let started = Instant::now();
    let mut reps = 0;
    while reps < opts.min_reps || started.elapsed().as_secs_f64() < opts.seconds {
        record(workload.rep(&mut off), "untraced", &mut host, &mut checks);
        rep_setup.push(workload.rep_setup_s());
        if opts.trace {
            tracer.next_run();
            let rep = workload.rep(&mut tracer);
            record(rep, "decomposed", &mut traced_host, &mut checks);
            workload.traced_extras(&mut tracer, &mut checks);
        }
        reps += 1;
    }
    let (cpu_after, wait_after) = thread_sched();
    let cpu_s = (cpu_after - cpu_before) as f64 / 1e9;
    let wait_s = (wait_after - wait_before) as f64 / 1e9;
    let runq_wait_frac = if cpu_s + wait_s > 0.0 {
        wait_s / (cpu_s + wait_s)
    } else {
        0.0
    };

    let fastest = |samples: &[Samples]| samples.iter().map(Samples::fastest).sum::<f64>();
    let host_wall_s = fastest(&host);
    let traced_wall_s = fastest(&traced_host);
    let sim = &warm.sim;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let defs = if opts.trace {
        put("graph.rmat.gen_s", setup_times.gen_s);
        put("graph.csr.weights_s", setup_times.weights_s);
        put("hms.machine.cold_first_rep_s", cold_s);
        put("host.cpu_s", cpu_s);
        put("host.runq_wait_frac", runq_wait_frac);
        put("trace.overhead_frac", traced_wall_s / host_wall_s - 1.0);
        put(
            "trace.span_cost_frac",
            tracer.spans.len() as f64 / reps as f64 * Tracer::span_cost_s() / traced_wall_s,
        );
        put("trace.unattributed_frac", tracer.unattributed_frac());
        put("sim_digest", (sim.digest.finish() & ((1 << 48) - 1)) as f64);
        put("apps.kernel.accesses", sim.accesses() as f64);
        let mut layer = Vec::new();
        let (stream, n) = workload.probe_stream();
        probes::run(&stream, n, &mut checks, &mut layer);
        workload.layer_metrics(&tracer.sums(), sim, &mut layer);
        for (name, value) in layer {
            put(&name, value);
        }
        for &(name, value) in &sim.counters {
            put(name, value);
        }
        derive_layer_metrics(&mut values, traced_wall_s);
        // Totals the ratios above were made from, not metrics themselves.
        values.remove("hms.tlb.lookups");
        values.remove("hms.cache.reads");
        write_trace(&opts.workload, &tracer);
        metrics::per_layer()
    } else {
        // Geometric mean over the items of reference / optimized.
        let speedup = (reference_ms
            .iter()
            .zip(&sim.item_ms)
            .map(|(reference, optimized)| (reference / optimized).ln())
            .sum::<f64>()
            / sim.item_ms.len() as f64)
            .exp();
        put("setup_s", setup.median() + rep_setup.median());
        put("host_wall_s", host_wall_s);
        put(
            "sim_maccess_per_s",
            sim.accesses() as f64 / 1e6 / host_wall_s,
        );
        put("peak_rss_mb", peak_rss_mb());
        put("sim_time_ms", sim.item_ms.iter().sum());
        put("sim_speedup", speedup);
        put("sim_p99_latency_ms", sim.p99_ms);
        metrics::end_to_end()
    };

    attempted += checks.checks;
    failures.extend(checks.failures);
    // Every value must be one of the run's metrics and a finite number; a
    // layer the workload does not exercise reads 0.
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = values.remove(&def.name).unwrap_or(0.0);
        attempted += 1;
        if !value.is_finite() {
            failures.push(format!("metric {} is not finite: {value}", def.name));
        }
        metrics.push((def, if value.is_finite() { value } else { 0.0 }));
    }
    assert!(
        values.is_empty(),
        "values without a metric definition: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    let spread = host
        .iter()
        .map(|s| s.max() / s.fastest())
        .fold(0.0, f64::max);
    Some(Outcome {
        opts: opts.clone(),
        metrics,
        items: items.into_iter().zip(host).collect(),
        attempted,
        failures,
        digest: sim.digest.finish(),
        noisy: runq_wait_frac > 0.02 || spread > 1.5,
    })
}

/// Per-layer metrics that are arithmetic on other per-layer metrics.
/// `body_s` is the timed body of the traced rep.
fn derive_layer_metrics(values: &mut BTreeMap<String, f64>, body_s: f64) {
    let get = |values: &BTreeMap<String, f64>, name: &str| values.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let optimize_s = get(values, "core.runtime.optimize_s");
    let planning_s = get(values, "core.analyzer.paper_s")
        + get(values, "core.analyzer.learned_s")
        + get(values, "core.migrate.plan_s");
    let derived = [
        ("core.migrate.execute_s", (optimize_s - planning_s).max(0.0)),
        ("core.runtime.optimize_share", ratio(optimize_s, body_s)),
        ("optimize_host_ms", optimize_s * 1e3),
        (
            "migrate_host_mb_per_s",
            ratio(
                get(values, "core.migrate.bytes_moved") / (1 << 20) as f64,
                optimize_s,
            ),
        ),
        (
            "core.profiler.ns_per_sample",
            ratio(
                get(values, "core.profiler.stop_s") * 1e9,
                get(values, "core.profiler.samples"),
            ),
        ),
        (
            "hms.tlb.miss_ratio",
            ratio(
                get(values, "hms.tlb.misses"),
                get(values, "hms.tlb.lookups"),
            ),
        ),
        (
            "hms.cache.read_miss_ratio",
            ratio(
                get(values, "hms.cache.read_misses"),
                get(values, "hms.cache.reads"),
            ),
        ),
    ];
    for (name, value) in derived {
        values.insert(name.to_string(), value);
    }
}

/// Writes the spans to `benchmark/out/trace.<workload>.json`. Best effort:
/// the metrics do not depend on the file.
fn write_trace(workload: &str, tracer: &Tracer) {
    let path = format!("{OUT_DIR}/trace.{workload}.json");
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
    if let Err(e) = written {
        eprintln!("warning: could not write {path}: {e}");
    }
}
