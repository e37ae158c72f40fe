//! The repository's benchmark: four workloads through the public APIs
//! of `ams-sweep`, `ams-net`, `ams-serve` and `ams-core`, each checked
//! against computations made apart from the program.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! inputs with benchmark-side spans and reports the per-layer metrics.
//! See `perfbench/README.md`.

mod adsl_f1;
mod clamp_lanes;
mod layers;
mod mc_filter;
mod oracle;
mod probes;
mod serve_mix;

use probes::{median, quantile, Spans};
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static GLOBAL: probes::CountingAlloc = probes::CountingAlloc;

/// Each run sets its workload up at least `SETUP_MIN_REPS` times and
/// until `SETUP_BUDGET_S` have passed (at most `SETUP_MAX_REPS`);
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BUDGET_S: f64 = 2.0;
/// Spans kept in memory per traced run.
const SPAN_CAP: usize = 400_000;

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.step_ns", "ns"),
    ("net.allocs_per_step", "count"),
    ("net.scenario_init_us", "us"),
    ("net.lane_step_ns", "ns"),
    ("net.newton_per_step", "count"),
    ("math.factorizations_per_step", "count"),
    ("math.refactor_us.f64", "us"),
    ("math.refactor_us.x8", "us"),
    ("math.solve_us.f64", "us"),
    ("math.solve_us.x8", "us"),
    ("math.symbolic_analyses.sweep", "count"),
    ("math.symbolic_analyses.warm_job", "count"),
    ("monitor.feed_ns", "ns"),
    ("sweep.scenario_us_p50", "us"),
    ("sweep.unattributed_ms", "ms"),
    ("sweep.cpu_per_wall", "ratio"),
    ("sweep.report_us", "us"),
    ("lint.circuit_us", "us"),
    ("lint.space_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.handle_us.submit", "us"),
    ("serve.handle_us.status", "us"),
    ("serve.handle_us.poll", "us"),
    ("serve.request_us_p50", "us"),
    ("serve.direct_run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.result_bytes", "bytes"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("kernel.activations_per_ms", "count"),
    ("kernel.delta_cycles_per_ms", "count"),
    ("core.iteration_ns", "ns"),
    ("core.schedule_self_ns", "ns"),
    ("blocks.tone_ns", "ns"),
    ("blocks.tx_gain_ns", "ns"),
    ("blocks.hv_driver_ns", "ns"),
    ("blocks.line_ns", "ns"),
    ("blocks.anti_alias_ns", "ns"),
    ("blocks.sd_prefi_ns", "ns"),
    ("blocks.cic_ns", "ns"),
    ("blocks.chan_fir_ns", "ns"),
    ("blocks.dsp_power_ns", "ns"),
    ("host.ref_loop_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Named metric values (units come from the tables above).
pub type Metrics = BTreeMap<String, f64>;

/// One workload behind the common driver: set up, then repeated timed
/// operations, then output checks.
pub trait Workload {
    /// Operations (scenarios, jobs, segments) one [`Workload::op`]
    /// call attempts.
    fn op_size(&self) -> u64;

    /// One timed operation batch. With `spans`, the benchmark records
    /// spans around its calls into the program; the program itself is
    /// never instrumented.
    fn op(&mut self, index: u64, spans: Option<&mut Spans>) -> Result<(), String>;

    /// Latencies (ms) of the individual operations of the untraced
    /// batches, when they are not the batches themselves (service jobs).
    fn op_latencies_ms(&mut self) -> Option<Vec<f64>> {
        None
    }

    /// Checks the outputs kept since the last call and drops them; runs
    /// untimed after every batch, so memory does not grow with the run.
    /// Each returned string is a failed check.
    fn check(&mut self) -> Vec<String>;

    /// Checks that need the whole run (end state, service counters).
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer metrics measured from the workload's own traced
    /// batches (they take precedence over the layer suite's).
    fn traced_metrics(&mut self, _m: &mut Metrics) {}
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.trace = val()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Sets the workload up several times (the median is `setup_s`), then
/// runs timed batches until `args.seconds` of timed work; outputs are
/// checked between batches, untimed. A traced run alternates traced and
/// untraced batches and reports the per-layer metrics instead.
fn drive<W: Workload>(
    args: &Args,
    mut setup: impl FnMut() -> Result<W, String>,
) -> Result<(bool, u64, Metrics), String> {
    let ref_start = probes::ref_loop_ns();
    let mut setups = Vec::new();
    let mut w = None;
    let begin = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && begin.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(w.take());
        let t = Instant::now();
        w = Some(setup()?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one setup");

    let mut spans = Spans::new(SPAN_CAP);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut timed_s = 0.0;
    let mut i = 0u64;
    // A traced run needs at least one batch of each kind.
    while timed_s < args.seconds || (args.trace && traced.is_empty()) {
        let with_spans = args.trace && i % 2 == 1;
        let t = Instant::now();
        w.op(i, with_spans.then_some(&mut spans))?;
        let s = t.elapsed().as_secs_f64();
        timed_s += s;
        if with_spans {
            traced.push(s * 1e3);
        } else {
            plain.push(s * 1e3);
        }
        attempted += w.op_size();
        i += 1;
        problems.extend(w.check());
    }
    problems.extend(w.finish());
    for p in problems.iter().take(20) {
        eprintln!("perfbench: check failed: {p}");
    }

    let mut m = Metrics::new();
    if args.trace {
        w.traced_metrics(&mut m);
        drop(w);
        layers::suite(args.seed, &mut m)?;
        let overhead = median(&mut traced) / median(&mut plain) - 1.0;
        m.insert("trace.overhead_pct".into(), overhead * 100.0);
        let ref_end = probes::ref_loop_ns();
        m.insert("host.ref_loop_ns".into(), 0.5 * (ref_start + ref_end));
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.json",
            args.workload, args.seed
        ));
        spans
            .write_chrome(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
    } else {
        // The rate over all timed work: on a host whose speed swings
        // between states for seconds at a time, the mean moves with the
        // share of time in each state, where a median batch would jump.
        let ops = plain.len() as f64 * w.op_size() as f64;
        let mut lat = w.op_latencies_ms().unwrap_or_else(|| plain.clone());
        m.insert("setup_s".into(), median(&mut setups));
        m.insert(
            "throughput_per_s".into(),
            ops / (plain.iter().sum::<f64>() / 1e3),
        );
        m.insert("latency_p90_ms".into(), quantile(&mut lat, 0.9));
        m.insert("peak_rss_mb".into(), probes::peak_rss_mb());
        let ref_end = probes::ref_loop_ns();
        // Beside the result, not in it: lets a spread check see host drift.
        println!(
            "perfbench: host.ref_loop_ns start={ref_start:.0} end={ref_end:.0} \
             setups={} batches={} latency_samples={}",
            setups.len(),
            plain.len(),
            lat.len()
        );
    }
    Ok((problems.is_empty(), attempted, m))
}

/// The result line. An operation that fails ends the run with an error
/// instead, so `failed` is always 0 here.
fn render(correct: bool, attempted: u64, m: &Metrics, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = m.get(*name).copied().unwrap_or(f64::NAN);
            // JSON has no NaN: a missing value is reported as -1 and
            // makes the run incorrect (see `main`).
            let v = if v.is_finite() { v } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": 0, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload \
                 mc_filter|clamp_lanes|serve_mix|adsl_f1 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = oracle::self_test() {
        eprintln!("perfbench: oracle self-test failed: {e}");
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "mc_filter" => drive(&args, || mc_filter::McFilter::setup(args.seed)),
        "clamp_lanes" => drive(&args, || clamp_lanes::ClampLanes::setup(args.seed)),
        "serve_mix" => drive(&args, || serve_mix::ServeMix::setup(args.seed)),
        "adsl_f1" => drive(&args, || adsl_f1::AdslF1::setup(args.seed, args.trace)),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok((mut correct, attempted, m)) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            for (name, _) in table {
                if !m.get(*name).is_some_and(|v| v.is_finite()) {
                    eprintln!("perfbench: metric {name} was not measured");
                    correct = false;
                }
            }
            println!("{}", render(correct, attempted, &m, args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
