//! `mc_filter`: a scalar Monte-Carlo sweep of the paper's F1 anti-alias
//! filter (4-stage RC ladder, step input, trapezoidal rule, fixed 1 µs
//! step, 1 ms horizon) with one sweep worker and three monitors. Its
//! sweep calls run on one CPU (`probes::on_one_cpu`): the coordinator
//! polls its worker without blocking, and with two busy threads the
//! figures would depend on whether the host's second core is free.

use crate::oracle::{self, Pulse};
use crate::probes::{mix, on_one_cpu, Spans};
use crate::{Metrics, Workload};
use ams_monitor::{MonitorSpec, Verdict};
use ams_net::{Circuit, ElementId, IntegrationMethod, NodeId, ScenarioProbe, SolverBackend};
use ams_sweep::{NetlistSweep, ProgressFn, Scenario, SweepReport, SweepSpec};
use rand::Rng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const STAGES: usize = 4;
pub const R_NOM: f64 = 1.6e3;
pub const C_NOM: f64 = 10e-9;
pub const T_END: f64 = 1e-3;
pub const H: f64 = 1e-6;
/// Scenarios per sweep call.
pub const BATCH: usize = 64;
/// Rise from 10 % to 90 % within `RISE_WITHIN`, and settle into ±1 %
/// by `SETTLE_BY`: both near the nominal ladder's values, so the verdict
/// depends on each scenario's tolerances.
pub const RISE_WITHIN: f64 = 3.1e-4;
pub const SETTLE_BY: f64 = 6.4e-4;
pub const SOURCE: Pulse = Pulse {
    v1: 0.0,
    v2: 1.0,
    delay: 0.0,
    rise: 1e-6,
    fall: 1e-6,
    width: 1.0,
};
pub const METRICS: [&str; 3] = ["v_settle", "t_rise", "v_peak"];

/// The monitor spec on the output node: passivity envelope, rise time,
/// and a tolerance-dependent settle.
pub fn monitor_text() -> String {
    format!(
        "ok:envelope(lo=-0.05,hi=1.05)@n3;\
         fast:rise(lo=0.1,hi=0.9,within={RISE_WITHIN:e})@n3;\
         settled:settle(lo=0.99,hi=1.01,by={SETTLE_BY:e})@n3"
    )
}

/// The ladder template with its element handles and output node.
pub struct Ladder {
    pub circuit: Circuit,
    pub resistors: Vec<ElementId>,
    pub caps: Vec<ElementId>,
    pub out: NodeId,
}

pub fn ladder() -> Ladder {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.voltage_source_wave(
        "V",
        prev,
        Circuit::GROUND,
        ams_net::Waveform::Pulse {
            v1: SOURCE.v1,
            v2: SOURCE.v2,
            delay: SOURCE.delay,
            rise: SOURCE.rise,
            fall: SOURCE.fall,
            width: SOURCE.width,
            period: 0.0,
        },
    )
    .expect("valid source");
    let mut resistors = Vec::new();
    let mut caps = Vec::new();
    for i in 0..STAGES {
        let node = ckt.node(format!("n{i}"));
        resistors.push(ckt.resistor(format!("R{i}"), prev, node, R_NOM).expect("R"));
        caps.push(
            ckt.capacitor(format!("C{i}"), node, Circuit::GROUND, C_NOM)
                .expect("C"),
        );
        prev = node;
    }
    Ladder {
        circuit: ckt,
        resistors,
        caps,
        out: prev,
    }
}

/// Component values of one scenario: ±10 % class tolerance plus ±2 %
/// per-part mismatch from the scenario's own stream.
pub fn values(sc: &Scenario) -> (Vec<f64>, Vec<f64>) {
    let mut rng = sc.rng();
    let m: Vec<f64> = (0..2 * STAGES)
        .map(|_| rng.gen_range(-0.02..0.02))
        .collect();
    let r = (0..STAGES)
        .map(|i| R_NOM * (1.0 + sc.value("dr") + m[i]))
        .collect();
    let c = (0..STAGES)
        .map(|i| C_NOM * (1.0 + sc.value("dc") + m[STAGES + i]))
        .collect();
    (r, c)
}

pub fn spec(seed: u64, call: u64, n: usize) -> SweepSpec {
    SweepSpec::monte_carlo(
        &[("dr", -0.1, 0.1), ("dc", -0.1, 0.1)],
        n,
        mix(seed, 1, call),
    )
    .expect("valid Monte-Carlo spec")
}

/// Runs one sweep call over `spec` with `workers` workers, free to use
/// every CPU; the workload's own calls confine it with `on_one_cpu`.
pub fn run(
    sweep: &NetlistSweep,
    lad: &Ladder,
    spec: &SweepSpec,
    workers: usize,
) -> Result<SweepReport, String> {
    let out = lad.out;
    sweep
        .run_lanes(
            spec,
            workers,
            &METRICS,
            |c, sc| {
                let (r, cap) = values(sc);
                for (id, v) in lad.resistors.iter().zip(&r) {
                    c.set_resistance(*id, *v)?;
                }
                for (id, v) in lad.caps.iter().zip(&cap) {
                    c.set_capacitance(*id, *v)?;
                }
                Ok(())
            },
            |tr: &dyn ScenarioProbe, m| {
                let v = tr.voltage(out);
                m[0] = v;
                if m[1].is_nan() && v >= 0.9 {
                    m[1] = tr.time();
                }
                if m[2].is_nan() || v > m[2] {
                    m[2] = v;
                }
            },
        )
        .map_err(|e| format!("mc_filter sweep: {e}"))
}

pub fn sweep(lad: &Ladder) -> Result<NetlistSweep, String> {
    let mon = MonitorSpec::parse(&monitor_text()).map_err(|e| format!("monitor spec: {e}"))?;
    Ok(
        NetlistSweep::new(lad.circuit.clone(), IntegrationMethod::Trapezoidal)
            .backend(SolverBackend::Sparse)
            .fixed_step(T_END, H)
            .context("mc_filter")
            .lanes(1)
            .monitors(mon),
    )
}

/// Work intervals of one sweep call from its `on_scenario` completion
/// timestamps: a completion group of `lanes` scenarios is one unit of
/// work; with `workers` workers the j-th group (in completion order,
/// after the coordinator's inline group 0) starts when group j − workers
/// ended, and group 0 starts with the call at `t0`.
pub fn work_intervals(
    t0: Instant,
    done: &[(usize, Instant)],
    lanes: usize,
    workers: usize,
) -> Vec<(Instant, Instant)> {
    // First completion per group.
    let mut groups: Vec<(usize, Instant)> = Vec::new();
    for &(idx, t) in done {
        let g = idx / lanes;
        match groups.iter_mut().find(|(gg, _)| *gg == g) {
            Some(e) => e.1 = e.1.min(t),
            None => groups.push((g, t)),
        }
    }
    groups.sort_by_key(|&(g, t)| (g != 0, t));
    (0..groups.len())
        .map(|j| {
            let start = match j {
                0 => t0,
                j if j > workers => groups[j - workers].1,
                _ => groups[0].1,
            };
            (start, groups[j].1)
        })
        .collect()
}

/// Sweep-call layer accounting collected over traced calls.
#[derive(Default)]
pub struct SweepTrace {
    pub scenario_us: Vec<f64>,
    pub unattributed_ms: Vec<f64>,
}

impl SweepTrace {
    /// Runs `call` with a completion recorder attached and records
    /// `sweep.call` → `sweep.scenario` spans.
    pub fn traced(
        &mut self,
        sweep: &NetlistSweep,
        lanes: usize,
        workers: usize,
        spans: &mut Spans,
        key: u64,
        call: impl FnOnce(&NetlistSweep) -> Result<SweepReport, String>,
    ) -> Result<SweepReport, String> {
        let done: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::default();
        let sink = done.clone();
        let progress: ProgressFn = Arc::new(move |idx, _row, _stats, _verdicts| {
            sink.lock()
                .expect("completion log poisoned")
                .push((idx, Instant::now()));
        });
        let traced = sweep.clone().on_scenario(progress);
        let t0 = Instant::now();
        let report = call(&traced)?;
        let t1 = Instant::now();
        let id = spans.record("sweep.call", t0, t1, 0, key);
        let done = done.lock().expect("completion log poisoned");
        // Call wall time minus the summed per-scenario time ÷ workers.
        let mut busy_us = 0.0;
        for (start, end) in work_intervals(t0, &done, lanes, workers) {
            spans.record("sweep.scenario", start, end, id, key);
            let us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
            busy_us += us;
            self.scenario_us
                .extend(std::iter::repeat_n(us / lanes as f64, lanes));
        }
        let wall_us = (t1 - t0).as_secs_f64() * 1e6;
        self.unattributed_ms
            .push((wall_us - busy_us / workers as f64) / 1e3);
        Ok(report)
    }

    pub fn export(&mut self, m: &mut Metrics) {
        use crate::probes::median;
        m.insert(
            "sweep.scenario_us_p50".into(),
            median(&mut self.scenario_us),
        );
        m.insert(
            "sweep.unattributed_ms".into(),
            median(&mut self.unattributed_ms),
        );
    }
}

/// The oracle's view of one scenario: metrics and monitor verdicts
/// (`None` where the scenario lies within a step of a bound).
pub struct Expected {
    pub v_settle: f64,
    pub t_rise: f64,
    pub v_peak: f64,
    pub fast: Option<bool>,
    pub settled: Option<bool>,
}

/// The nominal ladder's output samples `(t, v)`, from the oracle.
pub fn nominal_output() -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    oracle::rc_ladder(
        &[R_NOM; STAGES],
        &[C_NOM; STAGES],
        &|t| SOURCE.at(t),
        (T_END, H),
        |t, v| out.push((t, v[STAGES - 1])),
    );
    out
}

pub fn expected(r: &[f64], c: &[f64]) -> Expected {
    let (mut last, mut t_rise, mut peak) = (0.0, f64::NAN, f64::NEG_INFINITY);
    let (mut t10, mut t90) = (f64::NAN, f64::NAN);
    let mut t_enter = 0.0; // last time the output was outside the band
    oracle::rc_ladder(r, c, &|t| SOURCE.at(t), (T_END, H), |t, v| {
        let y = v[STAGES - 1];
        last = y;
        peak = peak.max(y);
        if t_rise.is_nan() && y >= 0.9 {
            t_rise = t;
        }
        if t10.is_nan() && y >= 0.1 {
            t10 = t;
        }
        if t90.is_nan() && y >= 0.9 {
            t90 = t;
        }
        if !(0.99..=1.01).contains(&y) {
            t_enter = t;
        }
    });
    let rise = t90 - t10;
    let fast = ((rise - RISE_WITHIN).abs() > 2.0 * H).then_some(rise <= RISE_WITHIN);
    let settled = ((t_enter - SETTLE_BY).abs() > 2.0 * H).then_some(t_enter < SETTLE_BY);
    Expected {
        v_settle: last,
        t_rise,
        v_peak: peak,
        fast,
        settled,
    }
}

/// Checks one report against the oracle, scenario by scenario.
/// Returns failed checks and (oracle-decided scenarios, yield mismatches).
pub fn check_report(spec: &SweepSpec, report: &SweepReport, problems: &mut Vec<String>) {
    if report.scenarios.len() != spec.len() {
        problems.push(format!(
            "{} of {} scenarios reported",
            report.scenarios.len(),
            spec.len()
        ));
        return;
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    let (mut yield_report, mut yield_oracle) = (0, 0);
    for row in &report.scenarios {
        let sc = &spec.scenarios()[row.index];
        let (r, c) = values(sc);
        let e = expected(&r, &c);
        let m = &row.metrics;
        let mut bad = Vec::new();
        if !close(m[0], e.v_settle) {
            bad.push(format!("v_settle {} vs {}", m[0], e.v_settle));
        }
        if !(m[1] - e.t_rise).abs().le(&(1.01 * H)) {
            bad.push(format!("t_rise {} vs {}", m[1], e.t_rise));
        }
        if !close(m[2], e.v_peak) {
            bad.push(format!("v_peak {} vs {}", m[2], e.v_peak));
        }
        // Passivity: an RC ladder driven 0→1 V never leaves [0, 1].
        let passive = m[2] <= 1.0 + 1e-12 && row.verdicts.first().is_some_and(Verdict::is_pass);
        if !passive {
            bad.push("passivity envelope failed".into());
        }
        if let (Some(fast), Some(settled)) = (e.fast, e.settled) {
            let got = row.verdicts.iter().skip(1).map(Verdict::is_pass);
            let got: Vec<bool> = got.collect();
            if got != [fast, settled] {
                bad.push(format!("verdicts {got:?} vs oracle [{fast}, {settled}]"));
            }
            yield_report += usize::from(row.monitors_passed());
            yield_oracle += usize::from(fast && settled);
        }
        if !bad.is_empty() {
            problems.push(format!("scenario {}: {}", sc.label(), bad.join("; ")));
        }
    }
    if yield_report != yield_oracle {
        problems.push(format!(
            "monitor yield {yield_report} vs oracle yield {yield_oracle}"
        ));
    }
    let sym = report.totals().solve.symbolic_analyses;
    if sym != 1 {
        problems.push(format!("{sym} symbolic analyses in one sweep call"));
    }
}

pub struct McFilter {
    seed: u64,
    lad: Ladder,
    sweep: NetlistSweep,
    last: Option<(SweepSpec, SweepReport)>,
    passing: (usize, usize),
    trace: SweepTrace,
}

impl McFilter {
    /// Template, monitor spec, lint, and one untimed warm-up sweep.
    pub fn setup(seed: u64) -> Result<McFilter, String> {
        let lad = ladder();
        let sweep = sweep(&lad)?;
        let lint = ams_lint::lint_circuit("mc_filter", &lad.circuit);
        if lint.error_count() > 0 {
            return Err(format!("template fails lint: {}", lint.render()));
        }
        // The warm-up call's stream lies apart from the timed calls'.
        let warm = spec(!seed, 0, BATCH);
        on_one_cpu(|| run(&sweep, &lad, &warm, 1))?;
        Ok(McFilter {
            seed,
            lad,
            sweep,
            last: None,
            passing: (0, 0),
            trace: SweepTrace::default(),
        })
    }
}

impl Workload for McFilter {
    fn op_size(&self) -> u64 {
        BATCH as u64
    }

    fn op(&mut self, index: u64, spans: Option<&mut Spans>) -> Result<(), String> {
        let spec = spec(self.seed, index, BATCH);
        let report = on_one_cpu(|| match spans {
            None => run(&self.sweep, &self.lad, &spec, 1),
            Some(spans) => {
                let lad = &self.lad;
                self.trace
                    .traced(&self.sweep, 1, 1, spans, index, |s| run(s, lad, &spec, 1))
            }
        })?;
        self.last = Some((spec, report));
        Ok(())
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Some((spec, report)) = self.last.take() {
            check_report(&spec, &report, &mut problems);
            self.passing.0 += report.passing_scenarios();
            self.passing.1 += report.scenarios.len();
        }
        problems
    }

    fn finish(&mut self) -> Vec<String> {
        let (pass, total) = self.passing;
        eprintln!("perfbench: mc_filter monitor yield {pass}/{total}");
        Vec::new()
    }

    fn traced_metrics(&mut self, m: &mut Metrics) {
        self.trace.export(m);
    }
}
