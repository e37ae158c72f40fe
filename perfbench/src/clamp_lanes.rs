//! `clamp_lanes`: a lane-bundled (K = 8) Monte-Carlo sweep with one
//! worker over RC lines of 48, 96 and 192 stages behind a series
//! resistor and a Shockley diode clamp, driven hard enough that the
//! clamp conducts for most of the horizon. Backward Euler, fixed 1 µs
//! step: every step is a Newton solve that refactors the whole line.
//! Its sweep calls run on one CPU, as `mc_filter`'s do: two workers and
//! their polling coordinator would be three busy threads on two cores.

use crate::mc_filter::SweepTrace;
use crate::oracle::{self, Pulse};
use crate::probes::{mix, on_one_cpu, Spans};
use crate::{Metrics, Workload};
use ams_net::{Circuit, ElementId, IntegrationMethod, NodeId, ScenarioProbe, SolverBackend};
use ams_sweep::{NetlistSweep, Scenario, SweepReport, SweepSpec};

pub const SIZES: [usize; 3] = [48, 96, 192];
pub const LANES: usize = 8;
pub const WORKERS: usize = 1;
/// Scenarios per sweep call: three lane bundles.
pub const BATCH: usize = 24;
pub const RS_NOM: f64 = 100.0;
pub const R_NOM: f64 = 50.0;
pub const C_NOM: f64 = 0.2e-9;
pub const IS_SAT: f64 = 1e-14;
pub const T_END: f64 = 200e-6;
pub const H: f64 = 1e-6;
/// The far end's half-charge threshold (about half the clamp voltage).
pub const V_HALF: f64 = 0.35;
pub const SOURCE: Pulse = Pulse {
    v1: 0.0,
    v2: 10.0,
    delay: 0.0,
    rise: 2e-6,
    fall: 1e-6,
    width: 1.0,
};
/// `mono_min` is the smallest far-end increment over one step; the
/// last slot carries the previous far-end value between steps.
pub const METRICS: [&str; 5] = [
    "v_clamp_max",
    "v_far_last",
    "t_half",
    "mono_min",
    "v_far_prev",
];

pub struct Line {
    pub n: usize,
    pub circuit: Circuit,
    pub rs: ElementId,
    pub resistors: Vec<ElementId>,
    pub caps: Vec<ElementId>,
    pub clamp: NodeId,
    pub far: NodeId,
}

pub fn line(n: usize) -> Line {
    let mut ckt = Circuit::new();
    let src = ckt.node("in");
    ckt.voltage_source_wave(
        "V",
        src,
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
    let clamp = ckt.node("c");
    let rs = ckt.resistor("Rs", src, clamp, RS_NOM).expect("Rs");
    ckt.diode("D", clamp, Circuit::GROUND, IS_SAT, 1.0)
        .expect("D");
    let mut caps = vec![ckt
        .capacitor("C0", clamp, Circuit::GROUND, C_NOM)
        .expect("C0")];
    let mut resistors = Vec::new();
    let mut prev = clamp;
    for k in 1..=n {
        let node = ckt.node(format!("n{k}"));
        resistors.push(ckt.resistor(format!("R{k}"), prev, node, R_NOM).expect("R"));
        caps.push(
            ckt.capacitor(format!("C{k}"), node, Circuit::GROUND, C_NOM)
                .expect("C"),
        );
        prev = node;
    }
    Line {
        n,
        circuit: ckt,
        rs,
        resistors,
        caps,
        clamp,
        far: prev,
    }
}

/// (Rs, line resistance, capacitance) of one scenario.
pub fn values(sc: &Scenario) -> (f64, f64, f64) {
    (
        RS_NOM * (1.0 + sc.value("ds")),
        R_NOM * (1.0 + sc.value("dr")),
        C_NOM * (1.0 + sc.value("dc")),
    )
}

pub fn spec(seed: u64, call: u64) -> SweepSpec {
    SweepSpec::monte_carlo(
        &[("ds", -0.1, 0.1), ("dr", -0.1, 0.1), ("dc", -0.1, 0.1)],
        BATCH,
        mix(seed, 2, call),
    )
    .expect("valid Monte-Carlo spec")
}

pub fn sweep(l: &Line) -> NetlistSweep {
    NetlistSweep::new(l.circuit.clone(), IntegrationMethod::BackwardEuler)
        .backend(SolverBackend::Sparse)
        .fixed_step(T_END, H)
        .context("clamp_lanes")
        .lanes(LANES)
}

pub fn run(sweep: &NetlistSweep, l: &Line, spec: &SweepSpec) -> Result<SweepReport, String> {
    let (clamp, far) = (l.clamp, l.far);
    on_one_cpu(|| {
        sweep
            .run_lanes(
                spec,
                WORKERS,
                &METRICS,
                |c, sc| {
                    let (rs, r, cap) = values(sc);
                    c.set_resistance(l.rs, rs)?;
                    for id in &l.resistors {
                        c.set_resistance(*id, r)?;
                    }
                    for id in &l.caps {
                        c.set_capacitance(*id, cap)?;
                    }
                    Ok(())
                },
                |tr: &dyn ScenarioProbe, m| {
                    let vc = tr.voltage(clamp);
                    let vf = tr.voltage(far);
                    if m[0].is_nan() || vc > m[0] {
                        m[0] = vc;
                    }
                    m[1] = vf;
                    if m[2].is_nan() && vf >= V_HALF {
                        m[2] = tr.time();
                    }
                    let prev = if m[4].is_nan() { 0.0 } else { m[4] };
                    if m[3].is_nan() || vf - prev < m[3] {
                        m[3] = vf - prev;
                    }
                    m[4] = vf;
                },
            )
            .map_err(|e| format!("clamp_lanes sweep ({} stages): {e}", l.n))
    })
}

/// The oracle's (v_clamp_max, v_far_last, t_half, mono_min).
pub fn expected(n: usize, rs: f64, r: f64, c: f64) -> Option<[f64; 4]> {
    let (mut vc_max, mut last, mut t_half, mut mono) =
        (f64::NEG_INFINITY, 0.0, f64::NAN, f64::INFINITY);
    oracle::clamp_line(
        rs,
        IS_SAT,
        &vec![r; n],
        &vec![c; n + 1],
        &|t| SOURCE.at(t),
        (T_END, H),
        |t, v| {
            vc_max = vc_max.max(v[0]);
            let vf = v[n];
            mono = mono.min(vf - last);
            last = vf;
            if t_half.is_nan() && vf >= V_HALF {
                t_half = t;
            }
        },
    )?;
    Some([vc_max, last, t_half, mono])
}

/// Property checks on every scenario, and the oracle on `sampled`
/// scenario indices.
pub fn check_report(
    l: &Line,
    spec: &SweepSpec,
    report: &SweepReport,
    sampled: &[usize],
    problems: &mut Vec<String>,
) {
    if report.scenarios.len() != spec.len() {
        problems.push(format!(
            "{} stages: {} of {} scenarios reported",
            l.n,
            report.scenarios.len(),
            spec.len()
        ));
        return;
    }
    for row in &report.scenarios {
        let m = &row.metrics;
        let label = || format!("{} stages, scenario {}", l.n, row.index);
        // The clamp holds its node near one junction drop.
        if !(m[0] > 0.6 && m[0] < 0.9) {
            problems.push(format!("{}: clamp node peaked at {} V", label(), m[0]));
        }
        // Charging through passive parts never overshoots the clamp and,
        // under backward Euler, never steps down.
        let monotone = m[3] >= -1e-9 && m[1] <= m[0] + 1e-9;
        if !monotone {
            problems.push(format!(
                "{}: far end not monotone (min step {}, last {})",
                label(),
                m[3],
                m[1]
            ));
        }
    }
    for &i in sampled {
        let row = &report.scenarios[i];
        let (rs, r, c) = values(&spec.scenarios()[i]);
        let Some(e) = expected(l.n, rs, r, c) else {
            problems.push(format!("{} stages: oracle failed to converge", l.n));
            continue;
        };
        let m = &row.metrics;
        let volts_ok = (m[0] - e[0]).abs() < 1e-5 && (m[1] - e[1]).abs() < 1e-5;
        let t_ok = (m[2] - e[2]).abs() <= 1.01 * H || (m[2].is_nan() && e[2].is_nan());
        if !volts_ok || !t_ok {
            problems.push(format!(
                "{} stages, scenario {i}: got {:?}, oracle {:?}",
                l.n,
                &m[..3],
                &e[..3]
            ));
        }
    }
}

pub struct ClampLanes {
    seed: u64,
    lines: Vec<(Line, NetlistSweep)>,
    kept: Vec<(usize, u64, SweepSpec, SweepReport)>,
    trace: SweepTrace,
    newton: (u64, u64, u64),
}

impl ClampLanes {
    /// Templates, lint, and one untimed warm-up sweep per size.
    pub fn setup(seed: u64) -> Result<ClampLanes, String> {
        let mut lines = Vec::new();
        for n in SIZES {
            let l = line(n);
            let lint = ams_lint::lint_circuit("clamp_lanes", &l.circuit);
            if lint.error_count() > 0 {
                return Err(format!("template fails lint: {}", lint.render()));
            }
            let s = sweep(&l);
            // The warm-up call's stream lies apart from the timed calls'.
            run(&s, &l, &spec(!seed, 0))?;
            lines.push((l, s));
        }
        Ok(ClampLanes {
            seed,
            lines,
            kept: Vec::new(),
            trace: SweepTrace::default(),
            newton: (0, 0, 0),
        })
    }
}

impl Workload for ClampLanes {
    /// One round: a sweep call on each line size.
    fn op_size(&self) -> u64 {
        (BATCH * SIZES.len()) as u64
    }

    fn op(&mut self, index: u64, mut spans: Option<&mut Spans>) -> Result<(), String> {
        for (k, (l, s)) in self.lines.iter().enumerate() {
            let call = index * SIZES.len() as u64 + k as u64;
            let spec = spec(self.seed, call);
            let report = match spans.as_deref_mut() {
                None => run(s, l, &spec)?,
                Some(spans) => {
                    let r = self
                        .trace
                        .traced(s, LANES, WORKERS, spans, call, |s| run(s, l, &spec))?;
                    let t = r.totals();
                    self.newton.0 += t.newton_iterations;
                    self.newton.1 += t.factorizations;
                    self.newton.2 += t.iterations;
                    r
                }
            };
            self.kept.push((k, index, spec, report));
        }
        Ok(())
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for (k, round, spec, report) in std::mem::take(&mut self.kept) {
            // Every scenario of the first round, then one per call.
            let sampled: Vec<usize> = if round == 0 {
                (0..BATCH).collect()
            } else {
                vec![(round as usize * 7 + k) % BATCH]
            };
            check_report(&self.lines[k].0, &spec, &report, &sampled, &mut problems);
        }
        problems
    }

    fn traced_metrics(&mut self, m: &mut Metrics) {
        self.trace.export(m);
        let steps = self.newton.2 as f64;
        m.insert("net.newton_per_step".into(), self.newton.0 as f64 / steps);
        m.insert(
            "math.factorizations_per_step".into(),
            self.newton.1 as f64 / steps,
        );
    }
}
