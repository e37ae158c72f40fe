//! `adsl_f1`: the paper's Figure 1 model (as in
//! `examples/adsl_frontend.rs`) run single-threaded over a long
//! simulated horizon, timed in 1 ms simulated segments: the DE AGC
//! process, the multi-rate TDF cluster (tone, driver, embedded MNA line,
//! biquad, Σ∆, CIC, FIR, power estimator) and DE↔TDF converters.

use crate::oracle;
use crate::probes::{mix, Spans};
use crate::{Metrics, Workload};
use ams_blocks::{CicDecimator, FirFilter, LtiFilter, Product, SigmaDelta2, SineSource, TanhAmp};
use ams_core::{
    AcIo, AmsSimulator, ClusterHandle, CoreError, CtModule, NetlistCtSolver, TdfGraph, TdfIn,
    TdfInit, TdfIo, TdfModule, TdfOut, TdfSetup,
};
use ams_kernel::{Signal, SimTime};
use ams_net::{Circuit, IntegrationMethod, Waveform};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const MODULES: [&str; 9] = [
    "tone",
    "tx_gain",
    "hv_driver",
    "line",
    "anti_alias",
    "sd_prefi",
    "cic",
    "chan_fir",
    "dsp_power",
];
const TARGET_POWER: f64 = 0.02;
const SETTLE_MS: u64 = 40;
const SEGMENT_US: u64 = 1000;
const DIGITAL_RATE: f64 = 62_500.0;
/// The timing wrapper times one firing in this many, per module: two
/// clock reads cost about as much as a small module's firing. A prime,
/// so the sample does not lock onto the CIC's ×16 decimation rhythm.
const SAMPLE_EVERY: u64 = 13;
/// Digital output samples kept for the tone check.
const TAIL: usize = 4096;

/// The "DSP algorithm" block: sliding mean-square power estimator.
struct PowerEstimator {
    inp: TdfIn,
    out: TdfOut,
    acc: f64,
    alpha: f64,
}

impl TdfModule for PowerEstimator {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
        cfg.output(self.out);
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let x = io.read1(self.inp);
        self.acc = self.alpha * self.acc + (1.0 - self.alpha) * x * x;
        io.write1(self.out, self.acc);
        Ok(())
    }
    fn reset(&mut self) {
        self.acc = 0.0;
    }
}

/// Firings of one wrapped module, and the busy time of the sampled ones.
#[derive(Default)]
pub struct Clock {
    pub firings: AtomicU64,
    pub sampled: AtomicU64,
    pub ns: AtomicU64,
}

/// Firings `(module index, start, end)` logged while `on` is set.
#[derive(Default)]
pub struct FiringLog {
    pub on: AtomicBool,
    pub spans: Mutex<Vec<(usize, Instant, Instant)>>,
}

/// A benchmark-side wrapper that delegates every `TdfModule` method and
/// times `processing`.
struct Timed<M> {
    inner: M,
    index: usize,
    clock: Arc<Clock>,
    log: Arc<FiringLog>,
}

impl<M: TdfModule> TdfModule for Timed<M> {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        self.inner.setup(cfg);
    }
    fn initialize(&mut self, init: &mut TdfInit<'_>) -> Result<(), CoreError> {
        self.inner.initialize(init)
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        // One writer (the cluster thread), so load + store suffices.
        let c = &self.clock;
        let n = c.firings.load(Ordering::Relaxed);
        c.firings.store(n + 1, Ordering::Relaxed);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.processing(io);
        }
        let t0 = Instant::now();
        let r = self.inner.processing(io);
        let t1 = Instant::now();
        c.sampled
            .store(c.sampled.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let ns = c.ns.load(Ordering::Relaxed) + (t1 - t0).as_nanos() as u64;
        c.ns.store(ns, Ordering::Relaxed);
        // Logged only during a traced segment, which drains the log.
        if self.log.on.load(Ordering::Relaxed) {
            let mut spans = self.log.spans.lock().expect("firing log poisoned");
            spans.push((self.index, t0, t1));
        }
        r
    }
    fn ac_processing(&mut self, ac: &mut AcIo<'_>) {
        self.inner.ac_processing(ac);
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn save_state(&self, out: &mut Vec<f64>) {
        self.inner.save_state(out);
    }
    fn restore_state(&mut self, state: &[f64]) {
        self.inner.restore_state(state);
    }
    fn solver_stats(&self) -> Option<(u64, u64)> {
        self.inner.solver_stats()
    }
    fn solve_stats(&self) -> Option<ams_math::SolveStats> {
        self.inner.solve_stats()
    }
    fn set_tracing(&mut self, enabled: bool) {
        self.inner.set_tracing(enabled);
    }
    fn take_trace_events(&mut self) -> Vec<ams_scope::TraceEvent> {
        self.inner.take_trace_events()
    }
}

/// Adds modules in `MODULES` order, each in a timing wrapper when
/// `wrap` is set.
struct Adder<'a> {
    g: &'a mut TdfGraph,
    wrap: bool,
    clocks: Vec<Arc<Clock>>,
    log: Arc<FiringLog>,
}

impl Adder<'_> {
    fn module<M: TdfModule + 'static>(&mut self, m: M) {
        let index = self.clocks.len();
        let name = MODULES[index];
        let clock = Arc::new(Clock::default());
        self.clocks.push(clock.clone());
        if self.wrap {
            self.g.add_module(
                name,
                Timed {
                    inner: m,
                    index,
                    clock,
                    log: self.log.clone(),
                },
            );
        } else {
            self.g.add_module(name, m);
        }
    }
}

/// A sink that keeps the last `TAIL` samples of its input.
struct Tail {
    inp: TdfIn,
    buf: Arc<Mutex<VecDeque<f64>>>,
}

impl TdfModule for Tail {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let x = io.read1(self.inp);
        let mut buf = self.buf.lock().expect("tail poisoned");
        if buf.len() == TAIL {
            buf.pop_front();
        }
        buf.push_back(x);
        Ok(())
    }
}

/// The subscriber line: driver output through a 50 Ω protection
/// resistor onto a 600 Ω-terminated line with shunt capacitance.
fn subscriber_line() -> Result<(Circuit, ams_net::InputId, ams_net::NodeId), String> {
    let e = |e: ams_net::NetError| e.to_string();
    let mut ckt = Circuit::new();
    let drive = ckt.node("drive");
    let line = ckt.node("line");
    let sub = ckt.node("subscriber");
    let input = ckt.external_input();
    ckt.voltage_source_wave("Vdrv", drive, Circuit::GROUND, Waveform::External(input))
        .map_err(e)?;
    ckt.resistor("Rprot", drive, line, 50.0).map_err(e)?;
    ckt.capacitor("Cline", line, Circuit::GROUND, 20e-9)
        .map_err(e)?;
    ckt.resistor("Rline", line, sub, 130.0).map_err(e)?;
    ckt.resistor("Rsub", sub, Circuit::GROUND, 600.0)
        .map_err(e)?;
    ckt.capacitor("Csub", sub, Circuit::GROUND, 10e-9)
        .map_err(e)?;
    Ok((ckt, input, sub))
}

/// One elaborated F1 model.
pub struct Model {
    pub sim: AmsSimulator,
    pub cluster: ClusterHandle,
    pub power: Signal<f64>,
    /// The last `TAIL` digital output samples.
    pub tail: Arc<Mutex<VecDeque<f64>>>,
    pub clocks: Option<(Vec<Arc<Clock>>, Arc<FiringLog>)>,
    /// AC magnitudes (dB) at `ac_freqs()` from elaboration.
    pub ac_db: Vec<f64>,
}

pub fn ac_freqs() -> Vec<f64> {
    ams_lti::log_space(100.0, 100_000.0, 61).expect("valid frequency grid")
}

/// Builds and elaborates the model, runs the AC analysis and the AGC
/// settling interval. `amplitude` is the tone amplitude; `wrap` wraps
/// every module in a timing wrapper.
pub fn build(amplitude: f64, wrap: bool) -> Result<Model, String> {
    let ce = |e: CoreError| e.to_string();
    let mut sim = AmsSimulator::new();
    let power_de = sim.kernel_mut().signal("power", 0.0f64);
    let gain_de = sim.kernel_mut().signal("tx_gain", 1.0f64);
    sim.kernel_mut().add_process("agc", move |ctx| {
        let p = ctx.read(power_de);
        let g = ctx.read(gain_de);
        let adj = if p > 1e-12 {
            (TARGET_POWER / p).powf(0.1).clamp(0.7, 1.3)
        } else {
            1.2
        };
        ctx.write(gain_de, (g * adj).clamp(0.05, 20.0));
        ctx.next_trigger_in(SimTime::from_us(500));
    });

    let fs = SimTime::from_us(1);
    let mut g = TdfGraph::new("slic");
    let tone = g.signal("tone");
    let gain_ctl = g.from_de("gain_ctl", gain_de);
    let scaled = g.signal("scaled");
    let driven = g.signal("driven");
    let line_out = g.signal("line_out");
    let anti_alias = g.signal("anti_alias");
    let bitstream = g.signal("bitstream");
    let decimated = g.signal("decimated");
    let digital = g.signal("digital");
    let power = g.signal("power");

    let (ckt, line_in, sub_node) = subscriber_line()?;
    let line_solver = NetlistCtSolver::new(
        &ckt,
        IntegrationMethod::Trapezoidal,
        vec![line_in],
        vec![sub_node],
    )
    .map_err(ce)?;
    let log = Arc::new(FiringLog::default());
    let mut add = Adder {
        g: &mut g,
        wrap,
        clocks: Vec::new(),
        log: log.clone(),
    };
    add.module(SineSource::new(tone.writer(), 5_000.0, amplitude, Some(fs)).with_ac_magnitude(1.0));
    add.module(
        Product::new(tone.reader(), gain_ctl.reader(), scaled.writer()).with_ac_gain_from_a(1.0),
    );
    add.module(TanhAmp::new(scaled.reader(), driven.writer(), 4.0, 12.0));
    add.module(CtModule::new(
        "line",
        Box::new(line_solver),
        vec![driven.reader()],
        vec![line_out.writer()],
        None,
    ));
    add.module(
        LtiFilter::biquad_low_pass(
            line_out.reader(),
            anti_alias.writer(),
            20_000.0,
            0.707,
            None,
        )
        .map_err(ce)?,
    );
    add.module(SigmaDelta2::new(anti_alias.reader(), bitstream.writer()));
    add.module(CicDecimator::new(
        bitstream.reader(),
        decimated.writer(),
        16,
        2,
    ));
    add.module(FirFilter::lowpass_design(
        decimated.reader(),
        digital.writer(),
        63,
        0.16,
    ));
    add.module(PowerEstimator {
        inp: digital.reader(),
        out: power.writer(),
        acc: 0.0,
        alpha: 0.995,
    });
    let clocks = std::mem::take(&mut add.clocks);
    // The benchmark keeps the last samples of the digital output in a
    // bounded sink (a probe would grow with the run and with it RSS).
    let tail = Arc::new(Mutex::new(VecDeque::with_capacity(TAIL)));
    g.add_module(
        "tail",
        Tail {
            inp: digital.reader(),
            buf: tail.clone(),
        },
    );
    g.to_de("power_out", power, power_de);
    let cluster = sim.add_cluster(g).map_err(ce)?;
    let ac = cluster.ac_analysis(&ac_freqs()).map_err(ce)?;
    let ac_db = ac.mag_db(anti_alias);
    sim.run_until(SimTime::from_ms(SETTLE_MS)).map_err(ce)?;
    // The clocks count from here: traced segments only.
    for c in &clocks {
        for counter in [&c.firings, &c.sampled, &c.ns] {
            counter.store(0, Ordering::Relaxed);
        }
    }
    Ok(Model {
        sim,
        cluster,
        power: power_de,
        tail,
        clocks: wrap.then_some((clocks, log)),
        ac_db,
    })
}

impl Model {
    /// Advances one simulated segment.
    pub fn segment(&mut self) -> Result<(), String> {
        let until = self.sim.now() + SimTime::from_us(SEGMENT_US);
        self.sim.run_until(until).map_err(|e| e.to_string())
    }

    /// Closed-form AC check and time-domain properties.
    pub fn check(&self, what: &str, problems: &mut Vec<String>) {
        let freqs = ac_freqs();
        for (f, got) in freqs.iter().zip(&self.ac_db) {
            let want = 20.0 * oracle::f1_gain(*f).log10();
            if (got - want).abs() > 0.05 {
                problems.push(format!("{what}: AC {f:.0} Hz: {got:.3} dB vs {want:.3} dB"));
            }
        }
        let passband = 20.0 * (4.0 * 600.0 / 780.0f64).log10();
        if (self.ac_db[0] - passband).abs() > 0.05 {
            problems.push(format!(
                "{what}: passband {:.3} dB vs {passband:.3} dB",
                self.ac_db[0]
            ));
        }
        // −3 dB corner: the closed form's corner must fall in the grid
        // interval where the analysis first drops 3 dB.
        let k = self.ac_db.iter().position(|m| *m < self.ac_db[0] - 3.0);
        let (lo, hi) = (1e3f64, 1e5f64);
        let (mut a, mut b) = (lo, hi);
        let g0 = 20.0 * oracle::f1_gain(freqs[0]).log10();
        for _ in 0..100 {
            let m = (a * b).sqrt();
            if 20.0 * oracle::f1_gain(m).log10() > g0 - 3.0 {
                a = m;
            } else {
                b = m;
            }
        }
        match k {
            Some(k) if k > 0 && freqs[k - 1] <= a && a <= freqs[k] => {}
            _ => problems.push(format!("{what}: -3 dB corner {a:.0} Hz not bracketed")),
        }
        let power = self.sim.kernel().peek(self.power);
        if (power - TARGET_POWER).abs() / TARGET_POWER > 0.25 {
            problems.push(format!(
                "{what}: AGC power {power} vs target {TARGET_POWER}"
            ));
        }
        let values: Vec<f64> = self
            .tail
            .lock()
            .expect("tail poisoned")
            .iter()
            .copied()
            .collect();
        if values.len() < TAIL {
            problems.push(format!("{what}: only {} digital samples", values.len()));
            return;
        }
        let (f, df, sinad) = oracle::tone(&values, DIGITAL_RATE);
        if (f - 5000.0).abs() > df {
            problems.push(format!("{what}: tone at {f:.0} Hz (bin {df:.1} Hz)"));
        }
        if sinad < 35.0 {
            problems.push(format!("{what}: SINAD {sinad:.1} dB below 35 dB"));
        }
    }
}

pub struct AdslF1 {
    plain: Model,
    wrapped: Option<Model>,
    seg_ns: f64,
    iterations: u64,
    sim_ms: u64,
    kernel: (u64, u64),
}

impl AdslF1 {
    /// Elaboration, AC analysis and AGC settling; with `traced`, also a
    /// second model whose modules are all wrapped.
    pub fn setup(seed: u64, traced: bool) -> Result<AdslF1, String> {
        // The seed picks the tone amplitude in [0.4, 0.6] V; the AGC
        // regulates it, so the work per segment does not depend on it.
        let amplitude = 0.4 + 0.2 * (mix(seed, 4, 0) >> 11) as f64 / (1u64 << 53) as f64;
        Ok(AdslF1 {
            plain: build(amplitude, false)?,
            wrapped: if traced {
                Some(build(amplitude, true)?)
            } else {
                None
            },
            seg_ns: 0.0,
            iterations: 0,
            sim_ms: 0,
            kernel: (0, 0),
        })
    }
}

impl Workload for AdslF1 {
    /// One 1 ms simulated segment.
    fn op_size(&self) -> u64 {
        1
    }

    fn op(&mut self, index: u64, spans: Option<&mut Spans>) -> Result<(), String> {
        let Some(spans) = spans else {
            return self.plain.segment();
        };
        let m = self
            .wrapped
            .as_mut()
            .ok_or("traced segment without a wrapped model")?;
        let log = m
            .clocks
            .as_ref()
            .expect("wrapped model has clocks")
            .1
            .clone();
        // Firings are logged as spans until the recorder is full; the
        // clocks keep counting either way.
        log.on.store(!spans.is_full(), Ordering::Relaxed);
        let it0 = m.cluster.iterations();
        let k0 = m.sim.kernel().stats();
        let t0 = Instant::now();
        m.segment()?;
        let t1 = Instant::now();
        log.on.store(false, Ordering::Relaxed);
        let k1 = m.sim.kernel().stats();
        self.seg_ns += (t1 - t0).as_nanos() as f64;
        self.iterations += m.cluster.iterations() - it0;
        self.sim_ms += SEGMENT_US / 1000;
        self.kernel.0 += k1.activations - k0.activations;
        self.kernel.1 += k1.delta_cycles - k0.delta_cycles;
        let seg = spans.record("f1.segment", t0, t1, 0, index);
        let mut fired = log.spans.lock().expect("firing log poisoned");
        for (module, a, b) in fired.drain(..) {
            spans.record(MODULE_SPANS[module], a, b, seg, index);
        }
        Ok(())
    }

    fn check(&mut self) -> Vec<String> {
        Vec::new()
    }

    fn finish(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        self.plain.check("f1", &mut problems);
        if let Some(w) = &self.wrapped {
            w.check("f1 (wrapped)", &mut problems);
        }
        problems
    }

    fn traced_metrics(&mut self, m: &mut Metrics) {
        let Some(w) = &self.wrapped else { return };
        let (clocks, _) = w.clocks.as_ref().expect("wrapped model has clocks");
        let ms = self.sim_ms as f64;
        m.insert(
            "kernel.activations_per_ms".into(),
            self.kernel.0 as f64 / ms,
        );
        m.insert(
            "kernel.delta_cycles_per_ms".into(),
            self.kernel.1 as f64 / ms,
        );
        let it = self.iterations as f64;
        m.insert("core.iteration_ns".into(), self.seg_ns / it);
        // Module time per cluster iteration over the traced segments (the
        // clocks start at zero after settling): the sampled firings' mean
        // time, less the clock's own share, times all firings.
        let floor = crate::probes::timer_floor_ns();
        let mut module_ns = 0.0;
        for (name, c) in MODULES.iter().zip(clocks) {
            let mean =
                c.ns.load(Ordering::Relaxed) as f64 / c.sampled.load(Ordering::Relaxed) as f64;
            let per_firing = (mean - floor).max(0.0);
            m.insert(format!("blocks.{name}_ns"), per_firing);
            module_ns += per_firing * c.firings.load(Ordering::Relaxed) as f64;
        }
        m.insert(
            "core.schedule_self_ns".into(),
            (self.seg_ns - module_ns) / it,
        );
    }
}

const MODULE_SPANS: [&str; 9] = [
    "block.tone",
    "block.tx_gain",
    "block.hv_driver",
    "block.line",
    "block.anti_alias",
    "block.sd_prefi",
    "block.cic",
    "block.chan_fir",
    "block.dsp_power",
];
