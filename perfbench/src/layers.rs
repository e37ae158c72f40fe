//! The traced run's layer suite: fixed-size timings of each layer's
//! public functions, taken from the benchmark's own code, plus the
//! counters the program already exposes. Metrics a workload measured
//! from its own traced batches are kept; the rest come from short
//! traced runs of the workload they belong to, so every traced run
//! reports every per-layer metric with one definition.

use crate::probes::{count_allocs, median, process_cpu_s, time_per_call, Spans};
use crate::{adsl_f1, clamp_lanes, mc_filter, serve_mix, Metrics, Workload};
use ams_lint::{lint_space, ParamRange, SpaceBind, SpaceSpec, SpaceTarget};
use ams_math::{CsrMat, DVec, F64x8, SparseLu, Triplets};
use ams_monitor::{MonitorBank, MonitorSpec};
use ams_net::{Circuit, IntegrationMethod, LaneTransientSolver, SolverBackend, TransientSolver};
use ams_serve::protocol::handle_request;
use ams_serve::{JobSpec, ServeConfig, ServeHandle, TenantConfig};
use ams_sweep::json::{parse, report_to_json, Json};
use std::hint::black_box;
use std::time::Instant;

/// Runs `rounds` traced batches of a workload, checks their outputs, and
/// keeps its per-layer metrics where the suite has none yet.
fn borrow<W: Workload>(w: Result<W, String>, rounds: u64, m: &mut Metrics) -> Result<(), String> {
    let mut w = w?;
    let mut spans = Spans::new(100_000);
    for i in 0..rounds {
        w.op(i, Some(&mut spans))?;
        if let Some(p) = w.check().into_iter().next() {
            return Err(format!("layer-suite batch failed a check: {p}"));
        }
    }
    let mut got = Metrics::new();
    w.traced_metrics(&mut got);
    for (k, v) in got {
        m.entry(k).or_insert(v);
    }
    Ok(())
}

/// Fills every per-layer metric `m` does not hold yet.
pub fn suite(seed: u64, m: &mut Metrics) -> Result<(), String> {
    if !m.contains_key("sweep.scenario_us_p50") {
        borrow(mc_filter::McFilter::setup(seed), 20, m)?;
    }
    if !m.contains_key("net.newton_per_step") {
        borrow(clamp_lanes::ClampLanes::setup(seed), 2, m)?;
    }
    if !m.contains_key("serve.request_us_p50") {
        borrow(serve_mix::ServeMix::setup(seed), 1, m)?;
    }
    if !m.contains_key("core.iteration_ns") {
        borrow(adsl_f1::AdslF1::setup(seed, true), 20, m)?;
    }
    net(m)?;
    math(m)?;
    sweep_cpu(m)?;
    monitor(m)?;
    lint(seed, m)?;
    serve(seed, m)?;
    Ok(())
}

/// Scalar step, allocations per step and scenario set-up on the
/// `mc_filter` template; lane step on the 96-stage clamp line.
fn net(m: &mut Metrics) -> Result<(), String> {
    let lad = mc_filter::ladder();
    let fresh = || -> Result<TransientSolver, String> {
        let mut tr = TransientSolver::new(&lad.circuit, IntegrationMethod::Trapezoidal)
            .map_err(|e| e.to_string())?;
        tr.backend = SolverBackend::Sparse;
        tr.initialize_dc().map_err(|e| e.to_string())?;
        Ok(tr)
    };
    let mut init_us: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            black_box(fresh().expect("template solver"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("net.scenario_init_us".into(), median(&mut init_us));

    let mut tr = fresh()?;
    for _ in 0..1000 {
        tr.step(mc_filter::H).map_err(|e| e.to_string())?;
    }
    let ns = time_per_call(40, 1000, || {
        tr.step(mc_filter::H).expect("steady step");
    });
    m.insert("net.step_ns".into(), ns);
    let ((), allocs) = count_allocs(|| {
        for _ in 0..1000 {
            tr.step(mc_filter::H).expect("steady step");
        }
    });
    m.insert("net.allocs_per_step".into(), allocs as f64 / 1000.0);

    let l = clamp_lanes::line(96);
    let circuits: Vec<Circuit> = (0..8)
        .map(|k| {
            let mut c = l.circuit.clone();
            c.set_resistance(l.rs, clamp_lanes::RS_NOM * (0.9 + 0.025 * k as f64))
                .expect("valid resistance");
            c
        })
        .collect();
    let mut lane = LaneTransientSolver::<8>::new(&circuits, IntegrationMethod::BackwardEuler)
        .map_err(|e| e.to_string())?;
    for _ in 0..20 {
        lane.step(clamp_lanes::H).map_err(|e| e.to_string())?;
    }
    let ns = time_per_call(20, 10, || {
        lane.step(clamp_lanes::H).expect("lane step");
    });
    m.insert("net.lane_step_ns".into(), ns);
    Ok(())
}

/// A tridiagonal matrix the size of the 192-stage clamp line's MNA
/// system: a line's node equations couple each node to its neighbours
/// only.
fn clamp_pattern<T: ams_math::Scalar>(n: usize, val: impl Fn(usize, usize) -> T) -> CsrMat<T> {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, val(i, i));
        if i + 1 < n {
            t.push(i, i + 1, val(i, i + 1));
            t.push(i + 1, i, val(i + 1, i));
        }
    }
    t.build()
}

fn math(m: &mut Metrics) -> Result<(), String> {
    // 192 line nodes, the clamp and source nodes, the source branch.
    let n = 192 + 3;
    let f = |i: usize, j: usize| if i == j { 4.0 + 1e-3 * i as f64 } else { -1.0 };
    let a = clamp_pattern(n, f);
    let mut lu = SparseLu::factor(&a).map_err(|e| e.to_string())?;
    let b = DVec::from(vec![1.0; n]);
    m.insert(
        "math.refactor_us.f64".into(),
        time_per_call(30, 50, || lu.refactor(black_box(&a)).expect("refactor")) / 1e3,
    );
    m.insert(
        "math.solve_us.f64".into(),
        time_per_call(30, 50, || {
            black_box(lu.solve(black_box(&b)).expect("solve"));
        }) / 1e3,
    );
    let a8 = clamp_pattern(n, |i, j| {
        F64x8::from_fn(|l| f(i, j) * (1.0 + 0.01 * l as f64))
    });
    let mut lu8 = SparseLu::factor(&a8).map_err(|e| e.to_string())?;
    let b8 = DVec::from(vec![F64x8::splat(1.0); n]);
    m.insert(
        "math.refactor_us.x8".into(),
        time_per_call(30, 50, || lu8.refactor(black_box(&a8)).expect("refactor")) / 1e3,
    );
    m.insert(
        "math.solve_us.x8".into(),
        time_per_call(30, 50, || {
            black_box(lu8.solve(black_box(&b8)).expect("solve"));
        }) / 1e3,
    );
    // One symbolic analysis per scalar sweep call.
    let lad = mc_filter::ladder();
    let sweep = mc_filter::sweep(&lad)?;
    let report = mc_filter::run(&sweep, &lad, &mc_filter::spec(0, 0, 8), 1)?;
    m.insert(
        "math.symbolic_analyses.sweep".into(),
        report.totals().solve.symbolic_analyses as f64,
    );
    Ok(())
}

/// Process CPU seconds per wall second over one-worker `mc_filter`
/// sweep calls left free to use every CPU (the workload itself confines
/// them to one), for at least half a second: 1 is ideal, and a
/// coordinator that polls its worker without blocking adds up to 1.
fn sweep_cpu(m: &mut Metrics) -> Result<(), String> {
    let lad = mc_filter::ladder();
    let sweep = mc_filter::sweep(&lad)?;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut call = 0;
    while t0.elapsed().as_secs_f64() < 0.5 {
        black_box(mc_filter::run(
            &sweep,
            &lad,
            &mc_filter::spec(0, call, mc_filter::BATCH),
            1,
        )?);
        call += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    m.insert("sweep.cpu_per_wall".into(), (process_cpu_s() - cpu0) / wall);
    Ok(())
}

/// `MonitorBank::feed_all` per sample with the `mc_filter` spec, fed the
/// nominal ladder's output one scenario at a time (a bank reset between
/// scenarios, as each sweep scenario starts a fresh bank).
fn monitor(m: &mut Metrics) -> Result<(), String> {
    let spec = MonitorSpec::parse(&mc_filter::monitor_text()).map_err(|e| e.to_string())?;
    let mut bank = MonitorBank::new(&spec);
    let nominal = mc_filter::nominal_output();
    let ns = time_per_call(40, 5, || {
        for &(t, v) in &nominal {
            bank.feed_all(t, &[v]);
        }
        black_box(bank.finish());
        bank.reset();
    }) / nominal.len() as f64;
    m.insert("monitor.feed_ns".into(), ns);
    Ok(())
}

/// `lint_circuit` and `lint_space` over the templates and the job box.
fn lint(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let lad = mc_filter::ladder();
    let lines: Vec<_> = clamp_lanes::SIZES
        .iter()
        .map(|&n| clamp_lanes::line(n))
        .collect();
    let job = serve_mix::plan(seed, 0, 0, 0).job;
    let built = job.circuit.build().map_err(|e| e.to_string())?;
    let mut circuits = vec![&lad.circuit, &built.circuit];
    circuits.extend(lines.iter().map(|l| &l.circuit));
    let us = time_per_call(30, 5, || {
        for c in &circuits {
            black_box(ams_lint::lint_circuit("perfbench", c));
        }
    }) / 1e3;
    m.insert("lint.circuit_us".into(), us);

    let mut binds = Vec::new();
    for i in 0..mc_filter::STAGES {
        binds.push(SpaceBind {
            param: "dr".into(),
            element: format!("R{i}"),
            target: SpaceTarget::Resistance,
            relative: true,
            nominal: mc_filter::R_NOM,
        });
        binds.push(SpaceBind {
            param: "dc".into(),
            element: format!("C{i}"),
            target: SpaceTarget::Capacitance,
            relative: true,
            nominal: mc_filter::C_NOM,
        });
    }
    let ladder_box = SpaceSpec::new(
        vec![
            ParamRange::new("dr", -0.12, 0.12),
            ParamRange::new("dc", -0.12, 0.12),
        ],
        binds,
    )
    .requested_h(mc_filter::H);
    let job_box = job.space_spec();
    let us = time_per_call(30, 5, || {
        black_box(lint_space("perfbench", &lad.circuit, &ladder_box));
        black_box(lint_space("perfbench", &built.circuit, &job_box));
    }) / 1e3;
    m.insert("lint.space_us".into(), us);
    Ok(())
}

/// Request parsing and in-process `handle_request` per op, the report
/// encoding of a job-sized report, and symbolic analyses of a warm job.
fn serve(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let job = serve_mix::plan(seed, 0, 0, 0).job;
    let handle = ServeHandle::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let admin = handle.admin_token().to_string();
    let tenant = handle
        .register_tenant(&admin, TenantConfig::named("suite"))
        .map_err(|e| e.to_string())?;
    let submit = format!(
        "{{\"op\":\"submit\",\"tenant\":\"{tenant}\",\"job\":{}}}",
        job.to_json().render()
    );
    let parse_us = time_per_call(30, 50, || {
        let v = parse(black_box(&submit)).expect("valid request");
        black_box(JobSpec::from_json(v.get("job").expect("job")).expect("valid job"));
    }) / 1e3;
    m.insert("serve.parse_us".into(), parse_us);

    let (mut sub, mut st, mut po) = (Vec::new(), Vec::new(), Vec::new());
    let mut warm_symbolic = Vec::new();
    for i in 0..120 {
        let t0 = Instant::now();
        let reply = handle_request(&handle, &submit);
        let t1 = Instant::now();
        let v = parse(&reply.line).map_err(|e| e.to_string())?;
        let token = v
            .get("job_token")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("submit refused: {}", reply.line))?
            .to_string();
        let ids = format!("\"tenant\":\"{tenant}\",\"job\":\"{token}\"");
        let status = format!("{{\"op\":\"status\",{ids}}}");
        let poll = format!("{{\"op\":\"poll\",{ids},\"from\":0}}");
        let t2 = Instant::now();
        black_box(handle_request(&handle, &status));
        let t3 = Instant::now();
        black_box(handle_request(&handle, &poll));
        let t4 = Instant::now();
        let report = handle.wait(&tenant, &token).map_err(|e| e.to_string())?;
        if i > 0 {
            sub.push((t1 - t0).as_secs_f64() * 1e6);
            st.push((t3 - t2).as_secs_f64() * 1e6);
            po.push((t4 - t3).as_secs_f64() * 1e6);
            warm_symbolic.push(report.totals().solve.symbolic_analyses as f64);
        }
    }
    m.insert("serve.handle_us.submit".into(), median(&mut sub));
    m.insert("serve.handle_us.status".into(), median(&mut st));
    m.insert("serve.handle_us.poll".into(), median(&mut po));
    m.insert(
        "math.symbolic_analyses.warm_job".into(),
        warm_symbolic.iter().sum::<f64>() / warm_symbolic.len() as f64,
    );
    handle.shutdown();
    handle.join();

    let report = job.direct_run(1).map_err(|e| e.to_string())?;
    let us = time_per_call(30, 20, || {
        black_box(report.fingerprint());
        black_box(report_to_json(&report).render());
    }) / 1e3;
    m.insert("sweep.report_us".into(), us);
    Ok(())
}
