//! `serve_mix`: a closed loop over TCP loopback against an in-process
//! `ams-serve` service (2 worker slots): two client connections, one per
//! tenant, WFQ weights 2:1. Each client runs rounds of 16 small 4-stage
//! ladder jobs (one worker each): one with a fresh nominal value, so it
//! misses the topology cache, and four carrying monitors. Every job is
//! `submit` → `status` → `poll` → `result`.

use crate::oracle::{self, Pulse};
use crate::probes::{median, mix, Spans};
use crate::{Metrics, Workload};
use ams_serve::{ElementKindSpec, JobSpec, ServeConfig, ServeHandle};
use ams_sweep::json::{parse, report_from_json, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

pub const CLIENTS: usize = 2;
pub const ROUND: usize = 16;
/// Scenarios per job.
pub const SCENARIOS: usize = 4;
const WEIGHTS: [u64; CLIENTS] = [2, 1];
const R_NOM: f64 = 1.6e3;
const C_NOM: f64 = 10e-9;
const SETTLE: (f64, f64, f64) = (0.93, 1.07, 4.6e-5);
/// The demo job's input pulse, horizon and step.
const SOURCE: Pulse = Pulse {
    v1: 0.0,
    v2: 1.0,
    delay: 1e-6,
    rise: 1e-7,
    fall: 1e-7,
    width: 40e-6,
};
const T_END: f64 = 50e-6;
const H: f64 = 50e-9;

/// One newline-delimited JSON connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    tenant: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            tenant: String::new(),
        })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if reply.is_empty() {
            return Err("connection closed".into());
        }
        Ok(reply)
    }
}

fn field(reply: &str, key: &str) -> Result<String, String> {
    let v = parse(reply).map_err(|e| format!("reply {reply:?}: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request refused: {}", reply.trim()));
    }
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("reply lacks {key:?}: {}", reply.trim()))
}

/// One job of the mix.
#[derive(Debug, Clone)]
pub struct Plan {
    pub job: JobSpec,
    pub cold: bool,
    pub monitored: bool,
    pub key: u64,
}

/// Job `j` of client `c`; `fresh` numbers the cold topologies.
pub fn plan(seed: u64, c: usize, j: u64, fresh: u64) -> Plan {
    let mut job = JobSpec::demo_rc(SCENARIOS, mix(seed, 10 + c as u64, j));
    job.workers = 1;
    let cold = j % ROUND as u64 == ROUND as u64 - 1;
    let monitored = j % 4 == 1;
    if cold {
        // A nominal value no earlier job used: a new topology fingerprint.
        job.circuit.elements[1].kind = ElementKindSpec::Resistor(R_NOM + 1e-3 * fresh as f64);
    }
    if monitored {
        job.monitors = JobSpec::demo_rc_monitored(SCENARIOS, 0).monitors;
    }
    Plan {
        job,
        cold,
        monitored,
        key: ((c as u64) << 48) | j,
    }
}

/// What one job left behind.
pub struct Done {
    pub plan: Plan,
    pub latency_ms: f64,
    pub request_us: [f64; 3],
    pub result: String,
    /// (name, start, end) of each client request, for spans.
    pub requests: [(&'static str, Instant, Instant); 4],
}

fn run_job(client: &mut Client, plan: Plan) -> Result<Done, String> {
    let submit = format!(
        "{{\"op\":\"submit\",\"tenant\":\"{}\",\"job\":{}}}",
        client.tenant,
        plan.job.to_json().render()
    );
    let t0 = Instant::now();
    let token = field(&client.call(&submit)?, "job_token")?;
    let t1 = Instant::now();
    let ids = format!("\"tenant\":\"{}\",\"job\":\"{token}\"", client.tenant);
    let status = client.call(&format!("{{\"op\":\"status\",{ids}}}"))?;
    field(&status, "state")?;
    let t2 = Instant::now();
    let poll = client.call(&format!("{{\"op\":\"poll\",{ids},\"from\":0}}"))?;
    field(&poll, "state")?;
    let t3 = Instant::now();
    let result = client.call(&format!("{{\"op\":\"result\",{ids}}}"))?;
    let t4 = Instant::now();
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    Ok(Done {
        plan,
        latency_ms: (t4 - t0).as_secs_f64() * 1e3,
        request_us: [us(t0, t1), us(t1, t2), us(t2, t3)],
        result,
        requests: [
            ("client.submit", t0, t1),
            ("client.status", t1, t2),
            ("client.poll", t2, t3),
            ("client.result", t3, t4),
        ],
    })
}

pub struct ServeMix {
    seed: u64,
    handle: ServeHandle,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
    admin: String,
    /// Distinct topologies submitted to this service.
    topologies: u64,
    kept: Vec<Done>,
    result_bytes: Vec<f64>,
    latencies: Vec<f64>,
    traced_latencies: Vec<f64>,
    traced_requests: Vec<f64>,
}

impl ServeMix {
    /// Service and listener start, tenant registration, and the cold
    /// jobs that fill the cache (the warm topology, plain and monitored).
    pub fn setup(seed: u64) -> Result<ServeMix, String> {
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            seed: mix(seed, 3, 0),
            ..ServeConfig::default()
        });
        let admin = handle.admin_token().to_string();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        // The accept loop stops when `Drop` sends an authorized
        // `shutdown`, which also raises this flag; each service gets its
        // own (a few bytes per set-up).
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let server = {
            let handle = handle.clone();
            std::thread::spawn(move || ams_serve::serve(&handle, listener, stop))
        };
        let mut mixer = ServeMix {
            seed,
            handle,
            server: Some(server),
            clients: Vec::new(),
            admin,
            topologies: 1,
            kept: Vec::new(),
            result_bytes: Vec::new(),
            latencies: Vec::new(),
            traced_latencies: Vec::new(),
            traced_requests: Vec::new(),
        };
        for (c, weight) in WEIGHTS.iter().enumerate() {
            let mut client = Client::connect(addr)?;
            let hello = format!(
                "{{\"op\":\"hello\",\"admin\":\"{}\",\"tenant\":{{\"name\":\"t{c}\",\"weight\":{weight}}}}}",
                mixer.admin
            );
            client.tenant = field(&client.call(&hello)?, "tenant_token")?;
            mixer.clients.push(client);
        }
        // The first fills the cache for the warm topology, the second
        // finds it warm; their sweep seeds are apart from the timed jobs'.
        for c in 0..CLIENTS {
            let done = run_job(&mut mixer.clients[c], plan(!seed, c, 0, 0))?;
            field(&done.result, "fingerprint")?;
        }
        Ok(mixer)
    }

    fn stats(&mut self) -> Result<Json, String> {
        let line = format!("{{\"op\":\"stats\",\"admin\":\"{}\"}}", self.admin);
        let reply = self.clients[0].call(&line)?;
        parse(&reply).map_err(|e| format!("stats reply: {e}"))
    }

    fn counter(stats: &Json, name: &str) -> f64 {
        stats
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .map_or(f64::NAN, |v| v as f64)
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        let line = format!("{{\"op\":\"shutdown\",\"admin\":\"{}\"}}", self.admin);
        if let Some(c) = self.clients.first_mut() {
            let _ = c.call(&line);
        }
        // Also drains the service if the request did not get through.
        self.handle.shutdown();
        self.clients.clear();
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// The oracle's (v_settle, v_peak, settle verdict or `None` when within
/// two steps of its bound) for one scenario of a job.
fn expected(r0: f64, dr: f64, dc: f64) -> (f64, f64, Option<bool>) {
    let mut r = vec![R_NOM * (1.0 + dr); 4];
    r[0] = r0 * (1.0 + dr);
    let c = vec![C_NOM * (1.0 + dc); 4];
    let (lo, hi, by) = SETTLE;
    let (mut last, mut peak) = (0.0, f64::NEG_INFINITY);
    let (mut early, mut late, mut edge) = (true, true, f64::INFINITY);
    oracle::rc_ladder(&r, &c, &|t| SOURCE.at(t), (T_END, H), |t, v| {
        let y = v[3];
        last = y;
        peak = peak.max(y);
        let inside = (lo..=hi).contains(&y);
        if t >= by - 2.0 * H {
            early &= inside;
            edge = edge.min((y - lo).abs()).min((y - hi).abs());
        }
        if t >= by + 2.0 * H {
            late &= inside;
        }
    });
    let settled = (early == late && edge > 1e-9).then_some(late);
    (last, peak, settled)
}

fn check_job(d: &Done, problems: &mut Vec<String>) -> Result<(), String> {
    let v = parse(&d.result).map_err(|e| format!("result: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("job failed: {}", d.result.trim()));
    }
    let report = report_from_json(v.get("report").ok_or("result lacks a report")?)
        .map_err(|e| format!("report: {e}"))?;
    let spec = d.plan.job.sweep.to_spec().map_err(|e| e.to_string())?;
    let r0 = match d.plan.job.circuit.elements[1].kind {
        ElementKindSpec::Resistor(r) => r,
        _ => return Err("job element 1 is not R0".into()),
    };
    if report.scenarios.len() != SCENARIOS {
        return Err(format!("{} scenarios reported", report.scenarios.len()));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    for row in &report.scenarios {
        let sc = &spec.scenarios()[row.index];
        let (v_settle, v_peak, settled) = expected(r0, sc.value("dr"), sc.value("dc"));
        let m = &row.metrics;
        if !close(m[0], v_settle) || !close(m[1], v_peak) {
            problems.push(format!(
                "job {:x} scenario {}: ({}, {}) vs oracle ({v_settle}, {v_peak})",
                d.plan.key, row.index, m[0], m[1]
            ));
        }
        if d.plan.monitored {
            let pass: Vec<bool> = row.verdicts.iter().map(|v| v.is_pass()).collect();
            // Passivity: envelope and overshoot hold on every scenario.
            let settle_ok = settled.is_none_or(|s| pass.get(2) == Some(&s));
            if pass.len() != 3 || !pass[0] || !pass[1] || !settle_ok {
                problems.push(format!(
                    "job {:x} scenario {}: verdicts {pass:?}, oracle settle {settled:?}",
                    d.plan.key, row.index
                ));
            }
        }
    }
    let sym = report.totals().solve.symbolic_analyses;
    if !d.plan.cold && sym != 0 {
        problems.push(format!(
            "warm job {:x} did {sym} symbolic analyses",
            d.plan.key
        ));
    }
    if d.plan.cold && sym == 0 {
        problems.push(format!("cold job {:x} found a warm factor", d.plan.key));
    }
    Ok(())
}

impl Workload for ServeMix {
    /// One round: `ROUND` jobs per client.
    fn op_size(&self) -> u64 {
        (ROUND * CLIENTS) as u64
    }

    fn op(&mut self, index: u64, spans: Option<&mut Spans>) -> Result<(), String> {
        let seed = self.seed;
        let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        (0..ROUND as u64)
                            .map(|k| {
                                let j = index * ROUND as u64 + k;
                                // Cold topology numbers: one per round and client.
                                let fresh = 1 + index * CLIENTS as u64 + c as u64;
                                run_job(client, plan(seed, c, j, fresh))
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let mut spans = spans;
        for r in results {
            for d in r? {
                if d.plan.cold {
                    self.topologies += 1;
                }
                if let Some(spans) = spans.as_deref_mut() {
                    let (_, start, _) = d.requests[0];
                    let (_, _, end) = d.requests[3];
                    let job = spans.record("serve.job", start, end, 0, d.plan.key);
                    for (name, a, b) in d.requests {
                        spans.record(name, a, b, job, d.plan.key);
                    }
                    self.traced_latencies.push(d.latency_ms);
                    self.traced_requests.extend(d.request_us);
                } else {
                    self.latencies.push(d.latency_ms);
                }
                self.result_bytes.push(d.result.len() as f64);
                self.kept.push(d);
            }
        }
        Ok(())
    }

    fn op_latencies_ms(&mut self) -> Option<Vec<f64>> {
        Some(self.latencies.clone())
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for d in std::mem::take(&mut self.kept) {
            if let Err(e) = check_job(&d, &mut problems) {
                problems.push(e);
            }
        }
        problems
    }

    fn finish(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        // Each topology is linted and analysed once; warm jobs reuse both.
        match self.stats() {
            Ok(stats) => {
                for name in ["serve.lint.runs", "serve.lu.symbolic_analyses"] {
                    let got = Self::counter(&stats, name);
                    if got != self.topologies as f64 {
                        problems.push(format!(
                            "{name} = {got}, expected one per topology ({})",
                            self.topologies
                        ));
                    }
                }
            }
            Err(e) => problems.push(e),
        }
        problems
    }

    fn traced_metrics(&mut self, m: &mut Metrics) {
        m.insert(
            "serve.request_us_p50".into(),
            median(&mut self.traced_requests),
        );
        // The same job run in-process without the service: the median
        // of `JobSpec::direct_run(1)` on a warm-size job.
        let job = plan(self.seed, 0, 0, 0).job;
        let mut runs: Vec<f64> = (0..30)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(job.direct_run(1).expect("direct run of the demo job"));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let direct = median(&mut runs);
        m.insert("serve.direct_run_ms".into(), direct);
        m.insert(
            "serve.overhead_ms".into(),
            median(&mut self.traced_latencies) - direct,
        );
        m.insert("serve.result_bytes".into(), median(&mut self.result_bytes));
        if let Ok(stats) = self.stats() {
            m.insert(
                "serve.cache_hits".into(),
                Self::counter(&stats, "serve.cache.hits"),
            );
            m.insert(
                "serve.cache_misses".into(),
                Self::counter(&stats, "serve.cache.misses"),
            );
        }
    }
}
