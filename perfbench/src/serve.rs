//! `serve` workload: an in-process daemon (`server::serve` around
//! `Engine::new(EngineConfig::default())`) on loopback, driven by at
//! most nproc connections from this process.
//!
//! * hit phase: requests drawn with a seed-chosen Zipf skew from a
//!   seed-drawn hot set of primed `exact` keys whose platform texts mix
//!   p = 16 (Table 1) and p = 64 (seed-generated) — keys of two lengths.
//!   It runs once as an open loop at a fixed rate, latency timed from
//!   each request's due time, and once as a closed loop for saturation
//!   throughput. Hits never reach the planner: they exercise only the
//!   protocol, the result cache and the transport.
//! * miss phase: a closed loop on one connection sending distinct
//!   `heuristic` requests on Table 1 — almost pure LP.
//!
//! Neither phase runs the DP; every answer is compared with an
//! in-process `Planner::plan` of the same key.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use gs_scatter::paper::table1_platform;
use gs_scatter::planner::{Plan, Planner, Strategy};
use gs_scatter::platform_file::{parse_platform, render_platform};
use gs_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, CacheStatus, Outcome,
    PlanParams, Request, RequestBody, Response,
};
use gs_serve::{server, Client, Engine, EngineConfig, ServerHandle};

use crate::trace::{self, Tracer};
use crate::{counter, median, nproc, peak_rss_mb, quantile, Args, Report, Rng, TABLE1_ITEMS};

/// Hot-set size.
const HOT_KEYS: usize = 32;
/// Open-loop offered rate, requests per second over all connections:
/// well below the closed-loop saturation rate, so the open loop
/// measures latency without a growing backlog.
const OPEN_RATE: f64 = 1000.0;
/// A request slower than this misses the latency limit.
const LIMIT_US: f64 = 1000.0;
/// Set-up rounds (daemon start, priming, warm-up); `setup_s` is their
/// median.
const SETUP_ROUNDS: usize = 3;
/// Miss-phase requests: each is a ~1 s LP solve on Table 1.
const MISSES: usize = 8;
/// Length of the traced closed loop.
const TRACED_HITS_S: f64 = 0.25;

/// One hot key with its pre-built request and expected in-process plan.
struct Key {
    request: Request,
    line: String,
    expected: Plan,
}

fn plan_request(id: String, platform: &str, items: u64, strategy: &str) -> Request {
    Request {
        id,
        body: RequestBody::Plan(PlanParams {
            platform: platform.to_string(),
            items,
            strategy: strategy.to_string(),
        }),
    }
}

/// The in-process answer for a request, planned exactly as the engine
/// would: from the parsed platform text, with a fresh planner.
fn in_process(req: &Request) -> Result<Plan, String> {
    let RequestBody::Plan(p) = &req.body else {
        return Err("not a plan request".into());
    };
    let platform = parse_platform(&p.platform).map_err(|e| e.to_string())?;
    let strategy = match p.strategy.as_str() {
        "exact" => Strategy::Exact,
        "heuristic" => Strategy::Heuristic,
        other => return Err(format!("unexpected strategy {other}")),
    };
    Planner::new(platform)
        .strategy(strategy)
        .plan(p.items as usize)
        .map_err(|e| e.to_string())
}

/// Whether a response carries exactly `expected`, with cache status
/// `cache`.
fn answer_ok(resp: &Response, expected: &Plan, cache: CacheStatus) -> bool {
    let Outcome::Plan(r) = &resp.outcome else {
        return false;
    };
    let same = |a: &[u64], b: &[usize]| {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| x == y as u64)
    };
    r.cache == cache
        && r.makespan.to_bits() == expected.predicted_makespan.to_bits()
        && same(&r.counts, &expected.counts)
        && same(&r.displs, &expected.displs)
        && same(&r.order, &expected.order)
}

/// The hot set, hottest first: `exact` keys on Table 1 (p = 16) and on
/// the seed's 64-processor platform, with seed-drawn item counts.
fn hot_set(seed: u64) -> Result<Vec<Key>, String> {
    let narrow = render_platform(&table1_platform());
    let wide = render_platform(&crate::plan::wide_platform(seed));
    let mut rng = Rng::new(seed, 6);
    let mut keys: Vec<Key> = Vec::with_capacity(HOT_KEYS);
    let mut seen = std::collections::HashSet::new();
    while keys.len() < HOT_KEYS {
        // Every fourth popularity rank is a long (p = 64) key, so long
        // keys carry a fixed ~17% of the traffic whatever the seed: the
        // median request is a short key and the 90th percentile a long
        // one, rather than either sitting between the two.
        let is_wide = keys.len() % 4 == 3;
        // The largest key of each platform is fixed, so the memory the
        // engine's tables and DP planes take does not depend on the seed.
        let (lo, hi) = if is_wide {
            (1_000, 4_000)
        } else {
            (2_000, 20_000)
        };
        let items = if keys.is_empty() || keys.len() == 3 {
            hi
        } else {
            rng.int(lo, hi)
        };
        if !seen.insert((is_wide, items)) {
            continue;
        }
        let text = if is_wide { &wide } else { &narrow };
        let request = plan_request(format!("hot-{}", keys.len()), text, items, "exact");
        let expected = in_process(&request)?;
        keys.push(Key {
            line: encode_request(&request),
            request,
            expected,
        });
    }
    Ok(keys)
}

/// Index sequence of hit requests: Zipf over the hot set with a
/// seed-drawn exponent.
fn skewed_sequence(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 7);
    let s = rng.range(0.9, 1.1);
    let weights: Vec<f64> = (1..=HOT_KEYS).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    (0..len)
        .map(|_| {
            let u = rng.unit();
            cdf.iter().position(|&c| u < c).unwrap_or(HOT_KEYS - 1)
        })
        .collect()
}

/// A running daemon with its primed hot set.
struct Daemon {
    handle: ServerHandle,
    keys: Arc<Vec<Key>>,
}

fn start_daemon(seed: u64, report: &mut Report) -> Option<Daemon> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handle = match server::serve(engine, "127.0.0.1:0") {
        Ok(h) => h,
        Err(e) => {
            report.op(false, || format!("daemon start: {e}"));
            return None;
        }
    };
    let keys = match hot_set(seed) {
        Ok(k) => Arc::new(k),
        Err(e) => {
            report.op(false, || format!("hot set: {e}"));
            return None;
        }
    };
    let mut client = match Client::connect(handle.addr()) {
        Ok(c) => c,
        Err(e) => {
            report.op(false, || format!("connect: {e}"));
            return None;
        }
    };
    // Priming (every key misses once), then a warm-up pass of hits.
    for (status, passes) in [(CacheStatus::Miss, 1), (CacheStatus::Hit, 20)] {
        for _ in 0..passes {
            for key in keys.iter() {
                let ok = client
                    .call(&key.request)
                    .is_ok_and(|r| answer_ok(&r, &key.expected, status));
                report.op(ok, || format!("priming {}: wrong answer", key.request.id));
            }
        }
    }
    Some(Daemon { handle, keys })
}

impl Daemon {
    fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// What one connection thread of a hit phase saw.
#[derive(Default)]
struct Conn {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    done: u64,
    failures: Vec<String>,
    /// Summed wall time of the requests (their root spans).
    busy_s: f64,
}

/// Sends one hit request, as `Client::call` does, in encode / round
/// trip / decode bench spans under a `serve.client` root.
fn hit(client: &mut Client, key: &Key) -> Result<Response, String> {
    trace::wrap("serve.client", || {
        let line = trace::wrap("serve.protocol.encode_request", || {
            encode_request(&key.request)
        });
        let resp = trace::wrap("serve.client.roundtrip", || client.call_line(&line))
            .map_err(|e| e.to_string())?;
        trace::wrap("serve.protocol.decode_response", || decode_response(&resp))
            .map_err(|e| e.message)
    })
}

/// One hit phase: an open loop offering `rate` requests/s over all
/// connections, or a closed loop (`rate` = `None`), over `[start, end)`.
#[derive(Clone, Copy)]
struct Phase {
    start: Instant,
    end: Instant,
    rate: Option<f64>,
}

/// Connection threads that stay connected across hit phases, so every
/// phase runs on the same daemon sessions (and no phase pays for
/// thread or connection churn).
struct LoadGen {
    orders: Vec<mpsc::Sender<Phase>>,
    results: mpsc::Receiver<Conn>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl LoadGen {
    fn connect(daemon: &Daemon, seq: &Arc<Vec<usize>>, conns: usize) -> LoadGen {
        let (done, results) = mpsc::channel();
        let (mut orders, mut threads) = (Vec::new(), Vec::new());
        for c in 0..conns {
            let (order, phases) = mpsc::channel::<Phase>();
            orders.push(order);
            let (keys, seq, addr, done) = (
                Arc::clone(&daemon.keys),
                Arc::clone(seq),
                daemon.handle.addr(),
                done.clone(),
            );
            threads.push(thread::spawn(move || {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
                // Each connection walks its own stretch of the sequence.
                let mut next = c * 7919;
                for phase in phases {
                    let out = match &mut client {
                        Ok(client) => drive(client, &keys, &seq, &mut next, (c, conns), phase),
                        Err(e) => Conn {
                            failures: vec![e.clone()],
                            ..Conn::default()
                        },
                    };
                    if done.send(out).is_err() {
                        return;
                    }
                }
            }));
        }
        LoadGen {
            orders,
            results,
            threads,
        }
    }

    /// Runs one phase of `secs` on every connection.
    fn run(&self, secs: f64, rate: Option<f64>) -> Vec<Conn> {
        let start = Instant::now() + Duration::from_millis(20);
        let phase = Phase {
            start,
            end: start + Duration::from_secs_f64(secs),
            rate,
        };
        for order in &self.orders {
            order.send(phase).expect("connection thread alive");
        }
        let patience = Duration::from_secs_f64(secs + 60.0);
        (0..self.orders.len())
            .map(|_| {
                self.results
                    .recv_timeout(patience)
                    .expect("connection thread answers")
            })
            .collect()
    }

    /// Closes the connections (the daemon's session threads then exit,
    /// flushing their spans) and joins the threads.
    fn close(self) {
        drop(self.orders);
        for t in self.threads {
            t.join().expect("connection thread panicked");
        }
    }
}

/// One connection's share of a phase: connection `c` of `conns`.
fn drive(
    client: &mut Client,
    keys: &[Key],
    seq: &[usize],
    next: &mut usize,
    (c, conns): (usize, usize),
    phase: Phase,
) -> Conn {
    let mut out = Conn::default();
    let interval = phase
        .rate
        .map(|r| Duration::from_secs_f64(conns as f64 / r));
    for i in 0u32.. {
        // Open loop: request i of connection c is due at a fixed time,
        // whatever happened to earlier ones.
        let due = match interval {
            Some(iv) => phase.start + iv * i + iv.mul_f64(c as f64 / conns as f64),
            None => Instant::now().max(phase.start),
        };
        if due >= phase.end {
            break;
        }
        let now = Instant::now();
        if now < due {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        let key = &keys[seq[*next % seq.len()]];
        *next += 1;
        let result = hit(client, key);
        let done = Instant::now();
        out.busy_s += (done - sent).as_secs_f64();
        out.late_us.push((sent - due).as_secs_f64() * 1e6);
        out.done += 1;
        // A failed request misses every latency limit.
        let mut latency = (done - due).as_secs_f64() * 1e6;
        match result {
            Ok(r) if answer_ok(&r, &key.expected, CacheStatus::Hit) => {}
            Ok(_) => {
                latency = f64::INFINITY;
                out.failures
                    .push(format!("{}: wrong or uncached answer", key.request.id))
            }
            Err(e) => {
                latency = f64::INFINITY;
                out.failures.push(format!("{}: {e}", key.request.id))
            }
        }
        out.latency_us.push(latency);
    }
    out
}

fn fold(report: &mut Report, conns: &[Conn]) -> (Vec<f64>, Vec<f64>, u64) {
    let (mut lat, mut late, mut done) = (Vec::new(), Vec::new(), 0);
    for c in conns {
        lat.extend(&c.latency_us);
        late.extend(&c.late_us);
        done += c.done;
        report.attempted += c.done;
        report.failures.extend(c.failures.iter().cloned());
    }
    (lat, late, done)
}

/// Engine counters of the global registry.
fn engine_counters() -> [u64; 5] {
    [
        counter("serve_requests_total"),
        counter("serve_cache_hits_total"),
        counter("serve_computes_total"),
        counter("serve_coalesced_total"),
        counter("serve_shed_total"),
    ]
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let conns = nproc();

    // Set-up, several times: daemon start, hot set and its in-process
    // answers, priming, warm-up. The last daemon stays up.
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut daemon = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let t = Instant::now();
        daemon = start_daemon(args.seed, &mut report);
        setups.push(t.elapsed().as_secs_f64());
        if daemon.is_none() {
            return report;
        }
    }
    let daemon = daemon.expect("set up above");
    crate::reset_peak_rss();
    let seq = Arc::new(skewed_sequence(args.seed, 1 << 16));
    let n = TABLE1_ITEMS as u64;
    let mut rng = Rng::new(args.seed, 8);
    let mut miss_items = std::collections::BTreeSet::new();
    // Item counts close to the paper's n: the LP's cost barely depends
    // on n there, so the miss latency does not depend on the seed.
    while miss_items.len() < MISSES {
        miss_items.insert(rng.int(n - 1_000, n + 1_000));
    }
    let narrow = render_platform(&table1_platform());

    // Phase lengths: the run's seconds split over open loop, closed
    // loop and the (fixed-size) miss phase.
    let open_s = args.seconds * 0.1;
    let closed_s = args.seconds * 0.45;
    let counters0 = engine_counters();

    let misses: Vec<Request> = miss_items
        .iter()
        .enumerate()
        .map(|(i, &n)| plan_request(format!("miss-{i}"), &narrow, n, "heuristic"))
        .collect();
    // The phases run in rounds, one miss each, so every phase samples
    // the whole run rather than one stretch of it.
    let (mut lat, mut late, mut closed_lat, mut closed_done) = (vec![], vec![], vec![], 0);
    let mut miss_ms = Vec::with_capacity(misses.len());
    let mut miss_answers = Vec::with_capacity(misses.len());
    let slice = |phase_s: f64| phase_s / misses.len() as f64;
    let load = LoadGen::connect(&daemon, &seq, conns);
    let mut miss_client = Client::connect(daemon.handle.addr()).map_err(|e| e.to_string());
    for req in &misses {
        let open = load.run(slice(open_s), Some(OPEN_RATE));
        let (l, lt, _) = fold(&mut report, &open);
        lat.extend(l);
        late.extend(lt);
        let closed = load.run(slice(closed_s), None);
        let (l, _, done) = fold(&mut report, &closed);
        closed_lat.extend(l);
        closed_done += done;
        let answer = miss_client.as_mut().map_err(|e| e.clone()).and_then(|c| {
            let (resp, secs) = trace::timed(|| c.call(req));
            miss_ms.push(secs * 1e3);
            resp.map_err(|e| e.message)
        });
        miss_answers.push(answer);
    }
    load.close();
    drop(miss_client);
    crate::log_samples("serve_miss_ms", &miss_ms);
    let counters1 = engine_counters();
    for (req, answer) in misses.iter().zip(&miss_answers) {
        let ok = match (answer, in_process(req)) {
            (Ok(r), Ok(expected)) => answer_ok(r, &expected, CacheStatus::Miss),
            _ => false,
        };
        report.op(ok, || {
            format!("{}: answer differs from the in-process plan", req.id)
        });
    }

    let p99 = quantile(&lat, 0.99);
    let within = lat.iter().filter(|&&l| l <= LIMIT_US).count();
    report.put("serve_hit_p50_us", median(&lat), "us");
    report.put("serve_hit_p90_us", quantile(&lat, 0.9), "us");
    report.put("serve_hit_p99_us", p99, "us");
    report.put("serve_hit_samples", lat.len() as f64, "count");
    report.put(
        "serve_hit_within_limit_ratio",
        within as f64 / lat.len().max(1) as f64,
        "ratio",
    );
    let rps = closed_done as f64 / closed_s;
    report.put("serve_hit_saturated_p50_us", median(&closed_lat), "us");
    report.put(
        "serve_hit_saturated_p90_us",
        quantile(&closed_lat, 0.9),
        "us",
    );
    report.put(
        "serve_hit_saturated_p99_us",
        quantile(&closed_lat, 0.99),
        "us",
    );
    report.put(
        "serve_hit_saturated_samples",
        closed_lat.len() as f64,
        "count",
    );
    report.put("serve_hit_rps", rps, "1/s");
    report.put("serve_miss_p50_ms", median(&miss_ms), "ms");
    report.put("serve_miss_samples", miss_ms.len() as f64, "count");
    report.put("op1_ms", median(&closed_lat) * 1e-3, "ms");
    report.put("op2_ms", quantile(&closed_lat, 0.9) * 1e-3, "ms");
    report.put("op3_ms", 1e3 / rps, "ms");
    report.put("op4_ms", median(&miss_ms), "ms");
    report.put("setup_s", median(&setups), "s");

    if args.trace {
        let d: Vec<f64> = counters1
            .iter()
            .zip(&counters0)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        report.put("serve.engine.hit_ratio", d[1] / d[0].max(1.0), "ratio");
        report.put("serve.engine.computes", d[2], "count");
        report.put("serve.engine.coalesced", d[3], "count");
        report.put("serve.engine.shed", d[4], "count");
        report.put("serve.client.late_us", median(&late), "us");
        report.put(
            "serve.client.late_share",
            median(&late) / median(&lat),
            "ratio",
        );
        replay(&daemon, &mut report);
        traced_phases(
            &daemon,
            &seq,
            conns,
            median(&closed_lat),
            &narrow,
            &mut report,
        );
    }
    daemon.stop();
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    report
}

/// Per-call medians of the protocol and engine functions, replaying
/// the hot lines in process on an engine primed with the same keys,
/// plus the loopback round trip; the transport share is the round trip
/// minus the server-side decode, handle and encode.
fn replay(daemon: &Daemon, report: &mut Report) {
    let engine = Engine::new(EngineConfig::default());
    for key in daemon.keys.iter() {
        engine.handle(key.request.clone());
    }
    let rounds = 200;
    let (mut enc_req, mut dec_req, mut handle, mut enc_resp, mut dec_resp) =
        (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..rounds {
        for key in daemon.keys.iter() {
            let (line, s) = trace::timed(|| encode_request(&key.request));
            enc_req.push(s);
            let (req, s) = trace::timed(|| decode_request(&line));
            dec_req.push(s);
            let Ok(req) = req else {
                report.op(false, || {
                    format!("{}: replay decode failed", key.request.id)
                });
                return;
            };
            let (resp, s) = trace::timed(|| engine.handle(req));
            handle.push(s);
            let (out, s) = trace::timed(|| encode_response(&resp));
            enc_resp.push(s);
            let (back, s) = trace::timed(|| decode_response(&out));
            dec_resp.push(s);
            report.op(
                back.is_ok_and(|r| answer_ok(&r, &key.expected, CacheStatus::Hit)),
                || format!("{}: replayed answer differs", key.request.id),
            );
        }
    }
    let mut roundtrip = Vec::new();
    if let Ok(mut client) = Client::connect(daemon.handle.addr()) {
        for _ in 0..rounds / 4 {
            for key in daemon.keys.iter() {
                let (resp, s) = trace::timed(|| client.call_line(&key.line));
                roundtrip.push(s);
                report.op(resp.is_ok(), || {
                    format!("{}: round trip failed", key.request.id)
                });
            }
        }
    }
    let us = |v: &[f64]| median(v) * 1e6;
    let server = [
        ("serve.protocol.decode_request", us(&dec_req)),
        ("serve.engine.handle_hit", us(&handle)),
        ("serve.protocol.encode_response", us(&enc_resp)),
    ];
    let transport = us(&roundtrip) - server.iter().map(|(_, t)| t).sum::<f64>();
    let client = [
        ("serve.protocol.encode_request", us(&enc_req)),
        ("serve.protocol.decode_response", us(&dec_resp)),
    ];
    // Shares of the whole request as a client sees it: encode, round
    // trip (server decode, handle, encode, and the transport between),
    // decode.
    let whole = us(&roundtrip) + client.iter().map(|(_, t)| t).sum::<f64>();
    for (name, t) in server
        .into_iter()
        .chain(client)
        .chain([("serve.server.transport", transport)])
    {
        report.put(format!("{name}_us"), t, "us");
        report.put(format!("{name}_share"), t / whole, "ratio");
    }
    report.put("serve.client.roundtrip_us", us(&roundtrip), "us");
}

/// A traced closed loop (client-side bench spans, with the engine's
/// `request` spans on the daemon's session threads) and one traced
/// miss, for the self-time split, the span export and the tracing
/// overhead against the untraced closed loop's median. The closed loop
/// is short so that its ~7 spans per request fit the span ring.
fn traced_phases(
    daemon: &Daemon,
    seq: &Arc<Vec<usize>>,
    conns: usize,
    untraced_p50_us: f64,
    narrow: &str,
    report: &mut Report,
) {
    let mut tracer = Tracer::start();
    let load = LoadGen::connect(daemon, seq, conns);
    let closed = load.run(TRACED_HITS_S, None);
    load.close();
    let traced_s: f64 = closed.iter().map(|c| c.busy_s).sum();
    let (lat, _, done) = fold(report, &closed);
    // Session threads flush their spans when their connection closes.
    wait_for_requests(&mut tracer, done);
    let request_s = tracer.total_s.get("request").copied().unwrap_or(0.0);
    let request_n = tracer.count.get("request").copied().unwrap_or(0);
    report.put(
        "serve.engine.request_span_us",
        request_s / request_n.max(1) as f64 * 1e6,
        "us",
    );

    let req = plan_request(
        "miss-traced".into(),
        narrow,
        TABLE1_ITEMS as u64 + 2_001,
        "heuristic",
    );
    let mut miss_s = 0.0;
    if let Ok(mut client) = Client::connect(daemon.handle.addr()) {
        let (answer, secs) = trace::timed(|| client.call(&req));
        miss_s = secs;
        let ok = match (answer, in_process(&req)) {
            (Ok(r), Ok(expected)) => answer_ok(&r, &expected, CacheStatus::Miss),
            _ => false,
        };
        report.op(ok, || {
            "traced miss: answer differs from the in-process plan".into()
        });
    }
    let before = tracer.total_s.get("request").copied().unwrap_or(0.0);
    wait_for_requests(&mut tracer, done + 1);
    let handle_s = tracer.total_s.get("request").copied().unwrap_or(0.0) - before;
    report.put("serve.engine.handle_miss_ms", handle_s * 1e3, "ms");
    report.put(
        "serve.engine.handle_miss_share",
        handle_s / miss_s.max(1e-9),
        "ratio",
    );
    trace::overhead(report, median(&lat) * 1e-6, untraced_p50_us * 1e-6);

    // Self times per traced hit request.
    tracer.finish(
        report,
        "serve",
        traced_s,
        done.max(1) as f64,
        ("_us", 1e6, "us"),
        &[
            (
                "serve.trace.encode_request",
                &["serve.protocol.encode_request"],
            ),
            ("serve.trace.roundtrip", &["serve.client.roundtrip"]),
            (
                "serve.trace.decode_response",
                &["serve.protocol.decode_response"],
            ),
        ],
    );
}

/// Collects spans until the daemon's session threads have flushed
/// `requests` root `request` spans (they flush when their connection
/// closes), or two seconds pass.
fn wait_for_requests(tracer: &mut Tracer, requests: u64) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        tracer.collect();
        if tracer.count.get("request").copied().unwrap_or(0) >= requests
            || Instant::now() > deadline
        {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
}
