//! The transport-free request handler: one [`Engine`] owns the caches,
//! the coalescing table, and the admission budget, and turns decoded
//! [`Request`]s into [`Response`]s. The TCP [`server`](crate::server)
//! is a thin loop around [`Engine::handle`]; in-process tests and the
//! `serve_load` bench call it directly.
//!
//! ## Request lifecycle (plan/simulate)
//!
//! ```text
//! request ──► result cache ──hit──────────────────────────► "hit"
//!                │ miss
//!                ▼
//!            in-flight table ──someone is computing it──► wait ──► "coalesced"
//!                │ nobody is
//!                ▼
//!            admission (in-flight computes < max_inflight)?
//!                │ no ──► error {code: "overloaded"}        (shed)
//!                ▼ yes
//!            compute (shared CostTable + sharded PlanCache) ──► "miss"
//! ```
//!
//! Every cached or coalesced answer is a clone of the leader's, so all
//! concurrent identical requests observe **bit-identical plans**.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use gs_scatter::cost_table::CostTable;
use gs_scatter::metrics::Registry;
use gs_scatter::obs::json::trace_from_json;
use gs_scatter::obs::span;
use gs_scatter::planner::{Plan, PlanCache, Planner, Strategy};
use gs_scatter::platform_file::parse_platform;
use gs_scatter::prelude::Calibration;

use crate::protocol::{
    CacheStatus, ErrorCode, Outcome, PlanParams, PlanResult, Request, RequestBody, Response,
    SimResult,
};

/// Tuning knobs for an [`Engine`]. `Default` is sized for tests and
/// small deployments; `gs serve` exposes each as a flag.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads per exact solve (passed to
    /// [`Planner::threads`]; `1` keeps each request on its own
    /// connection thread, which is the right default when many requests
    /// run concurrently).
    pub planner_threads: usize,
    /// Shards for the result cache and the underlying [`PlanCache`].
    pub cache_shards: usize,
    /// Admission budget: maximum planning computations in flight before
    /// further cache-missing requests are shed with `overloaded`.
    pub max_inflight: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { planner_threads: 1, cache_shards: 16, max_inflight: 64 }
    }
}

/// A finished computation, shared between the leader, coalesced
/// waiters, and the result cache.
#[derive(Debug)]
enum Computed {
    Plan { makespan: f64, counts: Vec<u64>, displs: Vec<u64>, order: Vec<u64> },
    Sim { predicted: f64, simulated: f64 },
}

/// One in-flight computation; waiters block on the condvar until the
/// leader publishes the outcome.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<Option<Result<Arc<Computed>, String>>>,
    cv: Condvar,
}

/// One shard of the finished-answer cache: key hash → computed result.
type ResultShard = RwLock<HashMap<u64, Arc<Computed>>>;

/// The daemon's brain: caches, coalescing, admission, instrumentation.
/// Cheap to share behind an [`Arc`]; every method takes `&self`.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    /// Cost tabulations shared by every request (keyed by cost-function
    /// identity, so distinct platforms coexist).
    cost_table: Arc<CostTable>,
    /// DP planes shared by every exact solve, sharded by root signature.
    plan_cache: Arc<PlanCache>,
    /// Finished answers keyed by `(op, platform, items, strategy)`
    /// hash, sharded to keep unrelated requests off each other's locks.
    results: Box<[ResultShard]>,
    /// Key → in-flight computation, for request coalescing.
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
}

impl Engine {
    /// Builds an engine (and registers its `serve_*` metrics).
    pub fn new(cfg: EngineConfig) -> Engine {
        let shards = cfg.cache_shards.max(1);
        Engine {
            cost_table: Arc::new(CostTable::new()),
            plan_cache: Arc::new(PlanCache::with_shards(shards)),
            results: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            inflight: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    /// The shared plan cache (exposed so operators can report
    /// [`PlanCache::hits`]/[`PlanCache::misses`] out of band).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// Handles one decoded request, start to finish. Never panics on
    /// user input: every failure becomes an [`Outcome::Error`].
    ///
    /// When span tracing is enabled ([`span::set_enabled`]) the request
    /// runs under a root `request` span carrying the request id and
    /// operation, with one child per stage — `request.decode`,
    /// `request.cache`, `request.wait`, `request.shed`,
    /// `request.compute`, `request.encode` — so a Chrome trace shows
    /// exactly where each request spent its time.
    pub fn handle(&self, req: Request) -> Response {
        let reg = Registry::global();
        reg.counter("serve_requests_total", "requests handled by the serve engine").inc();
        let t0 = std::time::Instant::now();
        let Request { id, body } = req;
        let op_label = op_label(&body);
        let mut root = span::span("serve", "request");
        root.attr("request_id", &id);
        root.attr("op", op_label);
        let outcome = match body {
            RequestBody::Ping => Outcome::Pong,
            RequestBody::Metrics => {
                Outcome::Metrics { prometheus: reg.snapshot().to_prometheus() }
            }
            RequestBody::Shutdown => Outcome::ShuttingDown,
            RequestBody::Plan(p) => self.planned(Op::Plan, &p, root.id()),
            RequestBody::Simulate(p) => self.planned(Op::Simulate, &p, root.id()),
            RequestBody::Calibrate { traces } => self.calibrate(&traces),
        };
        let shed = matches!(&outcome, Outcome::Error { code: ErrorCode::Overloaded, .. });
        if matches!(outcome, Outcome::Error { .. }) {
            reg.counter("serve_errors_total", "requests answered with an error").inc();
        }
        let encode_span = span::span_with_parent("serve", "request.encode", root.id());
        let response = Response { id, outcome };
        drop(encode_span);
        // Shed requests get their own latency label: their sub-millisecond
        // rejections would otherwise drag the op's percentiles down
        // exactly when the operator most needs honest numbers.
        let latency_op = if shed { "shed" } else { op_label };
        reg.histogram_with(
            "serve_latency_seconds",
            "end-to-end request handling latency by operation",
            &[("op", latency_op)],
        )
        .observe_with_exemplar(t0.elapsed().as_secs_f64(), &response.id);
        response
    }

    /// The `plan`/`simulate` path: cache → coalesce → admit → compute.
    /// `parent` is the root request span (stage spans attach to it
    /// directly, so every stage is a first-level child in the trace).
    fn planned(&self, op: Op, params: &PlanParams, parent: u64) -> Outcome {
        let reg = Registry::global();
        let key = cache_key(op, params);
        let shard = &self.results[(key % self.results.len() as u64) as usize];
        let mut cache_span = span::span_with_parent("serve", "request.cache", parent);
        if let Some(hit) = shard.read().expect("results lock").get(&key) {
            reg.counter("serve_cache_hits_total", "requests answered from the result cache")
                .inc();
            cache_span.attr("outcome", "hit");
            return outcome_of(op, hit, CacheStatus::Hit);
        }
        cache_span.attr("outcome", "miss");
        drop(cache_span);

        // Miss: coalesce onto an identical in-flight computation, or
        // become the leader (if admitted).
        let flight = {
            let mut inflight = self.inflight.lock().expect("inflight lock");
            if let Some(existing) = inflight.get(&key) {
                let flight = Arc::clone(existing);
                drop(inflight);
                reg.counter(
                    "serve_coalesced_total",
                    "requests folded into an identical in-flight computation",
                )
                .inc();
                let _wait_span = span::span_with_parent("serve", "request.wait", parent);
                let mut done = flight.done.lock().expect("flight lock");
                while done.is_none() {
                    done = flight.cv.wait(done).expect("flight lock");
                }
                return match done.as_ref().expect("just checked") {
                    Ok(computed) => outcome_of(op, computed, CacheStatus::Coalesced),
                    Err(message) => plan_failed(message.clone()),
                };
            }
            if inflight.len() >= self.cfg.max_inflight {
                reg.counter("serve_shed_total", "requests shed by admission control").inc();
                let mut shed_span = span::span_with_parent("serve", "request.shed", parent);
                shed_span.attr("inflight", inflight.len());
                shed_span.attr("limit", self.cfg.max_inflight);
                return Outcome::Error {
                    code: ErrorCode::Overloaded,
                    message: format!(
                        "{} planning requests in flight (limit {}); retry later",
                        inflight.len(),
                        self.cfg.max_inflight
                    ),
                };
            }
            let flight = Arc::new(Flight::default());
            inflight.insert(key, Arc::clone(&flight));
            flight
        };

        // Leader: compute outside every lock, publish, wake waiters.
        reg.counter("serve_computes_total", "planning computations actually run").inc();
        let result = self.compute(op, params, parent);
        if let Ok(computed) = &result {
            shard.write().expect("results lock").insert(key, Arc::clone(computed));
        }
        self.inflight.lock().expect("inflight lock").remove(&key);
        *flight.done.lock().expect("flight lock") = Some(result.clone());
        flight.cv.notify_all();
        match result {
            Ok(computed) => outcome_of(op, &computed, CacheStatus::Miss),
            Err(message) => plan_failed(message),
        }
    }

    /// Runs the actual library calls for a cache-missing `plan` or
    /// `simulate` request.
    fn compute(&self, op: Op, params: &PlanParams, parent: u64) -> Result<Arc<Computed>, String> {
        let decode_span = span::span_with_parent("serve", "request.decode", parent);
        let platform = parse_platform(&params.platform).map_err(|e| e.to_string())?;
        if params.items == 0 {
            return Err("items must be positive".into());
        }
        let items =
            usize::try_from(params.items).map_err(|_| "items exceeds this build's usize".to_string())?;
        let strategy = parse_strategy(&params.strategy)?;
        drop(decode_span);
        let mut compute_span = span::span_with_parent("serve", "request.compute", parent);
        compute_span.attr("items", items);
        let plan = Planner::new(platform.clone())
            .strategy(strategy)
            .threads(self.cfg.planner_threads)
            .cache(Arc::clone(&self.cost_table))
            .plan_cache(Arc::clone(&self.plan_cache))
            .plan(items)
            .map_err(|e| e.to_string())?;
        Ok(Arc::new(match op {
            Op::Plan => plan_fields(&plan),
            Op::Simulate => {
                let sim = gs_gridsim::sim::simulate_plan(&platform, &plan, &[]);
                Computed::Sim { predicted: plan.predicted_makespan, simulated: sim.makespan }
            }
        }))
    }

    /// The `calibrate` path: parse traces, least-squares-fit a
    /// platform. Not cached or coalesced — trace payloads rarely
    /// repeat, and the fit is linear in the trace sizes, far cheaper
    /// than an exact solve.
    fn calibrate(&self, trace_texts: &[String]) -> Outcome {
        if trace_texts.is_empty() {
            return Outcome::Error {
                code: ErrorCode::BadRequest,
                message: "calibrate needs at least one trace".into(),
            };
        }
        let mut traces = Vec::with_capacity(trace_texts.len());
        for (i, text) in trace_texts.iter().enumerate() {
            match trace_from_json(text) {
                Ok(t) => traces.push(t),
                Err(e) => return plan_failed(format!("trace {}: {e}", i + 1)),
            }
        }
        let cal = match Calibration::from_traces(&traces) {
            Ok(c) => c,
            Err(e) => return plan_failed(e.to_string()),
        };
        let platform = match cal.platform() {
            Ok(p) => p,
            Err(e) => return plan_failed(e.to_string()),
        };
        let mut text = cal.render_notes();
        text.push_str(&gs_scatter::platform_file::render_platform(&platform));
        Outcome::Calibrate { platform: text }
    }
}

/// Which cached answer shape a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Plan,
    Simulate,
}

/// The `op` label a request contributes to `serve_latency_seconds` (and
/// to its root span).
fn op_label(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Ping => "ping",
        RequestBody::Metrics => "metrics",
        RequestBody::Shutdown => "shutdown",
        RequestBody::Plan(_) => "plan",
        RequestBody::Simulate(_) => "simulate",
        RequestBody::Calibrate { .. } => "calibrate",
    }
}

fn cache_key(op: Op, params: &PlanParams) -> u64 {
    let mut h = DefaultHasher::new();
    (op, &params.platform, params.items, &params.strategy).hash(&mut h);
    h.finish()
}

fn plan_fields(plan: &Plan) -> Computed {
    let to_u64 = |v: &[usize]| v.iter().map(|&x| x as u64).collect();
    Computed::Plan {
        makespan: plan.predicted_makespan,
        counts: to_u64(&plan.counts),
        displs: to_u64(&plan.displs),
        order: to_u64(&plan.order),
    }
}

fn outcome_of(op: Op, computed: &Computed, cache: CacheStatus) -> Outcome {
    match (op, computed) {
        (Op::Plan, Computed::Plan { makespan, counts, displs, order }) => {
            Outcome::Plan(PlanResult {
                makespan: *makespan,
                counts: counts.clone(),
                displs: displs.clone(),
                order: order.clone(),
                cache,
            })
        }
        (Op::Simulate, Computed::Sim { predicted, simulated }) => Outcome::Simulate(SimResult {
            predicted_makespan: *predicted,
            simulated_makespan: *simulated,
            cache,
        }),
        // Keys embed the op, so a mismatch is unreachable; answer it
        // defensively instead of panicking a serving thread.
        _ => plan_failed("internal cache shape mismatch".into()),
    }
}

fn plan_failed(message: String) -> Outcome {
    Outcome::Error { code: ErrorCode::PlanFailed, message }
}

fn parse_strategy(s: &str) -> Result<Strategy, String> {
    Ok(match s {
        "uniform" => Strategy::Uniform,
        "exact-basic" => Strategy::ExactBasic,
        "exact" => Strategy::Exact,
        "exact-dc" => Strategy::ExactDc,
        "heuristic" => Strategy::Heuristic,
        "closed-form" => Strategy::ClosedForm,
        other => {
            return Err(format!(
                "unknown strategy `{other}` \
                 (try uniform|exact|exact-basic|exact-dc|heuristic|closed-form)"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes this module's tests: `serve_computes_total` is a
    /// process-wide counter, so a plan computed by one test would show
    /// up in another test's before/after delta.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    const PLATFORM: &str = "proc root beta=0 alpha=0.009\n\
                            proc fast beta=1e-5 alpha=0.004\n\
                            proc slow beta=2e-5 alpha=0.016\n";

    fn plan_request(id: &str, items: u64, strategy: &str) -> Request {
        Request {
            id: id.into(),
            body: RequestBody::Plan(PlanParams {
                platform: PLATFORM.into(),
                items,
                strategy: strategy.into(),
            }),
        }
    }

    fn plan_result(resp: Response) -> PlanResult {
        match resp.outcome {
            Outcome::Plan(p) => p,
            other => panic!("expected a plan, got {other:?}"),
        }
    }

    #[test]
    fn plan_matches_direct_library_call() {
        let _serial = serial();
        let engine = Engine::new(EngineConfig::default());
        let wire = plan_result(engine.handle(plan_request("1", 5000, "exact")));
        let direct = Planner::new(parse_platform(PLATFORM).unwrap())
            .strategy(Strategy::Exact)
            .plan(5000)
            .unwrap();
        assert_eq!(wire.makespan.to_bits(), direct.predicted_makespan.to_bits());
        assert_eq!(wire.counts, direct.counts.iter().map(|&c| c as u64).collect::<Vec<_>>());
        assert_eq!(wire.displs, direct.displs.iter().map(|&d| d as u64).collect::<Vec<_>>());
        assert_eq!(wire.cache, CacheStatus::Miss);
    }

    #[test]
    fn repeat_requests_hit_the_result_cache() {
        let _serial = serial();
        let engine = Engine::new(EngineConfig::default());
        let first = plan_result(engine.handle(plan_request("1", 3000, "exact-dc")));
        let second = plan_result(engine.handle(plan_request("2", 3000, "exact-dc")));
        assert_eq!(first.cache, CacheStatus::Miss);
        assert_eq!(second.cache, CacheStatus::Hit);
        assert_eq!(first.counts, second.counts);
        assert_eq!(first.makespan.to_bits(), second.makespan.to_bits());
    }

    #[test]
    fn different_params_do_not_collide() {
        let _serial = serial();
        let engine = Engine::new(EngineConfig::default());
        let a = plan_result(engine.handle(plan_request("1", 3000, "exact")));
        let b = plan_result(engine.handle(plan_request("2", 3001, "exact")));
        assert_eq!(b.cache, CacheStatus::Miss);
        assert_eq!(a.counts.iter().sum::<u64>(), 3000);
        assert_eq!(b.counts.iter().sum::<u64>(), 3001);
    }

    #[test]
    fn simulate_and_plan_are_cached_separately() {
        let _serial = serial();
        let engine = Engine::new(EngineConfig::default());
        plan_result(engine.handle(plan_request("1", 2000, "exact")));
        let sim = engine.handle(Request {
            id: "2".into(),
            body: RequestBody::Simulate(PlanParams {
                platform: PLATFORM.into(),
                items: 2000,
                strategy: "exact".into(),
            }),
        });
        match sim.outcome {
            Outcome::Simulate(s) => {
                assert_eq!(s.cache, CacheStatus::Miss, "separate key space from plan");
                assert!(s.simulated_makespan > 0.0);
                assert!((s.simulated_makespan - s.predicted_makespan).abs() < 1e-9,
                    "ideal DES agrees with Eq. (1) prediction");
            }
            other => panic!("expected simulate outcome, got {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let _serial = serial();
        let engine = Engine::new(EngineConfig::default());
        for (req, want_code) in [
            (plan_request("1", 0, "exact"), ErrorCode::PlanFailed),
            (plan_request("2", 100, "quantum"), ErrorCode::PlanFailed),
            (
                Request {
                    id: "3".into(),
                    body: RequestBody::Plan(PlanParams {
                        platform: "bogus".into(),
                        items: 10,
                        strategy: "exact".into(),
                    }),
                },
                ErrorCode::PlanFailed,
            ),
            (
                Request { id: "4".into(), body: RequestBody::Calibrate { traces: vec![] } },
                ErrorCode::BadRequest,
            ),
        ] {
            match engine.handle(req).outcome {
                Outcome::Error { code, .. } => assert_eq!(code, want_code),
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn ping_metrics_and_shutdown_respond() {
        let _serial = serial();
        let engine = Engine::new(EngineConfig::default());
        assert_eq!(
            engine.handle(Request { id: "1".into(), body: RequestBody::Ping }).outcome,
            Outcome::Pong
        );
        match engine.handle(Request { id: "2".into(), body: RequestBody::Metrics }).outcome {
            Outcome::Metrics { prometheus } => {
                assert!(prometheus.contains("serve_requests_total"), "{prometheus}");
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        assert_eq!(
            engine.handle(Request { id: "3".into(), body: RequestBody::Shutdown }).outcome,
            Outcome::ShuttingDown
        );
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let _serial = serial();
        let reg = Registry::global();
        let computes = reg.counter("serve_computes_total", "planning computations actually run");
        let before = computes.get();
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let results: Vec<PlanResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let engine = Arc::clone(&engine);
                    s.spawn(move || {
                        plan_result(engine.handle(plan_request(&format!("t{i}"), 60_000, "exact")))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.get() - before, 1, "the herd computes exactly one plan");
        let leader = &results[0];
        for r in &results[1..] {
            assert_eq!(r.counts, leader.counts);
            assert_eq!(r.makespan.to_bits(), leader.makespan.to_bits());
        }
        assert_eq!(
            results.iter().filter(|r| r.cache == CacheStatus::Miss).count(),
            1,
            "exactly one leader"
        );
    }

    #[test]
    fn admission_control_sheds_excess_load() {
        let _serial = serial();
        // A budget of zero sheds every cache-missing request, which is
        // the deterministic way to exercise the overload path.
        let engine =
            Engine::new(EngineConfig { max_inflight: 0, ..EngineConfig::default() });
        match engine.handle(plan_request("1", 1000, "exact")).outcome {
            Outcome::Error { code, message } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert!(message.contains("retry"), "{message}");
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        // Pings are never shed: admission only bounds planning work.
        assert_eq!(
            engine.handle(Request { id: "2".into(), body: RequestBody::Ping }).outcome,
            Outcome::Pong
        );
    }
}
