//! The per-layer budget: replays a sample of a workload's requests
//! through the nested public entry points on the same snapshot, and turns
//! the traced run's counters into per-layer metrics.
//!
//! The replay times, for each sampled request and in this order,
//!
//! ```text
//! socket     Client::query                         (loopback round trip)
//! serve      QueryService::submit → wait           (parent: socket)
//! exec       CatalogSnapshot::execute_batch        (parent: serve)
//! bind       CatalogSnapshot::executor             (parent: exec)
//! probe      KvMatcher::window_candidate_sets      (parent: exec)
//! match      KvMatcher::execute                    (parent: exec)
//! ```
//!
//! and a layer's self time is its span minus its child's. The probe and
//! verification split reported for the matcher is the one the replayed
//! `execute_batch` measured itself (`BatchOutput::stats`), on the served
//! executor's threads; the sequential `KvMatcher` replay is an answer
//! check and a span, not a reported time.

use std::collections::HashMap;
use std::time::Instant;

use kvmatch_client::Client;
use kvmatch_core::catalog::CatalogBackend;
use kvmatch_core::KvMatcher;
use kvmatch_proto::{decode_request, decode_response, Request, Response};
use kvmatch_serve::{MetricsSnapshot, QueryRequest, QueryService};
use kvmatch_server::NetSnapshot;

use crate::common::{diff, mean, median, ratio, same, Req, Spans, Tally};
use crate::Metrics;

/// Per-request replay timings, µs, aligned with the sample.
#[derive(Default)]
pub struct Replay {
    pub sample: Vec<usize>,
    pub socket_us: Vec<f64>,
    pub serve_us: Vec<f64>,
    pub exec_us: Vec<f64>,
    pub bind_us: Vec<f64>,
    /// Probe and verification wall time inside the replayed
    /// `execute_batch`, as its own statistics report them.
    pub probe_us: Vec<f64>,
    pub verify_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub query_bytes: Vec<f64>,
}

/// Replays `sample` (pool indices) one request at a time on an idle
/// server. Every answer on the way is checked against the pool's.
pub fn replay<B>(
    client: &Client,
    service: &QueryService<B>,
    pool: &[Req],
    sample: &[usize],
    spans: &mut Spans,
    tally: &mut Tally,
) -> Replay
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    let mut r = Replay { sample: sample.to_vec(), ..Replay::default() };
    for (k, &idx) in sample.iter().enumerate() {
        let req = &pool[idx];
        let spec = &req.spec;
        let id = 1 + k as u64;

        let (reply, socket, socket_us) =
            spans.time("socket", id, None, || client.query(spec.clone(), None));
        let answered = reply.as_ref().ok().cloned();
        tally.query(pool, idx, reply, socket_us, 0.0);

        let (served, serve, serve_us) = spans.time("serve", id, socket, || {
            service
                .submit(QueryRequest { spec: spec.clone(), deadline: None })
                .into_result()
                .map_err(|r| r.rejected.to_string())
                .and_then(|h| h.wait().map_err(|e| e.to_string()))
        });
        check(tally, "serve", idx, served.map(|s| s.results), req);

        let Some(snapshot) = service.read_view(spec.series) else {
            tally.fail(format!("pool #{idx}: no read view"));
            continue;
        };
        let (out, exec, exec_us) =
            spans.time("exec", id, serve, || snapshot.execute_batch(std::slice::from_ref(spec)));
        let (probe_us, verify_us) = match &out {
            Ok(o) => (o.stats.probe_nanos as f64 / 1e3, o.stats.verify_nanos as f64 / 1e3),
            Err(_) => (0.0, 0.0),
        };
        check(
            tally,
            "exec",
            idx,
            out.map(|o| o.outputs[0].results.clone()).map_err(|e| e.to_string()),
            req,
        );

        let (bound, _, bind_us) = spans.time("bind", id, exec, || snapshot.executor().map(drop));
        if let Err(e) = bound {
            tally.fail(format!("pool #{idx}: bind: {e}"));
        }
        let generation = snapshot.generation(spec.series).expect("snapshot holds the series");
        let matcher = KvMatcher::new(generation.index(), generation.data())
            .expect("generation is consistent")
            .with_row_cache(generation.cache());
        let _ = spans.time("probe", id, exec, || matcher.window_candidate_sets(spec));
        let (executed, _, _) = spans.time("match", id, exec, || matcher.execute(spec));
        check(tally, "match", idx, executed.map(|(res, _)| res).map_err(|e| e.to_string()), req);

        r.socket_us.push(socket_us);
        r.serve_us.push(serve_us);
        r.exec_us.push(exec_us);
        r.bind_us.push(bind_us);
        r.probe_us.push(probe_us);
        r.verify_us.push(verify_us);

        if let Some(reply) = answered {
            let (enc, dec, bytes) = proto_costs(
                Request::Query { spec: spec.clone(), deadline_us: None },
                Response::Query {
                    results: reply.results,
                    stats: reply.stats,
                    latency_us: reply.latency_us,
                    explain: None,
                },
            );
            r.encode_us.push(enc);
            r.decode_us.push(dec);
            r.query_bytes.push(bytes);
        }
    }
    r
}

fn check(
    tally: &mut Tally,
    step: &str,
    idx: usize,
    got: Result<Vec<kvmatch_core::MatchResult>, String>,
    req: &Req,
) {
    tally.attempted += 1;
    match got {
        Ok(results) if same(&results, &req.expected) => {}
        Ok(results) => {
            tally.fail(format!("pool #{idx} ({step}): {}", diff(&results, &req.expected)))
        }
        Err(e) => tally.fail(format!("pool #{idx} ({step}): {e}")),
    }
}

/// Encode and decode cost of one query's request and response frames,
/// µs per round (averaged over repeats for timer resolution), and the
/// request frame's size.
fn proto_costs(request: Request, response: Response) -> (f64, f64, f64) {
    const REPS: u32 = 16;
    let t0 = Instant::now();
    let mut req_frame = Vec::new();
    let mut resp_frame = Vec::new();
    for _ in 0..REPS {
        req_frame = request.encode(7).expect("query frame encodes");
        resp_frame = response.encode(7).expect("response frame encodes");
    }
    let enc = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    let t1 = Instant::now();
    for _ in 0..REPS {
        let rq = decode_request(&req_frame[4..]).expect("query frame decodes");
        let rs = decode_response(&resp_frame[4..]).expect("response frame decodes");
        std::hint::black_box((rq, rs));
    }
    let dec = t1.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    (enc, dec, req_frame.len() as f64)
}

/// Inputs to the per-layer metric set beyond the replay.
pub struct LayerInputs<'a> {
    /// The traced load phase.
    pub tally: &'a Tally,
    pub service: MetricsSnapshot,
    pub net: NetSnapshot,
    /// ED p50 of the untraced and the traced phase, ms.
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
    /// Generator lateness p99, ms.
    pub lag_p99_ms: f64,
    /// Ingest-side layers (zero on read-only workloads).
    pub catalog_append_us: f64,
    pub catalog_materialize_us: f64,
    pub lsm: LsmLayer,
}

/// LSM counters of an ingest run.
#[derive(Clone, Copy, Default)]
pub struct LsmLayer {
    pub write_amp: f64,
    pub runs_sealed: f64,
    pub delta_runs_sealed: f64,
    pub compactions: f64,
    pub generations_retired: f64,
    pub table_bytes: f64,
    pub reopen_s: f64,
}

/// Builds every per-layer metric, in the order of the README's table.
pub fn metrics(r: &Replay, inp: &LayerInputs<'_>) -> Metrics {
    let s = &inp.tally.stats;
    let q = inp.tally.queries as f64;
    let mut m = Metrics::default();
    let cands = s.candidates as f64;
    m.put("distance.cascade.full_distance", ratio(s.full_distance_computations as f64, q), "count");
    m.put(
        "distance.cascade.prune_frac.constraint",
        ratio(s.pruned_constraint as f64, cands),
        "frac",
    );
    m.put("distance.cascade.prune_frac.lb_kim", ratio(s.pruned_lb_kim as f64, cands), "frac");
    m.put("distance.cascade.prune_frac.lb_keogh", ratio(s.pruned_lb_keogh as f64, cands), "frac");
    m.put(
        "distance.cascade.match_per_full",
        ratio(s.matches as f64, s.full_distance_computations as f64),
        "ratio",
    );

    m.put("core.matcher.verify_us", mean(&r.verify_us), "us");
    m.put("core.matcher.probe_us", mean(&r.probe_us), "us");
    m.put("core.matcher.rows_scanned", ratio(s.rows_scanned as f64, q), "count");
    m.put("core.matcher.candidates_per_match", ratio(cands, s.matches as f64), "ratio");
    m.put("core.matcher.points_fetched", ratio(s.points_fetched as f64, q), "count");
    let rows = (s.rows_from_cache + s.rows_scanned) as f64;
    m.put("core.cache.hit_ratio", ratio(s.rows_from_cache as f64, rows), "frac");
    m.put("core.exec.bind_us", mean(&r.bind_us), "us");

    let serve_self: Vec<f64> = r.serve_us.iter().zip(&r.exec_us).map(|(a, b)| a - b).collect();
    m.put("serve.self_us", mean(&serve_self), "us");
    // Service-side latency of each sampled request under load, minus its
    // replayed execution time.
    let mut under_load: HashMap<usize, Vec<f64>> = HashMap::new();
    for &(idx, us) in &inp.tally.served {
        under_load.entry(idx).or_default().push(us as f64);
    }
    let wait: Vec<f64> = r
        .sample
        .iter()
        .zip(&r.exec_us)
        .filter_map(|(idx, exec)| under_load.get_mut(idx).map(|v| median(v) - exec))
        .collect();
    m.put("serve.wait_us", mean(&wait), "us");
    m.put("serve.batch_occupancy", inp.service.avg_batch_occupancy, "count");
    m.put("serve.queue_depth_peak", inp.service.queue_depth_peak as f64, "count");
    m.put("serve.rejected", inp.service.rejected as f64, "count");
    m.put("serve.expired", inp.service.expired as f64, "count");

    m.put("net.self_us", mean(&inp.tally.net_self_us), "us");
    let n = &inp.net;
    m.put(
        "net.bytes_per_op",
        ratio((n.bytes_in + n.bytes_out) as f64, n.frames_in as f64),
        "bytes",
    );
    m.put("proto.encode_us", mean(&r.encode_us), "us");
    m.put("proto.decode_us", mean(&r.decode_us), "us");
    m.put("proto.query_bytes", mean(&r.query_bytes), "bytes");

    m.put("core.catalog.append_us", inp.catalog_append_us, "us");
    m.put("core.catalog.materialize_us", inp.catalog_materialize_us, "us");
    let l = inp.lsm;
    m.put("lsm.write_amp", l.write_amp, "ratio");
    m.put("lsm.runs_sealed", l.runs_sealed, "count");
    m.put("lsm.delta_runs_sealed", l.delta_runs_sealed, "count");
    m.put("lsm.compactions", l.compactions, "count");
    m.put("lsm.generations_retired", l.generations_retired, "count");
    m.put("lsm.table_bytes", l.table_bytes, "bytes");
    m.put("lsm.reopen_s", l.reopen_s, "s");

    m.put("loadgen.lag_p99_ms", inp.lag_p99_ms, "ms");
    m.put(
        "trace.overhead_pct",
        100.0 * ratio(inp.traced_p50_ms - inp.untraced_p50_ms, inp.untraced_p50_ms),
        "%",
    );

    // The budget the layers must add up to, over the replayed sample.
    let socket = mean(&r.socket_us);
    let net_self: Vec<f64> = r.socket_us.iter().zip(&r.serve_us).map(|(a, b)| a - b).collect();
    m.put("budget.socket_us", socket, "us");
    m.put("budget.exec_us", mean(&r.exec_us), "us");
    m.put("budget.verify_share", ratio(mean(&r.verify_us), socket), "frac");
    m.put(
        "budget.overhead_share",
        ratio(mean(&serve_self) + mean(&net_self) + mean(&r.bind_us), socket),
        "frac",
    );
    m
}
