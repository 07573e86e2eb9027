//! `monitor_fanout`: many small series, short RSM-ED queries.
//! Phase 1 is an open loop on one pipelined connection at a fixed rate
//! below the knee, each request timed from its due time; phase 2 keeps a
//! fixed window in flight to measure capacity. The two phases alternate
//! in rounds.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use kvmatch_client::{Client, ClientError, Pending};
use kvmatch_core::{Catalog, MemoryCatalogBackend, SeriesId};
use kvmatch_proto::Request;

use crate::common::{
    cpu_seconds, index_config, lat_ms, median, noisy_query, q_ms, release_freed_memory, rng,
    sample_indices, series, shuffle, timed_setups, window_rates, write_spans, Mode, Oracle, Req,
    RssSampler, Span, Spans, Stack, Tally,
};
use crate::layers::{self, LayerInputs, LsmLayer};
use crate::{Outcome, Scale};

/// Phase 1 and phase 2 alternate in this many rounds, so that a burst of
/// host noise falls on a share of each phase rather than on one of them
/// whole.
const ROUNDS: usize = 5;

/// Capacity windows per phase-2 round; the capacity figure is the median
/// over all of them.
const WINDOWS_PER_ROUND: usize = 4;

/// Phase 1 is invalid when the generator's lateness p99 exceeds this many
/// send intervals: the generator, not the server, fell behind.
const MAX_LAG_INTERVALS: f64 = 5.0;

struct Config {
    series: usize,
    len: usize,
    pool: usize,
    rate: f64,
    window: usize,
    replay: usize,
    setups: usize,
}

fn config(scale: Scale) -> Config {
    match scale {
        Scale::Full => Config {
            series: 512,
            len: 2_000,
            pool: 1_024,
            rate: 500.0,
            window: 64,
            replay: 128,
            setups: 60,
        },
        Scale::Smoke => Config {
            series: 32,
            len: 1_000,
            pool: 64,
            rate: 200.0,
            window: 16,
            replay: 16,
            setups: 1,
        },
    }
}

fn build_catalog(data: &[Vec<f64>]) -> Catalog<MemoryCatalogBackend> {
    let mut catalog = Catalog::new(MemoryCatalogBackend);
    for (s, xs) in data.iter().enumerate() {
        catalog
            .create_series_with(SeriesId::new(s as u64 + 1), index_config(), xs)
            .expect("create");
    }
    catalog.materialize().expect("materialize");
    catalog
}

pub fn run(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let cfg = config(scale);
    let data: Vec<Vec<f64>> =
        (0..cfg.series).map(|s| series(seed, 1000 + s as u64, cfg.len)).collect();
    let oracle = Oracle::new(
        data.iter().enumerate().map(|(s, xs)| (SeriesId::new(s as u64 + 1), xs.as_slice())),
    );
    let mut r = rng(seed, 2);
    let pool: Vec<Req> = (0..cfg.pool)
        .map(|i| {
            let s = i % cfg.series;
            let mut spec = noisy_query(&mut r, &data[s], 100, Mode::RsmEd, 1.5)
                .with_series(SeriesId::new(s as u64 + 1));
            if i % 4 != 3 {
                spec = spec.top_k(3);
            }
            oracle.req(spec, false)
        })
        .collect();
    drop(oracle);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    shuffle(&mut order, &mut rng(seed, 3));

    let (stack, setup_s) =
        timed_setups(cfg.setups, || Stack::serve(build_catalog(&data)), |stack| drop(stack.stop()));
    drop(data);
    release_freed_memory();
    let addr = stack.addr();
    let mut out = Outcome::default();
    let rss = RssSampler::start();
    let client = Client::connect(addr).expect("connect");

    // Phase 1 takes 60% of the run, phase 2 the rest; a traced run
    // halves both and then repeats phase 1 traced.
    let share = if trace { 0.5 } else { 1.0 };
    let open_len = Duration::from_secs_f64(seconds * 0.6 * share / ROUNDS as f64);
    let cap_len = Duration::from_secs_f64(seconds * 0.4 * share / ROUNDS as f64);
    let warm = Duration::from_secs_f64((seconds * 0.05).min(0.5));
    let cpu0 = cpu_seconds();
    let (mut open, mut cap, mut rates) = (Tally::default(), Tally::default(), Vec::new());
    for round in 0..ROUNDS {
        let round_warm = if round == 0 { warm } else { Duration::ZERO };
        let phase = open_loop(&client, &pool, &order, cfg.rate, round_warm, open_len, None);
        open.absorb(phase.tally);
        let (tally, window_rates) = capacity(&client, &pool, &order, cfg.window, cap_len);
        cap.absorb(tally);
        rates.extend(window_rates);
    }
    let ops = (open.attempted + cap.attempted).max(1) as f64;
    let cpu_ms_per_op = 1e3 * (cpu_seconds() - cpu0) / ops;
    let p50 = lat_ms(&open.ed, 0.5);
    let lag_p99_ms = generator_lag_p99_ms(&open);
    let max_lag_ms = MAX_LAG_INTERVALS * 1e3 / cfg.rate;
    let valid = lag_p99_ms <= max_lag_ms;
    if !valid {
        out.invalid = Some(format!(
            "monitor_fanout: generator lateness p99 {lag_p99_ms:.2} ms exceeds {max_lag_ms:.0} ms; \
             the open loop did not keep to its schedule"
        ));
    }

    out.e2e.put("setup_s", setup_s, "s");
    out.e2e.put("queries_per_s", median(&mut rates), "1/s");
    out.e2e.put("query_ed_p50_ms", p50, "ms");
    out.report.put("query_ed_p99_ms", lat_ms(&open.ed, 0.99), "ms");
    out.report.put("query_ed_p90_ms", lat_ms(&open.ed, 0.9), "ms");
    out.report.put("cpu_ms_per_op", cpu_ms_per_op, "ms");
    out.report.put("query_ed_samples", open.ed.len() as f64, "count");
    out.report.put("offered_per_s", cfg.rate, "1/s");
    out.report.put("loadgen.lag_p99_ms", lag_p99_ms, "ms");
    out.report.put("loadgen.valid", f64::from(u8::from(valid)), "bool");
    out.report.put("capacity_window", cfg.window as f64, "count");
    out.report.put("capacity_p50_ms", lat_ms(&cap.ed, 0.5), "ms");

    if trace {
        let epoch = Instant::now();
        let traced = open_loop(
            &client,
            &pool,
            &order,
            cfg.rate,
            warm,
            Duration::from_secs_f64(seconds * 0.3),
            Some(epoch),
        );
        let mut spans = Spans::new(Some(epoch));
        let mut checks = Tally::default();
        let replay = layers::replay(
            &client,
            &stack.service,
            &pool,
            &sample_indices(pool.len(), cfg.replay),
            &mut spans,
            &mut checks,
        );
        out.layers = layers::metrics(
            &replay,
            &LayerInputs {
                tally: &traced.tally,
                service: stack.service.metrics(),
                net: stack.server.net_metrics(),
                untraced_p50_ms: p50,
                traced_p50_ms: lat_ms(&traced.tally.ed, 0.5),
                lag_p99_ms: generator_lag_p99_ms(&traced.tally),
                catalog_append_us: 0.0,
                catalog_materialize_us: 0.0,
                lsm: LsmLayer::default(),
            },
        );
        let mut threads = traced.spans;
        threads.push(spans.list);
        if let Err(e) = write_spans("monitor_fanout", seed, &threads) {
            out.notes.push(e);
        }
        out.absorb(traced.tally);
        out.absorb(checks);
    }
    drop(client);
    out.e2e.put("peak_rss_mb", rss.finish(), "MB");
    drop(stack.stop());
    out.absorb(open);
    out.absorb(cap);
    out
}

/// The generator's lateness p99 over an open-loop tally, ms.
fn generator_lag_p99_ms(tally: &Tally) -> f64 {
    let lags: Vec<f64> = tally.ed.iter().map(|s| s.lag_us).collect();
    q_ms(&lags, 0.99)
}

struct OpenLoop {
    tally: Tally,
    spans: Vec<Vec<Span>>,
}

/// `(k, pool index, due time, lateness µs, the pending answer)`.
type Sent = (usize, usize, Instant, f64, Result<Pending, ClientError>);

/// Sends `pool[order[k % len]]` at `start + k / rate` on one pipelined
/// connection; a second thread collects the answers in order. Latency
/// runs from each request's due time. The first `warm` is not timed.
fn open_loop(
    client: &Client,
    pool: &[Req],
    order: &[usize],
    rate: f64,
    warm: Duration,
    measure: Duration,
    epoch: Option<Instant>,
) -> OpenLoop {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let warm_n = (warm.as_secs_f64() * rate) as usize;
    let total = warm_n + (measure.as_secs_f64() * rate) as usize;
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut spans = Spans::new(epoch);
            for (k, idx, due, lag_us, pending) in rx {
                let (reply, _, _) = spans
                    .time("client.wait", k as u64, None, || pending.and_then(Pending::wait_query));
                let us = due.elapsed().as_secs_f64() * 1e6;
                if k < warm_n {
                    tally.warm(pool, idx, reply);
                } else {
                    tally.query(pool, idx, reply, us, lag_us);
                }
            }
            (tally, spans.list)
        });
        let mut spans = Spans::new(epoch);
        let start = Instant::now() + Duration::from_millis(5);
        for k in 0..total {
            let due = start + interval * k as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let lag_us = (Instant::now() - due).as_secs_f64() * 1e6;
            let idx = order[k % order.len()];
            let (sent, _, _) = spans.time("client.send", k as u64, None, || {
                client.send(&Request::Query { spec: pool[idx].spec.clone(), deadline_us: None })
            });
            if tx.send((k, idx, due, lag_us, sent)).is_err() {
                break;
            }
        }
        drop(tx);
        let (tally, collected) = collector.join().expect("collector thread");
        OpenLoop { tally, spans: vec![spans.list, collected] }
    })
}

/// Keeps `window` requests in flight on one connection for `measure`;
/// returns what was answered and the completions per second in each of
/// [`WINDOWS_PER_ROUND`] equal windows.
fn capacity(
    client: &Client,
    pool: &[Req],
    order: &[usize],
    window: usize,
    measure: Duration,
) -> (Tally, Vec<f64>) {
    let mut tally = Tally::default();
    let mut inflight: VecDeque<(usize, Instant, Result<Pending, ClientError>)> = VecDeque::new();
    let start = Instant::now();
    let end = start + measure;
    let mut k = 0usize;
    loop {
        while inflight.len() < window && Instant::now() < end {
            let idx = order[k % order.len()];
            k += 1;
            let sent =
                client.send(&Request::Query { spec: pool[idx].spec.clone(), deadline_us: None });
            inflight.push_back((idx, Instant::now(), sent));
        }
        let Some((idx, t0, sent)) = inflight.pop_front() else { break };
        let reply = sent.and_then(Pending::wait_query);
        tally.query(pool, idx, reply, t0.elapsed().as_secs_f64() * 1e6, 0.0);
    }
    let rates = window_rates(&tally.done(), start, end, WINDOWS_PER_ROUND);
    (tally, rates)
}
