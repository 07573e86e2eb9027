//! `analyst_mix`: the paper's query path. Two connections in a closed
//! loop over four long in-memory series, cycling a fixed mix of RSM-ED,
//! RSM-DTW, cNSM-ED and cNSM-DTW range and top-k queries.

use std::time::{Duration, Instant};

use kvmatch_client::Client;
use kvmatch_core::{Catalog, MatchStats, MemoryCatalogBackend, SeriesId};

use crate::common::{
    closed_loop, cpu_seconds, dtw_band, index_config, lat_ms, noisy_query, q_ms,
    release_freed_memory, rng, series, timed_setups, write_spans, Mode, Oracle, Req, RssSampler,
    Spans, Stack,
};
use crate::layers::{self, LayerInputs, LsmLayer};
use crate::{Outcome, Scale};

const MODES: [Mode; 4] = [Mode::RsmEd, Mode::RsmDtw, Mode::CnsmEd, Mode::CnsmDtw];

/// Verification budget of one pool query, in distance-matrix cells.
const MAX_CELLS: f64 = 1e8;

/// Distance cells a query's verification touched: every candidate's lower
/// bounds or constraint check, plus the banded matrix of each full
/// distance.
fn cells(stats: &MatchStats, m: usize, mode: Mode) -> f64 {
    let band = if mode.is_dtw() { 2 * dtw_band(m) + 1 } else { 1 };
    (stats.candidates as f64 + stats.full_distance_computations as f64 * band as f64) * m as f64
}

struct Config {
    lens: [usize; 4],
    query_lens: [usize; 3],
    pool: usize,
    replay: usize,
    setups: usize,
}

fn config(scale: Scale) -> Config {
    match scale {
        Scale::Full => Config {
            lens: [100_000, 150_000, 200_000, 250_000],
            query_lens: [128, 256, 512],
            pool: 288,
            replay: 48,
            setups: 60,
        },
        Scale::Smoke => Config {
            lens: [6_000, 8_000, 10_000, 12_000],
            query_lens: [100, 150, 200],
            pool: 24,
            replay: 8,
            setups: 1,
        },
    }
}

fn build_catalog(ids: &[SeriesId], data: &[Vec<f64>]) -> Catalog<MemoryCatalogBackend> {
    let mut catalog = Catalog::new(MemoryCatalogBackend);
    for (id, xs) in ids.iter().zip(data) {
        catalog.create_series_with(*id, index_config(), xs).expect("create series");
    }
    catalog.materialize().expect("materialize");
    catalog
}

pub fn run(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let cfg = config(scale);
    let ids: Vec<SeriesId> = (1..=4).map(SeriesId::new).collect();
    let data: Vec<Vec<f64>> =
        cfg.lens.iter().enumerate().map(|(s, &n)| series(seed, 100 + s as u64, n)).collect();

    // Inputs and their expected answers: outside every timing.
    let oracle = Oracle::new(ids.iter().copied().zip(data.iter().map(Vec::as_slice)));
    let mut r = rng(seed, 1);
    let pool: Vec<Req> = (0..cfg.pool)
        .map(|i| {
            let mode = MODES[i % 4];
            let m = cfg.query_lens[(i / 8) % 3];
            let s = (i / 2) % 4;
            // Redraw queries whose verification would cost more than
            // MAX_CELLS distance cells: a few unselective queries would
            // otherwise decide the run's throughput on their own.
            let mut attempts = 0;
            loop {
                let mut spec = noisy_query(&mut r, &data[s], m, mode, 1.5).with_series(ids[s]);
                if (i / 4) % 2 == 1 {
                    spec = spec.top_k(10);
                }
                let (expected, stats) = oracle.run(&spec);
                attempts += 1;
                if cells(&stats, m, mode) <= MAX_CELLS || attempts == 16 {
                    break Req { spec, dtw: mode.is_dtw(), expected };
                }
            }
        })
        .collect();
    drop(oracle);

    let (stack, setup_s) = timed_setups(
        cfg.setups,
        || Stack::serve(build_catalog(&ids, &data)),
        |stack| drop(stack.stop()),
    );
    drop(data);
    release_freed_memory();
    let addr = stack.addr();
    let warm = Duration::from_secs_f64((seconds * 0.1).min(1.0));
    let mut out = Outcome::default();

    let rss = RssSampler::start();
    let measure = if trace { seconds / 2.0 } else { seconds };
    let cpu0 = cpu_seconds();
    let phase = closed_loop(addr, &pool, 2, warm, Duration::from_secs_f64(measure), seed, None);
    let cpu_ms_per_query = 1e3 * (cpu_seconds() - cpu0) / phase.tally.attempted.max(1) as f64;
    let (ed, dtw) = (&phase.tally.ed, &phase.tally.dtw);
    out.e2e.put("setup_s", setup_s, "s");
    out.e2e.put("queries_per_s", phase.rate(), "1/s");
    out.e2e.put("query_ed_p50_ms", lat_ms(ed, 0.5), "ms");
    out.report.put("query_ed_p99_ms", lat_ms(ed, 0.99), "ms");
    out.report.put("query_ed_p90_ms", lat_ms(ed, 0.9), "ms");
    out.report.put("query_dtw_p50_ms", lat_ms(dtw, 0.5), "ms");
    out.report.put("query_dtw_p99_ms", lat_ms(dtw, 0.99), "ms");
    out.report.put("cpu_ms_per_op", cpu_ms_per_query, "ms");
    out.report.put("query_ed_samples", ed.len() as f64, "count");
    out.report.put("query_dtw_samples", dtw.len() as f64, "count");
    out.report.put("loadgen.lag_p99_ms", q_ms(&phase.tally.gap_us, 0.99), "ms");

    if trace {
        let epoch = Instant::now();
        let traced = closed_loop(
            addr,
            &pool,
            2,
            Duration::ZERO,
            Duration::from_secs_f64(measure),
            seed ^ 1,
            Some(epoch),
        );
        let client = Client::connect(addr).expect("connect");
        let mut spans = Spans::new(Some(epoch));
        let mut checks = crate::common::Tally::default();
        let replay = layers::replay(
            &client,
            &stack.service,
            &pool,
            // The pool cycles its mix every 24 requests; replay whole cycles.
            &(0..cfg.replay).collect::<Vec<_>>(),
            &mut spans,
            &mut checks,
        );
        drop(client);
        out.layers = layers::metrics(
            &replay,
            &LayerInputs {
                tally: &traced.tally,
                service: stack.service.metrics(),
                net: stack.server.net_metrics(),
                untraced_p50_ms: lat_ms(ed, 0.5),
                traced_p50_ms: lat_ms(&traced.tally.ed, 0.5),
                lag_p99_ms: q_ms(&traced.tally.gap_us, 0.99),
                catalog_append_us: 0.0,
                catalog_materialize_us: 0.0,
                lsm: LsmLayer::default(),
            },
        );
        let mut threads = traced.spans;
        threads.push(spans.list);
        if let Err(e) = write_spans("analyst_mix", seed, &threads) {
            out.notes.push(e);
        }
        out.absorb(traced.tally);
        out.absorb(checks);
    }
    let peak = rss.finish();
    out.e2e.put("peak_rss_mb", peak, "MB");
    drop(stack.stop());

    out.absorb(phase.tally);
    out
}
