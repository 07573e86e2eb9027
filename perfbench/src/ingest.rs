//! `ingest_query`: acked appends next to queries on the LSM backend. One
//! connection appends small chunks round-robin over four series while a
//! second runs RSM-ED range and top-k queries in a closed loop. After the
//! run the directory is reopened and every acked point is checked.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kvmatch_client::Client;
use kvmatch_core::catalog::CatalogBackend;
use kvmatch_core::{naive_search, Catalog, QuerySpec, SeriesId};
use kvmatch_lsm::{LsmCatalogBackend, LsmOptions};

use crate::common::{
    closed_loop, cpu_seconds, dir_bytes, index_config, lat_ms, noisy_query, q_ms,
    release_freed_memory, rng, same, sample_indices, series, timed_setups, wchar, window_rate,
    write_spans, Mode, Oracle, Phase, Req, RssSampler, Sample, Scratch, Spans, Stack, Tally,
};
use crate::layers::{self, LayerInputs, LsmLayer};
use crate::{Outcome, Scale};

const SERIES: usize = 4;
const CHUNK: usize = 100;
/// Appends per second the append connection paces itself to.
const APPENDS_PER_S: f64 = 50.0;
/// Verification budget of one pool query, in distance cells.
const MAX_CELLS: f64 = 5e5;

struct Config {
    seed_len: usize,
    pool: usize,
    query_lens: [usize; 2],
    replay: usize,
    catalog_replay: usize,
    reopen_queries: usize,
    setups: usize,
}

fn config(scale: Scale) -> Config {
    match scale {
        Scale::Full => Config {
            seed_len: 50_000,
            pool: 256,
            query_lens: [128, 256],
            replay: 32,
            catalog_replay: 400,
            reopen_queries: 8,
            setups: 60,
        },
        Scale::Smoke => Config {
            seed_len: 5_000,
            pool: 16,
            query_lens: [100, 150],
            replay: 8,
            catalog_replay: 20,
            reopen_queries: 4,
            setups: 1,
        },
    }
}

fn ids() -> Vec<SeriesId> {
    (1..=SERIES as u64).map(SeriesId::new).collect()
}

/// Opens an LSM catalog under `dir` and loads the seed prefixes.
fn seeded_catalog(dir: &Path, seeds: &[&[f64]]) -> Catalog<LsmCatalogBackend> {
    let backend = LsmCatalogBackend::open(dir, LsmOptions::default()).expect("open LSM backend");
    let mut catalog = Catalog::open(backend).expect("open catalog");
    for (id, xs) in ids().into_iter().zip(seeds) {
        catalog.create_series_with(id, index_config(), xs).expect("create series");
    }
    catalog.materialize().expect("materialize");
    catalog
}

pub fn run(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let cfg = config(scale);
    // Warm-up (at most 1 s) plus the measured time, with a little slack.
    let max_appends = ((seconds + 1.0) * APPENDS_PER_S).ceil() as usize + 4 * SERIES;
    let per_series = max_appends.div_ceil(SERIES) * CHUNK;
    // Each series is a seed prefix followed by the stream its appends
    // draw from, one continuous composite series.
    let full: Vec<Vec<f64>> =
        (0..SERIES).map(|s| series(seed, 500 + s as u64, cfg.seed_len + per_series)).collect();
    let seeds: Vec<&[f64]> = full.iter().map(|xs| &xs[..cfg.seed_len]).collect();

    // Queries whose answer cannot change however much of the stream is
    // appended (the answer over the seed prefix equals the range answer
    // over the whole stream), and whose verification stays within
    // MAX_CELLS distance cells.
    let before = Oracle::new(ids().into_iter().zip(seeds.iter().copied()));
    let after = Oracle::new(ids().into_iter().zip(full.iter().map(Vec::as_slice)));
    let mut r = rng(seed, 4);
    let mut pool: Vec<Req> = Vec::with_capacity(cfg.pool);
    let mut drawn = 0;
    while pool.len() < cfg.pool && drawn < cfg.pool * 16 {
        let i = pool.len();
        let s = i % SERIES;
        let m = cfg.query_lens[(i / SERIES) % 2];
        let range = noisy_query(&mut r, seeds[s], m, Mode::RsmEd, 1.5).with_series(ids()[s]);
        drawn += 1;
        let (answer, stats) = before.run(&range);
        if stats.candidates as f64 * m as f64 > MAX_CELLS || !same(&answer, &after.answer(&range)) {
            continue;
        }
        let top_k = (i / (2 * SERIES)) % 2 == 1;
        let spec = if top_k { range.clone().top_k(5) } else { range };
        let expected = if top_k { before.answer(&spec) } else { answer };
        pool.push(Req { spec, dtw: false, expected });
    }
    drop((before, after));

    let scratch = Scratch::new("ingest");
    let mut n = 0;
    let mut fresh_dir = || {
        n += 1;
        scratch.0.join(format!("db-{n}"))
    };
    let (stack, setup_s) = timed_setups(
        cfg.setups,
        || {
            let dir = fresh_dir();
            (Stack::serve(seeded_catalog(&dir, &seeds)), dir)
        },
        |(stack, dir): (Stack<LsmCatalogBackend>, PathBuf)| {
            drop(stack.stop());
            let _ = std::fs::remove_dir_all(dir);
        },
    );
    let (stack, dir) = stack;
    release_freed_memory();
    let addr = stack.addr();
    let mut out = Outcome::default();
    let rss = RssSampler::start();
    let warm = Duration::from_secs_f64((seconds * 0.1).min(1.0));
    let measure = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });

    let mut acked = vec![0usize; SERIES];
    let mut appends = 0usize;
    let net0 = stack.server.net_metrics();
    let w0 = wchar();
    let cpu0 = cpu_seconds();
    let (queries, ingest) = mixed(
        addr,
        &pool,
        &full,
        cfg.seed_len,
        &mut acked,
        &mut appends,
        max_appends,
        warm,
        measure,
        seed,
        None,
    );
    let cpu_ms_per_op =
        1e3 * (cpu_seconds() - cpu0) / (queries.tally.attempted + ingest.attempted).max(1) as f64;
    let socket_bytes = {
        let n = stack.server.net_metrics();
        (n.bytes_in - net0.bytes_in)
            + (n.bytes_out - net0.bytes_out)
            + 4 * (n.frames_in - net0.frames_in)
    };
    let write_amp = (wchar() - w0).saturating_sub(socket_bytes) as f64
        / (ingest.appended_points * 8).max(1) as f64;

    let ed = &queries.tally.ed;
    out.e2e.put("setup_s", setup_s, "s");
    out.e2e.put("queries_per_s", queries.rate(), "1/s");
    out.e2e.put("query_ed_p50_ms", lat_ms(ed, 0.5), "ms");
    out.report.put("query_ed_p99_ms", lat_ms(ed, 0.99), "ms");
    out.report.put("query_ed_p90_ms", lat_ms(ed, 0.9), "ms");
    out.report.put("cpu_ms_per_op", cpu_ms_per_op, "ms");
    out.report.put("query_ed_samples", ed.len() as f64, "count");
    let appended: Vec<Instant> = ingest.append.iter().map(|s| s.at).collect();
    let appends_per_s = window_rate(&appended, queries.start, queries.end, 10);
    out.report.put("ingest_points_per_s", appends_per_s * CHUNK as f64, "1/s");
    out.report.put("append_p50_ms", lat_ms(&ingest.append, 0.5), "ms");
    out.report.put("append_p99_ms", lat_ms(&ingest.append, 0.99), "ms");
    out.report.put("append_samples", ingest.append.len() as f64, "count");
    out.report.put("lsm.write_amp", write_amp, "ratio");
    if appends >= max_appends {
        out.notes.push(format!("ingest_query: the append stream ran out after {appends} appends"));
    }

    if trace {
        let epoch = Instant::now();
        let (traced, traced_ingest) = mixed(
            addr,
            &pool,
            &full,
            cfg.seed_len,
            &mut acked,
            &mut appends,
            max_appends,
            Duration::ZERO,
            measure,
            seed ^ 1,
            Some(epoch),
        );
        let client = Client::connect(addr).expect("connect");
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
        drop(client);
        let (service, net) = (stack.service.metrics(), stack.server.net_metrics());
        let catalog = stack.stop();
        let lsm = lsm_layer(&catalog, write_amp);
        drop(catalog);
        let (append_us, materialize_us) = catalog_replay(
            &scratch.0.join("replay"),
            &seeds,
            &full,
            cfg.seed_len,
            cfg.catalog_replay,
        );
        let (reopened, reopen_s) =
            reopen_and_check(&dir, &full, cfg.seed_len, &acked, cfg.reopen_queries, seed);
        out.layers = layers::metrics(
            &replay,
            &LayerInputs {
                tally: &traced.tally,
                service,
                net,
                untraced_p50_ms: lat_ms(ed, 0.5),
                traced_p50_ms: lat_ms(&traced.tally.ed, 0.5),
                lag_p99_ms: q_ms(&traced.tally.gap_us, 0.99),
                catalog_append_us: append_us,
                catalog_materialize_us: materialize_us,
                lsm: LsmLayer { reopen_s, ..lsm },
            },
        );
        let mut threads = traced.spans;
        threads.push(spans.list);
        if let Err(e) = write_spans("ingest_query", seed, &threads) {
            out.notes.push(e);
        }
        out.absorb(traced.tally);
        out.absorb(traced_ingest);
        out.absorb(checks);
        out.absorb(reopened);
        out.e2e.put("peak_rss_mb", rss.finish(), "MB");
    } else {
        out.e2e.put("peak_rss_mb", rss.finish(), "MB");
        let catalog = stack.stop();
        let held = SERIES * cfg.seed_len + acked.iter().sum::<usize>();
        out.report.put("bytes_stored_per_point", dir_bytes(&dir) as f64 / held as f64, "bytes");
        let lsm = lsm_layer(&catalog, write_amp);
        out.report.put("lsm.compactions", lsm.compactions, "count");
        drop(catalog);
        let (reopened, reopen_s) =
            reopen_and_check(&dir, &full, cfg.seed_len, &acked, cfg.reopen_queries, seed);
        out.report.put("lsm.reopen_s", reopen_s, "s");
        out.absorb(reopened);
    }
    out.report.put("acked_points", acked.iter().sum::<usize>() as f64, "count");
    out.absorb(queries.tally);
    out.absorb(ingest);
    out
}

/// Runs the append connection, paced to [`APPENDS_PER_S`], and the query
/// connection side by side. Returns the query phase and the append tally.
/// `acked` and `appends` carry across calls so a second phase continues
/// the stream.
#[allow(clippy::too_many_arguments)]
fn mixed(
    addr: std::net::SocketAddr,
    pool: &[Req],
    full: &[Vec<f64>],
    seed_len: usize,
    acked: &mut [usize],
    appends: &mut usize,
    max_appends: usize,
    warm: Duration,
    measure: Duration,
    seed: u64,
    epoch: Option<Instant>,
) -> (Phase, Tally) {
    std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            let client = Client::connect(addr).expect("connect");
            let mut tally = Tally::default();
            let mut spans = Spans::new(epoch);
            let start = Instant::now();
            let (warm_end, end) = (start + warm, start + warm + measure);
            let interval = Duration::from_secs_f64(1.0 / APPENDS_PER_S);
            let mut due = start;
            loop {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                // A late append is sent at once but the schedule does not
                // try to catch up with a burst.
                due = due.max(Instant::now() - interval) + interval;
                let now = Instant::now();
                if now >= end || *appends >= max_appends {
                    break;
                }
                let s = *appends % SERIES;
                let from = seed_len + acked[s];
                let chunk = full[s][from..from + CHUNK].to_vec();
                let (res, _, us) = spans.time("client.append", *appends as u64, None, || {
                    client.append(SeriesId::new(s as u64 + 1), chunk)
                });
                *appends += 1;
                tally.attempted += 1;
                match res {
                    Ok(()) => {
                        acked[s] += CHUNK;
                        if now >= warm_end {
                            tally.append.push(Sample { at: Instant::now(), us, lag_us: 0.0 });
                            tally.appended_points += CHUNK as u64;
                        }
                    }
                    Err(e) => {
                        tally.fail(format!("append #{}: {e}", *appends));
                        break;
                    }
                }
            }
            (tally, spans.list)
        });
        let mut queries = closed_loop(addr, pool, 1, warm, measure, seed, epoch);
        let (tally, spans) = appender.join().expect("appender thread");
        queries.spans.push(spans);
        (queries, tally)
    })
}

fn lsm_layer(catalog: &Catalog<LsmCatalogBackend>, write_amp: f64) -> LsmLayer {
    let stats = catalog.backend().maintenance_stats();
    LsmLayer {
        write_amp,
        runs_sealed: stats.runs_sealed as f64,
        delta_runs_sealed: stats.delta_runs_sealed as f64,
        compactions: stats.compactions as f64,
        generations_retired: stats.generations_retired as f64,
        table_bytes: catalog.backend().points_db().shape().table_bytes as f64,
        reopen_s: 0.0,
    }
}

/// Replays the first `count` appends of the stream into a second catalog
/// on a fresh directory, timing `Catalog::append` and
/// `Catalog::materialize` apart. Returns their mean µs.
fn catalog_replay(
    dir: &Path,
    seeds: &[&[f64]],
    full: &[Vec<f64>],
    seed_len: usize,
    count: usize,
) -> (f64, f64) {
    let mut catalog = seeded_catalog(dir, seeds);
    let (mut append_us, mut materialize_us) = (0.0, 0.0);
    let mut at = [seed_len; SERIES];
    for k in 0..count {
        let s = k % SERIES;
        let chunk = &full[s][at[s]..at[s] + CHUNK];
        at[s] += CHUNK;
        let t0 = Instant::now();
        catalog.append(SeriesId::new(s as u64 + 1), chunk).expect("replayed append");
        let t1 = Instant::now();
        catalog.materialize().expect("replayed materialize");
        append_us += (t1 - t0).as_secs_f64() * 1e6;
        materialize_us += t1.elapsed().as_secs_f64() * 1e6;
    }
    drop(catalog);
    let _ = std::fs::remove_dir_all(dir);
    let n = count.max(1) as f64;
    (append_us / n, materialize_us / n)
}

/// Reopens the directory the served catalog wrote, checks that every
/// acked point came back bit for bit, and runs sampled RSM-ED queries
/// against `naive_search` over the acked points. Returns the checks and
/// the seconds `Catalog::open` took.
fn reopen_and_check(
    dir: &Path,
    full: &[Vec<f64>],
    seed_len: usize,
    acked: &[usize],
    queries: usize,
    seed: u64,
) -> (Tally, f64) {
    let mut t = Tally::default();
    let t0 = Instant::now();
    let backend = LsmCatalogBackend::open(dir, LsmOptions::default()).expect("reopen LSM backend");
    let mut catalog = match Catalog::open(backend) {
        Ok(c) => c,
        Err(e) => {
            t.attempted += 1;
            t.fail(format!("reopen: {e}"));
            return (t, 0.0);
        }
    };
    let reopen_s = t0.elapsed().as_secs_f64();
    catalog.materialize().expect("materialize reopened catalog");
    let snapshot = catalog.snapshot().expect("reopened snapshot");
    let mut r = rng(seed, 9);
    for (s, id) in ids().into_iter().enumerate() {
        let want = &full[s][..seed_len + acked[s]];
        t.attempted += 1;
        let got = catalog.data(id).map(|d| d.data());
        match got {
            Some(xs)
                if xs.len() == want.len()
                    && xs.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()) => {}
            Some(xs) => {
                t.fail(format!("{id}: reopened with {} points, {} acked", xs.len(), want.len()))
            }
            None => t.fail(format!("{id}: missing after reopen")),
        }
        for _ in 0..queries.div_ceil(SERIES) {
            let spec: QuerySpec = noisy_query(&mut r, want, 128, Mode::RsmEd, 1.5).with_series(id);
            t.attempted += 1;
            match snapshot.execute_batch(std::slice::from_ref(&spec)) {
                Ok(out) if same(&out.outputs[0].results, &naive_search(want, &spec)) => {}
                Ok(_) => t.fail(format!("{id}: reopened answer differs from naive_search")),
                Err(e) => t.fail(format!("{id}: reopened query: {e}")),
            }
        }
    }
    (t, reopen_s)
}
