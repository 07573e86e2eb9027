//! Pieces every workload shares: seeded inputs and their expected
//! answers, the server stack, per-request tallies, spans, percentiles and
//! process counters.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kvmatch_client::{ClientError, QueryReply};
use kvmatch_core::catalog::CatalogBackend;
use kvmatch_core::catalog::CatalogSnapshot;
use kvmatch_core::{
    Catalog, IndexBuildConfig, KvMatcher, MatchResult, MatchStats, MemoryCatalogBackend, QuerySpec,
    SeriesId,
};
use kvmatch_serve::{QueryService, ServiceBuilder};
use kvmatch_server::{Server, ServerOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index window width used by every workload.
pub const W: usize = 50;

/// The per-series index configuration: library defaults at `W`.
pub fn index_config() -> IndexBuildConfig {
    IndexBuildConfig::new(W)
}

/// A sub-seed for stream `tag` of the run seeded with `seed`.
pub fn subseed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(subseed(seed, tag))
}

/// A composite series (random-walk, Gaussian and mixed-sine segments).
pub fn series(seed: u64, tag: u64, n: usize) -> Vec<f64> {
    kvmatch_timeseries::generator::composite_series(subseed(seed, tag), n)
}

/// The measure a query runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    RsmEd,
    RsmDtw,
    CnsmEd,
    CnsmDtw,
}

impl Mode {
    pub fn is_dtw(self) -> bool {
        matches!(self, Mode::RsmDtw | Mode::CnsmDtw)
    }
}

/// Draws a noisy copy of `xs[off..off + m]` and wraps it into a query of
/// `mode`, with ε set at `slack` times the distance the noise alone puts
/// between the query and its source.
pub fn noisy_query(rng: &mut StdRng, xs: &[f64], m: usize, mode: Mode, slack: f64) -> QuerySpec {
    let off = rng.random_range(0..=xs.len() - m);
    let mut q = xs[off..off + m].to_vec();
    let mean = q.iter().sum::<f64>() / m as f64;
    let sigma =
        (q.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / m as f64).sqrt().max(1e-3);
    let scale = 0.05 * sigma;
    let mut noise2 = 0.0;
    for v in &mut q {
        let e = scale * kvmatch_timeseries::generator::gaussian(rng);
        noise2 += e * e;
        *v += e;
    }
    let rho = dtw_band(m);
    match mode {
        Mode::RsmEd => QuerySpec::rsm_ed(q, slack * noise2.sqrt()),
        Mode::RsmDtw => QuerySpec::rsm_dtw(q, slack * noise2.sqrt(), rho),
        // Normalised distance of the noisy copy to its source is about
        // the noise's share of σ, scaled by √m.
        Mode::CnsmEd => QuerySpec::cnsm_ed(q, slack * 0.05 * (m as f64).sqrt(), 1.5, 2.0),
        Mode::CnsmDtw => QuerySpec::cnsm_dtw(q, slack * 0.05 * (m as f64).sqrt(), rho, 1.5, 2.0),
    }
}

/// Sakoe-Chiba half-width ρ of DTW queries of length `m`: 10% of m.
pub fn dtw_band(m: usize) -> usize {
    (m / 10).max(1)
}

/// One request of a workload's pool with its precomputed answer.
#[derive(Clone, Debug)]
pub struct Req {
    pub spec: QuerySpec,
    pub dtw: bool,
    pub expected: Vec<MatchResult>,
}

/// A private, sequential matcher over a copy of the served data: the
/// reference every socket answer is compared against. Its index is built
/// through the same append path the served catalog uses: a batch-built
/// index (`KvIndex::build_into`) lays out different candidate intervals,
/// so its cNSM distances differ from the served ones in the last bits.
pub struct Oracle {
    snapshot: Arc<CatalogSnapshot<MemoryCatalogBackend>>,
}

impl Oracle {
    pub fn new<'a>(data: impl IntoIterator<Item = (SeriesId, &'a [f64])>) -> Self {
        let mut catalog = Catalog::new(MemoryCatalogBackend);
        for (id, xs) in data {
            catalog.create_series_with(id, index_config(), xs).expect("oracle series");
        }
        catalog.materialize().expect("oracle index builds");
        Self { snapshot: catalog.snapshot().expect("materialized") }
    }

    pub fn run(&self, spec: &QuerySpec) -> (Vec<MatchResult>, MatchStats) {
        let g = self.snapshot.generation(spec.series).expect("oracle knows series");
        KvMatcher::new(g.index(), g.data())
            .and_then(|m| m.execute(spec))
            .expect("oracle query runs")
    }

    pub fn answer(&self, spec: &QuerySpec) -> Vec<MatchResult> {
        self.run(spec).0
    }

    pub fn req(&self, spec: QuerySpec, dtw: bool) -> Req {
        let expected = self.answer(&spec);
        Req { spec, dtw, expected }
    }
}

/// Bit-for-bit equality of two answers.
pub fn same(a: &[MatchResult], b: &[MatchResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.offset == y.offset && x.distance.to_bits() == y.distance.to_bits())
}

/// Describes how `got` departs from `want`.
pub fn diff(got: &[MatchResult], want: &[MatchResult]) -> String {
    let first = got
        .iter()
        .zip(want)
        .position(|(g, w)| g.offset != w.offset || g.distance.to_bits() != w.distance.to_bits());
    match first {
        Some(i) => format!(
            "{} results (expected {}); #{i} is {:?}, expected {:?}",
            got.len(),
            want.len(),
            got[i],
            want[i]
        ),
        None => format!("{} results, expected {}", got.len(), want.len()),
    }
}

/// A served catalog: the service and its TCP front door on loopback,
/// all on library defaults.
pub struct Stack<B: CatalogBackend> {
    pub service: Arc<QueryService<B>>,
    pub server: Server<B>,
}

impl<B> Stack<B>
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    pub fn serve(catalog: Catalog<B>) -> Self {
        let service = Arc::new(ServiceBuilder::new(catalog).build().expect("default topology"));
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerOptions::default())
            .expect("bind loopback");
        Self { service, server }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Drains the server, then the service, and hands the catalog back.
    pub fn stop(self) -> Catalog<B> {
        self.server.shutdown();
        match Arc::try_unwrap(self.service) {
            Ok(service) => service.shutdown(),
            Err(_) => panic!("service still shared after the server drained"),
        }
    }
}

/// Times `setup` `reps` times, tearing down every stack but the last.
/// Returns the last stack and the fastest set-up time. Each set-up starts
/// with the freed heap handed back to the OS, as in a fresh process:
/// otherwise whether a set-up reuses the previous one's pages or faults
/// in new ones is up to the allocator's heuristics. Host noise only ever
/// slows a set-up, and on a shared machine it does so for seconds at a
/// time, so the fastest set-up is the steadiest reading of its cost: on
/// a shared 2-vCPU VM the median of sixty moved by up to 1.4x from run
/// to run.
pub fn timed_setups<S>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for i in 0..reps {
        release_freed_memory();
        let t0 = Instant::now();
        let stack = setup();
        fastest = fastest.min(t0.elapsed().as_secs_f64());
        if i + 1 < reps {
            teardown(stack);
        } else {
            last = Some(stack);
        }
    }
    (last.expect("at least one setup"), fastest)
}

/// One timed operation: when it completed, how long it took from its
/// due time, and how late the generator issued it (open loop only).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at: Instant,
    pub us: f64,
    pub lag_us: f64,
}

/// What one generator thread saw.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub ed: Vec<Sample>,
    pub dtw: Vec<Sample>,
    pub append: Vec<Sample>,
    pub appended_points: u64,
    /// Closed loop: the generator's own gap from an answer to the next
    /// send, µs.
    pub gap_us: Vec<f64>,
    /// Client-observed latency minus the service's own `latency_us`.
    pub net_self_us: Vec<f64>,
    /// `(pool index, service latency_us)` of every answered query.
    pub served: Vec<(usize, u64)>,
    pub stats: MatchStats,
    pub queries: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.ed.extend(o.ed);
        self.dtw.extend(o.dtw);
        self.append.extend(o.append);
        self.appended_points += o.appended_points;
        self.gap_us.extend(o.gap_us);
        self.net_self_us.extend(o.net_self_us);
        self.served.extend(o.served);
        add_stats(&mut self.stats, &o.stats);
        self.queries += o.queries;
        for e in o.errors {
            self.fail_note(e);
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.fail_note(what);
    }

    fn fail_note(&mut self, what: String) {
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records one query outcome against the pool's expected answer.
    pub fn query(
        &mut self,
        pool: &[Req],
        idx: usize,
        outcome: Result<QueryReply, ClientError>,
        us: f64,
        lag_us: f64,
    ) {
        self.attempted += 1;
        let req = &pool[idx];
        match outcome {
            Ok(reply) if same(&reply.results, &req.expected) => {
                let sample = Sample { at: Instant::now(), us, lag_us };
                if req.dtw {
                    self.dtw.push(sample);
                } else {
                    self.ed.push(sample);
                }
                self.net_self_us.push(us - reply.latency_us as f64);
                self.served.push((idx, reply.latency_us));
                add_stats(&mut self.stats, &reply.stats);
                self.queries += 1;
            }
            Ok(reply) => self.fail(format!("pool #{idx}: {}", diff(&reply.results, &req.expected))),
            Err(e) => self.fail(format!("pool #{idx}: {e}")),
        }
    }

    /// Checks a warm-up answer without timing it.
    pub fn warm(&mut self, pool: &[Req], idx: usize, outcome: Result<QueryReply, ClientError>) {
        let mut t = Tally::default();
        t.query(pool, idx, outcome, 0.0, 0.0);
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.errors.extend(t.errors);
    }

    /// Completion times of every answered query.
    pub fn done(&self) -> Vec<Instant> {
        self.ed.iter().chain(&self.dtw).map(|s| s.at).collect()
    }
}

/// Samples per block of the block statistics: enough that a block's p99
/// has ten samples beyond it.
const BLOCK: usize = 1_000;

/// Latency quantile `q` in ms: the median, over consecutive blocks of at
/// least [`BLOCK`] samples in completion order (one block when there are
/// fewer), of each block's quantile. A burst of noise moves the blocks it
/// falls in, not the run's figure.
pub fn lat_ms(samples: &[Sample], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by_key(|s| s.at);
    let n = (sorted.len() / BLOCK).max(1);
    let mut per: Vec<f64> = (0..n)
        .map(|b| {
            let block = &sorted[b * sorted.len() / n..(b + 1) * sorted.len() / n];
            quantile(&mut block.iter().map(|s| s.us).collect::<Vec<_>>(), q)
        })
        .collect();
    median(&mut per) / 1e3
}

/// Completions per second in each of `windows` equal windows of
/// `[start, end)`.
pub fn window_rates(done: &[Instant], start: Instant, end: Instant, windows: usize) -> Vec<f64> {
    let len = (end - start).as_secs_f64() / windows as f64;
    if len <= 0.0 {
        return Vec::new();
    }
    let mut counts = vec![0.0; windows];
    for t in done {
        if *t >= start && *t < end {
            let w = (((*t - start).as_secs_f64() / len) as usize).min(windows - 1);
            counts[w] += 1.0;
        }
    }
    counts.iter().map(|c| c / len).collect()
}

/// Median of [`window_rates`].
pub fn window_rate(done: &[Instant], start: Instant, end: Instant, windows: usize) -> f64 {
    median(&mut window_rates(done, start, end, windows))
}

pub fn add_stats(into: &mut MatchStats, s: &MatchStats) {
    into.candidates += s.candidates;
    into.rows_scanned += s.rows_scanned;
    into.rows_from_cache += s.rows_from_cache;
    into.points_fetched += s.points_fetched;
    into.pruned_constraint += s.pruned_constraint;
    into.pruned_lb_kim += s.pruned_lb_kim;
    into.pruned_lb_keogh += s.pruned_lb_keogh;
    into.full_distance_computations += s.full_distance_computations;
    into.matches += s.matches;
}

/// One timed span of a generator call. `parent` indexes the same
/// thread's span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span sink of one thread; `None` epoch means tracing is off.
pub struct Spans {
    epoch: Option<Instant>,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Option<Instant>) -> Self {
        Self { epoch, list: Vec::new() }
    }

    /// Runs `f`, returning its value, its span id (when traced) and its
    /// duration in µs.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>, f64) {
        let t0 = Instant::now();
        let value = f();
        let t1 = Instant::now();
        let us = (t1 - t0).as_secs_f64() * 1e6;
        let id = self.epoch.map(|epoch| {
            self.list.push(Span {
                name,
                request,
                parent,
                start_ns: (t0 - epoch).as_nanos() as u64,
                end_ns: (t1 - epoch).as_nanos() as u64,
            });
            self.list.len() - 1
        });
        (value, id, us)
    }
}

/// Writes every thread's spans to `.perfbench/spans-<workload>-<seed>.tsv`
/// as tab-separated lines (`thread id parent name request start_ns
/// end_ns`); `parent` indexes the same thread's lines.
pub fn write_spans(workload: &str, seed: u64, threads: &[Vec<Span>]) -> Result<(), String> {
    use std::io::Write;
    let path = PathBuf::from(".perfbench").join(format!("spans-{workload}-{seed}.tsv"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(".perfbench")?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "thread\tid\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for (t, spans) in threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
                let (name, req) = (s.name, s.request);
                writeln!(out, "{t}\t{i}\t{parent}\t{name}\t{req}\t{}\t{}", s.start_ns, s.end_ns)?;
            }
        }
        out.flush()
    };
    write().map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Median of `xs` (sorts in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of `xs` (sorts in place); 0 for an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples the process's resident set every few milliseconds until
/// dropped; `peak_mb` is the largest reading.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<Mutex<u64>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(Mutex::new(rss_kb()));
        let thread = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let now = rss_kb();
                    let mut peak = peak_kb.lock().unwrap();
                    *peak = (*peak).max(now);
                    drop(peak);
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        Self { stop, peak_kb, thread: Some(thread) }
    }

    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let kb = (*self.peak_kb.lock().unwrap()).max(rss_kb());
        kb as f64 / 1024.0
    }
}

fn proc_field(file: &str, key: &str) -> u64 {
    std::fs::read_to_string(file)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l[key.len()..].split_whitespace().next().and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

pub fn rss_kb() -> u64 {
    proc_field("/proc/self/status", "VmRSS:")
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks of 1/100 s.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<u64> = rest.split_whitespace().map(|f| f.parse().unwrap_or(0)).collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

/// Bytes this process has passed to `write`-family calls (files and
/// sockets alike).
pub fn wchar() -> u64 {
    proc_field("/proc/self/io", "wchar:")
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// A scratch directory under the working directory, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let dir = PathBuf::from(".perfbench").join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One measured stretch of load: what the generator threads saw, their
/// spans, and when timing started and ended.
pub struct Phase {
    pub tally: Tally,
    pub spans: Vec<Vec<Span>>,
    pub start: Instant,
    pub end: Instant,
}

impl Phase {
    /// Queries per second: the median over ten windows.
    pub fn rate(&self) -> f64 {
        window_rate(&self.tally.done(), self.start, self.end, 10)
    }
}

/// Closed loop: `conns` connections, each sending its next query only
/// after the previous answer arrived, cycling a seeded permutation of the
/// pool. The first `warm` is checked but not timed.
pub fn closed_loop(
    addr: std::net::SocketAddr,
    pool: &[Req],
    conns: usize,
    warm: Duration,
    measure: Duration,
    seed: u64,
    epoch: Option<Instant>,
) -> Phase {
    let results: Vec<(Tally, Vec<Span>, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                scope.spawn(move || {
                    let client = kvmatch_client::Client::connect(addr).expect("connect");
                    let mut order: Vec<usize> = (0..pool.len()).collect();
                    shuffle(&mut order, &mut rng(seed, 300 + t as u64));
                    let mut tally = Tally::default();
                    let mut spans = Spans::new(epoch);
                    let start = Instant::now();
                    let (warm_end, end) = (start + warm, start + warm + measure);
                    let mut i = 0usize;
                    let mut last_done: Option<Instant> = None;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let idx = order[i % order.len()];
                        let request = ((t as u64) << 40) | i as u64;
                        let (out, _, us) = spans.time("client.query", request, None, || {
                            client.query(pool[idx].spec.clone(), None)
                        });
                        if now < warm_end {
                            tally.warm(pool, idx, out);
                        } else {
                            if let Some(done) = last_done {
                                tally.gap_us.push((now - done).as_secs_f64() * 1e6);
                            }
                            tally.query(pool, idx, out, us, 0.0);
                            last_done = Some(Instant::now());
                        }
                        i += 1;
                    }
                    (tally, spans.list, warm_end, end)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
    });
    let now = Instant::now();
    let mut phase = Phase { tally: Tally::default(), spans: Vec::new(), start: now, end: now };
    for (i, (tally, spans, start, end)) in results.into_iter().enumerate() {
        phase.tally.absorb(tally);
        phase.spans.push(spans);
        if i == 0 {
            (phase.start, phase.end) = (start, end);
        }
    }
    phase
}

pub fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

/// Evenly spaced pool indices: the fixed sample a traced run replays.
pub fn sample_indices(pool_len: usize, n: usize) -> Vec<usize> {
    let n = n.min(pool_len).max(1);
    (0..n).map(|k| k * pool_len / n).collect()
}

/// ms from µs samples at quantile `q`.
pub fn q_ms(xs: &[f64], q: f64) -> f64 {
    quantile(&mut xs.to_vec(), q) / 1e3
}

/// Hands freed heap pages back to the OS. Called before every set-up and
/// once more before the resident set is sampled, so that the peak
/// reflects the served state rather than the precomputation and the
/// torn-down set-ups that ran before it.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
}
