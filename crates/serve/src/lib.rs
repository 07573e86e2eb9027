//! # kvmatch-serve — the query-serving front door
//!
//! The paper's deployment target (§VII: data-center / IoT monitoring)
//! has *many clients* firing subsequence-matching queries concurrently
//! against live-ingesting series. The layers below this crate already
//! batch well — [`QueryExecutor`](kvmatch_core::QueryExecutor) amortizes
//! index probes and fans verification out over a thread pool — but they
//! expose a synchronous "hand me a `Vec<QuerySpec>`" interface. This
//! crate turns that into a service:
//!
//! * **Shard-per-core scale-out.** The catalog is split across N
//!   [`CatalogShard`](shard::CatalogShard)s — each an owned
//!   [`Catalog`](kvmatch_core::Catalog) slice with its *own* bounded
//!   lane, micro-batching scheduler, executor worker pool and ingest
//!   lane — behind a [`Router`] hashing `SeriesId →
//!   shard`. Shards share nothing: no lock, no queue, no write guard;
//!   an ingest stall or failure on one shard leaves the others serving
//!   at full speed. Mixed-series batches scatter across shards and
//!   gather bit-identically to single-shard and sequential execution.
//! * **Submission handles.** Clients submit individual
//!   [`QueryRequest`]s (range or top-k, per-series, optional deadline)
//!   to a [`QueryService`] from any number of threads and get a
//!   [`ResponseHandle`] — a one-shot future resolved by the pipeline.
//!   [`QueryService::submit_batch`] scatters a whole mixed-series batch
//!   in one call, outcomes input-aligned.
//! * **Micro-batching scheduler + worker pool, per shard.** Each
//!   shard's scheduler drains its lane into batches, flushing on
//!   **batch size or deadline, whichever first**
//!   ([`ServiceBuilder::max_batch`] /
//!   [`ServiceBuilder::max_batch_delay`]), then **partitions each batch
//!   by series** and hands the runs to the shard's workers. Each worker
//!   pins the shard's latest published snapshot — no catalog lock on
//!   the steady-state query path — so runs of different series execute
//!   concurrently while concurrent requests on one series still share
//!   probe work exactly like a hand-assembled batch; per-request
//!   identity is preserved in the fan-back.
//! * **Dedicated ingest lanes.** Appends bypass the worker pools and
//!   run on their shard's catalog write side in its own lane. An append
//!   is an ordering barrier *for its own series only* (per-series
//!   epochs, scoped to the owning shard): queries submitted after it
//!   see its points, queries on other series keep flowing during
//!   ingestion.
//! * **Per-shard backpressure.** Admission control is a bounded lane
//!   per shard: a full lane answers [`Submit::Rejected`] immediately
//!   (or after a bounded wait via [`QueryService::submit_timeout`])
//!   instead of buffering without limit — and the rejection names its
//!   shard ([`Rejected::shard`]), so clients can reason about *which*
//!   slice of the keyspace is saturated. A shard's scheduler hands runs
//!   only to *idle* workers, so its query pipeline cannot buffer past
//!   `queue_capacity + max_batch` either (its ingest lane's own bounded
//!   queue adds at most `queue_capacity` admitted appends). Per-request
//!   deadlines expire queued work that waited too long (checked at
//!   dispatch and again after execution).
//! * **Metrics.** A registry records lane and ingest depths, batch
//!   occupancy, admission/completion counters (expired-in-queue vs
//!   expired-in-execution kept separate), per-shard
//!   `kvmatch_serve_shard_*` labelled families ([`ShardSnapshot`]),
//!   per-worker dispatch counters ([`WorkerSnapshot`]) and latency
//!   percentiles (p50/p95/p99) — [`QueryService::metrics`].
//!
//! The build environment has no tokio, so the async surface is built on
//! `std::thread` + in-crate channel primitives ([`sync`]), mirroring the
//! workspace's `std::thread::scope` idiom.
//!
//! ## Quick start
//!
//! ```
//! use kvmatch_core::{Catalog, IndexBuildConfig, MemoryCatalogBackend, QuerySpec, SeriesId};
//! use kvmatch_serve::{QueryRequest, QueryService, Submit};
//!
//! // A catalog with one series.
//! let id = SeriesId::new(1);
//! let xs: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.05).sin() * 2.0).collect();
//! let mut catalog = Catalog::new(MemoryCatalogBackend);
//! catalog.create_series_with(id, IndexBuildConfig::new(50), &xs).unwrap();
//!
//! // Serve it. The validating builder splits the catalog across the
//! // shards and spawns each shard's pipeline.
//! let service = QueryService::builder(catalog).shards(2).workers(2).build().unwrap();
//!
//! // Top-3 nearest subsequences to a pattern, plus a plain range query.
//! let topk = QueryRequest::top_k(QuerySpec::rsm_ed(xs[300..500].to_vec(), 5.0).with_series(id), 3);
//! let range = QueryRequest::range(QuerySpec::rsm_ed(xs[900..1100].to_vec(), 1e-6).with_series(id));
//! let topk = service.submit(topk).into_result().expect("queue has room");
//! let range = service.submit(range).into_result().expect("queue has room");
//!
//! let response = topk.wait().unwrap();
//! assert_eq!(response.results[0].offset, 300, "nearest-first: the self-match leads");
//! assert!(response.results.len() <= 3);
//! assert_eq!(range.wait().unwrap().results[0].offset, 900);
//!
//! // Live ingestion goes through the same routed lanes (ordered w.r.t.
//! // queries on the same series).
//! let more: Vec<f64> = (0..500).map(|i| (i as f64 * 0.05).cos()).collect();
//! service.append(id, more, std::time::Duration::from_secs(1)).unwrap().wait().unwrap();
//!
//! let m = service.metrics();
//! assert_eq!(m.completed, 2);
//! assert!(m.latency_p99_us >= m.latency_p50_us);
//!
//! // Graceful shutdown reassembles and returns the catalog (with the
//! // appended points).
//! let catalog = service.shutdown();
//! assert_eq!(catalog.series_len(id), Some(3500));
//! ```

pub mod metrics;
pub mod service;
pub mod shard;
pub mod sync;
pub mod wire;

pub use metrics::{LatencyHistogram, Metrics, MetricsSnapshot, ShardSnapshot, WorkerSnapshot};
pub use service::{
    AppendHandle, ConfigError, QueryRequest, QueryResponse, QueryService, RejectKind, Rejected,
    RejectedAppend, RejectedQuery, ResponseHandle, ServeError, ServiceBuilder, Submit,
};
pub use shard::Router;
