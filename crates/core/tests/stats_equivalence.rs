//! Stats-level equivalence of the one query path. `KvMatcher`, a
//! one-spec `QueryExecutor` batch and `DpMatcher` all run the same probe
//! and verify phases, so beyond equal answers they must also report the
//! same work: candidates, probes, fetched points and cascade counters.
//! Covers RSM/cNSM × ED/DTW, range and top-k.

use kvmatch_core::{
    naive_search, DpMatcher, ExecutorConfig, IndexBuildConfig, IndexSetConfig, KvIndex, KvMatcher,
    MatchResult, MatchStats, MultiIndex, QueryExecutor, QuerySpec, RowCache,
};
use kvmatch_storage::memory::MemoryKvStoreBuilder;
use kvmatch_storage::{MemoryKvStore, MemorySeriesStore};
use kvmatch_timeseries::generator::composite_series;

/// Every query class, each as a range and a top-k query.
fn specs(xs: &[f64]) -> Vec<QuerySpec> {
    let range = [
        QuerySpec::rsm_ed(xs[400..600].to_vec(), 12.0),
        QuerySpec::rsm_dtw(xs[1_300..1_500].to_vec(), 6.0, 5),
        QuerySpec::cnsm_ed(xs[2_600..2_800].to_vec(), 2.5, 1.5, 3.0),
        QuerySpec::cnsm_dtw(xs[3_900..4_060].to_vec(), 2.0, 5, 1.5, 3.0),
    ];
    let top_k = range.iter().enumerate().map(|(i, spec)| spec.clone().top_k(2 + i));
    range.iter().cloned().chain(top_k).collect()
}

fn bits(results: &[MatchResult]) -> Vec<(usize, u64)> {
    results.iter().map(|r| (r.offset, r.distance.to_bits())).collect()
}

/// Phase-1 and fetch counters always agree; cascade counters agree
/// whenever candidates meet the same thresholds in the same order.
fn assert_same_work(got: &MatchStats, want: &MatchStats, cascade: bool, what: &str) {
    let work = |s: &MatchStats| {
        (
            s.candidates,
            s.candidate_intervals,
            s.index_accesses,
            s.probe_cache_hits,
            s.points_fetched,
            s.matches,
        )
    };
    assert_eq!(work(got), work(want), "{what}: probe/fetch counters differ");
    if cascade {
        let stages = |s: &MatchStats| {
            (
                s.pruned_constraint,
                s.pruned_lb_kim,
                s.pruned_lb_keogh,
                s.full_distance_computations,
                s.adaptive_skipped_lb_kim,
                s.adaptive_skipped_lb_keogh,
            )
        };
        assert_eq!(stages(got), stages(want), "{what}: cascade counters differ");
    }
}

#[test]
fn matcher_and_one_spec_batches_report_identical_results_and_stats() {
    let xs = composite_series(131, 6_000);
    let (idx, _) = KvIndex::<MemoryKvStore>::build_into(
        &xs,
        IndexBuildConfig::new(50),
        MemoryKvStoreBuilder::new(),
    )
    .unwrap();
    let data = MemorySeriesStore::new(xs.clone());
    for spec in specs(&xs) {
        let cache = RowCache::new(ExecutorConfig::default().cache_capacity);
        let matcher = KvMatcher::new(&idx, &data).unwrap().with_row_cache(&cache);
        let (want, want_stats) = matcher.execute(&spec).unwrap();
        assert!(!want.is_empty(), "{spec:?} should match something");
        assert_eq!(want_stats.alloc_events, 0, "the sequential path pre-sizes its scratch");
        for threads in [1, 2] {
            let exec = QueryExecutor::with_config(
                &idx,
                &data,
                ExecutorConfig { threads, ..ExecutorConfig::default() },
            )
            .unwrap();
            let out = &exec.execute_batch(std::slice::from_ref(&spec)).unwrap().outputs[0];
            let what = format!("threads={threads} {spec:?}");
            assert_eq!(bits(&out.results), bits(&want), "{what}: results differ");
            // Two workers tighten a top-k query's shared threshold in
            // whatever order they finish intervals, so which lower bound
            // rejects a candidate may vary — never the answer.
            let ordered = spec.limit.is_none() || threads == 1;
            assert_same_work(&out.stats, &want_stats, ordered, &what);
        }
    }
}

#[test]
fn dp_matcher_matches_the_oracle() {
    let xs = composite_series(137, 6_000);
    let config = IndexSetConfig { wu: 25, levels: 4, ..IndexSetConfig::default() };
    let multi =
        MultiIndex::<MemoryKvStore>::build_with::<MemoryKvStoreBuilder, _>(&xs, config, |_| {
            MemoryKvStoreBuilder::new()
        })
        .unwrap();
    let data = MemorySeriesStore::new(xs.clone());
    let dp = DpMatcher::new(&multi, &data).unwrap();
    for spec in specs(&xs) {
        let (got, stats) = dp.execute(&spec).unwrap();
        let want = naive_search(&xs, &spec);
        assert_eq!(stats.matches as usize, got.len());
        assert!(stats.candidates >= stats.matches, "{spec:?}");
        if spec.constraint.is_none() {
            // RSM verification runs the oracle's kernels on raw slices.
            assert_eq!(bits(&got), bits(&want), "{spec:?}");
        } else {
            // cNSM statistics are anchored at each fetched interval's
            // left edge, the oracle's at the series start: same answers,
            // distances equal up to rounding.
            let offsets = |rs: &[MatchResult]| rs.iter().map(|r| r.offset).collect::<Vec<_>>();
            assert_eq!(offsets(&got), offsets(&want), "{spec:?}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g.distance - w.distance).abs() <= 1e-9, "{spec:?}: {g:?} vs {w:?}");
            }
        }
    }
}
