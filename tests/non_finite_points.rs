//! Regression: a NaN or infinite point is refused at the catalog edge,
//! before the durability hook, on the memory and LSM backends. The
//! append fails with a typed error, the catalog's counters do not move,
//! later queries still equal the naive oracle over the accepted points,
//! and a reopened LSM catalog recovers only those points.

use kvmatch::core::catalog::{Catalog, CatalogBackend, MemoryCatalogBackend};
use kvmatch::core::{naive_search, CoreError, IndexBuildConfig, QuerySpec, SeriesId};
use kvmatch::lsm::{LsmCatalogBackend, LsmOptions};
use kvmatch::timeseries::generator::composite_series;

const ID: SeriesId = SeriesId::new(3);
const W: usize = 25;

/// The points every backend accepts.
fn points() -> Vec<f64> {
    composite_series(5, 3_000)
}

/// Answers equal the oracle over exactly the accepted points (RSM
/// verification runs the oracle's kernels, so bit-identically).
fn assert_answers_like_oracle<B: CatalogBackend>(cat: &mut Catalog<B>, xs: &[f64])
where
    B::Data: Sync,
{
    let specs = [
        QuerySpec::rsm_ed(xs[1_400..1_600].to_vec(), 3.0).with_series(ID),
        QuerySpec::rsm_dtw(xs[100..250].to_vec(), 2.0, 4).top_k(3).with_series(ID),
    ];
    let batch = cat.execute_batch(&specs).unwrap();
    for (spec, out) in specs.iter().zip(&batch.outputs) {
        assert_eq!(out.results, naive_search(xs, spec), "diverged from the oracle: {spec:?}");
    }
}

/// Poisoned appends and creates are refused without side effects; the
/// series then keeps ingesting and answering.
fn refuse_non_finite<B: CatalogBackend>(cat: &mut Catalog<B>)
where
    B::Data: Sync,
{
    let xs = points();
    cat.create_series_with(ID, IndexBuildConfig::new(W), &xs[..2_000]).unwrap();
    assert_answers_like_oracle(cat, &xs[..2_000]);
    let stats = cat.stats();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let chunk = [xs[2_000], xs[2_001], bad];
        assert!(matches!(
            cat.append(ID, &chunk),
            Err(CoreError::NonFinitePoint { series, offset: 2_002 }) if series == ID
        ));
        assert_eq!(cat.stats(), stats, "a refused append must not move the counters");
        assert_eq!(cat.series_len(ID), Some(2_000), "a refused chunk is refused whole");
    }
    // create_series_with refuses before the series is registered.
    let other = SeriesId::new(4);
    assert!(matches!(
        cat.create_series_with(other, IndexBuildConfig::new(W), &[1.0, f64::NAN]),
        Err(CoreError::NonFinitePoint { offset: 1, .. })
    ));
    assert_eq!(cat.series_len(other), None);
    assert_eq!(cat.stats(), stats);

    cat.append(ID, &xs[2_000..]).unwrap();
    assert_answers_like_oracle(cat, &xs);
}

#[test]
fn memory_catalog_refuses_non_finite_points() {
    refuse_non_finite(&mut Catalog::new(MemoryCatalogBackend));
}

#[test]
fn lsm_catalog_refuses_non_finite_points_and_recovers_only_finite_ones() {
    let dir = tempfile::tempdir().unwrap();
    let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
    refuse_non_finite(&mut Catalog::new(backend));

    let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
    let mut reopened = Catalog::open(backend).unwrap();
    assert_eq!(reopened.series(), vec![ID], "the refused series was never persisted");
    assert_eq!(reopened.stats().points_recovered, 3_000);
    assert_answers_like_oracle(&mut reopened, &points());
}
