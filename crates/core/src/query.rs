//! Query specification, results and statistics.

use std::fmt;

use kvmatch_distance::LpExponent;
use kvmatch_storage::{SeriesId, StorageError};

/// Distance measure of a query (§II-A, extended per the §X future work).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Measure {
    /// Euclidean distance.
    Ed,
    /// Dynamic Time Warping with a Sakoe–Chiba band of radius `rho`.
    Dtw {
        /// Band radius ρ; `rho = 0` degenerates to ED.
        rho: usize,
    },
    /// An Lp norm (`Lp { p: LpExponent::Finite(2) }` is equivalent to
    /// [`Measure::Ed`] up to kernel choice). The index serves these through
    /// the power-mean generalization of Lemmas 1–2.
    Lp {
        /// The exponent: finite `p ≥ 1` or `∞` (Chebyshev).
        p: LpExponent,
    },
}

impl Measure {
    /// The band radius (0 for non-DTW measures).
    pub fn rho(&self) -> usize {
        match self {
            Measure::Dtw { rho } => *rho,
            _ => 0,
        }
    }

    /// True for the DTW variant.
    pub fn is_dtw(&self) -> bool {
        matches!(self, Measure::Dtw { .. })
    }
}

/// The cNSM constraint thresholds: `1/α ≤ σS/σQ ≤ α`, `|µS − µQ| ≤ β`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Constraint {
    /// Amplitude-scaling threshold, `α ≥ 1`.
    pub alpha: f64,
    /// Offset-shifting threshold, `β ≥ 0`.
    pub beta: f64,
}

/// A fully-specified subsequence-matching query: one of RSM-ED, RSM-DTW,
/// cNSM-ED, cNSM-DTW depending on `measure` and `constraint`.
///
/// `series` routes the query inside a multi-series batch; the constructors
/// default it to [`SeriesId::DEFAULT`], which is what single-series
/// matchers and executors serve. Use [`QuerySpec::with_series`] to target
/// a catalog member.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// The series this query runs against.
    pub series: SeriesId,
    /// The query sequence `Q`.
    pub query: Vec<f64>,
    /// Distance threshold `ε ≥ 0`. For cNSM queries this bounds
    /// `D(Ŝ, Q̂)`; for RSM it bounds `D(S, Q)`. Top-k queries keep ε as a
    /// ceiling: only subsequences within ε compete for the k slots
    /// (`f64::INFINITY` turns that ceiling off).
    pub epsilon: f64,
    /// ED or banded DTW.
    pub measure: Measure,
    /// `Some` makes this a cNSM query; `None` is RSM.
    pub constraint: Option<Constraint>,
    /// `Some(k)` makes this a top-k query: instead of *every* subsequence
    /// within ε, only the `k` nearest are returned (distance ties broken
    /// by lower offset), ordered nearest-first. `None` is the plain range
    /// semantics. Set via [`QuerySpec::top_k`].
    pub limit: Option<usize>,
    /// When set, execution runs with per-stage wall-time tracing enabled
    /// and the serving layer returns a structured trace (EXPLAIN) with
    /// the response. Never changes results — only stats and cost. Set
    /// via [`QuerySpec::with_explain`].
    pub explain: bool,
}

impl QuerySpec {
    /// RSM-ED query.
    pub fn rsm_ed(query: Vec<f64>, epsilon: f64) -> Self {
        Self {
            series: SeriesId::DEFAULT,
            query,
            epsilon,
            measure: Measure::Ed,
            constraint: None,
            limit: None,
            explain: false,
        }
    }

    /// RSM-DTW query.
    pub fn rsm_dtw(query: Vec<f64>, epsilon: f64, rho: usize) -> Self {
        Self {
            series: SeriesId::DEFAULT,
            query,
            epsilon,
            measure: Measure::Dtw { rho },
            constraint: None,
            limit: None,
            explain: false,
        }
    }

    /// cNSM-ED query.
    pub fn cnsm_ed(query: Vec<f64>, epsilon: f64, alpha: f64, beta: f64) -> Self {
        Self {
            series: SeriesId::DEFAULT,
            query,
            epsilon,
            measure: Measure::Ed,
            constraint: Some(Constraint { alpha, beta }),
            limit: None,
            explain: false,
        }
    }

    /// cNSM-DTW query.
    pub fn cnsm_dtw(query: Vec<f64>, epsilon: f64, rho: usize, alpha: f64, beta: f64) -> Self {
        Self {
            series: SeriesId::DEFAULT,
            query,
            epsilon,
            measure: Measure::Dtw { rho },
            constraint: Some(Constraint { alpha, beta }),
            limit: None,
            explain: false,
        }
    }

    /// RSM query under an Lp norm (§X future work; `LpExponent::Finite(1)`
    /// = Manhattan, `LpExponent::Infinity` = Chebyshev).
    pub fn rsm_lp(query: Vec<f64>, epsilon: f64, p: LpExponent) -> Self {
        Self {
            series: SeriesId::DEFAULT,
            query,
            epsilon,
            measure: Measure::Lp { p },
            constraint: None,
            limit: None,
            explain: false,
        }
    }

    /// cNSM query under an Lp norm.
    pub fn cnsm_lp(query: Vec<f64>, epsilon: f64, p: LpExponent, alpha: f64, beta: f64) -> Self {
        Self {
            series: SeriesId::DEFAULT,
            query,
            epsilon,
            measure: Measure::Lp { p },
            constraint: Some(Constraint { alpha, beta }),
            limit: None,
            explain: false,
        }
    }

    /// Validates parameter domains (`ε ≥ 0`, `α ≥ 1`, `β ≥ 0`, non-empty
    /// finite query; cNSM additionally requires `σQ > 0`).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.query.is_empty() {
            return Err(CoreError::InvalidQuery("query is empty".into()));
        }
        if self.query.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::InvalidQuery("query contains non-finite values".into()));
        }
        if self.epsilon.is_nan() || self.epsilon < 0.0 {
            return Err(CoreError::InvalidQuery(format!(
                "epsilon must be ≥ 0, got {}",
                self.epsilon
            )));
        }
        if let Measure::Lp { p: LpExponent::Finite(p) } = self.measure {
            if p == 0 {
                return Err(CoreError::InvalidQuery("Lp exponent must be ≥ 1".into()));
            }
        }
        if self.limit == Some(0) {
            return Err(CoreError::InvalidQuery("top-k with k = 0".into()));
        }
        if let Some(c) = &self.constraint {
            if c.alpha.is_nan() || c.alpha < 1.0 {
                return Err(CoreError::InvalidQuery(format!("alpha must be ≥ 1, got {}", c.alpha)));
            }
            if c.beta.is_nan() || c.beta < 0.0 {
                return Err(CoreError::InvalidQuery(format!("beta must be ≥ 0, got {}", c.beta)));
            }
            let (_, sigma) = kvmatch_distance::mean_std(&self.query);
            if sigma == 0.0 {
                return Err(CoreError::InvalidQuery(
                    "cNSM query must not be constant (σQ = 0)".into(),
                ));
            }
        }
        Ok(())
    }

    /// Targets the query at a catalog series (builder style).
    pub fn with_series(mut self, series: SeriesId) -> Self {
        self.series = series;
        self
    }

    /// Turns the query into a top-k query (builder style): the `k`
    /// nearest subsequences within ε, nearest-first, distance ties broken
    /// by lower offset. Raise ε (up to `f64::INFINITY`) to widen the pool
    /// the k winners are drawn from — a looser ceiling trades index
    /// pruning for recall beyond ε.
    pub fn top_k(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Enables per-stage tracing for this query (builder style): the
    /// cascade runs timed and the serving layer attaches an
    /// `ExplainReport` to the response. Results are bit-identical with
    /// the flag on or off.
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// True for cNSM queries.
    pub fn is_normalized(&self) -> bool {
        self.constraint.is_some()
    }
}

/// Deterministic top-k selection over verified results: keeps the `k`
/// nearest, breaking distance ties by lower offset, ordered
/// nearest-first. Every execution path (sequential matcher, batched
/// executor, naive oracle) funnels its qualified results through this one
/// function so top-k answers are bit-identical across them — and every
/// internal path calls it while `distance` still holds the kernel's
/// comparison-domain value (squared / p-th-power), the same domain the
/// best-so-far threshold prunes in, so selection and pruning can never
/// disagree about a tie.
pub fn select_top_k(results: &mut Vec<MatchResult>, k: usize) {
    results.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.offset.cmp(&b.offset)));
    results.truncate(k);
}

/// One qualified subsequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchResult {
    /// Start offset of the matching subsequence `X(offset, |Q|)` (0-based).
    pub offset: usize,
    /// The achieved distance — `D(S, Q)` for RSM, `D(Ŝ, Q̂)` for cNSM.
    pub distance: f64,
}

/// Query-execution statistics (the columns of the paper's Tables III–VI).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MatchStats {
    /// `nP(CS)` — candidate subsequences verified in phase 2.
    pub candidates: u64,
    /// `nI(CS)` — candidate intervals (data-fetch operations).
    pub candidate_intervals: u64,
    /// Index scan operations performed (the "#index accesses" column).
    pub index_accesses: u64,
    /// Index rows returned across all scans.
    pub rows_scanned: u64,
    /// Index rows served from a [`RowCache`](crate::cache::RowCache)
    /// instead of the store (§VI-C optimization 1).
    pub rows_from_cache: u64,
    /// Window intervals collected across all `IS_i`.
    pub intervals_collected: u64,
    /// Index probes answered entirely from the row cache (no store scan).
    pub probe_cache_hits: u64,
    /// Rows this query's probes evicted from the row cache to stay within
    /// its entry/interval budgets (long-running serving keeps cache memory
    /// bounded; this is where that cost shows up).
    pub cache_evictions: u64,
    /// Data points fetched from the series store in phase 2.
    pub points_fetched: u64,
    /// Candidates rejected by the cNSM constraint pre-stage.
    pub pruned_constraint: u64,
    /// Candidates rejected by LB_Kim-FL.
    pub pruned_lb_kim: u64,
    /// Candidates rejected by LB_Keogh.
    pub pruned_lb_keogh: u64,
    /// Candidates that survived all lower bounds and required a full
    /// distance computation.
    pub full_distance_computations: u64,
    /// Number of qualified results.
    pub matches: u64,
    /// Wall-clock nanoseconds in phase 1 (index probing).
    pub phase1_nanos: u64,
    /// Wall-clock nanoseconds in phase 2 (verification). Under batched
    /// execution this is the summed per-interval worker time attributed to
    /// the query, not wall-clock.
    pub phase2_nanos: u64,
    /// Wall time inside LB_Kim-FL, nanoseconds. Zero unless the query
    /// ran with [`QuerySpec::explain`] (stage timing is off otherwise).
    pub lb_kim_nanos: u64,
    /// Wall time inside LB_Keogh, nanoseconds (explain queries only).
    pub lb_keogh_nanos: u64,
    /// Wall time inside the exact distance kernel, nanoseconds (explain
    /// queries only).
    pub dtw_nanos: u64,
    /// Kernel scratch buffer growths during verification (0 once warm).
    pub alloc_events: u64,
    /// LB_Kim evaluations skipped by adaptive stage demotion.
    pub adaptive_skipped_lb_kim: u64,
    /// LB_Keogh evaluations skipped by adaptive stage demotion.
    pub adaptive_skipped_lb_keogh: u64,
}

impl MatchStats {
    /// Total query nanoseconds (both phases).
    pub fn total_nanos(&self) -> u64 {
        self.phase1_nanos + self.phase2_nanos
    }

    /// Folds one phase-1 probe's accounting into the query statistics,
    /// keeping real store scans and cache-served work distinct.
    pub fn absorb_probe(&mut self, info: &crate::index::ScanInfo) {
        self.index_accesses += info.scans;
        self.rows_scanned += info.rows;
        self.rows_from_cache += info.rows_from_cache;
        self.intervals_collected += info.intervals;
        self.cache_evictions += info.evictions;
        if info.is_cache_hit() {
            self.probe_cache_hits += 1;
        }
    }

    /// Folds phase-2 cascade accounting into the query statistics.
    pub fn absorb_cascade(&mut self, cascade: &kvmatch_distance::CascadeStats) {
        self.pruned_constraint += cascade.pruned_constraint;
        self.pruned_lb_kim += cascade.pruned_lb_kim;
        self.pruned_lb_keogh += cascade.pruned_lb_keogh;
        self.full_distance_computations += cascade.full_distance_computations;
        self.adaptive_skipped_lb_kim += cascade.adaptive_skipped_lb_kim;
        self.adaptive_skipped_lb_keogh += cascade.adaptive_skipped_lb_keogh;
        self.lb_kim_nanos += cascade.lb_kim_nanos;
        self.lb_keogh_nanos += cascade.lb_keogh_nanos;
        self.dtw_nanos += cascade.dtw_nanos;
    }
}

/// Errors from the core matching layer.
#[derive(Debug)]
pub enum CoreError {
    /// Parameter-domain violation.
    InvalidQuery(String),
    /// Query/index incompatibility (e.g. `|Q| < w`).
    QueryTooShort {
        /// Query length.
        query_len: usize,
        /// Index window width.
        window: usize,
    },
    /// A batch query referenced a series its executor does not serve.
    UnknownSeries(SeriesId),
    /// No snapshot covers the catalog's state yet: a read arrived before
    /// any successful `Catalog::materialize` published one.
    Unmaterialized,
    /// An append carried a NaN or infinite point. The whole chunk was
    /// refused before anything was persisted or indexed.
    NonFinitePoint {
        /// The series the append targeted.
        series: SeriesId,
        /// Series offset the offending point would have taken.
        offset: u64,
    },
    /// Storage failure.
    Storage(StorageError),
    /// Persisted index failed validation.
    CorruptIndex(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            CoreError::QueryTooShort { query_len, window } => {
                write!(f, "query length {query_len} is shorter than the index window {window}")
            }
            CoreError::UnknownSeries(id) => {
                write!(f, "query routed to unknown {id}")
            }
            CoreError::Unmaterialized => {
                write!(f, "catalog has unmaterialized appends; materialize() first")
            }
            CoreError::NonFinitePoint { series, offset } => {
                write!(f, "append to {series} refused: point at offset {offset} is not finite")
            }
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::CorruptIndex(msg) => write!(f, "corrupt index: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_query_type() {
        let q = vec![1.0, 2.0, 3.0];
        assert!(!QuerySpec::rsm_ed(q.clone(), 1.0).is_normalized());
        assert!(QuerySpec::cnsm_ed(q.clone(), 1.0, 2.0, 5.0).is_normalized());
        assert_eq!(QuerySpec::rsm_dtw(q.clone(), 1.0, 7).measure.rho(), 7);
        assert!(QuerySpec::cnsm_dtw(q, 1.0, 3, 1.5, 0.5).measure.is_dtw());
    }

    #[test]
    fn validate_rejects_bad_domains() {
        let q = vec![1.0, 2.0, 3.0];
        assert!(QuerySpec::rsm_ed(vec![], 1.0).validate().is_err());
        assert!(QuerySpec::rsm_ed(q.clone(), -1.0).validate().is_err());
        assert!(QuerySpec::rsm_ed(q.clone(), f64::NAN).validate().is_err());
        assert!(QuerySpec::rsm_ed(vec![1.0, f64::NAN], 1.0).validate().is_err());
        assert!(QuerySpec::cnsm_ed(q.clone(), 1.0, 0.5, 1.0).validate().is_err());
        assert!(QuerySpec::cnsm_ed(q.clone(), 1.0, 1.0, -0.1).validate().is_err());
        assert!(QuerySpec::cnsm_ed(vec![2.0; 8], 1.0, 1.5, 1.0).validate().is_err());
        assert!(QuerySpec::cnsm_ed(q.clone(), 1.0, 1.0, 0.0).validate().is_ok());
        assert!(QuerySpec::rsm_ed(q, 0.0).validate().is_ok());
    }

    #[test]
    fn with_series_routes() {
        let q = QuerySpec::rsm_ed(vec![1.0, 2.0], 1.0);
        assert_eq!(q.series, SeriesId::DEFAULT);
        let q = q.with_series(SeriesId::new(9));
        assert_eq!(q.series, SeriesId::new(9));
        assert_eq!(
            CoreError::UnknownSeries(SeriesId::new(9)).to_string(),
            "query routed to unknown series#9"
        );
    }

    #[test]
    fn stats_total() {
        let s = MatchStats { phase1_nanos: 10, phase2_nanos: 32, ..Default::default() };
        assert_eq!(s.total_nanos(), 42);
    }

    #[test]
    fn error_display() {
        let e = CoreError::QueryTooShort { query_len: 10, window: 25 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("25"));
    }
}
