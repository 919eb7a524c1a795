//! The weak (cheap, noisy) distance oracle and the degradation types.
//!
//! "Metric Clustering and MST with Strong and Weak Distance Oracles"
//! (PAPERS.md) splits distance access into two tiers: an expensive *strong*
//! oracle that always tells the truth ([`crate::Oracle`]) and a cheap *weak*
//! oracle that is usually right but sometimes lies — an embedding dot
//! product, a stale cache, a sketch. [`WeakOracle`] models that tier with
//! the same stateless seeded-schedule style as [`crate::FaultInjector`] and
//! [`crate::CorruptionInjector`]: whether probe `(pair, attempt)` lies, and
//! what shape the lie takes, is a pure function of `(seed, pair, attempt)`.
//! Schedules are therefore thread-invariant and replayable, which is what
//! lets invariant I10 demand byte-identical cascade output across thread
//! counts.
//!
//! Because clean probes return the ground truth *bit-for-bit* and errors
//! are keyed by the attempt number, `k` bit-exact agreeing probes of the
//! same pair form a quorum whose value equals the truth (up to the
//! astronomically unlikely colliding-lie residual, documented exactly as
//! for I9 voting): this is what `prox_bounds::CascadeResolver` exploits to
//! serve certified resolutions without a strong call.
//!
//! This module also hosts the degradation vocabulary — [`DegradationReport`]
//! and [`Degraded`] — because `core` is the only crate every layer sees:
//! `bounds` fills the report in, `algos` surfaces it, `bench` prints it.

use std::cell::Cell;

use crate::fault::{hash3, mix64, unit};
use crate::{Metric, Pair};

/// Domain-separation constant XORed into the seed so a weak oracle sharing
/// a seed with a fault/corruption injector still draws an independent
/// schedule.
const WEAK_DOMAIN: u64 = 0x0FEE_B1E0_AB1E_5EED;

/// How a weak probe lies. Mirrors [`crate::CorruptionKind`]'s taxonomy:
/// multiplicative scaling, an absolute offset, and small noise. All shapes
/// are clamped to `[0, max_distance]` so a lie is never detectable by
/// range alone.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum WeakErrorKind {
    /// Truth scaled by `0.25 + 1.5 * magnitude` (i.e. ×0.25 .. ×1.75).
    Scale {
        /// Uniform in `[0, 1)`, derived from the schedule hash.
        magnitude: f64,
    },
    /// Truth shifted by `(magnitude - 0.5) * max_distance`.
    Offset {
        /// Uniform in `[0, 1)`, derived from the schedule hash.
        magnitude: f64,
    },
    /// Truth perturbed by `(magnitude - 0.5) * max_distance / 8` — the
    /// sneaky small error that often survives a sandwich check.
    Noise {
        /// Uniform in `[0, 1)`, derived from the schedule hash.
        magnitude: f64,
    },
}

/// The cheap, noisy distance tier.
///
/// Owns the ground-truth metric (take a `&M` — the blanket
/// `impl Metric for &M` makes that a metric too) and answers
/// [`probe`](WeakOracle::probe) queries for free as far as strong-oracle
/// billing is concerned: weak probes are counted locally but never touch
/// [`crate::OracleStats`].
///
/// With `rate == 0.0` the weak oracle is perfect and every probe returns
/// the truth bit-for-bit.
pub struct WeakOracle<M> {
    metric: M,
    rate: f64,
    seed: u64,
    probes: Cell<u64>,
    errors_injected: Cell<u64>,
}

impl<M: Metric> WeakOracle<M> {
    /// A weak oracle over `metric` lying with probability `rate`
    /// (clamped into `[0, 1]`) on a schedule drawn from `seed`.
    pub fn new(metric: M, rate: f64, seed: u64) -> Self {
        let rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        WeakOracle {
            metric,
            rate,
            seed,
            probes: Cell::new(0),
            errors_injected: Cell::new(0),
        }
    }

    /// The configured error rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of objects in the underlying space.
    pub fn len(&self) -> usize {
        self.metric.len()
    }

    /// True when the underlying space is empty.
    pub fn is_empty(&self) -> bool {
        self.metric.is_empty()
    }

    /// The a-priori distance cap; all probe answers land in `[0, cap]`.
    pub fn max_distance(&self) -> f64 {
        self.metric.max_distance()
    }

    /// The error (if any) scheduled for probe `(p, attempt)` — a pure
    /// function of `(seed, p, attempt)`, independent of call order, thread
    /// count, and all prior probes.
    pub fn error_at(&self, p: Pair, attempt: u32) -> Option<WeakErrorKind> {
        let h = hash3(self.seed ^ WEAK_DOMAIN, p.key(), u64::from(attempt));
        if unit(h) >= self.rate {
            return None;
        }
        let shape = mix64(h);
        let magnitude = unit(mix64(shape));
        Some(match shape % 3 {
            0 => WeakErrorKind::Scale { magnitude },
            1 => WeakErrorKind::Offset { magnitude },
            _ => WeakErrorKind::Noise { magnitude },
        })
    }

    /// Asks the weak tier for the distance of `p`, attempt number
    /// `attempt`. Clean probes return the ground truth bit-for-bit; lying
    /// probes return the scheduled corruption clamped to
    /// `[0, max_distance]`. An error is only *counted* when the returned
    /// bits actually differ from the truth (a clamp can collapse a lie
    /// back onto the true value).
    #[expect(clippy::disallowed_methods, reason = "the weak tier meters probes")]
    pub fn probe(&self, p: Pair, attempt: u32) -> f64 {
        self.probes.set(self.probes.get() + 1);
        let truth = self.metric.distance(p.lo(), p.hi());
        let Some(kind) = self.error_at(p, attempt) else {
            return truth;
        };
        let max = self.metric.max_distance();
        let wrong = match kind {
            WeakErrorKind::Scale { magnitude } => truth * (0.25 + 1.5 * magnitude),
            WeakErrorKind::Offset { magnitude } => truth + (magnitude - 0.5) * max,
            WeakErrorKind::Noise { magnitude } => truth + (magnitude - 0.5) * (max / 8.0),
        }
        .clamp(0.0, max);
        if wrong.to_bits() == truth.to_bits() {
            return truth;
        }
        self.errors_injected.set(self.errors_injected.get() + 1);
        wrong
    }

    /// Total probes answered so far.
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Probes whose answer differed from the truth bit-for-bit.
    pub fn errors_injected(&self) -> u64 {
        self.errors_injected.get()
    }

    /// Resets the counters (the schedule is stateless and unaffected).
    pub fn reset_counters(&self) {
        self.probes.set(0);
        self.errors_injected.set(0);
    }
}

/// Why the strong tier was lost mid-run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The strong oracle's [`crate::CallBudget`] ran out.
    BudgetExhausted,
    /// A `Permanent` fault landed (the oracle is gone for good).
    Permanent,
}

impl DegradeReason {
    /// Stable lowercase name, used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            DegradeReason::BudgetExhausted => "budget_exhausted",
            DegradeReason::Permanent => "permanent",
        }
    }
}

/// Per-decision confidence accounting for a degraded run: once the strong
/// tier is lost, every fresh resolution is classified by how much trust it
/// deserves. Filled in by `prox_bounds::CascadeResolver`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Strong-oracle calls billed when the tier was lost (the exhaustion
    /// point; `0` when the failure carried no call counter).
    pub strong_calls_at_loss: u64,
    /// Resolutions after the loss served by a weak quorum that also passed
    /// its certified sandwich — still exact up to the colliding-lie
    /// residual.
    pub certified: u64,
    /// Resolutions served by a single un-quorumed weak answer that at
    /// least sat inside its certified sandwich.
    pub weak_only: u64,
    /// Resolutions where the weak tier had nothing trustworthy; the
    /// certified interval midpoint was served.
    pub unresolved: u64,
}

impl DegradationReport {
    /// Total post-loss resolutions, across all confidence classes.
    pub fn decisions(&self) -> u64 {
        self.certified + self.weak_only + self.unresolved
    }
}

/// The reason + accounting pair a degraded run reports.
///
/// Split from [`DegradationReport`] so the report can stay `Default`-able
/// while the reason stays mandatory.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Degradation {
    /// What killed the strong tier.
    pub reason: DegradeReason,
    /// The per-decision confidence counts.
    pub report: DegradationReport,
}

/// A result that may have been computed without the strong oracle's help
/// for part of the run. `degradation.is_none()` means fully healthy:
/// every resolution was certified and the value is byte-identical to a
/// strong-only run (invariant I10).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Degraded<T> {
    /// The algorithm's output.
    pub value: T,
    /// `Some` iff the strong tier was lost mid-run.
    pub degradation: Option<Degradation>,
}

impl<T> Degraded<T> {
    /// True when the strong tier was lost and `value` carries weak-only or
    /// unresolved decisions.
    pub fn is_degraded(&self) -> bool {
        self.degradation.is_some()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use crate::FnMetric;

    fn metric(n: usize) -> FnMetric<impl Fn(crate::ObjectId, crate::ObjectId) -> f64> {
        FnMetric::new(n, 1.0, |a, b| {
            if a == b {
                0.0
            } else {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                (f64::from(lo) * 31.0 + f64::from(hi) * 7.0).sin().abs()
            }
        })
    }

    #[test]
    fn schedule_is_a_pure_function() {
        let m = metric(16);
        let a = WeakOracle::new(&m, 0.4, 77);
        let b = WeakOracle::new(&m, 0.4, 77);
        for p in Pair::all(16) {
            for attempt in 0..4 {
                assert_eq!(a.error_at(p, attempt), b.error_at(p, attempt));
                assert_eq!(a.probe(p, attempt).to_bits(), b.probe(p, attempt).to_bits());
            }
        }
    }

    #[test]
    fn rate_zero_never_errs_rate_one_always_schedules() {
        let m = metric(12);
        let clean = WeakOracle::new(&m, 0.0, 9);
        let dirty = WeakOracle::new(&m, 1.0, 9);
        for p in Pair::all(12) {
            assert_eq!(clean.error_at(p, 0), None);
            let truth = m.distance(p.lo(), p.hi());
            assert_eq!(clean.probe(p, 0).to_bits(), truth.to_bits());
            assert!(dirty.error_at(p, 0).is_some());
        }
        assert_eq!(clean.errors_injected(), 0);
        assert_eq!(clean.probes(), Pair::count(12));
    }

    #[test]
    fn rate_is_roughly_respected() {
        let m = metric(64);
        let w = WeakOracle::new(&m, 0.25, 1234);
        let mut scheduled = 0u64;
        let mut total = 0u64;
        for p in Pair::all(64) {
            for attempt in 0..4 {
                total += 1;
                if w.error_at(p, attempt).is_some() {
                    scheduled += 1;
                }
            }
        }
        let frac = scheduled as f64 / total as f64;
        assert!((0.2..0.3).contains(&frac), "observed error rate {frac}");
    }

    #[test]
    fn seeds_and_attempts_give_different_schedules() {
        let m = metric(32);
        let a = WeakOracle::new(&m, 0.5, 1);
        let b = WeakOracle::new(&m, 0.5, 2);
        let mut differ_by_seed = false;
        let mut differ_by_attempt = false;
        for p in Pair::all(32) {
            if a.error_at(p, 0) != b.error_at(p, 0) {
                differ_by_seed = true;
            }
            if a.error_at(p, 0) != a.error_at(p, 1) {
                differ_by_attempt = true;
            }
        }
        assert!(differ_by_seed && differ_by_attempt);
    }

    #[test]
    fn error_shapes_all_occur_and_stay_in_range() {
        let m = metric(48);
        let w = WeakOracle::new(&m, 1.0, 5);
        let (mut scale, mut offset, mut noise) = (0u64, 0u64, 0u64);
        for p in Pair::all(48) {
            match w.error_at(p, 0) {
                Some(WeakErrorKind::Scale { .. }) => scale += 1,
                Some(WeakErrorKind::Offset { .. }) => offset += 1,
                Some(WeakErrorKind::Noise { .. }) => noise += 1,
                None => {}
            }
            let v = w.probe(p, 0);
            assert!((0.0..=m.max_distance()).contains(&v), "out of range: {v}");
        }
        assert!(scale > 0 && offset > 0 && noise > 0);
    }

    #[test]
    fn errors_counted_only_when_bits_change() {
        // Identity pairs have truth 0; a Scale lie on truth 0 stays 0 and
        // must not be counted. Use a metric where many distances are 0.
        let m = FnMetric::new(8, 1.0, |_, _| 0.0);
        let w = WeakOracle::new(&m, 1.0, 3);
        let mut scale_probes = 0u64;
        for p in Pair::all(8) {
            if let Some(WeakErrorKind::Scale { .. }) = w.error_at(p, 0) {
                scale_probes += 1;
                assert_eq!(w.probe(p, 0).to_bits(), 0.0f64.to_bits());
            }
        }
        assert!(scale_probes > 0, "schedule never drew a Scale shape");
        // All Scale lies collapsed back onto the truth, so none counted.
        let counted = w.errors_injected();
        assert!(counted < w.probes(), "counted = {counted}");
    }

    #[test]
    fn nonsense_rates_are_clamped() {
        let m = metric(4);
        assert_eq!(WeakOracle::new(&m, f64::NAN, 0).rate(), 0.0);
        assert_eq!(WeakOracle::new(&m, -3.0, 0).rate(), 0.0);
        assert_eq!(WeakOracle::new(&m, 7.0, 0).rate(), 1.0);
    }

    #[test]
    fn degraded_report_accounting() {
        let r = DegradationReport {
            strong_calls_at_loss: 10,
            certified: 3,
            weak_only: 2,
            unresolved: 1,
        };
        assert_eq!(r.decisions(), 6);
        let d: Degraded<u32> = Degraded {
            value: 7,
            degradation: Some(Degradation {
                reason: DegradeReason::BudgetExhausted,
                report: r,
            }),
        };
        assert!(d.is_degraded());
        assert_eq!(DegradeReason::BudgetExhausted.name(), "budget_exhausted");
        assert_eq!(DegradeReason::Permanent.name(), "permanent");
    }
}
