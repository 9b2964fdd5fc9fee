//! The GPU provisioning cost model behind the paper's economic argument
//! (§2.1–2.2, Fig. 3b, Fig. 10).
//!
//! Three provisioning strategies are compared:
//!
//! 1. **Region-local reserved** — each region holds enough reserved
//!    instances for its *own* peak demand. This is today's common practice
//!    and the paper's baseline (Fig. 1a).
//! 2. **Aggregated reserved** — instances are reserved for the *global*
//!    peak of the aggregated demand curve and shared across regions via
//!    cross-region traffic handling. This is what SkyWalker enables; the
//!    paper measures a 40.5 % reduction on its WildChat subset (Fig. 3b)
//!    and 25 % end-to-end (Fig. 10).
//! 3. **Perfect on-demand autoscaling** — pay the on-demand rate for
//!    exactly the demand in every interval, assuming oracle prediction, no
//!    provisioning delay, and unlimited availability. Even this lower bound
//!    on autoscaling cost is ~2.2× the aggregated reserved cost, because
//!    the on-demand hourly rate is ~2.6× the reserved rate.
//!
//! Demand is expressed in *replicas needed per interval*; converting a
//! request rate into replicas is the caller's business (the workload crate
//! provides request rates, the replica crate the per-replica capacity).

use std::fmt;

/// Hourly price of one 8×H100 p5.48xlarge instance under a three-year
/// reserved commitment (§2.1).
const RESERVED_HOURLY_USD: f64 = 37.56;

/// Hourly on-demand price of the same instance (§2.1).
const ON_DEMAND_HOURLY_USD: f64 = 98.32;

/// An instance pricing profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// Price per instance-hour under a long-term commitment.
    pub reserved_hourly_usd: f64,
    /// Price per instance-hour on demand.
    pub on_demand_hourly_usd: f64,
}

impl Pricing {
    /// The paper's p5.48xlarge (8×H100) price points.
    pub const P5_48XLARGE: Pricing = Pricing {
        reserved_hourly_usd: RESERVED_HOURLY_USD,
        on_demand_hourly_usd: ON_DEMAND_HOURLY_USD,
    };

    /// A normalized profile (reserved = 1.0/h) that keeps the paper's
    /// on-demand/reserved ratio; convenient for ratio-only experiments.
    // det-allow(D07): the normalized prices the doctest and the Fig. 3 unit tests compute in
    pub const UNIT: Pricing = Pricing {
        reserved_hourly_usd: 1.0,
        on_demand_hourly_usd: ON_DEMAND_HOURLY_USD / RESERVED_HOURLY_USD,
    };
}

/// Per-region demand over a day: `demand[region][interval]` is the number
/// of replicas needed in that region during that interval.
#[derive(Debug, Clone)]
pub struct DemandMatrix {
    /// Replicas needed, indexed `[region][interval]`.
    demand: Vec<Vec<u32>>,
    /// Duration of one interval in hours (e.g. 1.0 for hourly buckets).
    interval_hours: f64,
}

/// Errors constructing a [`DemandMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
// det-allow(D07): the error of `DemandMatrix::new`; no caller matches on it yet
pub enum DemandError {
    /// No regions supplied.
    NoRegions,
    /// Regions disagree on the number of intervals.
    RaggedIntervals,
    /// A region has zero intervals.
    NoIntervals,
    /// The interval length is zero, negative or not finite.
    InvalidIntervalHours,
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemandError::NoRegions => write!(f, "demand matrix has no regions"),
            DemandError::RaggedIntervals => write!(f, "regions have differing interval counts"),
            DemandError::NoIntervals => write!(f, "demand matrix has zero intervals"),
            DemandError::InvalidIntervalHours => {
                write!(
                    f,
                    "interval length must be a positive, finite number of hours"
                )
            }
        }
    }
}

impl std::error::Error for DemandError {}

impl DemandMatrix {
    /// Builds a demand matrix from per-region interval series, each
    /// interval `interval_hours` long.
    pub fn new(demand: Vec<Vec<u32>>, interval_hours: f64) -> Result<Self, DemandError> {
        if !(interval_hours.is_finite() && interval_hours > 0.0) {
            return Err(DemandError::InvalidIntervalHours);
        }
        if demand.is_empty() {
            return Err(DemandError::NoRegions);
        }
        let n = demand[0].len();
        if n == 0 {
            return Err(DemandError::NoIntervals);
        }
        if demand.iter().any(|d| d.len() != n) {
            return Err(DemandError::RaggedIntervals);
        }
        Ok(DemandMatrix {
            demand,
            interval_hours,
        })
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.demand.len()
    }

    /// Number of intervals.
    fn intervals(&self) -> usize {
        self.demand[0].len()
    }

    /// Peak demand of one region across all intervals.
    fn region_peak(&self, region: usize) -> u32 {
        self.demand[region].iter().copied().max().unwrap_or(0)
    }

    /// Sum of per-region peaks: the fleet size under region-local
    /// provisioning.
    fn sum_of_region_peaks(&self) -> u32 {
        (0..self.regions()).map(|r| self.region_peak(r)).sum()
    }

    /// The aggregated (global) demand per interval.
    fn aggregated(&self) -> Vec<u32> {
        (0..self.intervals())
            .map(|i| self.demand.iter().map(|d| d[i]).sum())
            .collect()
    }

    /// Peak of the aggregated demand: the fleet size under global
    /// provisioning.
    fn aggregated_peak(&self) -> u32 {
        self.aggregated().into_iter().max().unwrap_or(0)
    }

    /// Total replica-hours actually demanded (the on-demand lower bound).
    fn total_replica_hours(&self) -> f64 {
        let total: u64 = self
            .demand
            .iter()
            .flat_map(|d| d.iter())
            .map(|&x| u64::from(x))
            .sum();
        total as f64 * self.interval_hours
    }

    /// Duration of the whole window in hours.
    fn window_hours(&self) -> f64 {
        self.intervals() as f64 * self.interval_hours
    }
}

/// Cost of the three provisioning strategies over a demand window.
#[derive(Debug, Clone, Copy, PartialEq)]
// det-allow(D07): what `compare_costs` returns; callers only read its fields
pub struct CostComparison {
    /// Reserved instances sized to each region's own peak.
    pub region_local_usd: f64,
    /// Reserved instances sized to the aggregated global peak.
    pub aggregated_usd: f64,
    /// Perfect on-demand autoscaling (oracle, zero delay).
    pub on_demand_autoscaled_usd: f64,
}

impl CostComparison {
    /// Fractional savings of aggregated vs region-local provisioning
    /// (0.405 reproduces the paper's 40.5 %).
    pub fn aggregation_savings(&self) -> f64 {
        if self.region_local_usd <= 0.0 {
            0.0
        } else {
            1.0 - self.aggregated_usd / self.region_local_usd
        }
    }

    /// On-demand cost as a multiple of aggregated reserved cost (the
    /// paper's 2.2×).
    pub fn on_demand_multiple(&self) -> f64 {
        if self.aggregated_usd <= 0.0 {
            0.0
        } else {
            self.on_demand_autoscaled_usd / self.aggregated_usd
        }
    }
}

/// Computes the three-way cost comparison for a demand window (Fig. 3b).
///
/// # Examples
///
/// ```
/// use skywalker::cost::{compare_costs, DemandMatrix, Pricing};
///
/// // Two regions with perfectly anti-correlated demand: each peaks at 4,
/// // but the aggregate is a flat 5.
/// let demand = DemandMatrix::new(
///     vec![vec![4, 3, 1], vec![1, 2, 4]],
///     1.0,
/// ).unwrap();
/// let c = compare_costs(&demand, Pricing::UNIT);
/// // Region-local reserves 8 replicas, aggregated only 5.
/// assert!(c.aggregation_savings() > 0.35);
/// ```
pub fn compare_costs(demand: &DemandMatrix, pricing: Pricing) -> CostComparison {
    let hours = demand.window_hours();
    let region_local = demand.sum_of_region_peaks() as f64 * hours * pricing.reserved_hourly_usd;
    let aggregated = demand.aggregated_peak() as f64 * hours * pricing.reserved_hourly_usd;
    let on_demand = demand.total_replica_hours() * pricing.on_demand_hourly_usd;
    CostComparison {
        region_local_usd: region_local,
        aggregated_usd: aggregated,
        on_demand_autoscaled_usd: on_demand,
    }
}

/// Converts a per-interval request rate into replicas needed, given a
/// per-replica service capacity in the same units. Always at least
/// `min_replicas` (a region keeps at least one replica for availability).
pub fn replicas_for_rate(rate: &[f64], per_replica: f64, min_replicas: u32) -> Vec<u32> {
    rate.iter()
        .map(|&r| {
            if per_replica <= 0.0 {
                min_replicas
            } else {
                ((r / per_replica).ceil() as u32).max(min_replicas)
            }
        })
        .collect()
}

/// Fractional cost reduction from serving the same throughput with fewer
/// replicas (Fig. 10: 9 SkyWalker replicas match 12 region-local replicas,
/// a 25 % reduction).
pub fn fleet_reduction(baseline_replicas: u32, achieved_replicas: u32) -> f64 {
    if baseline_replicas == 0 {
        return 0.0;
    }
    1.0 - achieved_replicas as f64 / baseline_replicas as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand_fixture() -> DemandMatrix {
        // Three regions, 4 intervals, offset peaks.
        DemandMatrix::new(
            vec![
                vec![8, 4, 2, 4], // peak 8
                vec![2, 8, 4, 2], // peak 8
                vec![4, 2, 8, 4], // peak 8
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            DemandMatrix::new(vec![], 1.0).unwrap_err(),
            DemandError::NoRegions
        );
        assert_eq!(
            DemandMatrix::new(vec![vec![]], 1.0).unwrap_err(),
            DemandError::NoIntervals
        );
        assert_eq!(
            DemandMatrix::new(vec![vec![1, 2], vec![1]], 1.0).unwrap_err(),
            DemandError::RaggedIntervals
        );
        // A NaN or negative window would price the same demand at NaN or
        // negative dollars.
        for hours in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                DemandMatrix::new(vec![vec![1]], hours).unwrap_err(),
                DemandError::InvalidIntervalHours,
                "{hours}"
            );
        }
    }

    #[test]
    fn peaks_and_aggregates() {
        let d = demand_fixture();
        assert_eq!(d.regions(), 3);
        assert_eq!(d.intervals(), 4);
        assert_eq!(d.region_peak(0), 8);
        assert_eq!(d.sum_of_region_peaks(), 24);
        assert_eq!(d.aggregated(), vec![14, 14, 14, 10]);
        assert_eq!(d.aggregated_peak(), 14);
    }

    #[test]
    fn cost_comparison_orders_strategies() {
        let d = demand_fixture();
        let c = compare_costs(&d, Pricing::P5_48XLARGE);
        // Aggregated is cheapest of the reserved strategies.
        assert!(c.aggregated_usd < c.region_local_usd);
        // Savings = 1 - 14/24 ≈ 41.7 %, close to the paper's 40.5 %.
        assert!((c.aggregation_savings() - (1.0 - 14.0 / 24.0)).abs() < 1e-9);
        // On-demand: 52 replica-hours at the on-demand rate vs 56 at the
        // reserved rate → ≈ 2.43×, in the neighbourhood of the paper's 2.2×.
        assert!(c.on_demand_multiple() > 1.5);
    }

    #[test]
    fn paperlike_ratio_reproduced_with_unit_pricing() {
        let d = demand_fixture();
        let c = compare_costs(&d, Pricing::UNIT);
        let od_ratio = ON_DEMAND_HOURLY_USD / RESERVED_HOURLY_USD;
        let expected = 52.0 * od_ratio / 56.0;
        assert!((c.on_demand_multiple() - expected).abs() < 1e-9);
    }

    #[test]
    fn replicas_for_rate_rounds_up_with_floor() {
        assert_eq!(
            replicas_for_rate(&[0.0, 9.9, 10.0, 10.1], 10.0, 1),
            vec![1, 1, 1, 2]
        );
        assert_eq!(replicas_for_rate(&[5.0], 0.0, 2), vec![2]);
    }

    #[test]
    fn fleet_reduction_matches_paper_claim() {
        // 12 region-local replicas vs 9 SkyWalker replicas → 25 %.
        assert!((fleet_reduction(12, 9) - 0.25).abs() < 1e-9);
        assert_eq!(fleet_reduction(0, 5), 0.0);
    }

    #[test]
    fn degenerate_costs() {
        let d = DemandMatrix::new(vec![vec![0, 0]], 1.0).unwrap();
        let c = compare_costs(&d, Pricing::P5_48XLARGE);
        assert_eq!(c.region_local_usd, 0.0);
        assert_eq!(c.aggregation_savings(), 0.0);
        assert_eq!(c.on_demand_multiple(), 0.0);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DemandError::NoRegions,
            DemandError::RaggedIntervals,
            DemandError::NoIntervals,
            DemandError::InvalidIntervalHours,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
