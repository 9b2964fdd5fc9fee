//! Geographic regions and the wide-area latency model.
//!
//! The paper deploys replicas and clients across three continents (US,
//! Europe, Asia) on AWS, with cross-region network latency "up to 200 ms"
//! (§2.1). This module models regions as named points in a small latency
//! space: a symmetric RTT matrix with same-region RTTs of a couple of
//! milliseconds, intra-continent RTTs of tens of milliseconds, and
//! inter-continent RTTs of 120–200 ms — consistent with published AWS
//! inter-region measurements and with the paper's framing.

use std::fmt;

use skywalker_sim::{DetRng, SimDuration};

/// A geographic region hosting replicas, load balancers, and/or clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// US East (N. Virginia).
    UsEast,
    /// US West (Oregon).
    UsWest,
    /// Europe West (Ireland).
    EuWest,
    /// Europe Central (Frankfurt).
    EuCentral,
    /// Asia Pacific Northeast (Tokyo).
    ApNortheast,
    /// Asia Pacific Southeast (Singapore).
    ApSoutheast,
}

impl Region {
    /// All modeled regions, in a stable order.
    pub const ALL: [Region; 6] = [
        Region::UsEast,
        Region::UsWest,
        Region::EuWest,
        Region::EuCentral,
        Region::ApNortheast,
        Region::ApSoutheast,
    ];

    /// The three-region layout used in the paper's macrobenchmarks
    /// (United States, Europe, Asia).
    pub const PAPER_TRIO: [Region; 3] = [Region::UsEast, Region::EuWest, Region::ApNortheast];

    /// A stable dense index for table lookups.
    pub fn index(self) -> usize {
        match self {
            Region::UsEast => 0,
            Region::UsWest => 1,
            Region::EuWest => 2,
            Region::EuCentral => 3,
            Region::ApNortheast => 4,
            Region::ApSoutheast => 5,
        }
    }

    /// The continent grouping, used for GDPR-style routing constraints and
    /// for the continent-local offloading comparison (§7, Bedrock).
    pub fn continent(self) -> Continent {
        match self {
            Region::UsEast | Region::UsWest => Continent::NorthAmerica,
            Region::EuWest | Region::EuCentral => Continent::Europe,
            Region::ApNortheast | Region::ApSoutheast => Continent::Asia,
        }
    }

    /// The canonical cloud-style region name.
    pub fn name(self) -> &'static str {
        match self {
            Region::UsEast => "us-east-1",
            Region::UsWest => "us-west-2",
            Region::EuWest => "eu-west-1",
            Region::EuCentral => "eu-central-1",
            Region::ApNortheast => "ap-northeast-1",
            Region::ApSoutheast => "ap-southeast-1",
        }
    }

    /// The UTC offset, in hours, of the bulk of the region's user base.
    /// Drives the diurnal workload model (peaks follow local daytime).
    pub fn utc_offset_hours(self) -> i32 {
        match self {
            Region::UsEast => -5,
            Region::UsWest => -8,
            Region::EuWest => 0,
            Region::EuCentral => 1,
            Region::ApNortheast => 9,
            Region::ApSoutheast => 8,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Continent grouping of regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Continent {
    /// North America.
    NorthAmerica,
    /// Europe.
    Europe,
    /// Asia.
    Asia,
}

/// Round-trip times between regions, with optional jitter.
///
/// The matrix is symmetric with small same-region RTTs. One-way delays are
/// sampled as `rtt/2 * (1 + jitter)` where jitter is a truncated normal.
///
/// # Examples
///
/// ```
/// use skywalker_net::{LatencyModel, Region};
///
/// let net = LatencyModel::default_wan();
/// let same = net.rtt(Region::UsEast, Region::UsEast);
/// let cross = net.rtt(Region::UsEast, Region::ApNortheast);
/// assert!(cross > same * 10);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// RTT in microseconds, indexed by `[Region::index()][Region::index()]`.
    rtt_us: [[u64; 6]; 6],
    /// Relative jitter standard deviation (e.g. 0.05 = 5 %).
    jitter: f64,
}

impl LatencyModel {
    /// The default wide-area model: same-region ≈ 1–2 ms, intra-continent
    /// 15–70 ms, inter-continent 140–230 ms RTT. Values are representative
    /// of public AWS inter-region latency data.
    pub fn default_wan() -> Self {
        use Region::*;
        let mut m = [[0u64; 6]; 6];
        let pairs: &[(Region, Region, u64)] = &[
            // Same-region (loopback through a zone) RTTs, in ms.
            (UsEast, UsEast, 2),
            (UsWest, UsWest, 2),
            (EuWest, EuWest, 2),
            (EuCentral, EuCentral, 2),
            (ApNortheast, ApNortheast, 2),
            (ApSoutheast, ApSoutheast, 2),
            // Intra-continent.
            (UsEast, UsWest, 65),
            (EuWest, EuCentral, 25),
            (ApNortheast, ApSoutheast, 70),
            // US <-> Europe.
            (UsEast, EuWest, 75),
            (UsEast, EuCentral, 90),
            (UsWest, EuWest, 130),
            (UsWest, EuCentral, 145),
            // US <-> Asia.
            (UsEast, ApNortheast, 160),
            (UsEast, ApSoutheast, 210),
            (UsWest, ApNortheast, 100),
            (UsWest, ApSoutheast, 165),
            // Europe <-> Asia.
            (EuWest, ApNortheast, 210),
            (EuWest, ApSoutheast, 175),
            (EuCentral, ApNortheast, 225),
            (EuCentral, ApSoutheast, 160),
        ];
        for &(a, b, ms) in pairs {
            m[a.index()][b.index()] = ms * 1_000;
            m[b.index()][a.index()] = ms * 1_000;
        }
        LatencyModel {
            rtt_us: m,
            jitter: 0.05,
        }
    }

    /// The nominal round-trip time between two regions.
    pub fn rtt(&self, a: Region, b: Region) -> SimDuration {
        SimDuration::from_micros(self.rtt_us[a.index()][b.index()])
    }

    /// Samples a jittered one-way delay.
    pub fn sample_one_way(&self, a: Region, b: Region, rng: &mut DetRng) -> SimDuration {
        let base = self.rtt_us[a.index()][b.index()] as f64 / 2.0;
        if base == 0.0 {
            return SimDuration::ZERO;
        }
        let factor = (1.0 + self.jitter * rng.std_normal()).max(0.5);
        SimDuration::from_micros((base * factor).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let net = LatencyModel::default_wan();
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(net.rtt(a, b), net.rtt(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn same_region_is_fast_cross_continent_is_slow() {
        let net = LatencyModel::default_wan();
        for r in Region::ALL {
            assert!(net.rtt(r, r) <= SimDuration::from_millis(3));
        }
        // The paper: cross-region latency "up to 200 ms".
        let mut worst = SimDuration::ZERO;
        for a in Region::ALL {
            for b in Region::ALL {
                worst = worst.max(net.rtt(a, b));
            }
        }
        assert!(worst >= SimDuration::from_millis(150));
        assert!(worst <= SimDuration::from_millis(250));
    }

    /// No row repeats an RTT, so the nearest of balancers in distinct
    /// regions is unique: no tie-break rule ever decides where a client
    /// is sent.
    #[test]
    fn no_row_repeats_an_rtt() {
        let net = LatencyModel::default_wan();
        for a in Region::ALL {
            let mut row: Vec<SimDuration> = Region::ALL.iter().map(|&b| net.rtt(a, b)).collect();
            row.sort();
            row.dedup();
            assert_eq!(row.len(), Region::ALL.len(), "a repeated RTT from {a}");
        }
    }

    #[test]
    fn sample_one_way_close_to_nominal() {
        let net = LatencyModel::default_wan();
        let mut rng = DetRng::new(1);
        let nominal = net.rtt(Region::UsEast, Region::ApNortheast) / 2;
        for _ in 0..1000 {
            let s = net.sample_one_way(Region::UsEast, Region::ApNortheast, &mut rng);
            let ratio = s.as_secs_f64() / nominal.as_secs_f64();
            assert!((0.5..1.5).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn continents_group_as_expected() {
        assert_eq!(Region::UsEast.continent(), Continent::NorthAmerica);
        assert_eq!(Region::EuCentral.continent(), Continent::Europe);
        assert_eq!(Region::ApSoutheast.continent(), Continent::Asia);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for r in Region::ALL {
            assert!(!seen[r.index()]);
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", Region::UsEast), "us-east-1");
    }
}
