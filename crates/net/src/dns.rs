//! Latency-based DNS resolution.
//!
//! SkyWalker publishes one Route53 record per load balancer under a single
//! domain; DNS latency-based routing resolves a client to its nearest load
//! balancer (§4.1). This module reproduces that behaviour on top of the
//! [`LatencyModel`]: a resolver holds the set of advertised endpoints and
//! answers "nearest endpoint to this client region" queries, with optional
//! health filtering so a failed balancer's record can be withdrawn, as the
//! controller does during failure recovery (§4.2).

use std::collections::BTreeMap;

use crate::region::{LatencyModel, Region};

/// An advertised load-balancer endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// Region the endpoint is deployed in.
    pub region: Region,
    /// Identifier of the load balancer within the region.
    pub lb_id: u32,
}

/// A latency-based DNS resolver for a single service domain.
///
/// # Examples
///
/// ```
/// use skywalker_net::{DnsResolver, Endpoint, LatencyModel, Region};
///
/// let mut dns = DnsResolver::new(LatencyModel::default_wan());
/// dns.advertise(Endpoint { region: Region::UsEast, lb_id: 0 });
/// dns.advertise(Endpoint { region: Region::EuWest, lb_id: 1 });
///
/// let ep = dns.resolve(Region::EuCentral).unwrap();
/// assert_eq!(ep.region, Region::EuWest);
/// ```
#[derive(Debug, Clone)]
pub struct DnsResolver {
    net: LatencyModel,
    /// Advertised endpoints with health state. BTreeMap for deterministic
    /// iteration order (ties broken by endpoint order).
    records: BTreeMap<Endpoint, bool>,
}

impl DnsResolver {
    /// Creates an empty resolver over the given latency model.
    pub fn new(net: LatencyModel) -> Self {
        DnsResolver {
            net,
            records: BTreeMap::new(),
        }
    }

    /// Advertises (or re-advertises) an endpoint as healthy.
    pub fn advertise(&mut self, ep: Endpoint) {
        self.records.insert(ep, true);
    }

    /// Marks an endpoint unhealthy; it stops resolving but stays known.
    pub fn mark_unhealthy(&mut self, ep: Endpoint) {
        if let Some(h) = self.records.get_mut(&ep) {
            *h = false;
        }
    }

    /// Marks an endpoint healthy again.
    pub fn mark_healthy(&mut self, ep: Endpoint) {
        if let Some(h) = self.records.get_mut(&ep) {
            *h = true;
        }
    }

    /// Number of advertised endpoints (healthy or not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no endpoints are advertised.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Resolves the healthy endpoint nearest to `client`, or `None` when no
    /// healthy endpoint exists.
    pub fn resolve(&self, client: Region) -> Option<Endpoint> {
        self.records
            .iter()
            .filter(|(_, healthy)| **healthy)
            .map(|(ep, _)| *ep)
            .min_by_key(|ep| (self.net.rtt(client, ep.region), *ep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trio_resolver() -> DnsResolver {
        let mut dns = DnsResolver::new(LatencyModel::default_wan());
        for (i, r) in Region::PAPER_TRIO.iter().enumerate() {
            dns.advertise(Endpoint {
                region: *r,
                lb_id: i as u32,
            });
        }
        dns
    }

    #[test]
    fn resolves_local_when_available() {
        let dns = trio_resolver();
        for r in Region::PAPER_TRIO {
            assert_eq!(dns.resolve(r).unwrap().region, r);
        }
    }

    #[test]
    fn resolves_nearest_for_uncovered_region() {
        let dns = trio_resolver();
        // eu-central's nearest advertised endpoint is eu-west.
        assert_eq!(
            dns.resolve(Region::EuCentral).unwrap().region,
            Region::EuWest
        );
        // us-west's nearest advertised endpoint is us-east.
        assert_eq!(dns.resolve(Region::UsWest).unwrap().region, Region::UsEast);
    }

    #[test]
    fn unhealthy_endpoint_skipped_until_recovered() {
        let mut dns = trio_resolver();
        let us = Endpoint {
            region: Region::UsEast,
            lb_id: 0,
        };
        dns.mark_unhealthy(us);
        let ep = dns.resolve(Region::UsEast).unwrap();
        assert_ne!(ep.region, Region::UsEast);
        dns.mark_healthy(us);
        assert_eq!(dns.resolve(Region::UsEast).unwrap().region, Region::UsEast);
    }

    #[test]
    fn empty_resolver_returns_none() {
        let dns = DnsResolver::new(LatencyModel::default_wan());
        assert!(dns.is_empty());
        assert_eq!(dns.resolve(Region::UsEast), None);
    }

    #[test]
    fn multiple_lbs_same_region_tie_break_stable() {
        let mut dns = DnsResolver::new(LatencyModel::default_wan());
        dns.advertise(Endpoint {
            region: Region::UsEast,
            lb_id: 7,
        });
        dns.advertise(Endpoint {
            region: Region::UsEast,
            lb_id: 3,
        });
        // Deterministic: lowest lb_id wins the tie.
        assert_eq!(dns.resolve(Region::UsEast).unwrap().lb_id, 3);
    }
}
