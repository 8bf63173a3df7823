//! Core entity types of the cross-layer network model.

use crate::ids::{FiberId, LinkId, SiteId};
use serde::{Deserialize, Serialize};

/// An IP/optical site: a PoP or datacenter, embedded in the plane.
///
/// The planar position is synthetic (our topology generator stands in for
/// the paper's proprietary production topologies) and is used to derive
/// fiber lengths, which in turn drive the distance-proportional IP cost
/// term of Eq. 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Human-readable name, e.g. `"pop07"` or `"dc02"`.
    pub name: String,
    /// Planar coordinates in kilometres.
    pub pos: (f64, f64),
    /// Datacenters source/sink the bulk of traffic in the gravity model.
    pub is_datacenter: bool,
}

impl Site {
    /// Euclidean distance to another site, in kilometres.
    pub fn distance_km(&self, other: &Site) -> f64 {
        let dx = self.pos.0 - other.pos.0;
        let dy = self.pos.1 - other.pos.1;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A layer-1 fiber span between two sites.
///
/// Fibers carry the spectrum consumed by the IP links routed over them
/// (Eq. 4) and contribute a one-time build/light-up cost to the objective
/// (the `cost_f` term of Eq. 1).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fiber {
    /// The two endpoint sites. Fibers are undirected; the pair is stored
    /// with `endpoints.0 <= endpoints.1` for canonical lookup.
    pub endpoints: (SiteId, SiteId),
    /// Span length in kilometres.
    pub length_km: f64,
    /// Maximum usable spectrum `S_f`, in GHz (C-band ≈ 4800 GHz).
    pub spectrum_ghz: f64,
    /// One-time cost of building / lighting this fiber (`cost_f`).
    pub build_cost: f64,
}

impl Fiber {
    /// Whether `site` is one of the two fiber endpoints.
    pub fn touches(&self, site: SiteId) -> bool {
        self.endpoints.0 == site || self.endpoints.1 == site
    }
}

/// A layer-3 IP link: an overlay edge between two sites riding a path of
/// fibers.
///
/// Parallel IP links between the same site pair (mapped to different fiber
/// paths, hence different failure domains) are distinct `IpLink` values;
/// the node-link transformation (§4.2) treats them specially.
///
/// Capacity is managed in integer **capacity units** (`C_l` in the
/// formulation is integral by Eq. 3's operational constraint); the unit
/// size in Gbps lives on [`crate::Network`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IpLink {
    /// One endpoint site. IP links are undirected capacity containers;
    /// routing uses both directions.
    pub src: SiteId,
    /// The other endpoint site.
    pub dst: SiteId,
    /// Fibers this link traverses (`Ψ_l`), with the spectral efficiency
    /// `φ_{lf}`: GHz of spectrum consumed on that fiber per capacity unit.
    /// Longer spans need lower-order modulation and hence more spectrum per
    /// Gbps, which the generator models.
    pub fiber_path: Vec<(FiberId, f64)>,
    /// Current provisioned capacity in units.
    pub capacity_units: u32,
    /// Minimum capacity in units (`C_l^min`, Eq. 5). Zero for long-term
    /// candidate links; near the production capacity for short-term links.
    pub min_units: u32,
    /// Total route length in kilometres (sum of the fiber path lengths),
    /// cached because the Eq. 1 IP cost term is per-Gbps-per-km.
    pub length_km: f64,
}

impl IpLink {
    /// Whether this link and `other` connect the same (unordered) site pair.
    pub fn is_parallel_to(&self, other: &IpLink) -> bool {
        (self.src == other.src && self.dst == other.dst)
            || (self.src == other.dst && self.dst == other.src)
    }

    /// Whether `site` is one of the link endpoints.
    pub fn touches(&self, site: SiteId) -> bool {
        self.src == site || self.dst == site
    }

    /// The endpoint opposite to `site`, if `site` is an endpoint.
    pub fn opposite(&self, site: SiteId) -> Option<SiteId> {
        if self.src == site {
            Some(self.dst)
        } else if self.dst == site {
            Some(self.src)
        } else {
            None
        }
    }
}

/// Class of service of a flow, ordered from most to least protected.
///
/// The reliability policy decides, per class, which failure scenarios the
/// demand must survive (§2: "the demand of flows with which Classes of
/// Service has to be satisfied under which subset of failure scenarios").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CosClass {
    /// Must be satisfied under **every** failure scenario.
    Gold,
    /// Must be satisfied under single-element failures but not compound
    /// (SRLG / site) scenarios.
    Silver,
    /// Only needs to be satisfied in the no-failure state.
    Bronze,
}

impl CosClass {
    /// All classes, most protected first.
    pub const ALL: [CosClass; 3] = [CosClass::Gold, CosClass::Silver, CosClass::Bronze];
}

/// A site-to-site traffic demand.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Source site.
    pub src: SiteId,
    /// Destination site.
    pub dst: SiteId,
    /// Demand volume in Gbps.
    pub demand_gbps: f64,
    /// Class of service, which the reliability policy maps to the set of
    /// failures this flow must survive.
    pub cos: CosClass,
}

/// Traffic on one path: `amount` Gbps from site `src` to site `dst` over
/// `links` in walking order, each crossed forward (`true`: from the
/// link's `src` to its `dst`) or backward. A set of these per failure
/// scenario is a routing, the primal side of a feasibility verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct PathFlow {
    /// Where the path starts.
    pub src: SiteId,
    /// Where it ends.
    pub dst: SiteId,
    /// Gbps carried.
    pub amount: f64,
    /// The links walked, each with the direction it is crossed in.
    pub links: Vec<(LinkId, bool)>,
}

/// What breaks in a failure scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FailureKind {
    /// A single fiber is cut; every IP link routed over it loses all
    /// capacity (the cross-layer coupling the paper emphasises).
    FiberCut(FiberId),
    /// A whole site goes down: all IP links touching it and all fibers
    /// terminating at it fail, and traffic sourced/sunk there is excused.
    SiteDown(SiteId),
    /// A shared-risk link group: several fibers fail together (conduit
    /// cut, natural disaster).
    Srlg(Vec<FiberId>),
}

/// A failure scenario from the failure set `Λ`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Failure {
    /// Scenario name for reports, e.g. `"cut:f12"`.
    pub name: String,
    /// What fails.
    pub kind: FailureKind,
}

impl Failure {
    /// Whether this scenario is a compound (multi-element) failure; the
    /// default reliability policy only protects Gold traffic against these.
    pub fn is_compound(&self) -> bool {
        match &self.kind {
            FailureKind::FiberCut(_) => false,
            FailureKind::SiteDown(_) => true,
            FailureKind::Srlg(fibers) => fibers.len() > 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(x: f64, y: f64) -> Site {
        Site {
            name: "s".into(),
            pos: (x, y),
            is_datacenter: false,
        }
    }

    #[test]
    fn site_distance() {
        assert!((site(0.0, 0.0).distance_km(&site(3.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fiber_touches_endpoints_only() {
        let f = Fiber {
            endpoints: (SiteId::new(1), SiteId::new(4)),
            length_km: 100.0,
            spectrum_ghz: 4800.0,
            build_cost: 10.0,
        };
        assert!(f.touches(SiteId::new(1)));
        assert!(f.touches(SiteId::new(4)));
        assert!(!f.touches(SiteId::new(2)));
    }

    fn link(src: usize, dst: usize) -> IpLink {
        IpLink {
            src: SiteId::new(src),
            dst: SiteId::new(dst),
            fiber_path: vec![],
            capacity_units: 0,
            min_units: 0,
            length_km: 0.0,
        }
    }

    #[test]
    fn parallel_detection_is_orientation_independent() {
        assert!(link(1, 2).is_parallel_to(&link(1, 2)));
        assert!(link(1, 2).is_parallel_to(&link(2, 1)));
        assert!(!link(1, 2).is_parallel_to(&link(1, 3)));
    }

    #[test]
    fn opposite_endpoint() {
        let l = link(3, 7);
        assert_eq!(l.opposite(SiteId::new(3)), Some(SiteId::new(7)));
        assert_eq!(l.opposite(SiteId::new(7)), Some(SiteId::new(3)));
        assert_eq!(l.opposite(SiteId::new(5)), None);
    }

    #[test]
    fn compound_failures() {
        assert!(!Failure {
            name: "c".into(),
            kind: FailureKind::FiberCut(FiberId::new(0))
        }
        .is_compound());
        assert!(Failure {
            name: "s".into(),
            kind: FailureKind::SiteDown(SiteId::new(0))
        }
        .is_compound());
        assert!(!Failure {
            name: "g1".into(),
            kind: FailureKind::Srlg(vec![FiberId::new(0)])
        }
        .is_compound());
        assert!(Failure {
            name: "g2".into(),
            kind: FailureKind::Srlg(vec![FiberId::new(0), FiberId::new(1)])
        }
        .is_compound());
    }

    #[test]
    fn cos_ordering_most_protected_first() {
        assert!(CosClass::Gold < CosClass::Silver);
        assert!(CosClass::Silver < CosClass::Bronze);
    }
}
