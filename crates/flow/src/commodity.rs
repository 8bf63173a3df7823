//! Commodities: the demands a feasibility check must route.

use crate::error::FlowError;
use crate::graph::NodeId;

/// A point-to-point demand of `demand` Gbps from `src` to `dst`.
///
/// The evaluator applies the paper's *source aggregation* (§5) before
/// building commodities: all flows with the same `(src, dst)` that are
/// active under the scenario are summed into one commodity, and the LP
/// backend further aggregates by source alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Commodity {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Demand volume in Gbps (strictly positive).
    pub demand: f64,
}

impl Commodity {
    /// Create a commodity, rejecting self-loops and non-positive or
    /// non-finite demands. User-supplied demand data goes through here so
    /// a malformed file degrades to an error instead of a panic.
    pub fn try_new(src: NodeId, dst: NodeId, demand: f64) -> Result<Self, FlowError> {
        if src == dst {
            return Err(FlowError::SelfLoopCommodity(src));
        }
        if !(demand > 0.0 && demand.is_finite()) {
            return Err(FlowError::BadDemand(demand));
        }
        Ok(Commodity { src, dst, demand })
    }

    /// Create a commodity; demand must be positive and src ≠ dst —
    /// panics otherwise (validated-input fast path).
    pub fn new(src: NodeId, dst: NodeId, demand: f64) -> Self {
        Self::try_new(src, dst, demand).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Sum demands that share an `(src, dst)` pair, dropping nothing else.
/// Output is sorted by `(src, dst)` for determinism.
pub fn merge_parallel(commodities: &[Commodity]) -> Vec<Commodity> {
    let mut sorted: Vec<Commodity> = commodities.to_vec();
    sorted.sort_by_key(|c| (c.src, c.dst));
    let mut out: Vec<Commodity> = Vec::with_capacity(sorted.len());
    for c in sorted {
        match out.last_mut() {
            Some(last) if last.src == c.src && last.dst == c.dst => last.demand += c.demand,
            _ => out.push(c),
        }
    }
    out
}

/// Commodity indices grouped by source, groups and members in first-seen
/// order: everything that routes or prices all of a source's commodities
/// off one shortest-path tree (the MWU, the exact LP's pricing) walks
/// these groups.
pub fn group_by_source(commodities: &[Commodity]) -> Vec<(NodeId, Vec<usize>)> {
    let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
    for (i, c) in commodities.iter().enumerate() {
        match groups.iter_mut().find(|(s, _)| *s == c.src) {
            Some((_, members)) => members.push(i),
            None => groups.push((c.src, vec![i])),
        }
    }
    groups
}

/// Total demand volume.
pub fn total_demand(commodities: &[Commodity]) -> f64 {
    commodities.iter().map(|c| c.demand).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_first_seen_order() {
        let cs = [
            Commodity::new(2, 1, 5.0),
            Commodity::new(0, 1, 3.0),
            Commodity::new(2, 0, 2.0),
        ];
        assert_eq!(group_by_source(&cs), vec![(2, vec![0, 2]), (0, vec![1])]);
    }

    #[test]
    fn merge_sums_same_pairs_and_sorts() {
        let merged = merge_parallel(&[
            Commodity::new(2, 1, 5.0),
            Commodity::new(0, 1, 3.0),
            Commodity::new(2, 1, 2.0),
        ]);
        assert_eq!(
            merged,
            vec![Commodity::new(0, 1, 3.0), Commodity::new(2, 1, 7.0)]
        );
    }

    #[test]
    fn merge_keeps_distinct_pairs() {
        let merged = merge_parallel(&[Commodity::new(0, 1, 1.0), Commodity::new(1, 0, 1.0)]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn total_sums_demands() {
        let cs = [Commodity::new(0, 1, 1.5), Commodity::new(1, 2, 2.5)];
        assert_eq!(total_demand(&cs), 4.0);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn rejects_self_loop() {
        Commodity::new(3, 3, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_demand() {
        Commodity::new(0, 1, 0.0);
    }

    #[test]
    fn try_new_degrades_to_errors() {
        assert_eq!(
            Commodity::try_new(3, 3, 1.0),
            Err(FlowError::SelfLoopCommodity(3))
        );
        assert_eq!(
            Commodity::try_new(0, 1, 0.0),
            Err(FlowError::BadDemand(0.0))
        );
        assert!(Commodity::try_new(0, 1, f64::NAN).is_err());
        assert!(Commodity::try_new(0, 1, f64::INFINITY).is_err());
        assert!(Commodity::try_new(0, 1, 2.5).is_ok());
    }
}
