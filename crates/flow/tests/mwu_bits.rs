//! The packed kernel and the MWU on it against the heap-and-full-tree
//! loop they replaced (`reference/`): every output bit and every work
//! count must agree, ties, dark arcs, early stops and all.

mod reference;

use np_flow::dijkstra::Tree;
use np_flow::mwu::MwuConfig;
use np_flow::{Commodity, FlowGraph};
use proptest::prelude::*;
use reference::assert_mwu_matches_reference;

/// A bidirectional ring (so most commodities connect) plus directed
/// chords; capacity class 0 is a dark arc, and `uniform` flattens the
/// rest to one value, which makes distance ties exact.
fn random_graph(n: usize, chords: &[(usize, usize, u32)], uniform: bool) -> FlowGraph {
    let mut g = FlowGraph::new(n + 1); // node `n` stays isolated
    let ring = (0..n).flat_map(|v| [(v, (v + 1) % n, 3), ((v + 1) % n, v, 3)]);
    let chords = chords.iter().map(|&(u, v, c)| (u % n, v % n, c));
    for (u, v, class) in ring.chain(chords).filter(|(u, v, _)| u != v) {
        let cap = match (class, uniform) {
            (0, _) => 0.0,
            (_, true) => 5.0,
            (c, false) => 2.5 * f64::from(c),
        };
        g.add_arc(u, v, cap, None);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mwu_is_bit_identical_to_the_reference_loop(
        n in 3usize..9,
        // Pairs drawn from 0..9 twice over: parallel arcs are common.
        chords in proptest::collection::vec((0usize..9, 0usize..9, 0u32..5), 0..24),
        demands in proptest::collection::vec((0usize..9, 0usize..9, 0.5f64..9.0), 1..10),
        (uniform, fine, to_threshold, tiny_budget, island) in
            (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), 0u32..6),
    ) {
        let g = random_graph(n, &chords, uniform);
        let mut cs: Vec<Commodity> = demands
            .iter()
            .map(|&(s, t, d)| (s % n, t % n, d))
            .filter(|(s, t, _)| s != t)
            .map(|(s, t, d)| Commodity::new(s, t, d))
            .collect();
        if island == 0 {
            cs.push(Commodity::new(0, n, 1.0)); // unreachable
        }
        prop_assume!(!cs.is_empty());
        let cfg = MwuConfig {
            epsilon: if fine { 0.12 } else { 0.25 },
            target_lambda: to_threshold.then_some(1.0),
            max_path_routings: if tiny_budget { 7 } else { 2_000_000 },
        };
        assert_mwu_matches_reference(&g, &cs, &cfg, "random graph");
    }

    #[test]
    fn trees_match_the_reference_heap_full_and_stopped_early(
        n in 2usize..12,
        arcs in proptest::collection::vec((0usize..12, 0usize..12, 0u32..6), 1..40),
        wanted in proptest::collection::vec(0usize..12, 1..4),
    ) {
        let mut g = FlowGraph::new(n);
        // Few distinct lengths (ties everywhere), zero-length arcs, and
        // absent arcs spelled three ways.
        const LENGTHS: [f64; 6] = [0.0, 1.0, 1.0, 2.5, f64::INFINITY, -1.0];
        let mut lengths = Vec::new();
        for &(u, v, class) in &arcs {
            g.add_arc(u % n, v % n, 1.0, None);
            lengths.push(LENGTHS[class as usize]);
        }
        let wanted: Vec<usize> = wanted.iter().map(|v| v % n).collect();
        let mut old = reference::DijkstraWorkspace::default();
        let mut tree = Tree::default();
        let (mut old_path, mut positions) = (Vec::new(), Vec::new());
        let p = g.packed();
        for src in 0..n {
            old.build_tree(&g, src, |a| lengths[a], |_| true);
            for stop_early in [false, true] {
                let targets = if stop_early { &wanted[..] } else { &[] };
                tree.grow(p, src, targets.iter().copied(), |q| lengths[p.arc(q)]);
                for v in (0..n).filter(|v| !stop_early || wanted.contains(v)) {
                    prop_assert_eq!(tree.dist(v).to_bits(), old.tree_dist(v).to_bits());
                    let reached = tree.path_to(p, v, &mut positions);
                    prop_assert_eq!(reached, old.tree_path(&g, v, &mut old_path));
                    let path: Vec<usize> = positions.iter().map(|&q| p.arc(q as usize)).collect();
                    prop_assert_eq!(&path, &old_path);
                }
            }
        }
    }
}

#[test]
fn empty_commodities_and_all_dark_graphs_match_the_reference() {
    let dark = random_graph(5, &[], false);
    let mut all_dark = FlowGraph::new(3);
    all_dark.add_arc(0, 1, 0.0, None);
    all_dark.add_arc(1, 2, 0.0, None);
    let cfg = MwuConfig::default();
    assert_mwu_matches_reference(&dark, &[], &cfg, "no commodities");
    assert_mwu_matches_reference(&all_dark, &[], &cfg, "no commodities, all dark");
    let cs = [Commodity::new(0, 2, 1.0)];
    assert_mwu_matches_reference(&all_dark, &cs, &cfg, "all dark");
}
