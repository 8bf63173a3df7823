//! The MWU allocates per call, never per tree or per routing: a run cut
//! off after a handful of routings and a run of many thousands perform
//! the same number of allocations. Counted by a wrapping global
//! allocator, per thread, so the test harness's own threads do not
//! interfere.

use np_flow::mwu::{max_concurrent_flow, MwuConfig};
use np_flow::{Commodity, FlowGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to the system allocator;
// the only addition is a thread-local counter bump, which neither
// allocates (const-initialized `Cell`) nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn allocations_do_not_grow_with_trees_or_routings() {
    // A ring of 10 with chords, a dark arc, and all-pairs-ish demand from
    // three sources: thousands of routings, a thousand trees.
    let mut g = FlowGraph::new(10);
    for v in 0..10 {
        g.add_arc(v, (v + 1) % 10, 7.0, None);
        g.add_arc((v + 1) % 10, v, 7.0, None);
        g.add_arc(v, (v + 3) % 10, if v == 4 { 0.0 } else { 3.0 }, None);
    }
    let commodities: Vec<Commodity> = [0, 3, 6]
        .iter()
        .flat_map(|&s| (1..9).map(move |k| Commodity::new(s, (s + k) % 10, 1.0 + k as f64)))
        .collect();
    let run = |max_path_routings: usize| {
        let cfg = MwuConfig {
            epsilon: 0.12,
            max_path_routings,
            target_lambda: None,
        };
        let before = ALLOCATIONS.with(Cell::get);
        let cf = max_concurrent_flow(&g, &commodities, &cfg);
        (ALLOCATIONS.with(Cell::get) - before, cf.trees, cf.routings)
    };
    run(3); // the graph packs its arcs on first use
    let (short_allocs, short_trees, _) = run(3);
    let (long_allocs, long_trees, long_routings) = run(2_000_000);
    assert!(short_trees <= 3 && long_trees > 1_000 && long_routings > 3_000);
    assert_eq!(long_allocs, short_allocs);
}
