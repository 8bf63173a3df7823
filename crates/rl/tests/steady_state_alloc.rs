//! The actor-critic hot path reuses its buffers: after a first call has
//! sized them, `act_with` allocates nothing and the two updates allocate
//! the same (small, per-call) number of times however many steps they
//! sweep — i.e. nothing per step. Counted by a wrapping global allocator,
//! per thread, so the test harness's own threads do not interfere.

use np_neural::{Csr, Matrix};
use np_rl::{ActorCritic, AgentConfig, StepRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn the_hot_path_allocates_nothing_per_step() {
    const NODES: usize = 9;
    const UNITS: usize = 3;
    let mut rng = StdRng::seed_from_u64(4);
    // A ring with self-loops: symmetric, as the GCN requires.
    let mut triples = Vec::new();
    for i in 0..NODES {
        let j = (i + 1) % NODES;
        triples.extend([(i, i, 0.4), (i, j, 0.3), (j, i, 0.3)]);
    }
    let mut agent = ActorCritic::new(
        Csr::from_triples(NODES, &triples),
        5,
        UNITS,
        &AgentConfig {
            gnn_hidden: 20,
            mlp_hidden: vec![24, 17],
            ..Default::default()
        },
    );
    let steps: Vec<StepRecord> = (0..16)
        .map(|k| StepRecord {
            features: Matrix::kaiming(NODES, 5, &mut rng),
            mask: (0..NODES * UNITS).map(|a| (a + k) % 4 != 0).collect(),
            action: (0..NODES * UNITS).find(|a| (a + k) % 4 != 0).unwrap(),
            reward: 0.0,
            value: 0.0,
            advantage: rng.gen_range(-1.0..1.0),
            reward_to_go: rng.gen_range(-1.0..0.0),
        })
        .collect();
    let mut stream = StdRng::seed_from_u64(5);

    // First calls size every buffer.
    agent.update_policy(&steps);
    agent.update_value(&steps);
    agent.act_with(&steps[0].features, &steps[0].mask, &mut stream);

    for step in &steps {
        let n = allocations_during(|| {
            agent.act_with(&step.features, &step.mask, &mut stream);
        });
        assert_eq!(n, 0, "act_with allocated");
    }
    let few = allocations_during(|| agent.update_policy(&steps[..2]));
    let many = allocations_during(|| agent.update_policy(&steps));
    assert_eq!(few, many, "update_policy allocates per step");
    let few = allocations_during(|| agent.update_value(&steps[..2]));
    let many = allocations_during(|| agent.update_value(&steps));
    assert_eq!(few, many, "update_value allocates per step");
    // What remains is the optimizer's parameter list, once per update.
    assert!(many <= 16, "{many} allocations in one update_value");
}
