//! Deterministic scoped-thread work pool.
//!
//! One pattern for every parallel hot loop in the workspace: the caller
//! fixes the task list (and therefore the chunking) *before* any thread
//! runs, workers pull tasks through an atomic cursor for load balance,
//! and results land in a slot vector indexed by task position. The
//! output of [`run_tasks`] is thus a pure function of the input task
//! list — worker count and thread scheduling can change wall-clock time
//! but never the result order or content. Callers that need
//! bit-reproducible behavior (Benders separation, regional solves, actor
//! rollouts) merge the returned `Vec` in index order and are done.
//!
//! `workers <= 1` (or a single task) runs everything inline on the
//! calling thread — the serial path is the parallel path with the
//! thread count turned down, not a separate code path to keep in sync.

use np_telemetry::{sys, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `tasks` on up to `workers` scoped threads and return their
/// results in task order.
///
/// Worker panics are contained: a panic that strikes a worker *before*
/// it runs its claimed task (the `pool-panic` chaos fault) leaves the
/// closure in the queue, and the pool replays it serially on the caller
/// thread after the join — same closure, same result slot, so the
/// ordered-merge contract survives the fault. A panic raised by the task
/// closure itself is re-raised to the caller with its original payload
/// (a poisoned computation can never be silently dropped).
pub fn run_tasks<R, F>(workers: usize, tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    run_tasks_telemetry(workers, tasks, &Telemetry::noop())
}

/// [`run_tasks`] reporting caught worker panics through `tel` as the
/// `pool/worker_panics` counter.
pub fn run_tasks_telemetry<R, F>(workers: usize, tasks: Vec<F>, tel: &Telemetry) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    run_tasks_chaos(workers, tasks, tel, np_chaos::global())
}

/// [`run_tasks_telemetry`] with an explicit fault-injection handle, so
/// tests can kill workers without touching the process-wide chaos plan.
///
/// The injection point is keyed on the *task index* (not a shared
/// counter), so which tasks get hit is a pure function of the fault plan
/// — independent of worker count and thread scheduling.
pub fn run_tasks_chaos<R, F>(
    workers: usize,
    tasks: Vec<F>,
    tel: &Telemetry,
    chaos: &np_chaos::Chaos,
) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let n = tasks.len();
    if workers <= 1 || n <= 1 {
        // Inline execution has no worker threads to lose; injection
        // targets the threaded path only.
        return tasks.into_iter().map(|t| t()).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let queue: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let caught: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // The injected panic strikes after the claim but
                    // before the take — the closure survives in the
                    // queue for the serial replay, exactly like a worker
                    // dying between claim and execution.
                    if chaos.fires_at(np_chaos::FaultClass::PoolPanic, i as u64) {
                        panic!("chaos: injected pool-worker panic at task {i}");
                    }
                    let task = lock(&queue[i]).take().expect("task claimed once");
                    task()
                }));
                match result {
                    Ok(r) => *lock(&slots[i]) = Some(r),
                    Err(payload) => lock(&caught).push((i, payload)),
                }
            });
        }
    });
    let mut caught = caught.into_inner().unwrap_or_else(|e| e.into_inner());
    tel.incr(sys::POOL, "worker_panics", caught.len() as u64);
    slots
        .into_iter()
        .zip(queue)
        .enumerate()
        .map(|(i, (slot, q))| {
            if let Some(r) = slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                return r;
            }
            // Task i never produced a result. If its closure is still in
            // the queue the worker died before running it: replay it
            // serially, right here, in index order.
            if let Some(task) = q.into_inner().unwrap_or_else(|e| e.into_inner()) {
                return task();
            }
            // The task closure itself panicked: re-raise its payload.
            let payload = caught
                .iter()
                .position(|(j, _)| *j == i)
                .map(|k| caught.swap_remove(k).1)
                .unwrap_or_else(|| Box::new("pool task panicked"));
            std::panic::resume_unwind(payload)
        })
        .collect()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The worker count `--workers auto` resolves to: every hardware thread
/// the OS grants us, floored at 1.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Chunk length that splits `total` items into at most `workers`
/// near-equal contiguous chunks (the fixed chunking of the determinism
/// contract). Always at least 1.
pub fn chunk_len(total: usize, workers: usize) -> usize {
    total.div_ceil(workers.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for workers in [1, 2, 4, 9] {
            let tasks: Vec<_> = (0..23).map(|i| move || i * i).collect();
            let got = run_tasks(workers, tasks);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_task_lists_work() {
        let empty: Vec<fn() -> u32> = vec![];
        assert!(run_tasks::<u32, _>(4, empty).is_empty());
        assert_eq!(run_tasks(4, vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn oversubscription_is_harmless() {
        // Far more workers than tasks: every task still runs exactly once.
        let tasks: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_tasks(64, tasks), vec![0, 1, 2]);
    }

    #[test]
    fn tasks_actually_run_on_multiple_threads_when_asked() {
        use std::collections::HashSet;
        let tasks: Vec<_> = (0..16)
            .map(|_| || format!("{:?}", std::thread::current().id()))
            .collect();
        let ids: HashSet<String> = run_tasks(4, tasks).into_iter().collect();
        // With one hardware thread the OS may still schedule all tasks on
        // one worker; assert only that the scoped-thread path was taken
        // (no task ran on the caller thread).
        let caller = format!("{:?}", std::thread::current().id());
        assert!(!ids.contains(&caller), "workers>1 must not run inline");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        // A panic raised by the task closure itself is re-raised to the
        // caller with its original payload; it cannot be missed.
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom"))];
        run_tasks(2, tasks);
    }

    #[test]
    fn injected_worker_panics_are_replayed_serially() {
        let plan = np_chaos::FaultPlan::parse("seed=7,pool-panic@1,pool-panic@5").unwrap();
        let chaos = np_chaos::Chaos::new(plan);
        let tel = Telemetry::memory();
        let tasks: Vec<_> = (0..12usize).map(|i| move || i * i).collect();
        let got = run_tasks_chaos(4, tasks, &tel, &chaos);
        let want: Vec<usize> = (0..12).map(|i| i * i).collect();
        assert_eq!(got, want, "replayed tasks must land in their own slots");
        assert_eq!(chaos.fired(np_chaos::FaultClass::PoolPanic), 2);
        assert_eq!(
            tel.counter(sys::POOL, "worker_panics"),
            2,
            "each injected panic is counted in telemetry"
        );
    }

    #[test]
    fn injection_preserves_results_at_every_worker_count() {
        let want: Vec<usize> = (0..20).map(|i| i * 3 + 1).collect();
        for workers in [2, 4, 8] {
            let plan = np_chaos::FaultPlan::parse("seed=3,pool-panic@0-19").unwrap();
            let chaos = np_chaos::Chaos::new(plan);
            let tasks: Vec<_> = (0..20usize).map(|i| move || i * 3 + 1).collect();
            let got = run_tasks_chaos(workers, tasks, &Telemetry::noop(), &chaos);
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(chaos.fired(np_chaos::FaultClass::PoolPanic), 20);
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn real_panics_still_propagate_alongside_injected_ones() {
        let plan = np_chaos::FaultPlan::parse("seed=1,pool-panic@0").unwrap();
        let chaos = np_chaos::Chaos::new(plan);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        run_tasks_chaos(2, tasks, &Telemetry::noop(), &chaos);
    }

    #[test]
    fn chunk_len_covers_all_items() {
        for total in [1usize, 2, 7, 16, 100] {
            for workers in [1usize, 2, 3, 4, 8] {
                let c = chunk_len(total, workers);
                assert!(c >= 1);
                assert!(c * workers >= total, "total={total} workers={workers}");
            }
        }
    }

    #[test]
    fn auto_workers_is_positive() {
        assert!(auto_workers() >= 1);
    }
}
