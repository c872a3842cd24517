//! Work-stealing frontier: subtree tasks and the per-worker deques of them.
//!
//! A [`SubtreeTask`] names a branch node by the decision path that reaches it
//! from the root. The state is *not* captured: whoever takes the task replays
//! the path against its own context (`SearchContext::run_task`), which costs
//! a handful of `apply` calls and keeps tasks a few words long.
//!
//! Each worker owns one deque. The owner pushes and pops at the *back* (LIFO:
//! the most recently deferred, deepest subtree, keeping its working set hot);
//! thieves take the *front* (FIFO: the oldest, shallowest — and therefore
//! largest — subtree, which amortises the replay cost over the most work).
//!
//! A deque is a `Mutex<VecDeque>`, not a lock-free ring, because of what it
//! carries: a parallel solve of 1.4 M – 16 M nodes performs 62–135 pushes,
//! 1–24 steals and 0–3 contended accesses (the benchmark's `solve_parallel`),
//! while the shared dominance table, itself striped over 64 locks, is probed
//! on every node. The owner waits for its own lock (a thief holds it for one
//! `pop_front`); a thief only `try_lock`s, so a held deque is a lost race,
//! counted into `steal_failures`, and the thief moves on to the next victim.
//! Deques are bounded: a refused [`TaskQueues::push`] makes the caller run the
//! subtree inline, the same response the spawn throttle already produces.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, TryLockError};

/// A deque lock is only ever poisoned by a worker that is already panicking.
const POISONED: &str = "a solver worker panicked while holding a task deque";

/// One unit of stealable work: the subtree rooted at the node reached by
/// applying the decision `path` (task ids, in order) from the root state.
#[derive(Debug)]
pub(super) struct SubtreeTask {
    pub(super) path: Vec<u32>,
}

/// The per-worker task deques of one parallel solve.
pub(super) struct TaskQueues {
    /// One deque per worker: owner at the back, thieves at the front.
    queues: Vec<Mutex<VecDeque<SubtreeTask>>>,
    /// Most tasks one deque holds; a push beyond it is refused.
    capacity: usize,
    /// Tasks sitting in some deque: a relaxed estimate for the spawn throttle.
    queued: AtomicUsize,
}

impl TaskQueues {
    /// Creates one deque of `capacity` tasks per worker.
    pub(super) fn new(workers: usize, capacity: usize) -> Self {
        TaskQueues {
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::with_capacity(capacity)))
                .collect(),
            capacity,
            queued: AtomicUsize::new(0),
        }
    }

    /// Tasks currently queued across all workers, for the spawn throttle.
    pub(super) fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Publishes a task at the back of `worker`'s own deque. `false` when
    /// the deque is full: the caller runs the subtree inline instead.
    pub(super) fn push(&self, worker: usize, task: SubtreeTask) -> bool {
        let mut tasks = self.queues[worker].lock().expect(POISONED);
        if tasks.len() >= self.capacity {
            return false;
        }
        tasks.push_back(task);
        // Counted while the lock is held, so the decrement of whoever takes
        // the task can never run ahead of this and underflow the counter.
        self.queued.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Pops the most recently pushed task of `worker`'s own deque.
    pub(super) fn pop(&self, worker: usize) -> Option<SubtreeTask> {
        let task = self.queues[worker].lock().expect(POISONED).pop_back();
        if task.is_some() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        task
    }

    /// Steals the oldest task from some other worker's deque, scanning
    /// victims round-robin starting after `thief`. A held lock is counted
    /// into `steal_failures` and skipped, never waited for (the idle loop in
    /// [`super::parallel`] re-scans soon after, so no work is stranded).
    pub(super) fn steal(&self, thief: usize, steal_failures: &mut u64) -> Option<SubtreeTask> {
        let n = self.queues.len();
        for offset in 1..n {
            match self.queues[(thief + offset) % n].try_lock() {
                Ok(mut tasks) => {
                    if let Some(task) = tasks.pop_front() {
                        self.queued.fetch_sub(1, Ordering::Relaxed);
                        return Some(task);
                    }
                }
                Err(TryLockError::WouldBlock) => *steal_failures += 1,
                Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u32) -> SubtreeTask {
        SubtreeTask { path: vec![id] }
    }

    #[test]
    fn owner_pops_lifo_thief_steals_fifo() {
        let (queues, mut failures) = (TaskQueues::new(2, 64), 0u64);
        assert!((1..=3).all(|id| queues.push(0, task(id))));
        assert_eq!(queues.queued(), 3);
        // The owner takes the most recent push, a thief the oldest.
        assert_eq!(queues.pop(0).unwrap().path, [3]);
        assert_eq!(queues.steal(1, &mut failures).unwrap().path, [1]);
        assert_eq!(queues.pop(0).unwrap().path, [2]);
        assert!(queues.pop(0).is_none() && queues.steal(1, &mut failures).is_none());
        assert_eq!((queues.queued(), failures), (0, 0));
    }

    #[test]
    fn steal_scans_all_victims() {
        let (queues, mut failures) = (TaskQueues::new(4, 64), 0u64);
        assert!(queues.push(1, task(7)) && queues.push(2, task(8)));
        // Victim 1 is mid-operation: thief 0 counts the lost race and moves on.
        let held = queues.queues[1].lock().unwrap();
        assert_eq!(queues.steal(0, &mut failures).unwrap().path, [8]);
        assert!(queues.steal(0, &mut failures).is_none());
        assert_eq!(failures, 2);
        drop(held);
        // A worker never steals from itself: the last task lives in deque 1.
        assert!(queues.steal(1, &mut failures).is_none());
        assert_eq!(queues.steal(0, &mut failures).unwrap().path, [7]);
        assert_eq!((queues.queued(), failures), (0, 2));
    }

    #[test]
    fn push_reports_overflow_instead_of_overwriting() {
        let queues = TaskQueues::new(1, 64);
        assert!((0..64).all(|id| queues.push(0, task(id))));
        // Full: the push is refused, nothing is lost, `queued` is unmoved.
        assert!(!queues.push(0, task(999)));
        assert_eq!(queues.queued(), 64);
        assert_eq!(queues.pop(0).unwrap().path, [63]);
        // Freed capacity is usable again.
        assert!(queues.push(0, task(100)));
    }

    /// The load-bearing property: under concurrent owner push/pop and 8
    /// thieves (oversubscribing CI's 2 vCPUs, so lock holders get preempted)
    /// every task is consumed exactly once and the deques drain completely.
    #[test]
    fn concurrent_steals_lose_and_duplicate_nothing() {
        const TASKS: u32 = 20_000;
        const THIEVES: usize = 8;
        // Capacity far below the task count: pushes hit the bound constantly.
        let queues = TaskQueues::new(1 + THIEVES, 64);
        let done = std::sync::OnceLock::new();
        let steal_until_done = |thief| {
            let (mut mine, mut failures) = (Vec::new(), 0u64);
            while done.get().is_none() {
                mine.extend(queues.steal(thief, &mut failures));
            }
            mine
        };
        let taken = std::thread::scope(|scope| {
            let thieves: Vec<_> = (1..=THIEVES)
                .map(|thief| scope.spawn(move || steal_until_done(thief)))
                .collect();
            // Only thieves make room in a full deque; the owner pops now and then.
            let mut mine = Vec::new();
            for id in 0..TASKS {
                while !queues.push(0, task(id)) {
                    std::hint::spin_loop();
                }
                if id % 7 == 0 {
                    mine.extend(queues.pop(0));
                }
            }
            mine.extend(std::iter::from_fn(|| queues.pop(0)));
            done.set(()).unwrap();
            mine.extend(thieves.into_iter().flat_map(|t| t.join().unwrap()));
            mine
        });
        let mut all: Vec<u32> = taken.iter().map(|t| t.path[0]).collect();
        all.sort_unstable();
        assert_eq!(all, (0..TASKS).collect::<Vec<_>>(), "lost or duplicated");
        assert_eq!(queues.queued(), 0);
    }
}
