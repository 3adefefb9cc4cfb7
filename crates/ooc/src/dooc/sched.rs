//! The hierarchical data-aware task scheduler.

use crate::dooc::pool::DataPool;
use nvmtypes::SimError;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

/// Identifier of a task within a [`TaskGraph`].
pub type TaskId = usize;

type TaskFn = Box<dyn FnOnce() + Send>;

struct Task {
    name: String,
    inputs: Vec<String>,
    run: TaskFn,
    deps_left: usize,
    dependents: Vec<TaskId>,
}

/// A dependency DAG of tasks executed by a small worker pool.
///
/// The scheduler is *data-aware* in DOoC's sense: among ready tasks it
/// dispatches the one with the most declared inputs already resident in
/// the data pool, so computation chases the prefetcher instead of
/// stalling on cold data.
pub struct TaskGraph {
    tasks: Vec<Task>,
    pool: Option<Arc<DataPool>>,
}

impl Default for TaskGraph {
    fn default() -> Self {
        TaskGraph::new()
    }
}

impl TaskGraph {
    /// Empty graph without data-awareness.
    pub fn new() -> TaskGraph {
        TaskGraph {
            tasks: Vec::new(),
            pool: None,
        }
    }

    /// Empty graph scoring readiness against `pool` residency.
    pub fn with_pool(pool: Arc<DataPool>) -> TaskGraph {
        TaskGraph {
            tasks: Vec::new(),
            pool: Some(pool),
        }
    }

    /// Adds a task depending on `deps`; returns its id.
    ///
    /// # Panics
    /// Panics if a dependency id is unknown (forward references are not
    /// allowed, which also keeps the graph acyclic by construction).
    pub fn add_task<F>(&mut self, name: &str, deps: &[TaskId], run: F) -> TaskId
    where
        F: FnOnce() + Send + 'static,
    {
        self.add_task_with_inputs(name, deps, &[], run)
    }

    /// Adds a task that also declares the pool keys it will read, for
    /// data-aware ordering.
    pub fn add_task_with_inputs<F>(
        &mut self,
        name: &str,
        deps: &[TaskId],
        inputs: &[&str],
        run: F,
    ) -> TaskId
    where
        F: FnOnce() + Send + 'static,
    {
        let id = self.tasks.len();
        for &d in deps {
            assert!(d < id, "dependency {d} of task {id} does not exist yet");
        }
        self.tasks.push(Task {
            name: name.to_string(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            run: Box::new(run),
            deps_left: deps.len(),
            dependents: Vec::new(),
        });
        for &d in deps {
            self.tasks[d].dependents.push(id);
        }
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Executes the whole graph on `workers` threads, returning task names
    /// in dispatch order.
    ///
    /// # Errors
    /// Returns [`SimError::WorkerPanic`] naming the first task whose body
    /// panicked. The panic is caught on the worker thread, already-running
    /// tasks are allowed to finish, and no further tasks are dispatched.
    pub fn execute(self, workers: usize) -> Result<Vec<String>, SimError> {
        assert!(workers >= 1);
        let pool = self.pool.clone();
        let mut deps_left: Vec<usize> = self.tasks.iter().map(|t| t.deps_left).collect();
        let dependents: Vec<Vec<TaskId>> =
            self.tasks.iter().map(|t| t.dependents.clone()).collect();
        let names: Vec<String> = self.tasks.iter().map(|t| t.name.clone()).collect();
        let inputs: Vec<Vec<String>> = self.tasks.iter().map(|t| t.inputs.clone()).collect();
        let mut bodies: HashMap<TaskId, TaskFn> = self
            .tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| (i, t.run))
            .collect();

        let (done_tx, done_rx) = mpsc::channel::<(TaskId, bool)>();
        let worker_pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build();

        let mut ready: Vec<TaskId> = (0..deps_left.len())
            .filter(|&i| deps_left[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(deps_left.len());
        let mut running = 0usize;
        let mut remaining = deps_left.len();

        let mut failure: Option<SimError> = None;
        'dispatch: while remaining > 0 {
            // Dispatch as many ready tasks as workers allow, best-scored
            // (most resident inputs) first.
            while running < workers && !ready.is_empty() {
                let Some(best) = ready
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &t)| match &pool {
                        Some(p) => inputs[t].iter().filter(|k| p.contains(k)).count(),
                        None => 0,
                    })
                    .map(|(i, _)| i)
                else {
                    break;
                };
                let task = ready.swap_remove(best);
                let Some(body) = bodies.remove(&task) else {
                    // A task dispatched twice would be a scheduler bug;
                    // surface it as an error instead of panicking.
                    failure = Some(SimError::worker_panic(format!(
                        "task `{}` (body already taken)",
                        names[task]
                    )));
                    break 'dispatch;
                };
                order.push(names[task].clone());
                let done_tx = done_tx.clone();
                worker_pool.spawn(move || {
                    // Catch panics so a failing task body is reported as a
                    // completion (ok = false) instead of deadlocking the
                    // dispatch loop.
                    let ok = catch_unwind(AssertUnwindSafe(body)).is_ok();
                    let _pool_shutting_down = done_tx.send((task, ok));
                });
                running += 1;
            }
            let Ok((finished, ok)) = done_rx.recv() else {
                failure = Some(SimError::channel_closed("scheduler completions"));
                break 'dispatch;
            };
            running -= 1;
            remaining -= 1;
            if !ok {
                failure = Some(SimError::worker_panic(format!(
                    "task `{}`",
                    names[finished]
                )));
                break;
            }
            for &dep in &dependents[finished] {
                deps_left[dep] -= 1;
                if deps_left[dep] == 0 {
                    ready.push(dep);
                }
            }
        }
        // Let already-dispatched tasks run to completion. Dropping our
        // completion sender first means `recv` errors (instead of
        // blocking forever) if a job was lost.
        drop(done_tx);
        while running > 0 {
            match done_rx.recv() {
                Ok((finished, ok)) => {
                    running -= 1;
                    if !ok && failure.is_none() {
                        failure = Some(SimError::worker_panic(format!(
                            "task `{}`",
                            names[finished]
                        )));
                    }
                }
                Err(_) => break,
            }
        }
        let panicked = worker_pool.join();
        if panicked > 0 && failure.is_none() {
            failure = Some(SimError::worker_panic(format!(
                "{panicked} scheduler job(s)"
            )));
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(order),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn dependencies_execute_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let l1 = Arc::clone(&log);
        let a = g.add_task("a", &[], move || l1.lock().unwrap().push("a"));
        let l2 = Arc::clone(&log);
        let b = g.add_task("b", &[a], move || l2.lock().unwrap().push("b"));
        let l3 = Arc::clone(&log);
        g.add_task("c", &[a, b], move || l3.lock().unwrap().push("c"));
        g.execute(4).unwrap();
        assert_eq!(*log.lock().unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        // With 4 workers, 4 barrier-synchronised tasks can only finish if
        // they truly run concurrently.
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut g = TaskGraph::new();
        for i in 0..4 {
            let b = Arc::clone(&barrier);
            g.add_task(&format!("t{i}"), &[], move || {
                b.wait();
            });
        }
        g.execute(4).unwrap(); // would deadlock if serialised
    }

    #[test]
    fn all_tasks_execute_exactly_once() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let mut prev: Vec<TaskId> = Vec::new();
        for i in 0..20 {
            let c = Arc::clone(&count);
            let deps: Vec<TaskId> = if i % 3 == 0 { prev.clone() } else { Vec::new() };
            let id = g.add_task(&format!("t{i}"), &deps, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            prev.push(id);
            if prev.len() > 3 {
                prev.remove(0);
            }
        }
        g.execute(3).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn data_aware_ordering_prefers_resident_inputs() {
        let pool = Arc::new(DataPool::new(1 << 20));
        pool.insert("hot", vec![1]);
        let mut g = TaskGraph::with_pool(Arc::clone(&pool));
        // Two ready tasks; the one whose input is resident must dispatch
        // first on a single worker.
        g.add_task_with_inputs("cold", &[], &["missing"], || {});
        g.add_task_with_inputs("hot", &[], &["hot"], || {});
        let order = g.execute(1).unwrap();
        assert_eq!(order[0], "hot");
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_dependencies_rejected() {
        let mut g = TaskGraph::new();
        g.add_task("a", &[5], || {});
    }

    #[test]
    fn panicking_task_surfaces_as_error() {
        let ran_after = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let bad = g.add_task("bad", &[], || panic!("injected task failure"));
        let r = Arc::clone(&ran_after);
        g.add_task("after", &[bad], move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        let err = g.execute(2).unwrap_err();
        assert_eq!(
            err,
            nvmtypes::SimError::WorkerPanic {
                worker: "task `bad`".into()
            }
        );
        // Dependents of the failed task must not have been dispatched.
        assert_eq!(ran_after.load(Ordering::Relaxed), 0);
    }
}
