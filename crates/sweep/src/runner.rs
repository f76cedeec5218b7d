//! The sweep description and the sharded runner that executes it.

use crate::point::{Point, PointCtx, PointFn, PointOutput, PointStatus, WarmState};
use crate::report::{SweepReport, SweepRow};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Default sweep seed (mixed per point; see [`PointCtx::seed`]).
const DEFAULT_SEED: u64 = 0x5eed_cafe_f00d_0001;

pub(crate) type PrefillFn = Box<dyn FnOnce() -> WarmState + Send + 'static>;

/// An ordered set of independent simulation points to execute.
///
/// Build one with [`Sweep::new`], add [`Point`]s with [`Sweep::push`] (or
/// the chaining [`Sweep::point`]), and hand it to a [`SweepRunner`]. The
/// insertion order is the row order of the resulting [`SweepReport`],
/// regardless of which workers execute which points.
pub struct Sweep {
    pub(crate) name: String,
    pub(crate) unit: Option<String>,
    pub(crate) seed: u64,
    pub(crate) points: Vec<Point>,
    pub(crate) prefills: Vec<(String, PrefillFn)>,
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("name", &self.name)
            .field("points", &self.points.len())
            .finish_non_exhaustive()
    }
}

impl Sweep {
    /// An empty sweep named `name` (the `"bench"` key of the JSON export).
    pub fn new(name: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            unit: None,
            seed: DEFAULT_SEED,
            points: Vec::new(),
            prefills: Vec::new(),
        }
    }

    /// Registers a warm-start prefill under `key`. The closure runs **at
    /// most once** per sweep execution — and only if some point references
    /// the key via [`Point::warm`] — before any point is dispatched; its
    /// [`WarmState`] is then shared read-only by every referencing point.
    /// Registering the same key twice keeps the later closure.
    pub fn prefill(
        mut self,
        key: impl Into<String>,
        f: impl FnOnce() -> WarmState + Send + 'static,
    ) -> Self {
        let key = key.into();
        self.prefills.retain(|(k, _)| *k != key);
        self.prefills.push((key, Box::new(f)));
        self
    }

    /// Annotates the unit of the points' primary values (export metadata
    /// only).
    pub fn unit(mut self, unit: impl Into<String>) -> Self {
        self.unit = Some(unit.into());
        self
    }

    /// Sets the sweep seed that per-point seeds are mixed from. Two runs
    /// with the same seed and point list produce bit-identical tables at
    /// any thread count.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The points appended so far, in execution-table order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Appends a point (builder-by-reference, for loops).
    pub fn push(&mut self, point: Point) -> &mut Self {
        self.points.push(point);
        self
    }

    /// Appends a point (chaining form).
    pub fn point(mut self, point: Point) -> Self {
        self.points.push(point);
        self
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Number of registered warm-start prefills (distinct fill phases).
    pub fn prefill_count(&self) -> usize {
        self.prefills.len()
    }

    /// Whether the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// SplitMix64 — the standard cheap seed mixer; a bijection, so distinct
/// point indices never collide.
fn mix_seed(sweep_seed: u64, index: usize) -> u64 {
    skipit_core::splitmix64(sweep_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One unit of work on the shared task queue.
struct Task {
    index: usize,
    label: String,
    params: Vec<(String, String)>,
    budget: Option<u64>,
    seed: u64,
    /// The shared warm-start payload — or the error message explaining why
    /// it is unavailable (unknown key, panicked prefill), which turns the
    /// task into an error row without running it.
    warm: Result<Option<Arc<dyn Any + Send + Sync>>, String>,
    run: PointFn,
}

/// The message of a caught panic: the `&str` or `String` that `panic!`
/// carried, or a placeholder for any other payload type.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs a task to a finished row: panic capture, then budget
/// classification.
fn execute(task: Task) -> SweepRow {
    let warm = match task.warm {
        Ok(warm) => warm,
        Err(message) => {
            return SweepRow {
                index: task.index,
                label: task.label,
                params: task.params,
                status: PointStatus::Error { message },
                output: PointOutput::new(),
            }
        }
    };
    let ctx = PointCtx {
        index: task.index,
        seed: task.seed,
        cycle_budget: task.budget,
        warm,
    };
    let run = task.run;
    let (status, output) = match std::panic::catch_unwind(AssertUnwindSafe(move || run(&ctx))) {
        Ok(output) => match task.budget {
            Some(budget) if output.cycles > budget => (
                PointStatus::Timeout {
                    budget,
                    cycles: output.cycles,
                },
                output,
            ),
            _ => (PointStatus::Ok, output),
        },
        Err(payload) => (
            PointStatus::Error {
                message: panic_message(&*payload),
            },
            PointOutput::new(),
        ),
    };
    SweepRow {
        index: task.index,
        label: task.label,
        params: task.params,
        status,
        output,
    }
}

/// Executes a [`Sweep`] across a pool of worker threads.
///
/// Workers pull points one at a time from a shared queue (a `Mutex` over
/// the task list: a long point on one worker never blocks short points on
/// the others) and send finished rows back over an `mpsc` channel; the
/// caller reassembles them by point index, so the table order is the
/// sweep's insertion order no matter how execution interleaved.
///
/// The thread count resolves, in order of precedence: an explicit
/// [`SweepRunner::threads`] call, the `SKIPIT_SWEEP_THREADS` environment
/// variable, `std::thread::available_parallelism()`. A count of 1 (or a
/// single-point sweep) runs inline on the calling thread.
#[derive(Clone, Debug, Default)]
pub struct SweepRunner {
    threads: Option<usize>,
}

impl SweepRunner {
    /// A runner with automatic thread-count resolution.
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// The serial fallback: everything on the calling thread.
    pub fn serial() -> Self {
        SweepRunner { threads: Some(1) }
    }

    /// Pins the worker-thread count (clamped to at least 1; also clamped
    /// to the point count at run time).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// The thread count this runner would use for a sweep of `points`
    /// points.
    ///
    /// # Panics
    ///
    /// Panics if `SKIPIT_SWEEP_THREADS` is set but is not a positive
    /// integer. A malformed override used to fall through silently to
    /// `available_parallelism()`, which is exactly the wrong behavior for a
    /// variable whose whole purpose is making runs reproducible.
    pub fn resolved_threads(&self, points: usize) -> usize {
        let n = self
            .threads
            .or_else(|| {
                std::env::var("SKIPIT_SWEEP_THREADS")
                    .ok()
                    .map(|v| Self::parse_threads_env("SKIPIT_SWEEP_THREADS", &v))
            })
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        n.max(1).min(points.max(1))
    }

    /// Strictly parses a thread-count environment override. Split out from
    /// [`SweepRunner::resolved_threads`] so the rejection paths are testable
    /// without mutating process-global environment state.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and the offending value, when the value
    /// is not a positive integer.
    fn parse_threads_env(var: &str, value: &str) -> usize {
        match value.trim().parse::<usize>() {
            Ok(0) => panic!(
                "{var} must be a positive integer, got \"{value}\" (0 threads cannot run a sweep)"
            ),
            Ok(n) => n,
            Err(_) => panic!("{var} must be a positive integer, got \"{value}\""),
        }
    }

    /// Executes every point and collects the deterministic result table.
    ///
    /// Never panics on a failing point: per-shard panic capture turns a
    /// poisoned point into a [`PointStatus::Error`] row while the rest of
    /// the sweep completes.
    pub fn run(&self, sweep: Sweep) -> SweepReport {
        let n = sweep.points.len();
        let threads = self.resolved_threads(n);
        let started = Instant::now();
        // Identity of every point, kept host-side so a row can be
        // synthesized even if a worker vanishes (defense in depth — the
        // execute path already captures panics).
        let identities: Vec<(String, Vec<(String, String)>)> = sweep
            .points
            .iter()
            .map(|p| (p.label.clone(), p.params.clone()))
            .collect();

        // Warm-start: evaluate each prefill that a point references,
        // exactly once, serially, before dispatch. A panicking prefill (or
        // a key nobody registered) does not abort the sweep — it turns
        // every referencing point into an error row.
        let needed: Vec<&String> = {
            let mut keys: Vec<&String> = Vec::new();
            for k in sweep.points.iter().filter_map(|p| p.warm_key.as_ref()) {
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            keys
        };
        let mut prefills: BTreeMap<String, PrefillFn> = sweep.prefills.into_iter().collect();
        let mut warm_sizes: Vec<(String, u64)> = Vec::new();
        let mut warm_states: BTreeMap<String, Result<Arc<dyn Any + Send + Sync>, String>> =
            BTreeMap::new();
        for key in needed {
            let state = match prefills.remove(key) {
                None => Err(format!("no prefill registered for warm key \"{key}\"")),
                Some(f) => match std::panic::catch_unwind(AssertUnwindSafe(f)) {
                    Ok(ws) => {
                        warm_sizes.push((key.clone(), ws.encoded_bytes));
                        Ok(Arc::from(ws.data))
                    }
                    Err(payload) => Err(format!(
                        "prefill \"{key}\" panicked: {}",
                        panic_message(&*payload)
                    )),
                },
            };
            warm_states.insert(key.clone(), state);
        }

        let sweep_seed = sweep.seed;
        let tasks: Vec<Task> = sweep
            .points
            .into_iter()
            .enumerate()
            .map(|(index, p)| Task {
                index,
                label: p.label,
                params: p.params,
                budget: p.budget,
                seed: mix_seed(sweep_seed, index),
                warm: match &p.warm_key {
                    None => Ok(None),
                    Some(k) => match warm_states.get(k) {
                        Some(Ok(a)) => Ok(Some(Arc::clone(a))),
                        Some(Err(m)) => Err(m.clone()),
                        None => Err(format!("no prefill registered for warm key \"{k}\"")),
                    },
                },
                run: p.run,
            })
            .collect();

        let mut slots: Vec<Option<SweepRow>> = (0..n).map(|_| None).collect();
        if threads <= 1 {
            for task in tasks {
                let index = task.index;
                slots[index] = Some(execute(task));
            }
        } else {
            let queue = Mutex::new(tasks.into_iter());
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let tx = tx.clone();
                    let queue = &queue;
                    s.spawn(move || loop {
                        // The lock guard drops at the end of this statement,
                        // so a worker holds the queue only to take a task.
                        let Some(task) = queue.lock().expect("sweep task queue poisoned").next()
                        else {
                            break;
                        };
                        if tx.send(execute(task)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                while let Ok(row) = rx.recv() {
                    let index = row.index;
                    slots[index] = Some(row);
                }
            });
        }
        let rows = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or_else(|| {
                    let (label, params) = identities[index].clone();
                    SweepRow {
                        index,
                        label,
                        params,
                        status: PointStatus::Error {
                            message: "worker disappeared before reporting".into(),
                        },
                        output: PointOutput::new(),
                    }
                })
            })
            .collect();
        SweepReport {
            name: sweep.name,
            unit: sweep.unit,
            threads,
            wall: started.elapsed(),
            warm: warm_sizes,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    /// A deterministic CPU-only sweep: no simulation needed to test the
    /// scheduling machinery.
    fn arithmetic_sweep() -> Sweep {
        let mut sweep = Sweep::new("arith").unit("units").seed(7);
        for i in 0..9u64 {
            sweep.push(
                Point::new(format!("p{i}"), move |ctx| {
                    PointOutput::new()
                        .with_cycles(i * 10)
                        .value("seed_lo", (ctx.seed & 0xffff) as f64)
                        .value("sq", (i * i) as f64)
                })
                .param("i", i),
            );
        }
        sweep
    }

    #[test]
    fn table_is_identical_across_thread_counts() {
        let serial = SweepRunner::serial().run(arithmetic_sweep());
        for threads in [2, 4, 8] {
            let par = SweepRunner::new().threads(threads).run(arithmetic_sweep());
            assert_eq!(serial.rows(), par.rows(), "threads={threads}");
            assert_eq!(serial.to_json(), par.to_json(), "threads={threads}");
        }
    }

    #[test]
    fn rows_keep_insertion_order() {
        let report = SweepRunner::new().threads(4).run(arithmetic_sweep());
        let labels: Vec<&str> = report.rows().iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"]
        );
        for (i, row) in report.rows().iter().enumerate() {
            assert_eq!(row.index, i);
        }
    }

    #[test]
    fn long_point_does_not_block_short_points_on_other_workers() {
        use std::time::Duration;
        // Point 0 finishes only once every short point has run. A runner
        // that split points statically would queue some short points behind
        // it on the same worker, and point 0 would time out waiting.
        const SHORT: usize = 6;
        let ran = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ran);
        let mut sweep = Sweep::new("dispatch").point(Point::new("long", move |_| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while seen.load(Ordering::SeqCst) < SHORT && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                seen.load(Ordering::SeqCst),
                SHORT,
                "short points waited behind the long one"
            );
            PointOutput::new()
        }));
        for i in 0..SHORT {
            let ran = Arc::clone(&ran);
            sweep.push(Point::new(format!("short{i}"), move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
                PointOutput::new()
            }));
        }
        let report = SweepRunner::new().threads(2).run(sweep);
        assert_eq!(report.threads(), 2);
        assert!(
            report.all_ok(),
            "{:?}",
            report.failed_rows().collect::<Vec<_>>()
        );
    }

    #[test]
    fn panicking_point_yields_error_row_and_sweep_completes() {
        let mut sweep = Sweep::new("poison");
        sweep.push(Point::new("good0", |_| PointOutput::new().with_cycles(1)));
        sweep.push(Point::new("bad", |_| -> PointOutput {
            panic!("poisoned point")
        }));
        sweep.push(Point::new("good1", |_| PointOutput::new().with_cycles(2)));
        let report = SweepRunner::new().threads(2).run(sweep);
        assert!(!report.all_ok());
        assert_eq!(report.failed_rows().count(), 1);
        let bad = report.get("bad").unwrap();
        match &bad.status {
            PointStatus::Error { message } => assert!(message.contains("poisoned"), "{message}"),
            other => panic!("expected error row, got {other:?}"),
        }
        assert!(report.get("good0").unwrap().is_ok());
        assert!(report.get("good1").unwrap().is_ok());
    }

    #[test]
    fn budget_overrun_is_classified_timeout() {
        let sweep = Sweep::new("budget")
            .point(Point::new("fits", |_| PointOutput::new().with_cycles(50)).budget(100))
            .point(Point::new("overruns", |_| PointOutput::new().with_cycles(500)).budget(100));
        let report = SweepRunner::serial().run(sweep);
        assert!(report.get("fits").unwrap().is_ok());
        assert_eq!(
            report.get("overruns").unwrap().status,
            PointStatus::Timeout {
                budget: 100,
                cycles: 500
            }
        );
    }

    #[test]
    fn seeds_depend_on_index_not_schedule() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        assert_eq!(mix_seed(9, 4), mix_seed(9, 4));
    }

    #[test]
    fn thread_resolution_clamps() {
        assert_eq!(SweepRunner::new().threads(0).resolved_threads(5), 1);
        assert_eq!(SweepRunner::new().threads(16).resolved_threads(3), 3);
        assert_eq!(SweepRunner::serial().resolved_threads(8), 1);
    }

    #[test]
    fn threads_env_parses_positive_integers() {
        assert_eq!(SweepRunner::parse_threads_env("X", "1"), 1);
        assert_eq!(SweepRunner::parse_threads_env("X", " 12 "), 12);
    }

    #[test]
    #[should_panic(expected = "SKIPIT_SWEEP_THREADS must be a positive integer, got \"4 threads\"")]
    fn threads_env_rejects_garbage_loudly() {
        SweepRunner::parse_threads_env("SKIPIT_SWEEP_THREADS", "4 threads");
    }

    #[test]
    #[should_panic(expected = "0 threads cannot run a sweep")]
    fn threads_env_rejects_zero_loudly() {
        SweepRunner::parse_threads_env("SKIPIT_SWEEP_THREADS", "0");
    }

    use crate::point::WarmState;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A sweep of `n` points sharing one warm artifact; `prefills` and
    /// `executions` count what actually ran.
    fn warm_sweep(n: usize, prefills: &Arc<AtomicUsize>, executions: &Arc<AtomicUsize>) -> Sweep {
        let mut sweep = Sweep::new("warm").seed(3);
        let pf = Arc::clone(prefills);
        sweep = sweep.prefill("fill", move || {
            pf.fetch_add(1, Ordering::SeqCst);
            WarmState::new(41u64, 7)
        });
        for i in 0..n {
            let ex = Arc::clone(executions);
            sweep = sweep.point(
                Point::new(format!("w{i}"), move |ctx| {
                    ex.fetch_add(1, Ordering::SeqCst);
                    let base = *ctx.warm::<u64>().expect("warm state present");
                    PointOutput::new().value("v", (base + i as u64) as f64)
                })
                .param("i", i)
                .warm("fill"),
            );
        }
        sweep
    }

    #[test]
    fn prefill_runs_once_and_is_shared_at_any_thread_count() {
        for threads in [1, 4] {
            let prefills = Arc::new(AtomicUsize::new(0));
            let executions = Arc::new(AtomicUsize::new(0));
            let report =
                SweepRunner::new()
                    .threads(threads)
                    .run(warm_sweep(6, &prefills, &executions));
            assert_eq!(prefills.load(Ordering::SeqCst), 1, "threads={threads}");
            assert_eq!(executions.load(Ordering::SeqCst), 6);
            assert!(report.all_ok());
            assert_eq!(report.warm_sizes(), &[("fill".to_string(), 7)]);
            for (i, row) in report.rows().iter().enumerate() {
                assert_eq!(row.value("v"), Some(41.0 + i as f64));
            }
        }
    }

    #[test]
    fn unknown_warm_key_is_an_error_row() {
        let sweep = Sweep::new("nokey")
            .point(Point::new("cold", |_| PointOutput::new().with_cycles(1)))
            .point(Point::new("orphan", |_| PointOutput::new()).warm("missing"));
        let report = SweepRunner::serial().run(sweep);
        assert!(report.get("cold").unwrap().is_ok());
        match &report.get("orphan").unwrap().status {
            PointStatus::Error { message } => {
                assert!(message.contains("missing"), "{message}");
            }
            other => panic!("expected error row, got {other:?}"),
        }
    }

    #[test]
    fn panicking_prefill_poisons_only_referencing_points() {
        let sweep = Sweep::new("poisoned_fill")
            .prefill("bad", || panic!("fill exploded"))
            .point(Point::new("warmed", |_| PointOutput::new()).warm("bad"))
            .point(Point::new("cold", |_| PointOutput::new().with_cycles(2)));
        let report = SweepRunner::new().threads(2).run(sweep);
        match &report.get("warmed").unwrap().status {
            PointStatus::Error { message } => {
                assert!(message.contains("fill exploded"), "{message}");
            }
            other => panic!("expected error row, got {other:?}"),
        }
        assert!(report.get("cold").unwrap().is_ok());
        assert!(report.warm_sizes().is_empty());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let report = SweepRunner::new().threads(4).run(Sweep::new("empty"));
        assert!(report.rows().is_empty());
        assert!(report.all_ok());
        assert!(report.to_json().contains("\"points\": [\n\n  ]"));
    }
}
