//! Minimal scoped-thread parallel map, with panic isolation.
//!
//! The per-subdomain phases (`LU(D)`, `Comp(S)`) are embarrassingly
//! parallel with one coarse task per subdomain, so a work-stealing pool
//! buys nothing over a handful of scoped threads pulling items from a
//! shared cursor. Keeping this in-tree keeps the workspace
//! dependency-free.
//!
//! The worker count honours the `PDSLIN_THREADS` environment variable,
//! clamped to the host's available parallelism — see [`worker_count`].
//!
//! [`map_isolated`] runs every task under `catch_unwind`, so a panicking
//! subdomain task surfaces as a per-item `Err(message)` instead of
//! tearing down the whole setup; the driver reports it as a typed
//! `WorkerPanic` error.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Environment variable that overrides the worker-thread count.
pub const THREADS_ENV: &str = "PDSLIN_THREADS";

/// Number of worker threads to use for `n_items` tasks.
///
/// `env` is the raw value of [`THREADS_ENV`] (passed explicitly so the
/// policy is testable without mutating the process environment):
/// a positive integer overrides the default of one thread per available
/// core, but is always clamped to `available` (requesting more threads
/// than cores only adds contention) and to `n_items` (extra workers
/// would have nothing to pull). Unparsable or zero values are ignored.
/// With `parallel` false the answer is always 1.
pub fn worker_count(n_items: usize, parallel: bool, env: Option<&str>, available: usize) -> usize {
    if !parallel {
        return 1;
    }
    let available = available.max(1);
    let requested = env
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or(available);
    requested.min(available).min(n_items.max(1))
}

/// Worker budget for a kernel nested `outer` levels wide: when the
/// driver already fans out over `outer` concurrent tasks, each inner
/// kernel gets `max(1, total / outer)` workers so the *product*
/// `outer × inner` never exceeds the configured total (the
/// [`THREADS_ENV`] override clamped to `available`). Also clamped to
/// `n_items` — extra inner workers would have nothing to pull.
pub fn nested_worker_count(
    n_items: usize,
    parallel: bool,
    env: Option<&str>,
    available: usize,
    outer: usize,
) -> usize {
    if !parallel {
        return 1;
    }
    let total = worker_count(usize::MAX, parallel, env, available);
    (total / outer.max(1)).max(1).min(n_items.max(1))
}

/// Worker count for the *outer* (per-subdomain) fan-out, from the
/// process environment and host parallelism.
pub fn outer_worker_count(n_items: usize, parallel: bool) -> usize {
    let env = std::env::var(THREADS_ENV).ok();
    worker_count(n_items, parallel, env.as_deref(), host_parallelism())
}

/// Worker count for an *inner* kernel running beneath an outer fan-out
/// of `outer` concurrent tasks, from the process environment and host
/// parallelism. `outer × inner` stays within the configured total.
pub fn inner_worker_count(outer: usize, parallel: bool) -> usize {
    let env = std::env::var(THREADS_ENV).ok();
    nested_worker_count(
        usize::MAX,
        parallel,
        env.as_deref(),
        host_parallelism(),
        outer,
    )
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Applies `f` to every item — on [`outer_worker_count`] scoped threads
/// when `parallel`, in order on the caller's thread otherwise — with
/// per-item panic isolation: a panicking task yields `Err(panic
/// message)` for that item while every other item completes normally.
///
/// Results come back in input order. `f` receives `(index, &mut item)`,
/// so a task may update its own item in place and zip against sibling
/// slices by index; each item is handed to exactly one task.
pub fn map_isolated<T, R, F>(items: &mut [T], parallel: bool, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let run =
        |i: usize, t: &mut T| catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(panic_message);
    let n = items.len();
    let workers = outer_worker_count(n, parallel);
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, t)| run(i, t))
            .collect();
    }
    // Tasks never unwind past `run`, so the cursor lock cannot be
    // poisoned; recovering the guard anyway keeps that local.
    let cursor = Mutex::new(items.iter_mut().enumerate());
    let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, t)) = next else { break };
                        done.push((i, run(i, t)));
                    }
                    done
                })
            })
            .collect();
        for w in workers {
            for (i, r) in w.join().expect("isolated tasks never unwind") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every index produces a result"))
        .collect()
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwrap_all<R: std::fmt::Debug>(rs: Vec<Result<R, String>>) -> Vec<R> {
        rs.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn preserves_order() {
        let mut xs: Vec<usize> = (0..100).collect();
        let ys = unwrap_all(map_isolated(&mut xs, true, |i, &mut x| {
            assert_eq!(i, x);
            x * 2
        }));
        assert_eq!(ys, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut xs: Vec<f64> = (0..37).map(|i| i as f64).collect();
        let p = unwrap_all(map_isolated(&mut xs, true, |_, &mut x| x.sin()));
        let s = unwrap_all(map_isolated(&mut xs, false, |_, &mut x| x.sin()));
        assert_eq!(p, s);
    }

    #[test]
    fn empty_and_singleton() {
        let mut none: Vec<usize> = Vec::new();
        assert!(map_isolated(&mut none, true, |_, &mut x: &mut usize| x).is_empty());
        assert_eq!(
            unwrap_all(map_isolated(&mut [7usize], true, |_, &mut x| x + 1)),
            vec![8]
        );
    }

    #[test]
    fn items_are_updated_in_place() {
        for parallel in [true, false] {
            let mut xs: Vec<usize> = (0..23).collect();
            map_isolated(&mut xs, parallel, |i, x| *x += i);
            assert_eq!(xs, (0..23).map(|x| 2 * x).collect::<Vec<_>>());
        }
    }

    // ----- worker-count policy (PDSLIN_THREADS satellite) -----

    #[test]
    fn env_override_is_honoured() {
        assert_eq!(worker_count(100, true, Some("3"), 8), 3);
        assert_eq!(worker_count(100, true, Some(" 2 "), 8), 2);
    }

    #[test]
    fn env_override_is_clamped_to_available_parallelism() {
        assert_eq!(worker_count(100, true, Some("64"), 8), 8);
        assert_eq!(worker_count(100, true, Some("10000"), 4), 4);
    }

    #[test]
    fn worker_count_never_exceeds_item_count() {
        assert_eq!(worker_count(2, true, Some("8"), 16), 2);
        assert_eq!(worker_count(2, true, None, 16), 2);
        // ...but stays at least 1 even with zero items.
        assert_eq!(worker_count(0, true, None, 16), 1);
    }

    #[test]
    fn bad_override_values_fall_back_to_available() {
        for bad in ["", "0", "-3", "lots", "2.5"] {
            assert_eq!(worker_count(100, true, Some(bad), 6), 6, "env {bad:?}");
        }
        assert_eq!(worker_count(100, true, None, 6), 6);
    }

    #[test]
    fn serial_mode_ignores_the_override() {
        assert_eq!(worker_count(100, false, Some("8"), 16), 1);
    }

    // ----- nested allocation (outer domains × inner blocks) -----

    #[test]
    fn nested_product_never_exceeds_configured_total() {
        for &total in &[1usize, 2, 3, 4, 7, 8, 16] {
            for &n_domains in &[1usize, 2, 3, 4, 8, 13] {
                let env = total.to_string();
                let outer = worker_count(n_domains, true, Some(&env), total);
                let inner = nested_worker_count(1000, true, Some(&env), total, outer);
                assert!(
                    outer * inner <= total.max(1),
                    "total {total}, {n_domains} domains: outer {outer} × inner {inner}"
                );
            }
        }
    }

    #[test]
    fn single_outer_task_gets_all_workers() {
        assert_eq!(nested_worker_count(1000, true, Some("8"), 8, 1), 8);
        // Outer fan-out of zero behaves like one.
        assert_eq!(nested_worker_count(1000, true, Some("8"), 8, 0), 8);
    }

    #[test]
    fn nested_count_is_at_least_one() {
        // More outer tasks than threads: inner kernels run serially
        // rather than starving.
        assert_eq!(nested_worker_count(1000, true, Some("4"), 4, 16), 1);
    }

    #[test]
    fn nested_count_respects_serial_mode_and_item_count() {
        assert_eq!(nested_worker_count(1000, false, Some("8"), 8, 1), 1);
        assert_eq!(nested_worker_count(2, true, Some("8"), 8, 1), 2);
        assert_eq!(nested_worker_count(0, true, Some("8"), 8, 1), 1);
    }

    #[test]
    fn nested_count_clamps_env_to_available() {
        // Requesting 64 threads on a 4-core host: total is 4, so two
        // outer tasks leave two inner workers each.
        assert_eq!(nested_worker_count(1000, true, Some("64"), 4, 2), 2);
    }

    // ----- panic isolation -----

    #[test]
    fn isolated_map_contains_panics() {
        let mut xs: Vec<usize> = (0..20).collect();
        let rs = map_isolated(&mut xs, true, |_, &mut x| {
            if x == 7 {
                panic!("injected panic on {x}");
            }
            x * 10
        });
        for (i, r) in rs.iter().enumerate() {
            if i == 7 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("injected panic on 7"), "{msg}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 10);
            }
        }
    }

    #[test]
    fn isolated_serial_matches_parallel() {
        let mut xs: Vec<usize> = (0..10).collect();
        let f = |_: usize, &mut x: &mut usize| {
            if x % 4 == 1 {
                panic!("odd one out");
            }
            x + 1
        };
        let p = map_isolated(&mut xs, true, f);
        let s = map_isolated(&mut xs, false, f);
        assert_eq!(p, s);
    }
}
