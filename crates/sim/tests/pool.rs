//! Unit tests for the deterministic parallel execution engine:
//! submission-order delivery under adversarial job durations,
//! panic-to-error conversion with correct cell coordinates, `jobs=1`
//! degenerating to in-line serial execution, and cancellation stopping
//! pending jobs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use tlr_sim::pool::{CancelToken, CellCoords, Job, Pool};

fn coords(workload: &str, procs: usize, seed: u64) -> CellCoords {
    CellCoords {
        workload: workload.to_string(),
        scheme: "BASE+SLE+TLR".to_string(),
        procs,
        seed,
    }
}

#[test]
fn results_arrive_in_submission_order_under_adversarial_durations() {
    // Early jobs sleep longest, so completion order is roughly the
    // reverse of submission order — the merge must undo that.
    let pool = Pool::new(4);
    let n = 12usize;
    let jobs: Vec<Job<usize>> = (0..n)
        .map(|i| {
            Job::new(coords("adversarial", i, i as u64), move |_| {
                std::thread::sleep(Duration::from_millis(((n - i) * 3) as u64));
                i
            })
        })
        .collect();
    let out = pool.scatter_indexed(jobs);
    let values: Vec<usize> = out.into_iter().map(|r| r.expect("all jobs succeed")).collect();
    assert_eq!(values, (0..n).collect::<Vec<_>>());
}

#[test]
fn panic_becomes_error_with_cell_coordinates() {
    let pool = Pool::new(2);
    let jobs: Vec<Job<u64>> = vec![
        Job::new(coords("healthy", 2, 7), |_| 42),
        Job::new(coords("doomed", 8, 0xdead), |_| panic!("simulated livelock")),
    ];
    let out = pool.scatter_indexed(jobs);
    assert_eq!(*out[0].as_ref().expect("first cell fine"), 42);
    let err = out[1].as_ref().expect_err("second cell panicked");
    assert_eq!(err.coords.workload, "doomed");
    assert_eq!(err.coords.procs, 8);
    assert_eq!(err.coords.seed, 0xdead);
    assert!(!err.cancelled);
    assert!(err.message.contains("simulated livelock"), "{}", err.message);
    let display = err.to_string();
    assert!(display.contains("doomed") && display.contains("x8"), "{display}");
}

#[test]
fn single_job_pool_runs_inline_on_the_calling_thread() {
    let caller = std::thread::current().id();
    let pool = Pool::serial();
    let jobs: Vec<Job<std::thread::ThreadId>> = (0..5)
        .map(|i| Job::new(coords("inline", i, 0), |_| std::thread::current().id()))
        .collect();
    for r in pool.scatter_indexed(jobs) {
        assert_eq!(r.expect("inline jobs succeed"), caller, "jobs=1 must not spawn threads");
    }
}

#[test]
fn serial_cancellation_skips_every_later_job() {
    // With jobs=1 the semantics are exact: the cell that cancels
    // finishes, everything after it is skipped.
    let pool = Pool::serial();
    let ran = AtomicUsize::new(0);
    let jobs: Vec<Job<usize>> = (0..8)
        .map(|i| {
            let ran = &ran;
            Job::new(coords("early-exit", i, 0), move |token: &CancelToken| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 2 {
                    token.cancel();
                }
                i
            })
        })
        .collect();
    let out = pool.scatter_indexed(jobs);
    assert_eq!(ran.load(Ordering::SeqCst), 3, "jobs 0..=2 run, the rest are skipped");
    for (i, r) in out.iter().enumerate() {
        if i <= 2 {
            assert_eq!(*r.as_ref().expect("ran"), i);
        } else {
            let e = r.as_ref().expect_err("skipped");
            assert!(e.cancelled, "cell {i} must be reported as cancelled");
            assert_eq!(e.coords.procs, i);
        }
    }
}

#[test]
fn parallel_panic_cancels_pending_jobs() {
    // Job 0 panics immediately; every other job blocks until the
    // cancel flag is set, so no worker can claim a job from index 2 on
    // before the cancellation lands. Claimed jobs (index 1 may already
    // be running on the second worker) are allowed to finish. The wait
    // is bounded so a cancellation bug fails the test instead of
    // hanging it.
    let pool = Pool::new(2);
    let n = 10usize;
    let jobs: Vec<Job<usize>> = (0..n)
        .map(|i| {
            Job::new(coords("cascade", i, 0), move |token: &CancelToken| {
                if i == 0 {
                    panic!("first cell fails");
                }
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while !token.is_cancelled() && std::time::Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                i
            })
        })
        .collect();
    let out = pool.scatter_indexed(jobs);
    let e0 = out[0].as_ref().expect_err("cell 0 panicked");
    assert!(!e0.cancelled);
    assert!(e0.message.contains("first cell fails"));
    // Every cell from index 2 on was claimed after the cancel landed.
    for (i, r) in out.iter().enumerate().skip(2) {
        let e = r.as_ref().expect_err("pending cell skipped");
        assert!(e.cancelled, "cell {i} must be cancelled, got {e}");
    }
}

#[test]
fn external_token_chains_across_scatters() {
    let pool = Pool::new(2);
    let token = CancelToken::new();
    token.cancel();
    let jobs: Vec<Job<u32>> = (0..4).map(|i| Job::new(coords("chained", i, 0), |_| 1)).collect();
    for r in pool.scatter_with_token(jobs, &token) {
        assert!(r.expect_err("all skipped").cancelled);
    }
}

#[test]
fn more_workers_than_jobs_is_fine() {
    let pool = Pool::new(64);
    let jobs: Vec<Job<u32>> = (0..3).map(|i| Job::new(coords("tiny", i, 0), move |_| i as u32)).collect();
    let out: Vec<u32> = pool.scatter_indexed(jobs).into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(out, vec![0, 1, 2]);
}
