//! What a pool costs the process around it: its threads go away with it,
//! and while it has nothing to do it uses no CPU.
//!
//! Both are properties of the whole process, so they live in a test binary
//! of their own, in one test: nothing else starts threads or computes here.

use std::time::{Duration, Instant};

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// Nanoseconds on a CPU so far, summed over every thread of the process
/// (first field of each `/proc/self/task/*/schedstat`).
fn process_cpu_ns() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

#[test]
fn a_pool_leaves_with_its_threads_and_idles_for_free() {
    let Some(before) = process_threads() else {
        eprintln!("skipped: no /proc/self/status here");
        return;
    };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    assert_eq!(process_threads(), Some(before + 4));
    assert_eq!(pool.install(|| rayon::join(|| 1, || 2)), (1, 2));

    // The workers just ran a join: they are awake.  Give them a moment to
    // find nothing to do, then watch 200 ms of nothing to do.
    std::thread::sleep(Duration::from_millis(50));
    if let Some(busy) = process_cpu_ns() {
        std::thread::sleep(Duration::from_millis(200));
        let idle_cost = Duration::from_nanos(process_cpu_ns().unwrap() - busy);
        assert!(idle_cost < Duration::from_millis(5), "an idle pool burnt {idle_cost:?} in 200 ms");
    } else {
        eprintln!("skipped the idle-cost half: no schedstat here");
    }

    // `drop` has joined the workers; the kernel may list a joined thread for
    // a moment longer while it finishes exiting.
    drop(pool);
    let deadline = Instant::now() + Duration::from_secs(5);
    while process_threads() != Some(before) && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(process_threads(), Some(before));
}
