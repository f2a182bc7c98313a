//! Substrate-level blocking and coordination behaviours that unit tests in
//! the individual modules don't reach: the generic blocking helper, monitor
//! wait/notify herds, and spin-budget configuration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use drink_runtime::{
    MonitorId, NoHooks, Runtime, RuntimeConfig, ThreadStatus,
};

#[test]
fn blocking_helper_reports_implicit_coordination() {
    let rt = Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build());
    let t0 = rt.register_thread();
    let t1 = rt.register_thread();

    std::thread::scope(|s| {
        let rtr = &rt;
        let h = s.spawn(move || {
            // T0 blocks "on I/O" until its epoch gets bumped.
            let ((), bumped) = rtr.blocking(t0, &NoHooks, || {
                let mut spin = rtr.spinner("epoch bump");
                loop {
                    if let ThreadStatus::Blocked { epoch } = rtr.control(t0).status() {
                        if epoch > 0 {
                            return;
                        }
                    }
                    spin.spin();
                }
            });
            assert!(bumped, "wake must report the implicit bump");
        });

        // T1 coordinates implicitly once T0 publishes BLOCKED.
        let _ = t1;
        let mut spin = rt.spinner("T0 to block");
        let epoch = loop {
            if let ThreadStatus::Blocked { epoch } = rt.control(t0).status() {
                break epoch;
            }
            spin.spin();
        };
        assert!(rt.control(t0).try_implicit(epoch));
        h.join().unwrap();
    });
}

#[test]
fn notify_all_wakes_a_herd_of_waiters() {
    const WAITERS: usize = 5;
    let rt = Runtime::new(RuntimeConfig::builder()
        .max_threads(WAITERS + 1)
        .heap_objects(4)
        .monitors(1)
        .build());
    let m = MonitorId(0);
    let flag = AtomicU64::new(0);
    let woke = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..WAITERS {
            let rtr = &rt;
            let flag = &flag;
            let woke = &woke;
            s.spawn(move || {
                let t = rtr.register_thread();
                rtr.monitor_acquire(m, t, &NoHooks);
                while flag.load(Ordering::Relaxed) == 0 {
                    rtr.monitor_wait(m, t, &NoHooks);
                }
                rtr.monitor_release(m, t, &NoHooks);
                woke.fetch_add(1, Ordering::Relaxed);
            });
        }

        let t = rt.register_thread();
        // Let the herd settle into the wait set.
        std::thread::sleep(Duration::from_millis(30));
        rt.monitor_acquire(m, t, &NoHooks);
        flag.store(1, Ordering::Relaxed);
        rt.monitor_notify_all(m);
        rt.monitor_release(m, t, &NoHooks);
    });
    assert_eq!(woke.load(Ordering::Relaxed), WAITERS as u64);
    assert_eq!(rt.monitor(m).holder(), None);
}

#[test]
fn monitor_spin_iters_zero_parks_immediately() {
    // With a zero spin budget, a contended acquire must still succeed (it
    // parks right away and is woken by the release).
    let mut cfg = RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build();
    cfg.monitor_spin_iters = 0;
    let rt = Runtime::new(cfg);
    let m = MonitorId(0);
    let t0 = rt.register_thread();
    rt.monitor_acquire(m, t0, &NoHooks);

    std::thread::scope(|s| {
        let rtr = &rt;
        let h = s.spawn(move || {
            let t1 = rtr.register_thread();
            let info = rtr.monitor_acquire(m, t1, &NoHooks);
            assert!(info.blocked, "zero spin budget must park");
            rtr.monitor_release(m, t1, &NoHooks);
        });
        std::thread::sleep(Duration::from_millis(10));
        rt.monitor_release(m, t0, &NoHooks);
        h.join().unwrap();
    });
}

/// Threads × iterations of a relaxed load+store increment under one monitor:
/// the count is exact only if the monitor excludes.
fn count_under_monitor(threads: usize, spin_iters: u32, iters: u64) -> u64 {
    let rt = Runtime::new(RuntimeConfig::builder()
        .max_threads(threads)
        .heap_objects(4)
        .monitors(1)
        .monitor_spin_iters(spin_iters)
        .build());
    let m = MonitorId(0);
    let counter = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (rt, counter) = (&rt, &counter);
            s.spawn(move || {
                let t = rt.register_thread();
                for _ in 0..iters {
                    rt.monitor_acquire(m, t, &NoHooks);
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    rt.monitor_release(m, t, &NoHooks);
                }
            });
        }
    });
    assert_eq!(rt.monitor(m).holder(), None);
    counter.load(Ordering::Relaxed)
}

#[test]
fn thin_lock_excludes_when_parking_and_when_spinning() {
    const ITERS: u64 = 3_000;
    let default_spin = RuntimeConfig::default().monitor_spin_iters;
    for threads in [2, 4] {
        // Zero spin iterations: every contended acquire parks.
        for spin_iters in [0, default_spin] {
            assert_eq!(
                count_under_monitor(threads, spin_iters, ITERS),
                threads as u64 * ITERS,
                "{threads} threads, {spin_iters} spin iterations"
            );
        }
    }
}

#[test]
fn reentrant_wait_preserves_recursion_depth() {
    let rt = Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build());
    let m = MonitorId(0);
    let flag = AtomicU64::new(0);

    std::thread::scope(|s| {
        let rtr = &rt;
        let flag_r = &flag;
        let h = s.spawn(move || {
            let t = rtr.register_thread();
            rtr.monitor_acquire(m, t, &NoHooks);
            rtr.monitor_acquire(m, t, &NoHooks); // depth 2
            while flag_r.load(Ordering::Relaxed) == 0 {
                rtr.monitor_wait(m, t, &NoHooks);
            }
            // Still held at depth 2: two releases required.
            rtr.monitor_release(m, t, &NoHooks);
            assert_eq!(rtr.monitor(m).holder(), Some(t));
            rtr.monitor_release(m, t, &NoHooks);
        });

        let t = rt.register_thread();
        std::thread::sleep(Duration::from_millis(20));
        rt.monitor_acquire(m, t, &NoHooks);
        flag.store(1, Ordering::Relaxed);
        rt.monitor_notify_all(m);
        rt.monitor_release(m, t, &NoHooks);
        h.join().unwrap();
    });
    assert_eq!(rt.monitor(m).holder(), None);
}

#[test]
fn spin_budget_configuration_reaches_spinners() {
    let mut cfg = RuntimeConfig::builder()
        .max_threads(1)
        .heap_objects(1)
        .monitors(1)
        .build();
    cfg.spin_budget = Duration::from_millis(25);
    let rt = Runtime::new(cfg);
    let mut spinner = rt.spinner("configured budget");
    let start = std::time::Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
        spinner.spin();
    }));
    assert!(result.is_err(), "watchdog must fire");
    assert!(start.elapsed() < Duration::from_secs(5));
}
