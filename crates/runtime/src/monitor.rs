//! Program monitors (locks) with instrumentation hooks.
//!
//! Monitors are the *program's* synchronization — the paper's `synchronized`
//! blocks. The tracking instrumentation cares about them at two points:
//!
//! * a **release** (and the release half of `wait`) is a *program
//!   synchronization release operation* (PSRO): hybrid tracking flushes the
//!   thread's lock buffer immediately before the release becomes visible
//!   (§3.1, Figure 2a), and the hybrid recorder's release clock is bumped;
//! * a **contended acquire** (and the wait half of `wait`) is a *blocking
//!   safe point*: the thread publishes BLOCKED so other threads can
//!   coordinate with it implicitly (§2.2).
//!
//! A monitor is a thin lock (DESIGN.md §16): one lock word holds the holder
//! and a `PARKED` bit, so an uncontended acquire is one CAS and the
//! outermost release is one swap. The mutex and condition variables behind
//! it are touched only by threads that park and by a release that finds
//! `PARKED` set.
//!
//! The monitor also remembers, as data the lock protects, the last releasing
//! thread and that thread's release clock. Recorders read this at acquire
//! time to log the synchronization happens-before edge, which lets the
//! replayer elide monitor operations entirely and still preserve mutual
//! exclusion (§7.6: "the replayer elides program synchronization operations
//! and replays only the recorded dependences").

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::control::ThreadControl;
use crate::ids::ThreadId;
use crate::spin::{park_budget, DEFAULT_BUDGET};
use crate::{RtHooks, SchedPoint};

/// Lock-word bit: a thread has parked (or is about to) on `acquire_cv`, so
/// the release that clears the word must wake one parker.
const PARKED: u64 = 1 << 63;

/// Lock-word holder field for thread `t`: its id plus one, so that a free
/// monitor's word is exactly `0`.
#[inline(always)]
fn holder_bits(t: ThreadId) -> u64 {
    t.raw() as u64 + 1
}

/// State of the slow path, guarded by [`Monitor::slow`].
#[derive(Debug, Default)]
struct SlowState {
    /// Threads in the contended-acquire park loop, parked or about to park.
    parked: u32,
    /// Threads inside `wait` waiting for a notify.
    waiting: u32,
    /// Wait-set generation, used by `wait`/`notify_all` to avoid stealing
    /// wakeups across distinct waits.
    wait_generation: u64,
}

/// Outcome of an acquire, consumed by tracking engines and recorders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcquireInfo {
    /// Did the acquire block (making it a blocking safe point)?
    pub blocked: bool,
    /// If it blocked: did implicit coordination happen while parked?
    pub implicit_bumped: bool,
    /// The previous releaser and its release clock, if the monitor has ever
    /// been released. Recorders turn this into a sync happens-before edge.
    pub prev_release: Option<(ThreadId, u64)>,
    /// True if this acquire was reentrant (the thread already held it).
    pub reentrant: bool,
}

/// Park on `cv` until `ready(&st)` holds, with the same watchdog contract as
/// [`crate::spin::Spin`]: condvar parks are the one wait a spinner cannot
/// cover, and a parked thread whose wake-up depends on a peer that died
/// mid-protocol would hang the process silently. With the watchdog disabled
/// (zero budget) this is a plain condition-variable loop. `ready` runs once
/// per wake-up, so it may act (take the lock) when it returns `true`.
fn park_until(
    cv: &Condvar,
    st: &mut MutexGuard<'_, SlowState>,
    what: &'static str,
    mut ready: impl FnMut(&SlowState) -> bool,
) {
    let budget = park_budget(DEFAULT_BUDGET);
    let mut started = None;
    while !ready(st) {
        match budget {
            None => cv.wait(st),
            Some(b) => {
                let t0 = *started.get_or_insert_with(std::time::Instant::now);
                if t0.elapsed() >= b {
                    panic!(
                        "park watchdog expired after {:?} while waiting for: {what}",
                        t0.elapsed()
                    );
                }
                cv.wait_for(st, b);
            }
        }
    }
}

/// A reentrant program monitor with wait/notify.
#[derive(Debug)]
pub struct Monitor {
    /// The thin-lock word: `0` when free, else the holder's
    /// [`holder_bits`], plus [`PARKED`].
    word: AtomicU64,
    /// Reentrancy depth of the holder. Protected by the lock: only the
    /// holder reads or writes it, so `Relaxed` accesses suffice.
    recursion: AtomicU32,
    /// Last releasing thread's [`holder_bits`] (`0`: never released) and its
    /// release clock. Protected by the lock: the holder writes them before
    /// the `Release` swap that frees the word, and the next holder reads
    /// them after its `Acquire` CAS.
    last_releaser: AtomicU32,
    last_clock: AtomicU64,
    /// The slow path: taken only to park, and by a release that saw
    /// `PARKED`.
    slow: Mutex<SlowState>,
    acquire_cv: Condvar,
    wait_cv: Condvar,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// A fresh, unheld monitor.
    pub fn new() -> Self {
        Monitor {
            word: AtomicU64::new(0),
            recursion: AtomicU32::new(0),
            last_releaser: AtomicU32::new(0),
            last_clock: AtomicU64::new(0),
            slow: Mutex::new(SlowState::default()),
            acquire_cv: Condvar::new(),
            wait_cv: Condvar::new(),
        }
    }

    /// Free the held word with one `Release` swap, after recording the
    /// release, and report whether a parker asked to be woken.
    fn release_word(&self, t: ThreadId, clock: u64) -> bool {
        self.last_clock.store(clock, Ordering::Relaxed);
        self.last_releaser
            .store(holder_bits(t) as u32, Ordering::Relaxed);
        self.word.swap(0, Ordering::Release) & PARKED != 0
    }

    /// The fast path: one CAS takes a free monitor, and a held-by-`t` word
    /// makes the acquire reentrant. `None` when another thread holds it.
    #[inline]
    pub(crate) fn try_acquire(&self, t: ThreadId) -> Option<AcquireInfo> {
        let me = holder_bits(t);
        let cas = self
            .word
            .compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed);
        let depth = match cas {
            Ok(_) => 1,
            Err(w) if w & !PARKED == me => self.recursion.load(Ordering::Relaxed) + 1,
            Err(_) => return None,
        };
        self.recursion.store(depth, Ordering::Relaxed);
        Some(AcquireInfo {
            blocked: false,
            implicit_bumped: false,
            prev_release: self.last_release(),
            reentrant: depth > 1,
        })
    }

    /// One slow-path attempt, with `slow` held: take the free word, or set
    /// `PARKED` on the held one so its release wakes a parker. A taker keeps
    /// `PARKED` set while `others_parked`, so their turn still comes.
    fn take_or_mark_parked<H: RtHooks>(&self, t: ThreadId, others_parked: bool, hooks: &H) -> bool {
        let mut w = self.word.load(Ordering::Relaxed);
        loop {
            let next = match w {
                0 if others_parked => holder_bits(t) | PARKED,
                0 => holder_bits(t),
                _ => w | PARKED,
            };
            if next == w {
                break;
            }
            match self
                .word
                .compare_exchange_weak(w, next, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) if w == 0 => return true,
                Ok(_) => break,
                Err(cur) => w = cur,
            }
        }
        // PARKED is set and `slow` stays held until the condvar wait drops
        // it: a release that saw the bit cannot notify before we wait.
        hooks.sched_point(t, SchedPoint::MonitorParkWindow);
        false
    }

    /// Park on `acquire_cv` (with `slow` held) until `t` takes the monitor.
    fn park_acquire<H: RtHooks>(
        &self,
        t: ThreadId,
        slow: &mut MutexGuard<'_, SlowState>,
        hooks: &H,
        what: &'static str,
    ) {
        slow.parked += 1;
        park_until(&self.acquire_cv, slow, what, |s| {
            self.take_or_mark_parked(t, s.parked > 1, hooks)
        });
        slow.parked -= 1;
    }

    /// Acquire the monitor for `t`: one CAS if it is free or reentrant,
    /// else spin and then park (see `acquire_contended`).
    pub fn acquire<H: RtHooks>(
        &self,
        t: ThreadId,
        control: &ThreadControl,
        hooks: &H,
        spin_iters: u32,
    ) -> AcquireInfo {
        match self.try_acquire(t) {
            Some(info) => info,
            None => self.acquire_contended(t, control, hooks, spin_iters),
        }
    }

    /// Acquire a monitor that [`Monitor::try_acquire`] found held by another
    /// thread. Uncontended acquires never get here, so they never touch the
    /// thread status word. A contended acquire first *spins* for up to
    /// `spin_iters` iterations — remaining a RUNNING thread and polling safe
    /// points, like a JVM thin lock — and only then runs the full
    /// blocking-safe-point protocol around parking. (The spin phase matters
    /// to the tracking protocols: a spinning waiter answers coordination
    /// requests *explicitly*, a parked one is coordinated with *implicitly*.)
    pub(crate) fn acquire_contended<H: RtHooks>(
        &self,
        t: ThreadId,
        control: &ThreadControl,
        hooks: &H,
        spin_iters: u32,
    ) -> AcquireInfo {
        // Spin phase: keep responding to coordination while waiting. Yield
        // periodically so the holder can run on oversubscribed machines.
        for i in 0..spin_iters {
            hooks.poll(t);
            hooks.sched_point(t, SchedPoint::MonitorAcquireSpin);
            if i % 8 == 7 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
            if self.word.load(Ordering::Relaxed) == 0 {
                if let Some(info) = self.try_acquire(t) {
                    return info;
                }
            }
        }

        // Contended: blocking safe point. Reach a consistent state, publish
        // BLOCKED, then respond to any explicit requests that raced with the
        // status change before parking.
        hooks.before_block(t);
        let block_epoch = control.publish_blocked();
        hooks.on_blocked_publish(t);
        hooks.sched_point(t, SchedPoint::MonitorPark);

        self.park_acquire(t, &mut self.slow.lock(), hooks, "contended monitor acquire");
        self.recursion.store(1, Ordering::Relaxed);
        let prev_release = self.last_release();

        let implicit_bumped = control.return_to_running(block_epoch);
        hooks.after_unblock(t, implicit_bumped);
        hooks.sched_point(t, SchedPoint::MonitorUnpark);

        AcquireInfo {
            blocked: true,
            implicit_bumped,
            prev_release,
            reentrant: false,
        }
    }

    /// Release the monitor. The PSRO hook runs *before* the release becomes
    /// visible to other threads, matching the paper's Figure 2(a): the lock
    /// buffer is flushed, then the program lock is released.
    ///
    /// Panics if `t` does not hold the monitor (a workload bug).
    pub fn release<H: RtHooks>(&self, t: ThreadId, control: &ThreadControl, hooks: &H) {
        // PSRO instrumentation first: flush pessimistic states, bump clock.
        hooks.on_psro(t);
        let clock = control.release_clock();
        hooks.sched_point(t, SchedPoint::MonitorRelease);
        assert_eq!(self.holder(), Some(t), "release of monitor not held by {t}");
        let depth = self.recursion.load(Ordering::Relaxed) - 1;
        self.recursion.store(depth, Ordering::Relaxed);
        if depth == 0 && self.release_word(t, clock) {
            // The parker set PARKED holding `slow` and keeps it until it
            // waits, so once we hold `slow` the notify cannot be lost.
            drop(self.slow.lock());
            self.acquire_cv.notify_one();
        }
    }

    /// `Object.wait()`: atomically release the monitor and park until
    /// notified, then re-acquire. The release half is a PSRO; the park is a
    /// blocking safe point. Spurious wakeups are possible (callers loop on
    /// their condition, as in Java).
    ///
    /// Panics if `t` does not hold the monitor.
    pub fn wait<H: RtHooks>(&self, t: ThreadId, control: &ThreadControl, hooks: &H) -> AcquireInfo {
        hooks.on_psro(t);
        let clock = control.release_clock();

        hooks.before_block(t);
        let block_epoch = control.publish_blocked();
        hooks.on_blocked_publish(t);
        hooks.sched_point(t, SchedPoint::MonitorWaitPark);

        let prev_release;
        {
            let mut slow = self.slow.lock();
            assert_eq!(self.holder(), Some(t), "wait on monitor not held by {t}");
            let saved_recursion = self.recursion.load(Ordering::Relaxed);
            let my_generation = slow.wait_generation;
            // We hold `slow`, so a parker that set PARKED is already waiting.
            if self.release_word(t, clock) {
                self.acquire_cv.notify_one();
            }

            // Park until a notify advances the generation, then re-acquire.
            slow.waiting += 1;
            park_until(&self.wait_cv, &mut slow, "monitor notify", |s| {
                s.wait_generation != my_generation
            });
            slow.waiting -= 1;
            self.park_acquire(t, &mut slow, hooks, "monitor re-acquire after wait");
            self.recursion.store(saved_recursion, Ordering::Relaxed);
            prev_release = self.last_release();
        }

        let implicit_bumped = control.return_to_running(block_epoch);
        hooks.after_unblock(t, implicit_bumped);
        hooks.sched_point(t, SchedPoint::MonitorUnpark);

        AcquireInfo {
            blocked: true,
            implicit_bumped,
            prev_release,
            reentrant: false,
        }
    }

    /// `Object.notifyAll()`: wake every waiter. The caller should hold the
    /// monitor (as in Java), but this is not enforced — some lock-free
    /// shutdown patterns notify without holding. The generation always
    /// advances; the condvar is signalled only when someone waits.
    pub fn notify_all(&self) {
        let mut slow = self.slow.lock();
        slow.wait_generation += 1;
        let anyone_waiting = slow.waiting > 0;
        drop(slow);
        if anyone_waiting {
            self.wait_cv.notify_all();
        }
    }

    /// Current holder (diagnostic; racy by nature).
    pub fn holder(&self) -> Option<ThreadId> {
        match self.word.load(Ordering::Relaxed) & !PARKED {
            0 => None,
            bits => Some(ThreadId((bits - 1) as u16)),
        }
    }

    /// Last releaser and its clock. Exact for the holder (the acquire path
    /// reads it into [`AcquireInfo::prev_release`]) and for a caller ordered
    /// after the last release; racy for anyone else.
    pub fn last_release(&self) -> Option<(ThreadId, u64)> {
        match self.last_releaser.load(Ordering::Relaxed) {
            0 => None,
            bits => Some((
                ThreadId((bits - 1) as u16),
                self.last_clock.load(Ordering::Relaxed),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoHooks;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn controls(n: usize) -> Vec<ThreadControl> {
        (0..n).map(|_| ThreadControl::new()).collect()
    }

    #[test]
    fn uncontended_acquire_release() {
        let m = Monitor::new();
        let c = controls(1);
        let info = m.acquire(ThreadId(0), &c[0], &NoHooks, 0);
        assert!(!info.blocked);
        assert!(!info.reentrant);
        assert_eq!(info.prev_release, None);
        assert_eq!(m.holder(), Some(ThreadId(0)));
        m.release(ThreadId(0), &c[0], &NoHooks);
        assert_eq!(m.holder(), None);
        assert_eq!(m.last_release(), Some((ThreadId(0), 0)));
    }

    #[test]
    fn reentrant_acquire_counts_recursion() {
        let m = Monitor::new();
        let c = controls(1);
        m.acquire(ThreadId(0), &c[0], &NoHooks, 0);
        let info = m.acquire(ThreadId(0), &c[0], &NoHooks, 0);
        assert!(info.reentrant);
        m.release(ThreadId(0), &c[0], &NoHooks);
        assert_eq!(
            m.holder(),
            Some(ThreadId(0)),
            "still held after inner release"
        );
        m.release(ThreadId(0), &c[0], &NoHooks);
        assert_eq!(m.holder(), None);
    }

    #[test]
    #[should_panic(expected = "release of monitor not held")]
    fn release_without_hold_panics() {
        let m = Monitor::new();
        let c = controls(1);
        m.release(ThreadId(0), &c[0], &NoHooks);
    }

    #[test]
    fn foreign_release_panics_and_keeps_the_holder() {
        let m = Monitor::new();
        let c = controls(2);
        m.acquire(ThreadId(0), &c[0], &NoHooks, 0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.release(ThreadId(1), &c[1], &NoHooks)
        }))
        .expect_err("a release by a non-holder must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("release of monitor not held by T1"), "{msg}");
        assert_eq!(m.holder(), Some(ThreadId(0)));
        m.release(ThreadId(0), &c[0], &NoHooks);
        assert_eq!(m.holder(), None);
    }

    #[test]
    fn reentrant_hold_excludes_others_until_the_outermost_release() {
        let m = Monitor::new();
        let c = controls(2);
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        for depth in 1..=3 {
            let info = m.acquire(t0, &c[0], &NoHooks, 0);
            assert_eq!(info.reentrant, depth > 1);
        }
        for _ in 0..2 {
            m.release(t0, &c[0], &NoHooks);
            assert_eq!(m.holder(), Some(t0), "an inner release keeps the monitor");
            assert!(
                m.try_acquire(t1).is_none(),
                "another thread must not get in"
            );
        }
        m.release(t0, &c[0], &NoHooks);
        let info = m.try_acquire(t1).expect("free after the outermost release");
        assert!(!info.reentrant);
        assert_eq!(info.prev_release, Some((t0, 0)));
        m.release(t1, &c[1], &NoHooks);
    }

    #[test]
    fn prev_release_names_the_last_releaser_and_its_clock() {
        let m = Monitor::new();
        let c = controls(2);
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        let clock = std::thread::scope(|s| {
            s.spawn(|| {
                c[1].bump_release_clock();
                let clock = c[1].bump_release_clock();
                m.acquire(t1, &c[1], &NoHooks, 0);
                m.release(t1, &c[1], &NoHooks);
                clock
            })
            .join()
            .unwrap()
        });
        let info = m.acquire(t0, &c[0], &NoHooks, 0);
        assert!(!info.blocked);
        assert_eq!(info.prev_release, Some((t1, clock)));
        assert_eq!(clock, 2);
        m.release(t0, &c[0], &NoHooks);
        assert_eq!(m.last_release(), Some((t0, 0)));
    }

    #[test]
    fn contended_acquire_blocks_and_records_prev_release() {
        let m = Arc::new(Monitor::new());
        let c: Arc<Vec<ThreadControl>> = Arc::new(controls(2));
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);

        m.acquire(t0, &c[0], &NoHooks, 0);
        c[0].bump_release_clock(); // pretend a PSRO bump happened earlier

        std::thread::scope(|s| {
            let m2 = m.clone();
            let c2 = c.clone();
            let h = s.spawn(move || m2.acquire(t1, &c2[1], &NoHooks, 0));
            // Give the contender time to park, then release.
            std::thread::sleep(std::time::Duration::from_millis(1));
            m.release(t0, &c[0], &NoHooks);
            let info = h.join().unwrap();
            assert!(info.blocked);
            assert_eq!(info.prev_release, Some((t0, 1)));
            m.release(t1, &c[1], &NoHooks);
        });
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let m = Arc::new(Monitor::new());
        let c: Arc<Vec<ThreadControl>> = Arc::new(controls(THREADS));
        let counter = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            for i in 0..THREADS {
                let m = m.clone();
                let c = c.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    let t = ThreadId(i as u16);
                    for _ in 0..ITERS {
                        m.acquire(t, &c[i], &NoHooks, 64);
                        // Non-atomic-looking increment under the monitor: only
                        // correct if mutual exclusion holds.
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        m.release(t, &c[i], &NoHooks);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), (THREADS * ITERS) as u64);
    }

    #[test]
    fn wait_notify_roundtrip() {
        let m = Arc::new(Monitor::new());
        let c: Arc<Vec<ThreadControl>> = Arc::new(controls(2));
        let flag = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            let m2 = m.clone();
            let c2 = c.clone();
            let flag2 = flag.clone();
            let waiter = s.spawn(move || {
                let t = ThreadId(0);
                m2.acquire(t, &c2[0], &NoHooks, 0);
                while flag2.load(Ordering::Relaxed) == 0 {
                    m2.wait(t, &c2[0], &NoHooks);
                }
                m2.release(t, &c2[0], &NoHooks);
            });

            let t = ThreadId(1);
            // Let the waiter park first (best-effort).
            std::thread::sleep(std::time::Duration::from_millis(10));
            m.acquire(t, &c[1], &NoHooks, 0);
            flag.store(1, Ordering::Relaxed);
            m.notify_all();
            m.release(t, &c[1], &NoHooks);
            waiter.join().unwrap();
        });
        assert_eq!(m.holder(), None);
    }

    #[test]
    fn blocked_acquirer_can_be_implicitly_coordinated() {
        let m = Arc::new(Monitor::new());
        let c: Arc<Vec<ThreadControl>> = Arc::new(controls(2));
        m.acquire(ThreadId(0), &c[0], &NoHooks, 0);

        std::thread::scope(|s| {
            let m2 = m.clone();
            let c2 = c.clone();
            let h = s.spawn(move || m2.acquire(ThreadId(1), &c2[1], &NoHooks, 0));

            // Wait until T1 publishes BLOCKED, then coordinate implicitly.
            let mut spin = crate::spin::Spin::new("T1 to block on monitor");
            let epoch = loop {
                if let crate::control::ThreadStatus::Blocked { epoch } = c[1].status() {
                    break epoch;
                }
                spin.spin();
            };
            assert!(c[1].try_implicit(epoch));

            m.release(ThreadId(0), &c[0], &NoHooks);
            let info = h.join().unwrap();
            assert!(info.blocked);
            assert!(info.implicit_bumped, "wake must report the implicit bump");
        });
    }
}
