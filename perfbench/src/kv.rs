//! The KV-store workloads: the `drink-serve` store on two worker sessions,
//! driven closed loop (capacity) and open loop (latency at a fixed rate).
//!
//! Each round runs every gated engine once per phase on a fresh runtime, in
//! an order that rotates between rounds, so a slow stretch of the host
//! lands on all engines rather than on one. A reported value is the median
//! over the rounds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use drink_core::engine::AnyEngine;
use drink_core::{EngineKind, Session, Tracker};
use drink_runtime::{Runtime, RuntimeConfig, StatsReport};
use drink_serve::{exp_interarrival_ns, GetOutcome, KvStore, SplitMix64, Zipf};

use crate::counts::Counts;
use crate::samples::{median, percentile, sorted, supported_tail, Rounds};
use crate::trace::{Layer, SpanBuf};
use crate::{guarded, ns_since, CpuTicks, EngineE2e, Guarded, Metric, Outcome, Tally, GATED};

/// Worker sessions: one per core of the two-core hosts the benchmark is
/// sized for.
const WORKERS: usize = 2;

/// Measured rounds per run; every engine runs each phase once per round.
/// A warm-up round at half length runs first and is not measured.
const ROUNDS: usize = 15;

/// Share of an engine's per-round time given to the closed-loop phase.
const CLOSED_SHARE: f64 = 0.4;

/// Spans each worker keeps for the span file per traced phase.
const SPANS_KEPT: usize = 2_000;

/// Extra time a phase may take past its length before the watchdog gives
/// up on it: longer than the library's spin watchdog, so a hang usually
/// ends as a panic the phase can account for.
const PHASE_GRACE: Duration = Duration::from_secs(15);

/// A store geometry and traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub keys: usize,
    pub monitors: usize,
    /// Simulated users, sharded onto workers by residue.
    pub users: u64,
    pub zipf_s: f64,
    /// Share of requests that are GETs.
    pub read_frac: f64,
    /// Open-loop arrival rate over both workers, requests per second.
    pub open_rate: f64,
}

/// GETs dominate: the tracked-read path (seqlock validation, RdSh and Fence
/// transitions) does most of the work, and each PUT to a read-shared key
/// fans out.
pub const READ_MOSTLY: Shape = Shape {
    name: "kv_read_mostly",
    keys: 256,
    monitors: 16,
    users: 2_000_000,
    zipf_s: 1.1,
    read_frac: 0.9,
    open_rate: 300_000.0,
};

/// Writes beside reads on a hot head: keys ping-pong between the workers,
/// so monitors, lock-buffer flushes, conflicting transitions and the
/// demotion controller dominate.
pub const WRITE_HOT: Shape = Shape {
    name: "kv_write_hot",
    keys: 64,
    monitors: 4,
    users: 2_000_000,
    zipf_s: 1.3,
    read_frac: 0.5,
    open_rate: 200_000.0,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
}

/// Everything a phase needs; moved onto the phase thread.
#[derive(Clone, Copy, Debug)]
struct PhaseSpec {
    shape: Shape,
    kind: EngineKind,
    mode: Mode,
    traced: bool,
    len: Duration,
    seed: u64,
    epoch: Instant,
}

/// Open-loop timings of one worker, nanoseconds. Both are measured from
/// the request's due time or its dequeue to its completion.
#[derive(Debug, Default)]
pub struct OpenSamples {
    /// Dequeue → completion.
    pub service: Vec<u64>,
    /// Due → completion: includes the wait behind earlier requests.
    pub sojourn: Vec<u64>,
    /// How late the last request was dequeued relative to its due time.
    pub lag_end: u64,
}

/// Poisson arrivals at `rate` per second for `len_ns`, measured from
/// `start`. A request is served once it is due and the previous one is
/// done; while none is due, `idle` runs. `serve(request, dequeued_at)`
/// returns the completion time. A request is timed from when it was due,
/// so a stall delays every request queued behind it.
pub fn open_loop(
    start: Instant,
    len_ns: u64,
    rate: f64,
    rng: &mut SplitMix64,
    mut idle: impl FnMut(),
    mut serve: impl FnMut(u64, u64) -> u64,
    out: &mut OpenSamples,
) {
    let mut due = 0u64;
    let mut req = 0u64;
    loop {
        due += exp_interarrival_ns(rng, rate);
        if due >= len_ns {
            break;
        }
        let mut now = ns_since(start);
        while now < due {
            idle();
            now = ns_since(start);
        }
        let done = serve(req, now);
        out.service.push(done - now);
        out.sojourn.push(done - due);
        out.lag_end = now - due;
        req += 1;
    }
}

/// Ops the store check rejects at quiescence: every GET that saw a foreign
/// tag, and for each key whose final value is wrong (a foreign tag, or a
/// sequence number other than its completed PUTs) those PUTs, at least one.
pub fn store_failures(puts_per_key: &[u64], finals: &[u64], foreign_gets: u64) -> u64 {
    let mut failed = foreign_gets;
    for (k, (&puts, &raw)) in puts_per_key.iter().zip(finals).enumerate() {
        let (tag, seq) = KvStore::decode(raw);
        let ok = if puts == 0 {
            raw == 0
        } else {
            tag == KvStore::tag(k) >> 32 && u64::from(seq) == puts
        };
        if !ok {
            failed += puts.max(1);
        }
    }
    failed
}

/// One worker session's state over a phase.
struct Worker<'a> {
    sess: &'a Session<'a, AnyEngine>,
    store: KvStore,
    zipf: &'a Zipf,
    shape: Shape,
    seed: u64,
    id: usize,
    users_per_worker: u64,
    req_rng: SplitMix64,
    puts_per_key: Vec<u64>,
    foreign_gets: u64,
    done: u64,
    /// Phase start relative to the run's epoch, for span timestamps.
    base_ns: u64,
    spans: SpanBuf,
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    safepoint_ns: Vec<u64>,
}

impl Worker<'_> {
    /// The next request: a user from this worker's residue class, whose key
    /// preference is a hash of the user id pushed through the Zipf CDF,
    /// and whether it is a GET.
    #[inline]
    fn next_request(&mut self) -> (usize, bool) {
        let user =
            self.id as u64 + WORKERS as u64 * (self.req_rng.next_u64() % self.users_per_worker);
        let key = self
            .zipf
            .sample_u01(SplitMix64::new(self.seed ^ user).next_f64());
        (key, self.req_rng.next_f64() < self.shape.read_frac)
    }

    #[inline]
    fn call_store(&mut self, key: usize, is_get: bool) {
        if is_get {
            if let GetOutcome::ForeignTag(_) = self.store.get(self.sess, key) {
                self.foreign_gets += 1;
            }
        } else {
            self.store.put(self.sess, key);
            self.puts_per_key[key] += 1;
        }
    }

    /// One request, untimed.
    #[inline]
    fn serve(&mut self) {
        let (key, is_get) = self.next_request();
        self.call_store(key, is_get);
        self.sess.safepoint();
        self.done += 1;
    }

    /// One request with its spans: the request root from `t0` (dequeue),
    /// the store call and the safepoint as children. Returns completion.
    fn serve_traced(&mut self, start: Instant, req: u64, t0: u64) -> u64 {
        let (key, is_get) = self.next_request();
        let t1 = ns_since(start);
        self.call_store(key, is_get);
        let t2 = ns_since(start);
        self.sess.safepoint();
        let t3 = ns_since(start);
        self.done += 1;

        let (b, id) = (self.base_ns, req * WORKERS as u64 + self.id as u64);
        let (layer, calls) = if is_get {
            (Layer::StoreGet, &mut self.get_ns)
        } else {
            (Layer::StorePut, &mut self.put_ns)
        };
        calls.push(t2 - t1);
        self.safepoint_ns.push(t3 - t2);
        self.spans.record(layer, id, self.id, b + t1, b + t2);
        self.spans
            .record(Layer::Safepoint, id, self.id, b + t2, b + t3);
        self.spans
            .record(Layer::Request, id, self.id, b + t0, b + t3);
        t3
    }
}

/// What one worker hands back.
#[derive(Default)]
struct WorkerOut {
    puts_per_key: Vec<u64>,
    foreign_gets: u64,
    done: u64,
    /// The request in flight when the worker's engine panicked.
    panicked: bool,
    elapsed_ns: u64,
    open: OpenSamples,
    spans: Option<SpanBuf>,
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    safepoint_ns: Vec<u64>,
}

fn run_worker(
    engine: &AnyEngine,
    store: KvStore,
    zipf: &Zipf,
    barrier: &Barrier,
    stop: &AtomicBool,
    id: usize,
    p: &PhaseSpec,
) -> WorkerOut {
    let sess = Session::attach(engine);
    let mut w = Worker {
        sess: &sess,
        store,
        zipf,
        shape: p.shape,
        seed: p.seed,
        id,
        users_per_worker: (p.shape.users / WORKERS as u64).max(1),
        req_rng: SplitMix64::new(p.seed.rotate_left(17) ^ id as u64),
        puts_per_key: vec![0; store.keys()],
        foreign_gets: 0,
        done: 0,
        base_ns: 0,
        spans: SpanBuf::new(if p.traced { SPANS_KEPT } else { 0 }),
        get_ns: Vec::new(),
        put_ns: Vec::new(),
        safepoint_ns: Vec::new(),
    };
    let mut clock_rng = SplitMix64::new(p.seed ^ (id as u64).wrapping_mul(0x9E37_79B9));
    let rate = p.shape.open_rate / WORKERS as f64;
    let len_ns = p.len.as_nanos() as u64;
    let mut open = OpenSamples::default();
    if p.mode == Mode::Open {
        let expected = (rate * p.len.as_secs_f64() * 1.2) as usize + 1024;
        open.service.reserve(expected);
        open.sojourn.reserve(expected);
    }

    barrier.wait();
    let start = Instant::now();
    w.base_ns = start.saturating_duration_since(p.epoch).as_nanos() as u64;
    // Idle until the next arrival, still answering coordination requests.
    let idle = || {
        sess.safepoint();
        std::hint::spin_loop();
    };
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match (p.mode, p.traced) {
        (Mode::Closed, false) => {
            while !stop.load(Ordering::Relaxed) {
                w.serve();
            }
        }
        (Mode::Closed, true) => {
            let mut req = 0;
            while !stop.load(Ordering::Relaxed) {
                let t0 = ns_since(start);
                w.serve_traced(start, req, t0);
                req += 1;
            }
        }
        (Mode::Open, false) => open_loop(
            start,
            len_ns,
            rate,
            &mut clock_rng,
            idle,
            |_, _| {
                w.serve();
                ns_since(start)
            },
            &mut open,
        ),
        (Mode::Open, true) => open_loop(
            start,
            len_ns,
            rate,
            &mut clock_rng,
            idle,
            |req, t0| w.serve_traced(start, req, t0),
            &mut open,
        ),
    }));
    let elapsed_ns = ns_since(start);
    let panicked = ran.is_err();
    let out = WorkerOut {
        puts_per_key: w.puts_per_key,
        foreign_gets: w.foreign_gets,
        done: w.done,
        panicked,
        elapsed_ns,
        open,
        spans: p.traced.then_some(w.spans),
        get_ns: w.get_ns,
        put_ns: w.put_ns,
        safepoint_ns: w.safepoint_ns,
    };
    if panicked {
        // The engine died mid-protocol: leave its per-thread state as it is
        // (detaching would trip its invariant checks again).
        std::mem::forget(sess);
    } else {
        drop(sess); // detach: the final flush publishes this worker's writes
    }
    out
}

/// One phase's results.
struct PhaseOut {
    setup_ns: u64,
    tally: Tally,
    completions: u64,
    /// Longest worker time in the measured loop.
    elapsed_ns: u64,
    open: Vec<OpenSamples>,
    report: StatsReport,
    spans: Option<SpanBuf>,
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    safepoint_ns: Vec<u64>,
    /// Share of the host's CPU time stolen while the workers ran.
    steal: f64,
}

/// Set up a fresh runtime, engine and store, run both workers, and check
/// the store at quiescence.
fn run_phase(p: PhaseSpec) -> PhaseOut {
    let t = Instant::now();
    let rt = Arc::new(Runtime::new(
        RuntimeConfig::builder()
            .max_threads(WORKERS)
            .heap_objects(p.shape.keys)
            .monitors(p.shape.monitors)
            .build(),
    ));
    let engine = p.kind.build(rt);
    let store = KvStore::new(p.shape.keys, p.shape.monitors);
    store.init(&engine);
    let zipf = Zipf::new(p.shape.keys, p.shape.zipf_s);
    let setup_ns = ns_since(t);

    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(WORKERS + 1);
    let (outs, steal) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|id| {
                let (engine, zipf, barrier, stop, p) = (&engine, &zipf, &barrier, &stop, &p);
                s.spawn(move || run_worker(engine, store, zipf, barrier, stop, id, p))
            })
            .collect();
        barrier.wait();
        let ticks = CpuTicks::now();
        if p.mode == Mode::Closed {
            std::thread::sleep(p.len);
            stop.store(true, Ordering::Relaxed);
        }
        let outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("worker catches its engine's panics"))
            .collect();
        (outs, CpuTicks::steal_share(ticks, CpuTicks::now()))
    });

    let mut puts_per_key = vec![0u64; p.shape.keys];
    let mut foreign = 0;
    let mut tally = Tally::default();
    let mut out = PhaseOut {
        setup_ns,
        tally: Tally::default(),
        completions: 0,
        elapsed_ns: 0,
        open: Vec::new(),
        report: engine.rt().stats().report(),
        spans: p.traced.then(|| SpanBuf::new(WORKERS * SPANS_KEPT)),
        get_ns: Vec::new(),
        put_ns: Vec::new(),
        safepoint_ns: Vec::new(),
        steal,
    };
    for w in outs {
        for (sum, n) in puts_per_key.iter_mut().zip(&w.puts_per_key) {
            *sum += n;
        }
        foreign += w.foreign_gets;
        tally.attempted += w.done + w.panicked as u64;
        tally.failed += w.panicked as u64;
        out.completions += w.done;
        out.elapsed_ns = out.elapsed_ns.max(w.elapsed_ns);
        out.open.push(w.open);
        if let (Some(all), Some(mine)) = (out.spans.as_mut(), w.spans.as_ref()) {
            all.merge(mine);
        }
        out.get_ns.extend(w.get_ns);
        out.put_ns.extend(w.put_ns);
        out.safepoint_ns.extend(w.safepoint_ns);
    }
    let finals = engine.rt().heap().snapshot_data();
    tally.failed += store_failures(&puts_per_key, &finals[..p.shape.keys], foreign);
    out.tally = tally;
    out
}

/// Per-engine accumulation over the rounds of one tracing setting.
#[derive(Default)]
struct EngineRuns {
    ops_per_s: Rounds,
    sojourn_p50_us: Rounds,
    service_p99_us: Rounds,
    service: Vec<u64>,
    sojourn: Vec<u64>,
}

impl EngineRuns {
    fn add(&mut self, out: &PhaseOut, mode: Mode) {
        match mode {
            Mode::Closed => {
                let ops = out.completions as f64 / (out.elapsed_ns.max(1) as f64 / 1e9);
                self.ops_per_s.push(ops, out.steal);
            }
            Mode::Open => {
                let svc = sorted(
                    out.open
                        .iter()
                        .flat_map(|o| o.service.iter().copied())
                        .collect(),
                );
                let soj = sorted(
                    out.open
                        .iter()
                        .flat_map(|o| o.sojourn.iter().copied())
                        .collect(),
                );
                if let (Some(s50), Some(v99)) = (percentile(&soj, 50.0), percentile(&svc, 99.0)) {
                    self.sojourn_p50_us.push(s50 as f64 / 1e3, out.steal);
                    self.service_p99_us.push(v99 as f64 / 1e3, out.steal);
                }
                self.service.extend(svc);
                self.sojourn.extend(soj);
            }
        }
    }

    fn e2e(&self) -> EngineE2e {
        EngineE2e {
            ops_per_s: self.ops_per_s.value().unwrap_or(0.0),
            sojourn_p50_us: self.sojourn_p50_us.value().unwrap_or(0.0),
            service_p99_us: self.service_p99_us.value().unwrap_or(0.0),
        }
    }

    /// Pooled sample counts and the tail they support.
    fn print(&mut self, kind: EngineKind) {
        let svc = sorted(std::mem::take(&mut self.service));
        let soj = sorted(std::mem::take(&mut self.sojourn));
        let fmt = |v: &[u64]| match supported_tail(v) {
            Some((p, x)) => format!(
                "n={} p50={:.3}us tail p{p}={:.3}us",
                v.len(),
                percentile(v, 50.0).unwrap_or(0) as f64 / 1e3,
                x as f64 / 1e3
            ),
            None => format!("n={}", v.len()),
        };
        println!(
            "  {:<7} closed {:>12.0} ops/s ({} rounds) | open sojourn {} | service {}",
            kind.short_name(),
            self.ops_per_s.value().unwrap_or(0.0),
            self.ops_per_s.len(),
            fmt(&soj),
            fmt(&svc)
        );
    }
}

/// Per-engine accumulation of the traced phases' layer numbers.
#[derive(Default)]
struct EngineLayers {
    counts: Counts,
    queue: Vec<u64>,
    sojourn: Vec<u64>,
    service_ns: u64,
    gen_lag_ns: u64,
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    safepoint_ns: Vec<u64>,
    spans: Option<SpanBuf>,
}

impl EngineLayers {
    fn add(&mut self, out: PhaseOut, mode: Mode) {
        self.counts
            .add(&Counts::from_report(&out.report, out.completions));
        if let Some(s) = &out.spans {
            self.spans
                .get_or_insert_with(|| SpanBuf::new(3 * WORKERS * SPANS_KEPT))
                .merge(s);
        }
        if mode == Mode::Open {
            for o in &out.open {
                self.queue
                    .extend(o.sojourn.iter().zip(&o.service).map(|(s, v)| s - v));
                self.sojourn.extend(&o.sojourn);
                self.service_ns += o.service.iter().sum::<u64>();
                self.gen_lag_ns = self.gen_lag_ns.max(o.lag_end);
            }
            self.get_ns.extend(out.get_ns);
            self.put_ns.extend(out.put_ns);
            self.safepoint_ns.extend(out.safepoint_ns);
        }
    }

    fn metrics(mut self, kind: EngineKind) -> (Vec<Metric>, Option<SpanBuf>) {
        let pct =
            |v: &[u64], p: f64, scale: f64| percentile(v, p).map_or(0.0, |x| x as f64 / scale);
        let queue = sorted(std::mem::take(&mut self.queue));
        let sojourn = sorted(std::mem::take(&mut self.sojourn));
        let get = sorted(std::mem::take(&mut self.get_ns));
        let put = sorted(std::mem::take(&mut self.put_ns));
        let sp_total: u64 = self.safepoint_ns.iter().sum();
        let sp = sorted(std::mem::take(&mut self.safepoint_ns));
        println!(
            "  {:<7} samples: queue/sojourn n={} get n={} put n={} safepoint n={}; runtime histograms {:?}",
            kind.short_name(),
            queue.len(),
            get.len(),
            put.len(),
            sp.len(),
            self.counts.histogram_samples()
        );
        let mut m = vec![
            Metric::new("serve.queue_us.p50", pct(&queue, 50.0, 1e3), "us"),
            Metric::new("serve.queue_us.p99", pct(&queue, 99.0, 1e3), "us"),
            Metric::new("serve.sojourn_us.p99", pct(&sojourn, 99.0, 1e3), "us"),
            Metric::new("serve.gen_lag_us.max", self.gen_lag_ns as f64 / 1e3, "us"),
            Metric::new("serve.get_ns.p50", pct(&get, 50.0, 1.0), "ns"),
            Metric::new("serve.get_ns.p99", pct(&get, 99.0, 1.0), "ns"),
            Metric::new("serve.put_ns.p50", pct(&put, 50.0, 1.0), "ns"),
            Metric::new("serve.put_ns.p99", pct(&put, 99.0, 1.0), "ns"),
            Metric::new("session.safepoint_ns.p99", pct(&sp, 99.0, 1.0), "ns"),
            Metric::new(
                "session.safepoint_share",
                sp_total as f64 / self.service_ns.max(1) as f64,
                "fraction",
            ),
        ];
        m.extend(self.counts.metrics());
        // The Figure 7 overhead ratio is a Table 2 measurement.
        m.push(Metric::new("table2.overhead_x", 0.0, "x"));
        (
            m.into_iter().map(|x| x.for_engine(kind)).collect(),
            self.spans,
        )
    }
}

/// Run one KV workload for about `seconds` of measurement.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Outcome {
    let phases: &[(Mode, bool)] = if trace {
        &[
            (Mode::Closed, false),
            (Mode::Open, false),
            (Mode::Closed, true),
            (Mode::Open, true),
        ]
    } else {
        &[(Mode::Closed, false), (Mode::Open, false)]
    };
    let pairs = phases.len() / 2;
    let per_pair = seconds / ((ROUNDS as f64 + 0.5) * (GATED.len() * pairs) as f64);
    let closed_len = Duration::from_secs_f64(per_pair * CLOSED_SHARE);
    let open_len = Duration::from_secs_f64(per_pair * (1.0 - CLOSED_SHARE));
    println!(
        "kv: {} keys={} monitors={} zipf_s={} read_frac={} users={} workers={WORKERS} \
         rounds={ROUNDS} closed={:?} open={:?} at {} req/s",
        shape.name,
        shape.keys,
        shape.monitors,
        shape.zipf_s,
        shape.read_frac,
        shape.users,
        closed_len,
        open_len,
        shape.open_rate
    );

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut steal = Vec::new();
    let mut untraced: Vec<EngineRuns> = GATED.iter().map(|_| EngineRuns::default()).collect();
    let mut traced: Vec<EngineRuns> = GATED.iter().map(|_| EngineRuns::default()).collect();
    let mut layers: Vec<EngineLayers> = GATED.iter().map(|_| EngineLayers::default()).collect();
    let mut broken = [false; GATED.len()];

    for round in 0..=ROUNDS {
        let warmup = round == 0;
        let round_seed = seed ^ (round as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        for i in 0..GATED.len() {
            let e = (i + round) % GATED.len();
            for &(mode, is_traced) in phases {
                if broken[e] {
                    continue;
                }
                let len = if mode == Mode::Closed {
                    closed_len
                } else {
                    open_len
                };
                let len = if warmup { len / 2 } else { len };
                let spec = PhaseSpec {
                    shape: *shape,
                    kind: GATED[e],
                    mode,
                    traced: is_traced,
                    len,
                    seed: round_seed,
                    epoch,
                };
                match guarded(len + PHASE_GRACE, move || run_phase(spec)) {
                    Guarded::Done(out) => {
                        tally.add(out.tally);
                        if warmup {
                            continue;
                        }
                        setup_s.push(out.setup_ns as f64 / 1e9);
                        steal.push(out.steal);
                        if is_traced {
                            traced[e].add(&out, mode);
                            layers[e].add(out, mode);
                        } else {
                            untraced[e].add(&out, mode);
                        }
                    }
                    failure => {
                        let why = match failure {
                            Guarded::Panicked(m) => format!("panicked: {m}"),
                            _ => "hung".to_string(),
                        };
                        println!(
                            "  {} {mode:?} phase {why}; engine skipped from here on",
                            GATED[e].short_name()
                        );
                        tally.add(Tally {
                            attempted: WORKERS as u64,
                            failed: WORKERS as u64,
                        });
                        broken[e] = true;
                    }
                }
            }
        }
    }

    crate::print_steal(&steal);
    println!("end-to-end detail (tracing off; values are medians over the less-stolen rounds, tails pooled):");
    for (e, runs) in untraced.iter_mut().enumerate() {
        runs.print(GATED[e]);
    }
    let e2e: Vec<(EngineKind, EngineE2e)> = GATED
        .iter()
        .zip(&untraced)
        .map(|(&k, r)| (k, r.e2e()))
        .collect();

    let mut layer_metrics = Vec::new();
    if trace {
        crate::print_overhead(
            GATED
                .iter()
                .enumerate()
                .map(|(e, &kind)| (kind, untraced[e].e2e(), traced[e].e2e())),
        );
        let mut bufs = Vec::new();
        for (e, l) in layers.into_iter().enumerate() {
            let (m, spans) = l.metrics(GATED[e]);
            layer_metrics.extend(m);
            if let Some(s) = spans {
                crate::trace::print_self_times(GATED[e].short_name(), &s);
                bufs.push((GATED[e].short_name(), s));
            }
        }
        let path = crate::span_path(shape.name, seed);
        let refs: Vec<(&str, &SpanBuf)> = bufs.iter().map(|(n, b)| (*n, b)).collect();
        match crate::trace::write_chrome_trace(&path, &refs) {
            Ok(()) => println!(
                "spans written: {} ({} stored, {} counted only)",
                path.display(),
                bufs.iter().map(|(_, b)| b.stored().len()).sum::<usize>(),
                bufs.iter().map(|(_, b)| b.dropped()).sum::<u64>()
            ),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }

    Outcome {
        tally,
        setup_s: median(&setup_s).unwrap_or(0.0),
        e2e,
        layers: layer_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_requests_from_when_they_were_due() {
        // 20 k req/s for 40 ms: about 800 requests, 50 µs apart on average.
        // Request 10 stalls for 5 ms; the requests due during the stall
        // queue behind it, so their sojourn carries the stall while their
        // service time does not.
        let mut rng = SplitMix64::new(1);
        let mut out = OpenSamples::default();
        let start = Instant::now();
        let stall = Duration::from_millis(5);
        open_loop(
            start,
            40_000_000,
            20_000.0,
            &mut rng,
            || {},
            |req, _| {
                if req == 10 {
                    std::thread::sleep(stall);
                }
                ns_since(start)
            },
            &mut out,
        );
        assert!(out.sojourn.len() > 400, "{} requests", out.sojourn.len());
        assert!(out.service[10] >= stall.as_nanos() as u64);
        // The next request was due within the stall, so it waited.
        assert!(
            out.sojourn[11] > 2_000_000,
            "sojourn[11] = {} ns",
            out.sojourn[11]
        );
        assert!(
            out.service[11] < 1_000_000,
            "service[11] = {} ns",
            out.service[11]
        );
        // Before the stall, requests waited for nothing.
        assert!(out.sojourn[..10].iter().all(|&s| s < 2_000_000));
        for (s, v) in out.sojourn.iter().zip(&out.service) {
            assert!(s >= v);
        }
    }

    #[test]
    fn store_check_counts_lost_updates_and_foreign_tags() {
        let good = [KvStore::tag(0) | 2, 0, KvStore::tag(2) | 1];
        assert_eq!(store_failures(&[2, 0, 1], &good, 0), 0);
        // A lost update on key 0 fails its PUTs.
        assert_eq!(store_failures(&[3, 0, 1], &good, 0), 3);
        // A foreign tag on key 2, plus two foreign-tagged GETs.
        let smeared = [KvStore::tag(0) | 2, 0, KvStore::tag(1) | 1];
        assert_eq!(store_failures(&[2, 0, 1], &smeared, 2), 3);
        // A key never PUT must still be empty.
        assert_eq!(
            store_failures(
                &[2, 0, 1],
                &[KvStore::tag(0) | 2, 5, KvStore::tag(2) | 1],
                0
            ),
            1
        );
    }

    #[test]
    fn a_short_phase_passes_its_checks_on_every_gated_engine() {
        for kind in GATED {
            for mode in [Mode::Closed, Mode::Open] {
                let out = run_phase(PhaseSpec {
                    shape: Shape {
                        open_rate: 20_000.0,
                        ..WRITE_HOT
                    },
                    kind,
                    mode,
                    traced: true,
                    len: Duration::from_millis(30),
                    seed: 7,
                    epoch: Instant::now(),
                });
                assert!(out.completions > 0, "{kind:?} {mode:?}");
                assert_eq!(out.tally.failed, 0, "{kind:?} {mode:?}");
                assert_eq!(out.tally.attempted, out.completions);
                let spans = out.spans.expect("traced");
                let req = spans
                    .totals()
                    .find(|(l, _)| *l == Layer::Request)
                    .unwrap()
                    .1;
                assert_eq!(req.spans, out.completions);
            }
        }
    }
}
