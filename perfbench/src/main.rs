//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv_read_mostly|kv_write_hot|table2_suite> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, at most two worker threads. It drives the library through
//! its public calls only (`EngineKind::build`, `Session`, `KvStore`, the
//! traffic generator, `run_kind`, `StatsReport`, `CostModel`), times those
//! calls itself and keeps raw samples, so its percentiles are exact. Every
//! run checks the outputs. The last line of standard output is one JSON
//! object: `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a traced run (and prints the tracing overhead and
//! the per-layer self times above it). See `perfbench/README.md` for the
//! workloads and for which end-to-end metric each layer metric should move.

mod counts;
mod kv;
mod samples;
mod table2;
mod trace;

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use drink_core::EngineKind;

/// The engines the benchmark gates. `Baseline` runs only in traced Table 2
/// runs, as the denominator of `table2.overhead_x`; `Optimistic` builds the
/// same configuration as `Adaptive`, so gating both would gate one engine
/// twice.
pub const GATED: [EngineKind; 3] = [
    EngineKind::Pessimistic,
    EngineKind::Hybrid,
    EngineKind::Adaptive,
];

/// A seed kept out of tuning, for re-checking a claim made on other seeds.
pub const HELD_OUT_SEED: u64 = 424_242;

/// Spin-watchdog budget for the library's own hang detector unless the
/// caller sets one: a protocol hang panics in seconds, and the benchmark
/// counts the phase's in-flight operations as failed.
const SPIN_BUDGET_MS: &str = "5000";

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }

    /// The same metric under `<name>.<engine>`.
    pub fn for_engine(mut self, kind: EngineKind) -> Self {
        self.name = format!("{}.{}", self.name, kind.short_name());
        self
    }
}

/// Operations attempted and failed over a run. An operation fails when the
/// output check rejects it, or when its engine hung or panicked under it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The end-to-end numbers of one engine: closed-loop capacity and
/// open-loop latency, each the median over the run's rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineE2e {
    pub ops_per_s: f64,
    pub sojourn_p50_us: f64,
    pub service_p99_us: f64,
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// End-to-end numbers per gated engine, measured with tracing off.
    pub e2e: Vec<(EngineKind, EngineE2e)>,
    /// Per-layer metrics (traced runs only), already engine-suffixed.
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// The gated end-to-end metrics. `ok_share` is `1 - fail_share`: the
    /// share of attempted operations that passed the checks.
    pub fn e2e_metrics(&self) -> Vec<Metric> {
        let mut m = vec![Metric::new("setup_s", self.setup_s, "s")];
        for &(kind, e) in &self.e2e {
            m.push(Metric::new("ops_per_s", e.ops_per_s, "ops/s").for_engine(kind));
            m.push(Metric::new("sojourn_p50_us", e.sojourn_p50_us, "us").for_engine(kind));
            m.push(Metric::new("service_p99_us", e.service_p99_us, "us").for_engine(kind));
        }
        m.push(Metric::new(
            "ok_share",
            1.0 - self.tally.fail_share(),
            "fraction",
        ));
        m
    }
}

/// How a guarded call ended.
pub enum Guarded<T> {
    Done(T),
    Panicked(String),
    /// Still running at the limit. The thread cannot be stopped from outside;
    /// it is left behind and ends with the process.
    Hung,
}

/// Run `f` on its own thread and wait at most `limit` for it: the
/// benchmark's watchdog, which turns a protocol hang or panic inside the
/// library into failed operations instead of a wedged run.
pub fn guarded<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Guarded<T> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("bench-phase".into())
        .spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(r);
        })
        .expect("spawn the phase thread");
    match rx.recv_timeout(limit) {
        Ok(r) => {
            let _ = handle.join();
            match r {
                Ok(v) => Guarded::Done(v),
                Err(p) => Guarded::Panicked(
                    p.downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "non-string panic".into()),
                ),
            }
        }
        Err(_) => Guarded::Hung,
    }
}

/// Nanoseconds elapsed since `t`.
#[inline]
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Where a traced run writes its spans.
pub fn span_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.json"))
}

/// Each per-layer metric, the end-to-end metric it should move, and the
/// workload it should move it on. Every name carries an engine suffix in
/// the output. Counters count, they do not time: a per-access clock read
/// costs more than the access it would measure.
pub const LAYER_MAP: [(&str, &str, &str); 34] = [
    ("serve.queue_us.p50", "sojourn_p50_us", "kv_*"),
    ("serve.queue_us.p99", "sojourn_p50_us", "kv_*"),
    ("serve.sojourn_us.p99", "sojourn_p50_us", "kv_*"),
    ("serve.gen_lag_us.max", "sojourn_p50_us", "kv_*"),
    (
        "serve.get_ns.p50",
        "service_p99_us, ops_per_s",
        "kv_read_mostly",
    ),
    (
        "serve.get_ns.p99",
        "service_p99_us, ops_per_s",
        "kv_read_mostly",
    ),
    (
        "serve.put_ns.p50",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    (
        "serve.put_ns.p99",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    ("session.safepoint_ns.p99", "service_p99_us", "kv_write_hot"),
    ("session.safepoint_share", "service_p99_us", "kv_write_hot"),
    ("core.fast_path_share", "ops_per_s", "table2_suite"),
    (
        "core.pess_uncontended_per_kacc",
        "ops_per_s",
        "table2_suite",
    ),
    (
        "core.conflict_explicit_per_kacc",
        "ops_per_s",
        "table2_suite",
    ),
    (
        "core.conflict_implicit_per_kacc",
        "ops_per_s",
        "table2_suite",
    ),
    ("core.pess_contended_per_kacc", "ops_per_s", "table2_suite"),
    ("core.opt_pess_moves", "ops_per_s", "table2_suite"),
    ("core.seqlock_hit_share", "ops_per_s", "kv_read_mostly"),
    ("core.seqlock_waste_share", "ops_per_s", "kv_read_mostly"),
    (
        "coord.roundtrips_per_kop",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    (
        "coord.fanouts_per_kop",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    (
        "coord.fanout_width",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    (
        "coord.roundtrip_ns.p50",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    (
        "coord.roundtrip_ns.p99",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    (
        "coord.fanout_ns.p99",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    (
        "coord.batch_occupancy",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    (
        "coord.deadline_exceeded",
        "service_p99_us, ops_per_s",
        "kv_write_hot",
    ),
    ("monitor.blocked_share", "service_p99_us", "kv_write_hot"),
    ("monitor.acquire_ns.p99", "service_p99_us", "kv_write_hot"),
    ("psro.flushes_per_kop", "ops_per_s", "kv_write_hot"),
    ("psro.states_per_flush", "ops_per_s", "kv_write_hot"),
    ("adapt.demotions", "service_p99_us", "kv_write_hot"),
    ("adapt.promotions", "service_p99_us", "kv_write_hot"),
    ("table2.overhead_x", "ops_per_s", "table2_suite"),
    ("model.cycles_per_access", "ops_per_s", "table2_suite"),
];

/// Per-layer metrics read from the runtime's log₂ histograms rather than
/// timed by the benchmark: their percentiles are bucket upper bounds.
const LOG2_QUANTISED: [&str; 4] = [
    "coord.roundtrip_ns.p50",
    "coord.roundtrip_ns.p99",
    "coord.fanout_ns.p99",
    "monitor.acquire_ns.p99",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <kv_read_mostly|kv_write_hot|table2_suite> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Clock ticks of all CPUs of the machine, and of those the hypervisor
/// stole (the `steal` column of `/proc/stat`).
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// The counters now; `None` where the kernel does not report them.
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        Some(CpuTicks {
            steal: *ticks.get(7)?,
            total: ticks.iter().sum(),
        })
    }

    /// Share of the CPU time between `start` and `end` that was stolen; 0
    /// when either reading is missing.
    pub fn steal_share(start: Option<Self>, end: Option<Self>) -> f64 {
        match (start, end) {
            (Some(a), Some(b)) if b.total > a.total => {
                b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
            }
            _ => 0.0,
        }
    }
}

/// Print the tracing overhead: per engine, the traced run's end-to-end
/// numbers minus the untraced run's, as `(engine, untraced, traced)`.
pub fn print_overhead(rows: impl Iterator<Item = (EngineKind, EngineE2e, EngineE2e)>) {
    println!("tracing overhead (traced minus untraced, medians over rounds):");
    for (kind, a, b) in rows {
        println!(
            "  {:<7} ops_per_s {:+.0} ({:+.1}%) sojourn_p50_us {:+.3} service_p99_us {:+.3}",
            kind.short_name(),
            b.ops_per_s - a.ops_per_s,
            100.0 * (b.ops_per_s / a.ops_per_s - 1.0),
            b.sojourn_p50_us - a.sojourn_p50_us,
            b.service_p99_us - a.service_p99_us
        );
    }
}

/// Print how much CPU time the host stole over a run's measured phases.
pub fn print_steal(shares: &[f64]) {
    let max = shares.iter().copied().fold(0.0, f64::max);
    println!(
        "host steal over {} measured phases: median {:.1}%, max {:.1}%",
        shares.len(),
        100.0 * samples::median(shares).unwrap_or(0.0),
        100.0 * max
    );
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// The per-layer table: each metric with the end-to-end metric it should
/// move and where.
fn print_layers(metrics: &[Metric]) {
    println!("per-layer metrics (traced run):");
    println!(
        "  {:<44} {:>18} {:<9} {:<28} on",
        "metric", "value", "unit", "should move"
    );
    for m in metrics {
        let base = m.name.rsplit_once('.').map_or(m.name.as_str(), |(b, _)| b);
        let (moves, on) = LAYER_MAP
            .iter()
            .find(|(n, _, _)| *n == base)
            .map_or(("?", "?"), |&(_, moves, on)| (moves, on));
        let note = if LOG2_QUANTISED.contains(&base) {
            " (log2 bucket bound)"
        } else {
            ""
        };
        println!(
            "  {:<44} {:>18.4} {:<9} {:<28} {on}{note}",
            m.name, m.value, m.unit, moves
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if std::env::var_os("DRINK_SPIN_BUDGET_MS").is_none() {
        std::env::set_var("DRINK_SPIN_BUDGET_MS", SPIN_BUDGET_MS);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} held_out_seed={HELD_OUT_SEED}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc={nproc} cpu=\"{}\" build_profile={profile}",
        cpu_model()
    );

    let epoch = Instant::now();
    let outcome = match args.workload.as_str() {
        "kv_read_mostly" => kv::run(&kv::READ_MOSTLY, args.seed, args.seconds, args.trace, epoch),
        "kv_write_hot" => kv::run(&kv::WRITE_HOT, args.seed, args.seconds, args.trace, epoch),
        "table2_suite" => table2::run(args.seed, args.seconds, args.trace, epoch),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let e2e = outcome.e2e_metrics();
    print_metrics("end-to-end metrics (tracing off)", &e2e);
    println!(
        "  fail_share = {} ({} failed of {} attempted)",
        outcome.tally.fail_share(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    if args.trace {
        print_layers(&outcome.layers);
    }
    println!("elapsed_s={:.3}", epoch.elapsed().as_secs_f64());

    let correct = outcome.tally.failed == 0 && outcome.tally.attempted > 0;
    let reported = if args.trace { &outcome.layers } else { &e2e };
    println!("{}", json_line(correct, outcome.tally, reported));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_forced_failure_shows_in_fail_share() {
        let mut t = Tally {
            attempted: 1000,
            failed: 0,
        };
        t.add(Tally {
            attempted: 10,
            failed: kv::store_failures(&[3, 0], &[0, 0], 0),
        });
        assert_eq!(t.failed, 3);
        let out = Outcome {
            tally: t,
            setup_s: 1.0,
            e2e: vec![],
            layers: vec![],
        };
        let ok = out
            .e2e_metrics()
            .into_iter()
            .find(|m| m.name == "ok_share")
            .unwrap();
        assert!((ok.value - (1.0 - 3.0 / 1010.0)).abs() < 1e-12);
        assert!(json_line(false, t, &[]).contains("\"failed\": 3"));
    }

    #[test]
    fn benchmark_json_names_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let out = Outcome {
            tally: Tally {
                attempted: 1,
                failed: 0,
            },
            setup_s: 1.0,
            e2e: GATED.iter().map(|&k| (k, EngineE2e::default())).collect(),
            layers: vec![],
        };
        for m in out.e2e_metrics() {
            assert!(
                spec.contains(&format!("\"{}\"", m.name)),
                "{} missing",
                m.name
            );
        }
        for (name, _, _) in LAYER_MAP {
            for kind in GATED {
                let full = format!("\"{name}.{}\"", kind.short_name());
                assert!(spec.contains(&full), "{full} missing");
            }
        }
        assert_eq!(spec.matches("\"better\"").count(), 11 + 3 * LAYER_MAP.len());
    }

    #[test]
    fn guarded_reports_done_panicked_and_hung() {
        assert!(matches!(
            guarded(Duration::from_secs(5), || 7),
            Guarded::Done(7)
        ));
        assert!(matches!(
            guarded(Duration::from_secs(5), || -> u8 { panic!("boom") }),
            Guarded::Panicked(m) if m == "boom"
        ));
        assert!(matches!(
            guarded(Duration::from_millis(20), || std::thread::sleep(
                Duration::from_millis(500)
            )),
            Guarded::Hung
        ));
    }
}
