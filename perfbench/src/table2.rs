//! The Table 2 suite: the thirteen evaluation profiles run closed loop
//! through `run_kind` on two threads. No store and no queueing: the work is
//! the tracked-access fast path and the state transitions.
//!
//! A round runs one pass per engine over all profiles, in an engine order
//! that rotates between rounds. For the latency metrics a request is one
//! profile run (its parallel phase); the suite runs them back to back, so
//! sojourn equals service.

use std::time::{Duration, Instant};

use drink_core::EngineKind;
use drink_workloads::driver::run_kind;
use drink_workloads::profiles;
use drink_workloads::spec::WorkloadSpec;

use crate::counts::Counts;
use crate::samples::{median, percentile, sorted, supported_tail, Rounds};
use crate::trace::{Layer, SpanBuf};
use crate::{guarded, CpuTicks, EngineE2e, Guarded, Metric, Outcome, Tally, GATED};

/// Threads per profile run: one per core of the two-core hosts the
/// benchmark is sized for.
const THREADS: usize = 2;

/// Fewest rounds a run makes, however long they take.
const MIN_ROUNDS: usize = 3;

/// How long one profile run may take before the watchdog gives up on it.
const RUN_LIMIT: Duration = Duration::from_secs(30);

/// The profiles at two threads, with op streams drawn from `seed`.
fn specs(seed: u64) -> Vec<WorkloadSpec> {
    profiles::all()
        .into_iter()
        .enumerate()
        .map(|(i, p)| WorkloadSpec {
            threads: THREADS,
            seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..p.spec
        })
        .collect()
}

/// One engine's pass over the profiles.
#[derive(Default)]
struct Pass {
    tally: Tally,
    setup_ns: u64,
    /// Parallel-phase wall of each completed profile run, nanoseconds.
    walls: Vec<u64>,
    accesses: u64,
    counts: Counts,
    /// Share of the host's CPU time stolen during the pass.
    steal: f64,
}

impl Pass {
    fn wall_ns(&self) -> u64 {
        self.walls.iter().sum()
    }

    fn e2e(&self) -> EngineE2e {
        let walls = sorted(self.walls.clone());
        let us = |p| percentile(&walls, p).map_or(0.0, |x| x as f64 / 1e3);
        EngineE2e {
            ops_per_s: self.accesses as f64 / (self.wall_ns().max(1) as f64 / 1e9),
            sojourn_p50_us: us(50.0),
            service_p99_us: us(99.0),
        }
    }
}

/// Run every profile under `kind`. `reference` holds each profile's tracked
/// access count from the first engine that ran it; an engine that counts
/// differently fails that run's accesses.
fn pass(
    kind: EngineKind,
    specs: &[WorkloadSpec],
    reference: &mut [Option<u64>],
    spans: Option<(&mut SpanBuf, u64)>,
    epoch: Instant,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let pass_start = epoch.elapsed().as_nanos() as u64;
    let ticks = CpuTicks::now();
    let mut children = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let spec = spec.clone();
        let ran = guarded(RUN_LIMIT, move || {
            let t0 = Instant::now();
            let r = run_kind(kind, &spec);
            let t1 = Instant::now();
            (t0, t1, r)
        });
        let (t0, t1, r) = match ran {
            Guarded::Done(v) => v,
            Guarded::Panicked(m) => return Err(format!("{} panicked: {m}", specs[i].name)),
            Guarded::Hung => return Err(format!("{} hung", specs[i].name)),
        };
        let total = t1.duration_since(t0);
        p.setup_ns += total.saturating_sub(r.wall).as_nanos() as u64;
        let accesses = r.report.accesses();
        // Baseline does not count tracked accesses: it takes the reference.
        let counted = if kind == EngineKind::Baseline {
            reference[i].unwrap_or(0)
        } else {
            accesses
        };
        if kind != EngineKind::Baseline {
            match reference[i] {
                None => reference[i] = Some(accesses),
                Some(want) if want != accesses => {
                    println!(
                        "  {} {}: {accesses} accesses, expected {want}",
                        kind.short_name(),
                        specs[i].name
                    );
                    p.tally.failed += accesses.max(1);
                }
                Some(_) => {}
            }
        }
        p.tally.attempted += counted.max(1);
        p.walls.push(r.wall.as_nanos() as u64);
        p.accesses += counted;
        p.counts.add(&Counts::from_report(&r.report, counted));
        children.push((
            t0.saturating_duration_since(epoch).as_nanos() as u64,
            t1.saturating_duration_since(epoch).as_nanos() as u64,
        ));
    }
    p.steal = CpuTicks::steal_share(ticks, CpuTicks::now());
    if let Some((buf, req)) = spans {
        for (a, b) in children {
            buf.record(Layer::RunKind, req, 0, a, b);
        }
        buf.record(
            Layer::Table2Pass,
            req,
            0,
            pass_start,
            epoch.elapsed().as_nanos() as u64,
        );
    }
    Ok(p)
}

/// Per-engine accumulation over the rounds of one tracing setting.
#[derive(Default)]
struct EngineRuns {
    ops_per_s: Rounds,
    sojourn_p50_us: Rounds,
    service_p99_us: Rounds,
    walls: Vec<u64>,
}

impl EngineRuns {
    fn add(&mut self, p: &Pass) {
        let e = p.e2e();
        self.ops_per_s.push(e.ops_per_s, p.steal);
        self.sojourn_p50_us.push(e.sojourn_p50_us, p.steal);
        self.service_p99_us.push(e.service_p99_us, p.steal);
        self.walls.extend(&p.walls);
    }

    fn e2e(&self) -> EngineE2e {
        EngineE2e {
            ops_per_s: self.ops_per_s.value().unwrap_or(0.0),
            sojourn_p50_us: self.sojourn_p50_us.value().unwrap_or(0.0),
            service_p99_us: self.service_p99_us.value().unwrap_or(0.0),
        }
    }
}

/// Run the suite for about `seconds` of measurement.
pub fn run(seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Outcome {
    let specs = specs(seed);
    let mut engines = GATED.to_vec();
    if trace {
        engines.push(EngineKind::Baseline);
    }
    println!(
        "table2_suite: {} profiles at threads={THREADS}, engines {:?}, rounds until {seconds}s (at least {MIN_ROUNDS})",
        specs.len(),
        engines.iter().map(|k| k.short_name()).collect::<Vec<_>>()
    );
    let settings: &[bool] = if trace { &[false, true] } else { &[false] };

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut steal = Vec::new();
    let mut reference = vec![None; specs.len()];
    let mut untraced: Vec<EngineRuns> = engines.iter().map(|_| EngineRuns::default()).collect();
    let mut traced: Vec<EngineRuns> = engines.iter().map(|_| EngineRuns::default()).collect();
    let mut counts: Vec<Counts> = engines.iter().map(|_| Counts::default()).collect();
    let mut spans: Vec<SpanBuf> = engines.iter().map(|_| SpanBuf::new(usize::MAX)).collect();
    let mut overhead: Vec<Vec<f64>> = engines.iter().map(|_| Vec::new()).collect();
    let mut broken = vec![false; engines.len()];

    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let mut traced_wall = vec![None; engines.len()];
        for i in 0..engines.len() {
            let e = (i + round) % engines.len();
            for &is_traced in settings {
                if broken[e] {
                    continue;
                }
                let kind = engines[e];
                let buf = is_traced.then(|| (&mut spans[e], round as u64));
                match pass(kind, &specs, &mut reference, buf, epoch) {
                    Ok(p) => {
                        tally.add(p.tally);
                        setup_s.push(p.setup_ns as f64 / 1e9);
                        steal.push(p.steal);
                        if is_traced {
                            traced[e].add(&p);
                            counts[e].add(&p.counts);
                            traced_wall[e] = Some(p.wall_ns());
                        } else {
                            untraced[e].add(&p);
                        }
                    }
                    Err(why) => {
                        println!(
                            "  {} pass failed: {why}; engine skipped from here on",
                            kind.short_name()
                        );
                        tally.add(Tally {
                            attempted: 1,
                            failed: 1,
                        });
                        broken[e] = true;
                    }
                }
            }
        }
        if let Some(Some(base)) = traced_wall.last() {
            for (e, w) in traced_wall.iter().enumerate() {
                if let Some(w) = w {
                    overhead[e].push(*w as f64 / (*base).max(1) as f64);
                }
            }
        }
        round += 1;
    }

    crate::print_steal(&steal);
    println!("end-to-end detail (tracing off; a request is one profile run; values are medians over the less-stolen of {round} rounds):");
    for (e, r) in untraced.iter().enumerate().take(GATED.len()) {
        let walls = sorted(r.walls.clone());
        let tail = supported_tail(&walls).map_or("too few samples".to_string(), |(p, x)| {
            format!("tail p{p}={:.1}us", x as f64 / 1e3)
        });
        println!(
            "  {:<7} {:>12.0} accesses/s | profile runs n={} p50={:.1}us {tail}",
            engines[e].short_name(),
            r.ops_per_s.value().unwrap_or(0.0),
            walls.len(),
            percentile(&walls, 50.0).unwrap_or(0) as f64 / 1e3
        );
    }
    let e2e: Vec<(EngineKind, EngineE2e)> = GATED
        .iter()
        .zip(&untraced)
        .map(|(&k, r)| (k, r.e2e()))
        .collect();

    let mut layers = Vec::new();
    if trace {
        crate::print_overhead(
            GATED
                .iter()
                .enumerate()
                .map(|(e, &kind)| (kind, untraced[e].e2e(), traced[e].e2e())),
        );
        for (e, &kind) in GATED.iter().enumerate() {
            // The serve and session layers are not on this workload's path:
            // their metrics read 0 with no samples behind them.
            let mut m: Vec<Metric> = [
                ("serve.queue_us.p50", "us"),
                ("serve.queue_us.p99", "us"),
                ("serve.sojourn_us.p99", "us"),
                ("serve.gen_lag_us.max", "us"),
                ("serve.get_ns.p50", "ns"),
                ("serve.get_ns.p99", "ns"),
                ("serve.put_ns.p50", "ns"),
                ("serve.put_ns.p99", "ns"),
                ("session.safepoint_ns.p99", "ns"),
                ("session.safepoint_share", "fraction"),
            ]
            .into_iter()
            .map(|(n, u)| Metric::new(n, 0.0, u))
            .collect();
            m.extend(counts[e].metrics());
            m.push(Metric::new(
                "table2.overhead_x",
                median(&overhead[e]).unwrap_or(0.0),
                "x",
            ));
            layers.extend(m.into_iter().map(|x| x.for_engine(kind)));
            println!(
                "  {:<7} runtime histogram samples {:?}",
                kind.short_name(),
                counts[e].histogram_samples()
            );
        }
        for (e, buf) in spans.iter().enumerate() {
            crate::trace::print_self_times(engines[e].short_name(), buf);
        }
        let path = crate::span_path("table2_suite", seed);
        let refs: Vec<(&str, &SpanBuf)> =
            engines.iter().map(|k| k.short_name()).zip(&spans).collect();
        match crate::trace::write_chrome_trace(&path, &refs) {
            Ok(()) => println!("spans written: {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }

    Outcome {
        tally,
        setup_s: median(&setup_s).unwrap_or(0.0),
        e2e,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_on_access_counts_and_a_mismatch_fails_the_run() {
        let specs: Vec<WorkloadSpec> = specs(3)
            .into_iter()
            .take(2)
            .map(|s| WorkloadSpec {
                steps_per_thread: 500,
                ..s
            })
            .collect();
        let mut reference = vec![None; specs.len()];
        let epoch = Instant::now();
        for kind in GATED {
            let p = pass(kind, &specs, &mut reference, None, epoch).expect("pass");
            assert_eq!(p.tally.failed, 0, "{kind:?}");
            assert_eq!(p.walls.len(), 2);
        }
        reference[0] = reference[0].map(|n| n + 1);
        let p = pass(EngineKind::Pessimistic, &specs, &mut reference, None, epoch).expect("pass");
        assert!(p.tally.failed > 0);
        assert!(p.tally.fail_share() > 0.0);
    }
}
