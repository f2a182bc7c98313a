//! Per-layer metrics derived from the runtime's `StatsReport`s: the engine
//! and coordination counters, the runtime's log₂ latency histograms, and the
//! §2.2 cost model applied to the run's transition counts.

use drink_runtime::{CostModel, Event, HistogramSnapshot, LatencyKind, StatsReport};

use crate::Metric;

/// Counters and histograms summed over the reports of several runs.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    events: Vec<u64>,
    roundtrip: HistogramSnapshot,
    fanout: HistogramSnapshot,
    monitor: HistogramSnapshot,
    model_cycles: f64,
    /// Operations the runs completed: requests (KV) or tracked accesses
    /// (Table 2). The `_per_kop` metrics divide by this.
    ops: u64,
}

fn merge_hist(into: &mut HistogramSnapshot, h: &HistogramSnapshot) {
    for (a, b) in into.buckets.iter_mut().zip(&h.buckets) {
        *a += b;
    }
    into.max_ns = into.max_ns.max(h.max_ns);
}

impl Counts {
    /// The counts of one run's report, `ops` of which it completed.
    pub fn from_report(r: &StatsReport, ops: u64) -> Self {
        Counts {
            events: Event::ALL.iter().map(|&e| r.get(e)).collect(),
            roundtrip: *r.latency(LatencyKind::CoordRoundtrip),
            fanout: *r.latency(LatencyKind::FanoutComplete),
            monitor: *r.latency(LatencyKind::MonitorAcquire),
            model_cycles: CostModel::paper().instrumentation_cycles(r),
            ops,
        }
    }

    /// Fold in another set of counts.
    pub fn add(&mut self, other: &Counts) {
        if self.events.is_empty() {
            self.events = vec![0; Event::COUNT];
        }
        for (a, b) in self.events.iter_mut().zip(&other.events) {
            *a += b;
        }
        merge_hist(&mut self.roundtrip, &other.roundtrip);
        merge_hist(&mut self.fanout, &other.fanout);
        merge_hist(&mut self.monitor, &other.monitor);
        self.model_cycles += other.model_cycles;
        self.ops += other.ops;
    }

    fn get(&self, e: Event) -> f64 {
        self.events.get(e as usize).copied().unwrap_or(0) as f64
    }

    /// `a / b`, or 0 when nothing was counted in `b`.
    fn ratio(a: f64, b: f64) -> f64 {
        if b > 0.0 {
            a / b
        } else {
            0.0
        }
    }

    /// The count-based per-layer metrics (names without the engine suffix).
    pub fn metrics(&self) -> Vec<Metric> {
        use Event::*;
        let g = |e| self.get(e);
        let acc = g(Read) + g(Write);
        let kacc = acc / 1e3;
        let kop = self.ops as f64 / 1e3;
        let seqlock = g(SeqlockValidated) + g(SeqlockRetry) + g(SeqlockFallback);
        let acquires = g(MonitorAcquireFast) + g(MonitorAcquireBlocked);
        let r = Self::ratio;
        vec![
            Metric::new(
                "core.fast_path_share",
                r(
                    g(OptSameState) + g(PessReentrant) + g(SeqlockValidated),
                    acc,
                ),
                "fraction",
            ),
            Metric::new(
                "core.pess_uncontended_per_kacc",
                r(g(PessUncontended), kacc),
                "1/kacc",
            ),
            Metric::new(
                "core.conflict_explicit_per_kacc",
                r(g(OptConflictExplicit), kacc),
                "1/kacc",
            ),
            Metric::new(
                "core.conflict_implicit_per_kacc",
                r(g(OptConflictImplicit), kacc),
                "1/kacc",
            ),
            Metric::new(
                "core.pess_contended_per_kacc",
                r(g(PessContended), kacc),
                "1/kacc",
            ),
            Metric::new("core.opt_pess_moves", g(OptToPess) + g(PessToOpt), "count"),
            Metric::new(
                "core.seqlock_hit_share",
                r(g(SeqlockValidated), seqlock),
                "fraction",
            ),
            Metric::new(
                "core.seqlock_waste_share",
                r(g(SeqlockRetry) + g(SeqlockFallback), seqlock),
                "fraction",
            ),
            Metric::new(
                "coord.roundtrips_per_kop",
                r(g(CoordinationRoundtrip), kop),
                "1/kop",
            ),
            Metric::new("coord.fanouts_per_kop", r(g(CoordFanout), kop), "1/kop"),
            Metric::new(
                "coord.fanout_width",
                r(g(CoordFanoutPeers), g(CoordFanout)),
                "peers",
            ),
            Metric::new("coord.roundtrip_ns.p50", self.roundtrip.p50() as f64, "ns"),
            Metric::new("coord.roundtrip_ns.p99", self.roundtrip.p99() as f64, "ns"),
            Metric::new("coord.fanout_ns.p99", self.fanout.p99() as f64, "ns"),
            Metric::new(
                "coord.batch_occupancy",
                r(g(CoordBatchRequests), g(RespondedExplicit)),
                "requests",
            ),
            Metric::new("coord.deadline_exceeded", g(CoordDeadlineExceeded), "count"),
            Metric::new(
                "monitor.blocked_share",
                r(g(MonitorAcquireBlocked), acquires),
                "fraction",
            ),
            Metric::new("monitor.acquire_ns.p99", self.monitor.p99() as f64, "ns"),
            Metric::new("psro.flushes_per_kop", r(g(LockBufferFlush), kop), "1/kop"),
            Metric::new(
                "psro.states_per_flush",
                r(g(StateUnlocked), g(LockBufferFlush)),
                "states",
            ),
            Metric::new("adapt.demotions", g(AdaptDemotion), "count"),
            Metric::new("adapt.promotions", g(AdaptPromotion), "count"),
            Metric::new(
                "model.cycles_per_access",
                r(self.model_cycles, acc),
                "cycles",
            ),
        ]
    }

    /// Sample counts behind the runtime histograms, for the report.
    pub fn histogram_samples(&self) -> [(&'static str, u64); 3] {
        [
            ("coord.roundtrip_ns", self.roundtrip.count()),
            ("coord.fanout_ns", self.fanout.count()),
            ("monitor.acquire_ns", self.monitor.count()),
        ]
    }
}
