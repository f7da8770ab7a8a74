//! What one traced pass records: per-kind step time, the step-time
//! distribution, and the deterministic counters each layer exposes.

use std::collections::BTreeMap;
use tengig::lab::LabEngine;
use tengig::{Ev, Lab};

/// Resolution limit of the step-time histogram: 1 ns buckets up to here,
/// one overflow bucket above.
const STEP_HIST_NS: usize = 1 << 16;

/// Counters that are host times: pooled over traced passes like the step
/// times, so a report divides them by the number of passes.
const TIMED_COUNTERS: [&str; 2] = ["serve.load_run_s", "hw.disk.stripe_run_s"];

/// Per-layer record of one or more traced passes.
pub struct Trace {
    /// Events fired, by `Ev::prof_idx` kind.
    pub fired: [u64; Ev::KINDS],
    /// Steps timed, by kind (equal to `fired` where every step is timed,
    /// 0 where the workload cannot time steps from outside).
    pub timed: [u64; Ev::KINDS],
    /// Host nanoseconds of the timed steps, by kind.
    pub step_ns: [u64; Ev::KINDS],
    /// Distribution of single-step host nanoseconds.
    step_hist: Vec<u64>,
    /// Shard barrier-wait nanoseconds (sharded runs only).
    pub barrier_ns: u64,
    /// Traced host nanoseconds no layer can be credited with.
    pub blind_ns: u64,
    /// Named layer counters (`sim.sched_events`, `net.drops`, ...).
    pub counters: BTreeMap<&'static str, f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            fired: [0; Ev::KINDS],
            timed: [0; Ev::KINDS],
            step_ns: [0; Ev::KINDS],
            step_hist: vec![0; STEP_HIST_NS + 1],
            barrier_ns: 0,
            blind_ns: 0,
            counters: BTreeMap::new(),
        }
    }
}

impl Trace {
    /// Credit one timed step of event kind `kind`.
    pub fn record_step(&mut self, kind: usize, ns: u64) {
        self.timed[kind] += 1;
        self.step_ns[kind] += ns;
        self.step_hist[(ns as usize).min(STEP_HIST_NS)] += 1;
    }

    /// Pool the host-time readings of another traced pass of the same
    /// work into this one. Counts and counters stay this pass's own: they
    /// are deterministic, so every pass reads the same.
    pub fn pool_timing(&mut self, other: &Trace) {
        for k in 0..Ev::KINDS {
            self.timed[k] += other.timed[k];
            self.step_ns[k] += other.step_ns[k];
        }
        for (a, b) in self.step_hist.iter_mut().zip(&other.step_hist) {
            *a += b;
        }
        self.barrier_ns += other.barrier_ns;
        self.blind_ns += other.blind_ns;
        for name in TIMED_COUNTERS {
            if let Some(&v) = other.counters.get(name) {
                self.add(name, v);
            }
        }
    }

    /// Add `v` to a named counter.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Raise a named counter to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let c = self.counters.entry(name).or_insert(0.0);
        *c = c.max(v);
    }

    /// Fold the counters of one finished classic-mode lab into the trace.
    pub fn absorb_lab(&mut self, lab: &Lab, eng: &LabEngine) {
        let p = lab.prof();
        for (t, f) in self.fired.iter_mut().zip(p.fired) {
            *t += f;
        }
        let e = eng.prof_counters();
        let c = eng.calendar_counters();
        self.add("sim.events", eng.executed() as f64);
        self.add("sim.sched_events", e.sched_events as f64);
        self.add("sim.sched_timers", e.sched_timers as f64);
        self.add("sim.sched_front", e.sched_front as f64);
        self.add("sim.cancels", e.cancels as f64);
        self.add("sim.wheel_cascades", c.wheel_cascades as f64);
        self.max("sim.lane_hiwater", c.lane_hiwater as f64);
        self.add("nic.rx_batches", p.rx_batch.count() as f64);
        self.add("lab.pool_misses", p.pool_misses as f64);
        let links = &lab.links;
        self.add(
            "net.drops",
            links.iter().map(|l| l.total_drops()).sum::<u64>() as f64,
        );
        self.add(
            "net.impair_drops",
            links.iter().map(|l| l.impair_drops()).sum::<u64>() as f64,
        );
        let rtx: u64 = lab
            .flows
            .iter()
            .flat_map(|f| f.conns.iter())
            .map(|c| c.stats.retransmits)
            .sum();
        self.add("tcp.retransmits", rtx as f64);
    }

    /// The `q`-quantile (0..=1) of timed single-step nanoseconds, or 0
    /// when no step was timed.
    pub fn step_quantile(&self, q: f64) -> f64 {
        let total: u64 = self.step_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (ns, &n) in self.step_hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ns as f64;
            }
        }
        STEP_HIST_NS as f64
    }
}
