//! The four workloads. Each builds its inputs from the seed, runs a fixed
//! amount of simulated work through the simulator's public entry points,
//! and reports one [`SubRun`] per sweep leg, preset or rung.

use crate::trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tengig::experiments::b2b_lab;
use tengig::experiments::faults::{faults_lab, scaled_wan};
use tengig::experiments::grid::{run_grid, run_grid_prof, GridPreset, GridResult};
use tengig::experiments::serve::{
    run_serve, serve_sweep_report, standard_rungs, LoadRung, ServeOutcome, ServePreset,
};
use tengig::experiments::wan::wan_lab_seeded;
use tengig::lab::{self, LabEngine};
use tengig::{scenarios, App, Ev, Lab, LadderRung, Scenario, SweepRunner};
use tengig_ethernet::Mtu;
use tengig_net::{FatTreeSpec, GilbertElliott, Impairments, WanSpec};
use tengig_sim::{rate_of, Nanos};
use tengig_tools::{NttcpReceiver, NttcpSender};

/// The outputs of one sub-run that the correctness check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct SubRun {
    /// Sweep leg, preset or rung name.
    pub label: String,
    /// Engine events executed.
    pub events: u64,
    /// Simulated payload bytes delivered.
    pub payload_bytes: u64,
    /// The workload's pinned output (Gb/s, window bytes, result row).
    pub detail: String,
}

impl SubRun {
    /// One-line rendering, the form the pinned references take.
    pub fn line(&self) -> String {
        format!(
            "{} events={} bytes={} {}",
            self.label, self.events, self.payload_bytes, self.detail
        )
    }
}

/// A sub-run's outputs, or why it failed: a panic (the sanitizer panics on
/// a violation) or a broken invariant.
pub type Outcome = Result<SubRun, String>;

/// Run `f` as one sub-run, turning a panic into a failure.
fn guard(label: &str, f: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("{label}: panicked: {msg}"))
    })
}

/// Fail with `msg` unless `ok`.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// How a classic-mode lab is driven: straight through the engine, or one
/// timed `Engine::step` at a time, crediting each step to the event kind
/// whose fired counter advanced.
pub enum Tracing<'t> {
    /// `Engine::run` / `Engine::advance_to`, untouched.
    Off,
    /// Every step timed into the trace.
    On(&'t mut Trace),
}

impl Tracing<'_> {
    /// Run until the calendar drains.
    fn drain(&mut self, lab: &mut Lab, eng: &mut LabEngine) {
        match self {
            Tracing::Off => eng.run(lab),
            Tracing::On(tr) => while timed_step(lab, eng, tr) {},
        }
    }

    /// Run every event at or before `deadline`, then pin the clock there.
    fn advance(&mut self, lab: &mut Lab, eng: &mut LabEngine, deadline: Nanos) {
        if let Tracing::On(tr) = self {
            while eng.peek_time().is_some_and(|t| t <= deadline) {
                timed_step(lab, eng, tr);
            }
        }
        eng.advance_to(lab, deadline);
    }

    /// Fold a finished lab's counters into the trace, if tracing.
    fn absorb(&mut self, lab: &Lab, eng: &LabEngine) {
        if let Tracing::On(tr) = self {
            tr.absorb_lab(lab, eng);
        }
    }
}

/// Time one `Engine::step`; returns `false` when the calendar was empty.
fn timed_step(lab: &mut Lab, eng: &mut LabEngine, tr: &mut Trace) -> bool {
    let before = lab.prof().fired;
    let t0 = Instant::now();
    if !eng.step(lab) {
        return false;
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let after = &lab.prof().fired;
    let kind = (0..Ev::KINDS)
        .find(|&k| after[k] != before[k])
        .expect("every step fires exactly one event");
    tr.record_step(kind, ns);
    true
}

/// Payload bytes an NTTCP flow's receiver has taken in.
fn nttcp_received(lab: &Lab, f: usize) -> u64 {
    match &lab.flows[f].app {
        App::Nttcp { rx, .. } => rx.received,
        _ => 0,
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// Everything built before the first event.
    type World;
    /// Threads the simulated work runs on.
    fn shards(&self) -> usize {
        1
    }
    /// Build the world from the seed.
    fn setup(&self, seed: u64) -> Self::World;
    /// The host work `setup_s` times. Where the world is built inside the
    /// simulator's own entry point, this is that entry point on the same
    /// topology with the least traffic it accepts.
    fn setup_cost(&self, seed: u64) {
        drop(self.setup(seed));
    }
    /// Run the fixed simulated work; one outcome per sub-run.
    fn run(&self, world: Self::World, tracing: Tracing) -> Vec<Outcome>;
}

/// `lan_bulk`: the §3 Fig. 3-5 NTTCP payload sweep, back-to-back PE2650s
/// on the oversized-windows rung with a 9000-byte MTU.
pub struct LanBulk;

/// NTTCP writes per `lan_bulk` payload.
const LAN_WRITES: u64 = 200_000;

/// `lan_bulk` payloads: small (per-frame cost dominates), standard MSS,
/// jumbo MSS.
const LAN_PAYLOADS: [u64; 3] = [512, 1448, 8948];

impl Workload for LanBulk {
    type World = Vec<(u64, Lab, LabEngine)>;

    fn setup(&self, seed: u64) -> Self::World {
        let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
        LAN_PAYLOADS
            .iter()
            .enumerate()
            .map(|(i, &payload)| {
                let app = App::Nttcp {
                    tx: NttcpSender::new(payload, LAN_WRITES),
                    rx: NttcpReceiver::new(payload * LAN_WRITES),
                };
                let (lab, eng) = b2b_lab(cfg, app, seed.wrapping_add(i as u64));
                (payload, lab, eng)
            })
            .collect()
    }

    fn run(&self, world: Self::World, mut tracing: Tracing) -> Vec<Outcome> {
        world
            .into_iter()
            .map(|(payload, mut lab, mut eng)| {
                let label = format!("payload{payload}");
                guard(&label.clone(), || {
                    lab::kick(&mut lab, &mut eng);
                    tracing.drain(&mut lab, &mut eng);
                    lab::check_sanitizer(&lab, &mut eng, true);
                    tracing.absorb(&lab, &eng);
                    let sent = payload * LAN_WRITES;
                    let got = nttcp_received(&lab, 0);
                    ensure(lab.all_done(), || format!("{label}: flow unfinished"))?;
                    ensure(got == sent, || {
                        format!("{label}: delivered {got} of {sent}")
                    })?;
                    let m = &lab.flows[0].meas;
                    let span = m.t_done.zip(m.t_start).map(|(d, s)| d - s);
                    let gbps = rate_of(got, span.unwrap_or(Nanos::ZERO)).gbps();
                    Ok(SubRun {
                        label,
                        events: eng.executed(),
                        payload_bytes: got,
                        detail: format!("gbps={gbps}"),
                    })
                })
            })
            .collect()
    }
}

/// `wan_record`: the §4 Internet2 record run, then a fixed-size transfer
/// over the scaled 20 ms WAN with Gilbert-Elliott burst loss.
pub struct WanRecord;

/// How a WAN leg ends.
enum LegEnd {
    /// The endless stream, measured over a window after a warm-up.
    Window { warmup: Nanos, window: Nanos },
    /// A transfer of this many payload bytes, run to completion. Fixed
    /// bytes rather than fixed simulated time: how long loss recovery
    /// stalls the flow varies with the seed, the frames it moves do not.
    Transfer { bytes: u64 },
}

/// One WAN leg: its lab plus how it ends.
pub struct WanLeg {
    label: &'static str,
    lab: Lab,
    eng: LabEngine,
    end: LegEnd,
}

/// MSS-sized writes of the lossy transfer (about 0.67 GB).
const WAN_LOSSY_WRITES: u64 = 75_000;

impl WanLeg {
    fn run(mut self, tracing: &mut Tracing) -> Outcome {
        let (lab, eng) = (&mut self.lab, &mut self.eng);
        let label = self.label;
        let detail = match self.end {
            LegEnd::Window { warmup, window } => {
                lab::kick(lab, eng);
                tracing.advance(lab, eng, warmup);
                let before = nttcp_received(lab, 0);
                tracing.advance(lab, eng, warmup + window);
                lab::check_sanitizer(lab, eng, false);
                let window_bytes = nttcp_received(lab, 0) - before;
                ensure(window_bytes > 0, || format!("{label}: idle window"))?;
                format!("window_bytes={window_bytes}")
            }
            LegEnd::Transfer { bytes } => {
                lab::kick(lab, eng);
                tracing.drain(lab, eng);
                lab::check_sanitizer(lab, eng, true);
                let got = nttcp_received(lab, 0);
                ensure(lab.all_done(), || format!("{label}: flow unfinished"))?;
                ensure(got == bytes, || {
                    format!("{label}: delivered {got} of {bytes}")
                })?;
                let done = lab.flows[0].meas.t_done.unwrap_or(Nanos::ZERO);
                let rtx = lab.flows[0].conns[0].stats.retransmits;
                format!("done_ns={} retransmits={rtx}", done.as_nanos())
            }
        };
        tracing.absorb(lab, eng);
        Ok(SubRun {
            label: label.to_string(),
            events: eng.executed(),
            payload_bytes: nttcp_received(lab, 0),
            detail,
        })
    }
}

impl Workload for WanRecord {
    type World = Vec<WanLeg>;

    fn setup(&self, seed: u64) -> Self::World {
        let (lab, eng) = wan_lab_seeded(&WanSpec::record_run(), None, seed);
        let record = WanLeg {
            label: "record",
            lab,
            eng,
            end: LegEnd::Window {
                warmup: Nanos::from_secs(3),
                window: Nanos::from_secs(5),
            },
        };
        let mut lossy = scaled_wan(Nanos::from_millis(20), 64 << 20);
        lossy.impair = Impairments::none().with_burst(GilbertElliott::bursty(3e-3, 8.0));
        let (mut lab, eng) = faults_lab(&lossy, None, seed);
        // `faults_lab` makes an endless stream; make it a fixed transfer.
        let payload = match &lab.flows[0].app {
            App::Nttcp { tx, .. } => tx.payload,
            _ => unreachable!("faults_lab builds one NTTCP flow"),
        };
        let bytes = payload * WAN_LOSSY_WRITES;
        lab.flows[0].app = App::Nttcp {
            tx: NttcpSender::new(payload, WAN_LOSSY_WRITES),
            rx: NttcpReceiver::new(bytes),
        };
        let burst = WanLeg {
            label: "burst_loss",
            lab,
            eng,
            end: LegEnd::Transfer { bytes },
        };
        vec![record, burst]
    }

    fn run(&self, world: Self::World, mut tracing: Tracing) -> Vec<Outcome> {
        world
            .into_iter()
            .map(|leg| {
                let label = leg.label;
                guard(label, || leg.run(&mut tracing))
            })
            .collect()
    }
}

/// `fabric_2shard`: the pinned fat-tree, 64 GbE workstations in 4 racks
/// feeding 2 10GbE spines, run as 2 conservatively synchronized shards.
pub struct Fabric2Shard;

/// Shards of `fabric_2shard`.
const FABRIC_SHARDS: usize = 2;

/// NTTCP write size and writes per fabric workstation.
const FABRIC_PAYLOAD: u64 = 8948;
const FABRIC_WRITES: u64 = 1500;

fn fabric_preset(count: u64) -> GridPreset {
    GridPreset::FatTree {
        spec: FatTreeSpec::gbe_into_tengbe(4, 16, 2),
        payload: FABRIC_PAYLOAD,
        count,
    }
}

fn grid_subrun(r: &GridResult) -> Outcome {
    let want = r.flows * FABRIC_PAYLOAD * FABRIC_WRITES;
    ensure(r.flows == 64, || format!("fabric: {} flows", r.flows))?;
    ensure(r.payload_bytes == want, || {
        format!("fabric: delivered {} of {want}", r.payload_bytes)
    })?;
    Ok(SubRun {
        label: "fat_tree/4x16into2".to_string(),
        events: r.events,
        payload_bytes: r.payload_bytes,
        detail: format!(
            "flows={} first_start_ns={} last_done_ns={} gbps={}",
            r.flows,
            r.first_start.as_nanos(),
            r.last_done.as_nanos(),
            r.aggregate_gbps
        ),
    })
}

impl Workload for Fabric2Shard {
    type World = u64;

    fn shards(&self) -> usize {
        FABRIC_SHARDS
    }

    fn setup(&self, seed: u64) -> u64 {
        seed
    }

    fn setup_cost(&self, seed: u64) {
        run_grid(&fabric_preset(1), FABRIC_SHARDS, seed);
    }

    fn run(&self, seed: u64, tracing: Tracing) -> Vec<Outcome> {
        let preset = fabric_preset(FABRIC_WRITES);
        vec![guard("fabric", || match tracing {
            Tracing::Off => grid_subrun(&run_grid(&preset, FABRIC_SHARDS, seed)),
            Tracing::On(tr) => {
                let (r, prof) = run_grid_prof(&preset, FABRIC_SHARDS, seed);
                crate::gridprof::absorb(tr, &prof.sim, &prof.local, &prof.wall);
                grid_subrun(&r)
            }
        })]
    }
}

/// `serve_openloop`: the four open-loop load rungs plus the four
/// disk-striping rungs, one after another at one shard.
pub struct ServeOpenloop;

/// Bytes of one striping stream: 468 NTTCP writes of 8948 B.
const STRIPE_STREAM_BYTES: u64 = 468 * 8948;

impl ServeOpenloop {
    /// Invariants of one rung's outcome; returns its events and bytes.
    fn check(sc: &Scenario<ServePreset>, o: &ServeOutcome) -> Result<(u64, u64), String> {
        let label = &sc.label;
        match (&sc.input, o) {
            (ServePreset::Load(rung), ServeOutcome::Load(r)) => {
                ensure(r.flows == rung.flows as u64, || {
                    format!("{label}: {} of {} flows", r.flows, rung.flows)
                })?;
                ensure(r.payload_bytes > 0, || format!("{label}: no bytes"))?;
                Ok((r.events, r.payload_bytes))
            }
            (ServePreset::Stripe(rung), ServeOutcome::Stripe(r)) => {
                let want = rung.streams as u64 * STRIPE_STREAM_BYTES;
                ensure(r.payload_bytes == want, || {
                    format!("{label}: delivered {} of {want}", r.payload_bytes)
                })?;
                Ok((r.events, r.payload_bytes))
            }
            _ => Err(format!("{label}: outcome of the wrong kind")),
        }
    }
}

impl Workload for ServeOpenloop {
    /// The master seed and the rungs with the scenario seeds derived
    /// from it (the sweep entry point re-derives them from the master).
    type World = (u64, Vec<Scenario<ServePreset>>);

    fn setup(&self, seed: u64) -> Self::World {
        (seed, scenarios(seed, standard_rungs(), |p| p.label()))
    }

    fn setup_cost(&self, seed: u64) {
        let no_flows = ServePreset::Load(LoadRung {
            rho_permille: 250,
            flows: 0,
        });
        run_serve(&no_flows, 1, seed);
    }

    fn run(&self, (master, rungs): Self::World, tracing: Tracing) -> Vec<Outcome> {
        match tracing {
            Tracing::Off => {
                let presets: Vec<ServePreset> = rungs.iter().map(|sc| sc.input).collect();
                let swept =
                    catch_unwind(|| serve_sweep_report(&presets, 1, master, SweepRunner::new(1)));
                let Ok((outcomes, report, sidecar)) = swept else {
                    return rungs
                        .iter()
                        .map(|sc| Err(format!("{}: sweep panicked", sc.label)))
                        .collect();
                };
                let jsonl = report.to_jsonl();
                let rows: Vec<&str> = jsonl.lines().skip(1).collect();
                rungs
                    .iter()
                    .zip(&outcomes)
                    .enumerate()
                    .map(|(i, (sc, o))| {
                        let (events, payload_bytes) = Self::check(sc, o)?;
                        Ok(SubRun {
                            label: sc.label.clone(),
                            events,
                            payload_bytes,
                            detail: format!("{}\n{}", rows[i], sidecar.runs[i].2),
                        })
                    })
                    .collect()
            }
            Tracing::On(tr) => rungs
                .iter()
                .map(|sc| {
                    guard(&sc.label, || {
                        let t0 = Instant::now();
                        let (o, tl) = run_serve(&sc.input, 1, sc.seed);
                        let s = t0.elapsed().as_secs_f64();
                        tr.blind_ns += (s * 1e9) as u64;
                        let key = match o {
                            ServeOutcome::Load(_) => "serve.load_run_s",
                            ServeOutcome::Stripe(_) => "hw.disk.stripe_run_s",
                        };
                        tr.add(key, s);
                        tr.add("obs.series", tl.len() as f64);
                        let points: usize = tl.iter().map(|(_, series)| series.len()).sum();
                        tr.add("obs.points", points as f64);
                        let (events, payload_bytes) = Self::check(sc, &o)?;
                        tr.add("sim.events", events as f64);
                        Ok(SubRun {
                            label: sc.label.clone(),
                            events,
                            payload_bytes,
                            detail: String::new(),
                        })
                    })
                })
                .collect(),
        }
    }
}
