//! Experiment runners: one function per paper figure/table scenario.
//!
//! Each runner builds a topology, drives it to completion (or through a
//! measurement window), and returns the measured quantities. Sweeps
//! enumerate their parameter grids as [`crate::sweep::Scenario`] data and
//! delegate execution to the [`crate::sweep::SweepRunner`], so every point
//! is an independent, deterministically-seeded simulation and the sweep's
//! result is identical at any thread count.

pub mod anecdotal;
pub mod faults;
pub mod grid;
pub mod latency;
pub mod multiflow;
pub mod osbypass;
pub mod serve;
pub mod throughput;
pub mod wan;

use crate::config::HostConfig;
use crate::lab::{self, App, Lab, LabEngine};
use tengig_net::{Hop, Path};
use tengig_sim::{Bandwidth, Nanos, SimRng};

/// Crossover-cable one-way propagation (a few meters of fiber).
pub const XOVER_PROP: Nanos = Nanos::from_nanos(50);

/// Build a back-to-back two-host lab (Fig. 2a) and one flow with `app`.
pub fn b2b_lab(cfg: HostConfig, app: App, seed: u64) -> (Lab, LabEngine) {
    two_host_lab(cfg, cfg, app, seed, false)
}

/// Build a two-host lab, optionally through the FastIron switch (Fig. 2b).
pub fn two_host_lab(
    cfg_a: HostConfig,
    cfg_b: HostConfig,
    app: App,
    seed: u64,
    through_switch: bool,
) -> (Lab, LabEngine) {
    let mut lab = Lab::new();
    let a = lab.add_host(cfg_a);
    let b = lab.add_host(cfg_b);
    let mut rng = SimRng::seeded(seed);
    let line = Bandwidth::from_gbps(10);
    let path = if through_switch {
        Path {
            hops: vec![
                Hop::wire("host-sw", line, XOVER_PROP),
                // Store-and-forward egress with the FastIron's fixed
                // forwarding latency and a 2 MiB egress buffer.
                Hop::wire("sw-egress", line, XOVER_PROP)
                    .with_fixed(Nanos::from_nanos(5_850))
                    .with_buffer(2 << 20),
            ],
        }
    } else {
        Path {
            hops: vec![Hop::wire("xover", line, XOVER_PROP)],
        }
    };
    let l_ab = lab.add_link(&path, rng.fork("ab"));
    let l_ba = lab.add_link(&path, rng.fork("ba"));
    lab.add_flow(a, b, vec![l_ab], vec![l_ba], app);
    let eng = lab::engine(&mut lab, seed);
    (lab, eng)
}

/// Run a lab to completion after kicking all flows.
///
/// With a sanitizer installed, the fully drained calendar lets the byte
/// ledger demand zero in-flight bytes; any violation panics with the seed
/// in the message (the sweep runner attaches the scenario index and label).
pub fn run_to_completion(lab: &mut Lab, eng: &mut LabEngine) {
    lab::kick(lab, eng);
    eng.run(lab);
    assert!(
        lab.all_done(),
        "a flow stalled: {} events executed without completing",
        eng.executed()
    );
    lab::check_sanitizer(lab, eng, true);
}
