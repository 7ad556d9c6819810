//! The paper-cell workloads: set-up, a timed training window and
//! evaluation. The cells have no daemon and no queries.

use std::sync::Arc;

use frs_data::TrainTestSplit;
use frs_experiments::scenario::{build_simulation, build_world};
use frs_experiments::ScenarioConfig;
use frs_federation::Simulation;

use crate::host::{self, now};
use crate::phases::{self, median_of, repeat, HostSpeed, Pinned, Samples};
use crate::report::Report;
use crate::rounds::{self, Round};
use crate::trace::{build_traced_simulation, Meters};
use crate::workload::{evaluate, state_digest, Workload};

struct World {
    split: TrainTestSplit,
    train: Arc<frs_data::Dataset>,
    targets: Vec<u32>,
}

fn world(cfg: &ScenarioConfig) -> World {
    let (_full, split, targets) = build_world(cfg);
    let train = Arc::new(split.train.clone());
    World {
        split,
        train,
        targets,
    }
}

/// One timed round whose counts are checked. The cells run nothing else
/// meanwhile, so the process CPU clock covers the round pool's threads.
fn checked_round(
    sim: &mut Simulation,
    meters: Option<&Meters>,
    clients: usize,
    report: &mut Report,
) -> Round {
    let round = rounds::timed_round(sim, meters, host::process_cpu);
    let stats = &round.stats;
    report.check(
        stats.n_selected == clients && stats.upload_bytes > 0 && stats.n_items_updated > 0,
        || {
            format!(
                "round {} sampled {} of {clients} clients",
                stats.round, stats.n_selected
            )
        },
    );
    round
}

/// Runs rounds for `seconds`.
fn train_window(
    sim: &mut Simulation,
    cfg: &ScenarioConfig,
    seconds: f64,
    report: &mut Report,
) -> Vec<Round> {
    let clients = cfg.federation.clients_per_round.effective(sim.n_clients());
    let start = now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(checked_round(sim, None, clients, report));
    }
    rounds
}

/// Runs the traced and the plain simulation round for round, for
/// `seconds` and at least `min_rounds` pairs, each leading every other
/// pair, so both see the same host.
fn paired_window(
    traced: &mut Simulation,
    plain: &mut Simulation,
    meters: &Meters,
    cfg: &ScenarioConfig,
    seconds: f64,
    min_rounds: usize,
    report: &mut Report,
) -> (Vec<Round>, Vec<Round>) {
    let clients = cfg
        .federation
        .clients_per_round
        .effective(traced.n_clients());
    let start = now();
    let (mut t, mut p) = (Vec::new(), Vec::new());
    while t.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        if t.len() % 2 == 0 {
            t.push(checked_round(traced, Some(meters), clients, report));
            p.push(checked_round(plain, None, clients, report));
        } else {
            p.push(checked_round(plain, None, clients, report));
            t.push(checked_round(traced, Some(meters), clients, report));
        }
    }
    (t, p)
}

/// Untraced runs interleave their samples: set-ups, evaluations and a
/// slice of the training window take turns this many times, so each
/// median spans the whole run rather than one phase of the host's speed.
/// A reading of the host's speed closes each of them, so each is scaled by
/// the readings either side of it.
const CYCLES: usize = 8;

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> std::io::Result<()> {
    if traced {
        return run_traced(workload, seed, seconds, report);
    }
    let cfg = workload.config(seed);
    let steal_from = host::read_cpu_times();
    {
        let pinned = Pinned::build(workload, None);
        pinned.check(&[pinned.evaluate(), pinned.evaluate()], report);
    }
    let mut speed = HostSpeed::new();
    let (mut setups, mut evals, mut walls) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut trained: Option<(World, Simulation)> = None;
    let mut n_rounds = 0;
    // The peak covers only the trained state: it is reset after the pinned
    // check, and after each cycle's set-ups, which build a second world
    // beside the trained one.
    let mut peak_reset = host::reset_peak_rss();
    let mut peak_rss_mib = 0.0f64;
    for _ in 0..CYCLES {
        let cycle_setups = repeat(3, 0.25, 25, || {
            let t = now();
            let w = world(&cfg);
            let sim = build_simulation(&cfg, Arc::clone(&w.train), &w.targets);
            let s = t.elapsed().as_secs_f64();
            trained.get_or_insert((w, sim));
            s
        });
        peak_reset &= host::reset_peak_rss();
        setups.add(&cycle_setups, speed.close_stretch());
        let (w, sim) = trained.as_mut().expect("a set-up ran");
        let users = sim.benign_ids();
        let cycle_evals = repeat(1, 0.5, 25, || {
            evaluate(&cfg, sim, &users, &w.split, &w.targets).total_s()
        });
        evals.add(&cycle_evals, speed.close_stretch());
        let rounds = train_window(sim, &cfg, seconds / CYCLES as f64, report);
        let cycle_walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        n_rounds += rounds.len();
        peak_rss_mib = peak_rss_mib.max(host::peak_rss_mib());
        walls.add(&cycle_walls, speed.close_stretch());
    }
    phases::report_scaled(
        "eval_s",
        "s",
        &evals,
        false,
        "user_embeddings + ExposureReport + QualityReport of every benign user",
        report,
    );
    phases::report_scaled(
        "setup_s",
        "s",
        &setups,
        false,
        "build_world + build_simulation",
        report,
    );
    let clients = cfg
        .federation
        .clients_per_round
        .effective(trained.as_ref().map_or(0, |(_, sim)| sim.n_clients()));
    phases::report_scaled(
        "rounds_per_s",
        "rounds/s",
        &walls,
        true,
        &format!("1 / median round wall time, {n_rounds} rounds of {clients} clients"),
        report,
    );
    report.metric(
        "peak_rss_mib",
        peak_rss_mib,
        "MiB",
        if peak_reset {
            "largest VmHWM over the cycles' evaluations and training"
        } else {
            "VmHWM of the whole process: the kernel refused the peak reset"
        },
    );
    phases::report_host(steal_from, &speed, false, report);
    Ok(())
}

fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> std::io::Result<()> {
    let cfg = workload.config(seed);
    let meters = Arc::new(Meters::default());
    let steal_from = host::read_cpu_times();
    let mut speed = HostSpeed::new();

    let pinned = Pinned::build(workload, Some(&meters));
    let evals = repeat(3, 2.0, 31, || pinned.evaluate());
    pinned.check(&evals, report);
    phases::report_eval_layers(&evals, report);
    drop(pinned);

    let mut world_ms = Vec::new();
    let mut sim_ms = Vec::new();
    let mut built = None;
    let _ = repeat(5, 1.0, 31, || {
        let t = now();
        let w = world(&cfg);
        world_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = now();
        let sim = build_traced_simulation(&cfg, Arc::clone(&w.train), &w.targets, &meters);
        sim_ms.push(t.elapsed().as_secs_f64() * 1e3);
        built = Some((w, sim));
    });
    let (m, how) = median_of(&world_ms);
    report.metric("data.build_world_ms", m, "ms", how);
    let (m, how) = median_of(&sim_ms);
    report.metric("scenario.build_sim_ms", m, "ms", how);
    let (w, mut sim) = built.expect("at least one set-up ran");

    // A plain build of the same seed trains round for round beside the
    // traced one: the decorators must not change the state, and the gap in
    // rounds_per_s is the tracing overhead.
    let mut plain = build_simulation(&cfg, Arc::clone(&w.train), &w.targets);
    meters.reset();
    let (rounds, plain_rounds) = paired_window(
        &mut sim,
        &mut plain,
        &meters,
        &cfg,
        seconds,
        rounds::COUNTED_ROUNDS,
        report,
    );
    rounds::report_round_layers(&rounds, report);
    let traced_digest = state_digest(&sim, &sim.benign_ids());
    let plain_digest = state_digest(&plain, &plain.benign_ids());
    report.check(traced_digest == plain_digest, || {
        format!("traced state {traced_digest} != untraced {plain_digest}")
    });
    report.note(format!(
        "traced and untraced runs of {} rounds end on digest {plain_digest}",
        rounds.len()
    ));
    let (rps, plain_rps) = (
        rounds::rounds_per_s(&rounds),
        rounds::rounds_per_s(&plain_rounds),
    );
    report.metric(
        "trace.overhead_share",
        plain_rps / rps - 1.0,
        "ratio",
        format!("untraced {plain_rps:.4} vs traced {rps:.4} rounds/s, alternating rounds"),
    );
    speed.close_stretch();
    phases::report_host(steal_from, &speed, true, report);
    Ok(())
}
