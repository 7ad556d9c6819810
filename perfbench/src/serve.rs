//! The `serve-1m` workload: `serve_scenarios` hosts `paper scale`'s
//! million-user world on TCP loopback, training and publishing a snapshot
//! every round, while the benchmark's open loop queries it at a fixed rate
//! (the traced run then climbs the `max_qps` ladder). Only this workload
//! has a daemon.
//!
//! The traced run cannot reach inside `serve_scenarios`, so it repeats the
//! session with the public calls `serve_scenarios` makes: `build_world`,
//! the simulation build, `Snapshot::new`, `ScenarioHandle::publish`, and
//! `frs_serve::spawn_tcp`, with the trainer step timed from outside.
//!
//! The serving layers (`serve.*`, `query_p50_us`, `query_p99_us`,
//! `max_qps`, `loadgen.*`) exist only here, so they are printed as lines of
//! their own and stay out of the closing line, which holds the metrics
//! every workload reports.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use frs_experiments::scenario::{build_simulation, build_world};
use frs_experiments::{serve_scenarios, shutdown, ServeOptions, ServeScenarioSpec};
use frs_federation::{CoreBudget, Simulation};
use frs_serve::{Router, ScenarioHandle, Snapshot, StatusResponse};

use crate::host::{self, now};
use crate::loadgen::{Conn, Generator, Window};
use crate::phases::{self, median_of, repeat, HostSpeed, Pinned, Samples};
use crate::report::Report;
use crate::rounds::{self, Round};
use crate::stats::{self, ProbeResult};
use crate::trace::{build_traced_simulation, Meters};
use crate::workload::Workload;

const WORKLOAD: Workload = Workload::Serve1m;

/// Cores the session's `CoreBudget` owns: one trainer and the daemon.
const BUDGET_CORES: usize = 2;

/// Latency limit of a `max_qps` ladder rung: at least 99% of its queries
/// must be answered within it.
const LIMIT: Duration = Duration::from_millis(20);

/// How long each ladder rung is offered.
const RUNG_SECONDS: f64 = 1.0;

/// How long a window waits for its last responses before giving up on the
/// connection.
const DRAIN: Duration = Duration::from_secs(20);

/// The fixed open-loop rate at which query latency is reported: about a
/// third of the capacity knee (10k–14k queries/s on a 2-vCPU host).
const QUERY_RATE: f64 = 4000.0;

/// The `max_qps` ladder: twelve rungs per doubling, from a third of
/// [`QUERY_RATE`] up to ten times it.
fn ladder() -> Vec<f64> {
    stats::ladder(QUERY_RATE / 3.0, 12, 60)
}

/// Offers [`QUERY_RATE`] for `seconds`.
fn fixed_window(conn: &mut Conn, gen: &mut Generator, seconds: f64) -> std::io::Result<Window> {
    gen.window(conn, QUERY_RATE, seconds, DRAIN)
}

/// Connects to the daemon and sends the status request; checks it serves the
/// expected population.
fn connect(addr: SocketAddr, n_users: usize, report: &mut Report) -> std::io::Result<Conn> {
    let mut conn = Conn::connect(addr)?;
    let line = conn.request("{}")?;
    let status: Result<StatusResponse, _> = serde_json::from_str(&line);
    report.check(status.as_ref().is_ok_and(|s| s.n_users == n_users), || {
        format!("status `{line}` does not serve {n_users} users")
    });
    Ok(conn)
}

/// Per-slice p50 and p99 of a window's answered queries, the slices cut by
/// scheduled send time and long enough to hold 1000 queries, so each p99
/// has ten samples beyond it.
fn slice_percentiles(window: &Window) -> Vec<(f64, f64)> {
    let slice_s = (1000.0 / window.rate).max(1.0);
    let n_slices = (window.seconds / slice_s).floor().max(1.0) as usize;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); n_slices];
    for a in &window.answers {
        let i = ((a.sched_s / slice_s) as usize).min(n_slices - 1);
        slices[i].push(a.latency_us);
    }
    slices
        .iter()
        .filter(|s| s.len() >= 100)
        .map(|s| {
            (
                stats::percentile(s, 0.5).map_or(f64::NAN, |p| p.value),
                stats::percentile(s, 0.99).map_or(f64::NAN, |p| p.value),
            )
        })
        .collect()
}

/// Offers one ladder rung; returns whether it passed, how many responses
/// failed validation, and a line for the report.
fn probe(
    conn: &mut Conn,
    gen: &mut Generator,
    rate: f64,
) -> std::io::Result<(bool, usize, String)> {
    let w = gen.window(conn, rate, RUNG_SECONDS, DRAIN)?;
    let limit_us = LIMIT.as_secs_f64() * 1e6;
    let result = ProbeResult {
        sent: w.sent,
        answered_in_time: w.answers.iter().filter(|a| a.latency_us < limit_us).count(),
        p99_us: stats::percentile(&w.latencies_with_misses(), 0.99)
            .map_or(f64::INFINITY, |p| p.value),
    };
    let pass = stats::rung_passes(&result, limit_us);
    let line = format!(
        "{rate:.0}/s {} (p99 {:.0} us, {}/{} in time)",
        if pass { "pass" } else { "fail" },
        result.p99_us,
        result.answered_in_time,
        result.sent
    );
    Ok((pass, w.failed, line))
}

/// Counts a window's queries into the run; failed ones fail it.
fn count_window(w: &Window, report: &mut Report) {
    report.count(w.sent, w.failed);
    if let Some(e) = &w.first_failure {
        report.note(format!("first failed response: {e}"));
    }
}

/// The `max_qps` ladder search. A rung fails only when two probes in a row
/// fail it, so one stall on a host with steal does not end the search below
/// the knee. Responses that fail validation fail the run.
fn max_qps(conn: &mut Conn, gen: &mut Generator, report: &mut Report) -> std::io::Result<f64> {
    let ladder = ladder();
    let mut failed = 0;
    let mut probes = Vec::new();
    let mut io_error = None;
    let top = stats::highest_passing_rung(ladder.len(), |i| {
        for _ in 0..2 {
            if io_error.is_some() {
                return false;
            }
            match probe(conn, gen, ladder[i]) {
                Ok((pass, bad, line)) => {
                    failed += bad;
                    probes.push(line);
                    if pass {
                        return true;
                    }
                }
                Err(e) => io_error = Some(e),
            }
        }
        false
    });
    if let Some(e) = io_error {
        return Err(e);
    }
    report.check(failed == 0, || {
        format!("{failed} ladder responses failed validation")
    });
    report.note(format!("ladder probes: {}", probes.join("; ")));
    Ok(top.map_or(0.0, |i| ladder[i]))
}

/// Prints a fixed-rate window's latency and `max_qps`. They are not end to
/// end: the cells serve no queries, and on a 2-vCPU guest they follow
/// hypervisor steal too closely to gate on.
fn report_queries(w: &Window, max_qps: f64, report: &Report) {
    let slices = slice_percentiles(w);
    let p50s: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let p99s: Vec<f64> = slices.iter().map(|s| s.1).collect();
    let how = format!(
        "open loop at {:.0}/s for {:.0} s, median over {} slices of the slice percentile, {} answered of {} sent",
        w.rate,
        w.seconds,
        slices.len(),
        w.answers.len(),
        w.sent
    );
    report.info(
        "query_p50_us",
        stats::median(&p50s).unwrap_or(f64::NAN),
        "us",
        &how,
    );
    report.info(
        "query_p99_us",
        stats::median(&p99s).unwrap_or(f64::NAN),
        "us",
        &how,
    );
    report.info(
        "max_qps",
        max_qps,
        "req/s",
        format!(
            "highest ladder rung with >= 99% answered within {} ms, two probes per failed rung",
            LIMIT.as_millis()
        ),
    );
}

/// Prints the generator's own numbers for a window.
fn report_loadgen(w: &Window, report: &Report) {
    let late = stats::percentile(&w.late_us, 0.99);
    report.info(
        "loadgen.late_us_p99",
        late.map_or(f64::NAN, |p| p.value),
        "us",
        late.map_or_else(String::new, |p| format!("sends, {}", p.note())),
    );
    report.info("loadgen.sent", w.sent as f64, "count", "fixed-rate window");
    report.info(
        "loadgen.answered",
        w.answers.len() as f64,
        "count",
        "valid responses",
    );
    report.info(
        "loadgen.failed",
        w.failed as f64,
        "count",
        "error or invalid responses",
    );
}

/// Times `respond_line` on the live snapshot with no socket, derives how
/// much of the window's open-loop p50 is waiting, and prints both.
fn report_respond(router: &Router, gen: &mut Generator, window: &Window, report: &Report) {
    let latencies: Vec<f64> = window.answers.iter().map(|a| a.latency_us).collect();
    let query_p50_us = stats::median(&latencies).unwrap_or(f64::NAN);
    let us = repeat(2000, 1.0, 50_000, || {
        let line = format!("{{\"user\":{},\"k\":10}}", gen.user());
        let t = now();
        let out = frs_serve::respond_line(&line, router);
        let us = t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(out);
        us
    });
    let p50 = stats::percentile(&us, 0.5).map_or(f64::NAN, |p| p.value);
    let p99 = stats::percentile(&us, 0.99);
    let how = format!("respond_line without a socket, {} calls", us.len());
    report.info("serve.respond_us_p50", p50, "us", &how);
    report.info(
        "serve.respond_us_p99",
        p99.map_or(f64::NAN, |p| p.value),
        "us",
        p99.map_or(how, |p| {
            format!("respond_line without a socket, {}", p.note())
        }),
    );
    report.info(
        "serve.wait_us_p50",
        query_p50_us - p50,
        "us",
        "open-loop query p50 minus respond p50",
    );
}

/// Boots `serve_scenarios`, returns the time from the call to the first
/// answered status request, runs `during` against the live daemon, then
/// shuts the session down and waits for it.
fn session<T>(
    seed: u64,
    report: &mut Report,
    during: impl FnOnce(&mut Conn, &mut Report) -> std::io::Result<T>,
) -> std::io::Result<(f64, T)> {
    let spec = ServeScenarioSpec {
        name: WORKLOAD.name().into(),
        cfg: {
            let mut cfg = WORKLOAD.config(seed);
            cfg.rounds = usize::MAX;
            cfg
        },
    };
    let n_users = spec.cfg.dataset.n_users;
    let bound = OnceLock::new();
    let budget = CoreBudget::new(BUDGET_CORES);
    let opts = ServeOptions {
        tcp: Some("127.0.0.1:0"),
        tcp_bound: Some(&bound),
        ..ServeOptions::default()
    };
    shutdown::reset();
    std::thread::scope(|scope| {
        let start = now();
        let daemon = scope.spawn(|| serve_scenarios(vec![spec], &opts, &budget));
        let result = (|| {
            let addr = loop {
                if let Some(addr) = bound.get() {
                    break *addr;
                }
                if daemon.is_finished() {
                    return Err(std::io::Error::other("serve_scenarios exited during boot"));
                }
                std::thread::sleep(Duration::from_micros(200));
            };
            let mut conn = connect(addr, n_users, report)?;
            let setup_s = start.elapsed().as_secs_f64();
            Ok((setup_s, during(&mut conn, report)?))
        })();
        shutdown::trigger();
        let summary = daemon.join().expect("serve_scenarios panicked");
        shutdown::reset();
        let summary = summary.map_err(std::io::Error::other)?;
        report.check(summary.scenarios[0].rounds_done > 0, || {
            "the session trained no round".into()
        });
        result
    })
}

/// Seconds per round from the round changes one window's responses showed.
fn round_times_seen(w: &Window) -> Vec<f64> {
    w.round_changes
        .windows(2)
        .filter(|c| c[1].1 > c[0].1)
        .map(|c| (c[1].0 - c[0].0) / (c[1].1 - c[0].1) as f64)
        .collect()
}

/// Untraced runs boot this many sessions, each measured for an equal
/// share of the window, so set-up and round times are sampled across the
/// whole run.
const SESSIONS: usize = 5;

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> std::io::Result<()> {
    if traced {
        return run_traced(seed, seconds, report);
    }
    let steal_from = host::read_cpu_times();
    // The generator needs each user's count of unseen items: build the
    // sessions' world once here, before any boot.
    let mut gen = {
        let (_full, split, _targets) = build_world(&WORKLOAD.config(seed));
        Generator::new(&split.train, seed)
    };
    // Only the evaluation is scaled to the reference kernel's speed: like
    // the kernel it is single-threaded compute. Boot and the trainer step
    // are page faults and 64 MiB copies on both cores, which the kernel
    // does not track (scaling tripled their run-to-run spread).
    let mut speed = HostSpeed::new();
    let mut evals = Samples::default();
    let (mut setups, mut round_times) = (Vec::new(), Vec::new());
    let mut slices = Vec::new();
    // The generator's world is dropped: the peak starts from here.
    let peak_reset = host::reset_peak_rss();
    let mut peak_rss_mib = None;
    let mut pinned = None;
    let mut outputs = Vec::new();
    for _ in 0..SESSIONS {
        let (setup_s, window) = session(seed, report, |conn, _| {
            fixed_window(conn, &mut gen, seconds / SESSIONS as f64)
        })?;
        count_window(&window, report);
        slices.extend(slice_percentiles(&window));
        // The first session's peak is the workload's own: later sessions
        // reuse freed heap unevenly across the threads' malloc arenas, and
        // the pinned state, built only now, stays resident beside them.
        peak_rss_mib.get_or_insert_with(host::peak_rss_mib);
        let p = pinned.get_or_insert_with(|| Pinned::build(WORKLOAD, None));
        setups.push(setup_s);
        round_times.extend(round_times_seen(&window));
        // The host's speed moves within seconds here: a reading before and
        // after each evaluation scales it by its own bracket.
        speed.close_stretch();
        for (e, scale) in repeat(2, 1.2, 31, || (p.evaluate(), speed.close_stretch())) {
            evals.add(&[e.total_s()], scale);
            outputs.push(e);
        }
    }
    pinned.expect("a session ran").check(&outputs, report);
    phases::report_scaled(
        "eval_s",
        "s",
        &evals,
        false,
        "user_embeddings + ExposureReport + QualityReport of the pinned state's stride sample",
        report,
    );
    let (m, how) = median_of(&setups);
    report.metric(
        "setup_s",
        m,
        "s",
        format!("serve_scenarios call to the first answered status request, {how}"),
    );
    let (m, how) = median_of(&round_times);
    report.metric(
        "rounds_per_s",
        1.0 / m,
        "rounds/s",
        format!(
            "trainer rounds with their publish under {:.0} queries/s, seen in responses; 1 / {how}",
            QUERY_RATE
        ),
    );
    let how = format!(
        "open loop at {:.0}/s while training, median over {} one-second slices of the slice percentile",
        QUERY_RATE,
        slices.len()
    );
    let p50s: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let p99s: Vec<f64> = slices.iter().map(|s| s.1).collect();
    report.info(
        "query_p50_us",
        stats::median(&p50s).unwrap_or(f64::NAN),
        "us",
        &how,
    );
    report.info(
        "query_p99_us",
        stats::median(&p99s).unwrap_or(f64::NAN),
        "us",
        &how,
    );
    report.metric(
        "peak_rss_mib",
        peak_rss_mib.unwrap_or(f64::NAN),
        "MiB",
        if peak_reset {
            "VmHWM over the first session"
        } else {
            "VmHWM of the process after its first session: the kernel refused the peak reset"
        },
    );
    phases::report_host(steal_from, &speed, false, report);
    Ok(())
}

/// One trainer step of the replicated session: the round, then its publish.
struct Step {
    round: Round,
    publish_s: f64,
}

/// One trainer step: the round, then its publish, as `serve_scenarios`'
/// trainer does. Width 1 keeps the whole round on this thread, so its CPU
/// clock is the round's.
fn step(
    sim: &mut Simulation,
    meters: Option<&Meters>,
    handle: &ScenarioHandle,
    train: &Arc<frs_data::Dataset>,
) -> Step {
    let round = rounds::timed_round(sim, meters, host::thread_cpu);
    let t = now();
    handle.publish(Snapshot::new(
        sim.rounds_done(),
        false,
        sim.model().clone(),
        sim.user_embeddings(),
        Arc::clone(train),
    ));
    Step {
        round,
        publish_s: t.elapsed().as_secs_f64(),
    }
}

/// The traced and the plain simulation of one seed, trained step for step
/// so both see the same host and query load.
struct Trainers<'a> {
    traced: &'a mut Simulation,
    plain: &'a mut Simulation,
    meters: &'a Meters,
    handle: &'a ScenarioHandle,
    train: &'a Arc<frs_data::Dataset>,
}

impl Trainers<'_> {
    /// Trains pairs of steps, each simulation leading every other pair,
    /// while `queries` drives the daemon; stops after the pair in flight
    /// when `queries` returns. Returns the traced and the plain steps.
    fn run<T>(
        &mut self,
        queries: impl FnOnce() -> std::io::Result<T>,
    ) -> std::io::Result<(Vec<Step>, Vec<Step>, T)> {
        let stop = AtomicBool::new(false);
        let Self {
            traced,
            plain,
            meters,
            handle,
            train,
        } = self;
        std::thread::scope(|scope| {
            let steps = scope.spawn(|| {
                let (mut t, mut p) = (Vec::new(), Vec::new());
                while !stop.load(Ordering::SeqCst) {
                    if t.len() % 2 == 0 {
                        t.push(step(traced, Some(meters), handle, train));
                        p.push(step(plain, None, handle, train));
                    } else {
                        p.push(step(plain, None, handle, train));
                        t.push(step(traced, Some(meters), handle, train));
                    }
                }
                (t, p)
            });
            let out = queries();
            stop.store(true, Ordering::SeqCst);
            let (t, p) = steps.join().expect("trainer panicked");
            Ok((t, p, out?))
        })
    }
}

fn round_rate(steps: &[Step]) -> f64 {
    let walls: Vec<f64> = steps.iter().map(|s| s.round.wall_s).collect();
    1.0 / stats::median(&walls).unwrap_or(f64::NAN)
}

fn run_traced(seed: u64, seconds: f64, report: &mut Report) -> std::io::Result<()> {
    let steal_from = host::read_cpu_times();
    let mut speed = HostSpeed::new();
    let meters = Arc::new(Meters::default());
    let pinned = Pinned::build(WORKLOAD, Some(&meters));
    let evals = repeat(3, 2.0, 31, || pinned.evaluate());
    pinned.check(&evals, report);
    drop(pinned);
    phases::report_eval_layers(&evals, report);

    let cfg = WORKLOAD.config(seed);
    let mut world_ms = Vec::new();
    let mut sim_ms = Vec::new();
    let mut built = None;
    let _ = repeat(3, 0.0, 3, || {
        built = None;
        let t = now();
        let (full, split, targets) = build_world(&cfg);
        drop(full);
        let train = Arc::new(split.train.clone());
        world_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = now();
        let sim = build_traced_simulation(&cfg, Arc::clone(&train), &targets, &meters);
        sim_ms.push(t.elapsed().as_secs_f64() * 1e3);
        built = Some((train, targets, sim));
    });
    let (m, how) = median_of(&world_ms);
    report.metric("data.build_world_ms", m, "ms", how);
    let (m, how) = median_of(&sim_ms);
    report.metric("scenario.build_sim_ms", m, "ms", how);
    let (train, targets, mut sim) = built.expect("a build ran");

    // Boot as serve_scenarios does: the initial snapshot, the router, then
    // the listener, whose lease is taken before the trainer's.
    let budget = CoreBudget::new(BUDGET_CORES);
    let t = now();
    let handle = Arc::new(ScenarioHandle::new(
        WORKLOAD.name(),
        Snapshot::new(
            0,
            false,
            sim.model().clone(),
            sim.user_embeddings(),
            Arc::clone(&train),
        ),
    ));
    let router = Arc::new(Router::new(vec![Arc::clone(&handle)]).map_err(std::io::Error::other)?);
    let server = frs_serve::spawn_tcp("127.0.0.1:0", Arc::clone(&router), budget.lease())?;
    report.info(
        "serve.boot_snapshot_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
        "initial snapshot, router and listener",
    );
    let addr = server.local_addr().expect("tcp daemon has an address");
    // Under `Auto` the trainer's lease, taken after the daemon's, grants
    // width 1, as in serve_scenarios; the plain twin without a lease runs
    // at width 1 too.
    sim.set_core_lease(Some(budget.lease()));
    let mut plain = build_simulation(&cfg, Arc::clone(&train), &targets);
    let mut gen = Generator::new(&train, seed);
    let mut conn = connect(addr, train.n_users(), report)?;
    let mut trainers = Trainers {
        traced: &mut sim,
        plain: &mut plain,
        meters: &meters,
        handle: &handle,
        train: &train,
    };
    meters.reset();
    let (steps, plain_steps, window) =
        trainers.run(|| fixed_window(&mut conn, &mut gen, seconds / 2.0))?;
    count_window(&window, report);
    let (_, _, max_qps) = trainers.run(|| max_qps(&mut conn, &mut gen, report))?;
    drop(conn);

    let publish_ms: Vec<f64> = steps.iter().map(|s| s.publish_s * 1e3).collect();
    let (traced_rate, plain_rate) = (round_rate(&steps), round_rate(&plain_steps));
    let rounds: Vec<Round> = steps.into_iter().map(|s| s.round).collect();
    rounds::report_round_layers(&rounds, report);
    let (m, how) = median_of(&publish_ms);
    report.info(
        "serve.publish_ms_p50",
        m,
        "ms",
        format!("Snapshot::new + publish, {how}"),
    );
    report.info(
        "serve.publish_bytes",
        ((train.n_users() + sim.model().n_items()) * sim.model().dim() * 4) as f64,
        "bytes",
        "user embeddings and item table copied per publish",
    );
    report.metric(
        "trace.overhead_share",
        plain_rate / traced_rate - 1.0,
        "ratio",
        format!("untraced {plain_rate:.3} vs traced {traced_rate:.3} rounds/s, alternating steps"),
    );
    let users: Vec<usize> = (0..train.n_users()).step_by(100).collect();
    let digest = |sim: &Simulation| crate::workload::state_digest(sim, &users);
    let (traced_digest, plain_digest) = (digest(&sim), digest(&plain));
    report.check(traced_digest == plain_digest, || {
        format!("traced state {traced_digest} != untraced {plain_digest}")
    });
    report.note(format!(
        "traced and untraced trainers of {} rounds each end on digest {plain_digest}",
        sim.rounds_done()
    ));
    drop(plain);
    report_queries(&window, max_qps, report);
    report_respond(&router, &mut gen, &window, report);
    report.info(
        "serve.epochs",
        handle.status().epoch as f64,
        "count",
        "snapshots published",
    );
    let answered = server.shutdown();
    report.info(
        "serve.queries_answered",
        answered as f64,
        "count",
        "daemon counter",
    );
    report_loadgen(&window, report);
    speed.close_stretch();
    phases::report_host(steal_from, &speed, true, report);
    Ok(())
}
