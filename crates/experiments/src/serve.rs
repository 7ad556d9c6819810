//! `paper serve`: train (or resume) one or more scenarios while answering
//! top-K recommendation queries on a Unix socket and/or a TCP listener.
//!
//! This is the orchestration between the experiment layer and the
//! [`frs_serve`] subsystem: build each scenario as a [`ScenarioRun`],
//! resume it from any cache checkpoint for its key, publish a model
//! [`Snapshot`] at every round boundary, and keep the daemon answering
//! until a SIGINT/SIGTERM. One
//! round-robin trainer advances every unfinished scenario a round at a
//! time, handing a single [`CoreBudget`] lease to whichever simulation is
//! currently training — idle scenarios hold no budget width — while the
//! daemon's worker pool holds its own lease, so query handling and
//! intra-round fan-out split the `--threads` grant fairly.
//!
//! Lifecycle:
//!
//! 1. Listeners open immediately — queries are answerable from the restored
//!    round (or round zero) onward, concurrently with training. Requests
//!    route by `{"scenario":NAME}`; the first `--scenario` is the default.
//! 2. Every round publishes a fresh snapshot; with `--checkpoint-every N`
//!    the run also persists a
//!    [`ScenarioCheckpoint`](crate::scenario::ScenarioCheckpoint) every N
//!    rounds per scenario (rotating `--keep-checkpoints` generations), and
//!    with `--probe-every M` it publishes a stride-sampled ER@K/HR@K probe
//!    through the status endpoint. Checkpoints carry the scenario's trend
//!    points, so a served scenario may sample a trend and share its cache
//!    key with a suite cell.
//! 3. A shutdown request mid-training writes final checkpoints, drains
//!    in-flight queries, and returns; re-running the same command resumes
//!    each scenario where it stopped.
//! 4. A run that trains to completion keeps serving (and keeps its final
//!    checkpoints on disk as the serving artifacts — `cache gc` leaves
//!    fresh checkpoints alone) until a shutdown request arrives.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Duration;

use frs_federation::CoreBudget;
use frs_model::ModelKind;
use frs_serve::{ProbeStatus, Router, ScenarioHandle, Snapshot};

use crate::cache::{scenario_key, SuiteCache};
use crate::presets::PaperDataset;
use crate::scenario::{stride_sample, ScenarioConfig, ScenarioRun};
use crate::shutdown;
use crate::suite::RunOptions;

/// How the serve loop idles between shutdown-flag polls once training is
/// done (or while draining).
const IDLE_POLL: Duration = Duration::from_millis(50);

/// One scenario a serve session hosts: its routing name plus the full
/// experiment config it trains.
#[derive(Debug, Clone)]
pub struct ServeScenarioSpec {
    /// Routing key (`{"scenario":NAME}` on the wire).
    pub name: String,
    pub cfg: ScenarioConfig,
}

impl ServeScenarioSpec {
    /// Resolves one `--scenario [name=]mf|ncf` spec, or the bare positional
    /// model operand, into the scenario `RunOptions::scenario` builds on
    /// ML-100K for 200 rounds. Every scenario of a session shares `opts`;
    /// the model kind is what varies.
    pub fn parse(spec: &str, opts: &RunOptions) -> Result<Self, String> {
        let (name, model) = match spec.split_once('=') {
            Some((name, model)) if !name.is_empty() => (name, model),
            Some(_) => return Err(format!("bad --scenario `{spec}`: empty name")),
            None => (spec, spec),
        };
        let kind = match model {
            "mf" => ModelKind::Mf,
            "ncf" => ModelKind::Ncf,
            other => {
                return Err(format!(
                    "bad --scenario `{spec}`: unknown model `{other}`; use mf|ncf"
                ))
            }
        };
        Ok(Self {
            name: name.to_string(),
            cfg: opts.scenario(PaperDataset::Ml100k, kind, 200),
        })
    }
}

/// Session-wide knobs for [`serve_scenarios`], orthogonal to the scenario
/// list. At least one of `socket`/`tcp` must be set.
#[derive(Default)]
pub struct ServeOptions<'a> {
    /// Unix socket path to listen on.
    pub socket: Option<&'a Path>,
    /// TCP bind address (e.g. `127.0.0.1:7411`; port 0 for ephemeral).
    pub tcp: Option<&'a str>,
    /// Checkpoint cache; `None` trains from scratch and persists nothing.
    pub cache: Option<&'a SuiteCache>,
    /// Rounds between periodic checkpoints per scenario (0 = final only).
    pub checkpoint_every: usize,
    /// Checkpoint generations retained per scenario (≤ 1 = newest only).
    pub keep_checkpoints: usize,
    /// Rounds between online ER@K/HR@K probes (0 = no probes).
    pub probe_every: usize,
    /// When set, receives the bound TCP address as soon as the listener is
    /// up (before training starts) — how callers learn an ephemeral port.
    pub tcp_bound: Option<&'a OnceLock<SocketAddr>>,
}

/// Per-scenario slice of a session's exit report.
#[derive(Debug, Clone)]
pub struct ScenarioServeSummary {
    pub name: String,
    /// Rounds completed when the session ended.
    pub rounds_done: usize,
    /// The scenario's configured round target.
    pub target_rounds: usize,
    /// Round the session resumed from (`None` = fresh start).
    pub resumed_from: Option<usize>,
    /// Top-K queries this scenario answered.
    pub queries_served: u64,
}

/// What a serve session did, for the CLI's exit report.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// One entry per hosted scenario, registration order.
    pub scenarios: Vec<ScenarioServeSummary>,
    /// Top-K queries answered across all scenarios and transports.
    pub queries_served: u64,
    /// Whether a shutdown request stopped training before every target.
    pub interrupted: bool,
    /// The bound TCP address, when a TCP listener was requested.
    pub tcp_addr: Option<SocketAddr>,
}

/// One hosted scenario: its run, cache key and serving handle, plus the
/// round the session resumed it from.
struct Hosted {
    key: String,
    run: ScenarioRun,
    handle: Arc<ScenarioHandle>,
    start: usize,
}

impl Hosted {
    fn checkpoint(&self, opts: &ServeOptions<'_>) {
        if let Some(cache) = opts.cache {
            self.run.checkpoint(cache, &self.key, opts.keep_checkpoints);
        }
    }
}

/// The serving snapshot of a run's current round. The model clone shares
/// the item table; the next round's apply copies it before writing.
fn snapshot(run: &ScenarioRun) -> Snapshot {
    let done = run.rounds_done();
    Snapshot::new(
        done,
        done >= run.cfg.rounds,
        run.sim.model().clone(),
        run.sim.user_embeddings(),
        Arc::clone(&run.train),
    )
}

/// Runs the serve session: trains every spec toward its round target
/// (resuming from cache checkpoints where they exist), serving top-K
/// queries on the requested listeners the whole time, until a [`shutdown`]
/// request. See the module docs for the lifecycle. Blocks until shutdown;
/// returns the session summary after the daemon has drained.
pub fn serve_scenarios(
    specs: Vec<ServeScenarioSpec>,
    opts: &ServeOptions<'_>,
    budget: &CoreBudget,
) -> Result<ServeSummary, String> {
    if specs.is_empty() {
        return Err("serve needs at least one scenario".into());
    }
    if opts.socket.is_none() && opts.tcp.is_none() {
        return Err("serve needs at least one listener (--socket and/or --tcp)".into());
    }

    // Build every scenario's world and simulation, restoring checkpoints.
    // The trainer below hands its one lease around, so no run leases its
    // own.
    let mut hosted: Vec<Hosted> = Vec::with_capacity(specs.len());
    for spec in specs {
        let key = scenario_key(&spec.cfg);
        let mut run = ScenarioRun::new(spec.cfg, None);
        if let Some(cache) = opts.cache {
            run.resume(cache, &key);
        }
        let handle = Arc::new(ScenarioHandle::new(spec.name, snapshot(&run)));
        hosted.push(Hosted {
            key,
            start: run.rounds_done(),
            run,
            handle,
        });
    }

    let router = Arc::new(
        Router::new(hosted.iter().map(|c| Arc::clone(&c.handle)).collect())
            .map_err(|e| format!("invalid scenario set: {e}"))?,
    );

    // Listeners come up before training starts: queries are answerable from
    // the restored rounds onward.
    let mut servers = Vec::new();
    if let Some(socket) = opts.socket {
        let server = frs_serve::spawn(socket, Arc::clone(&router), budget.lease())
            .map_err(|e| format!("cannot serve on {}: {e}", socket.display()))?;
        eprintln!("serve: listening on unix {}", socket.display());
        servers.push(server);
    }
    let mut tcp_addr = None;
    if let Some(addr) = opts.tcp {
        let server = frs_serve::spawn_tcp(addr, Arc::clone(&router), budget.lease())
            .map_err(|e| format!("cannot serve on tcp {addr}: {e}"))?;
        let bound = server.local_addr().expect("tcp server has a bound address");
        eprintln!("serve: listening on tcp {bound}");
        if let Some(slot) = opts.tcp_bound {
            let _ = slot.set(bound);
        }
        tcp_addr = Some(bound);
        servers.push(server);
    }

    // Round-robin trainer: one lease travels to whichever simulation is
    // actually training, so idle scenarios never dilute the budget shares.
    let mut trainer_lease = Some(budget.lease());
    'train: loop {
        let mut advanced = false;
        for cell in &mut hosted {
            let target = cell.run.cfg.rounds;
            if cell.run.rounds_done() >= target {
                continue;
            }
            if shutdown::requested() {
                break 'train;
            }
            cell.run.sim.set_core_lease(trainer_lease.take());
            cell.run.round();
            trainer_lease = cell.run.sim.take_core_lease();
            cell.handle.publish(snapshot(&cell.run));
            let done = cell.run.rounds_done();
            if opts.checkpoint_every > 0
                && done.is_multiple_of(opts.checkpoint_every)
                && done < target
            {
                cell.checkpoint(opts);
            }
            if opts.probe_every > 0 && done.is_multiple_of(opts.probe_every) {
                // Timing-free: identical state yields identical probes.
                let eval = cell.run.evaluate(&stride_sample(cell.run.train.n_users()));
                cell.handle.set_probe(ProbeStatus {
                    round: done,
                    er_percent: eval.er_percent,
                    hr_percent: eval.hr_percent,
                });
            }
            advanced = true;
        }
        if !advanced {
            break;
        }
    }
    // The final state is always worth a checkpoint: interrupted runs resume
    // from it, completed runs reload it instantly on the next serve.
    for cell in &hosted {
        if cell.run.rounds_done() > cell.start || cell.start == 0 {
            cell.checkpoint(opts);
        }
    }
    let interrupted = hosted
        .iter()
        .any(|c| c.run.rounds_done() < c.run.cfg.rounds);
    drop(trainer_lease); // return the trainer's share to the daemon

    // Serve until asked to stop (immediately, if the interrupt already
    // arrived mid-training).
    while !shutdown::requested() {
        std::thread::sleep(IDLE_POLL);
    }
    for server in servers {
        server.shutdown();
    }

    Ok(ServeSummary {
        scenarios: hosted
            .iter()
            .map(|c| ScenarioServeSummary {
                name: c.handle.name().to_string(),
                rounds_done: c.run.rounds_done(),
                target_rounds: c.run.cfg.rounds,
                resumed_from: (c.start > 0).then_some(c.start),
                queries_served: c.handle.queries_served(),
            })
            .collect(),
        queries_served: router.queries_served(),
        interrupted,
        tcp_addr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    use frs_data::DatasetSpec;
    use frs_model::ModelKind;
    use frs_serve::{StatusResponse, TopKResponse};

    fn tiny_cfg(rounds: usize, seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, seed);
        cfg.federation.clients_per_round = frs_federation::ClientsPerRound::Count(24);
        cfg.rounds = rounds;
        cfg
    }

    #[test]
    fn scenario_specs_take_the_shared_run_flags() {
        use frs_federation::ClientsPerRound;

        let defaults = RunOptions::default();
        let plain = ServeScenarioSpec::parse("mf", &defaults).unwrap();
        assert_eq!(plain.name, "mf");
        let (scale, seed) = (defaults.scale, defaults.seed);
        let mut want =
            crate::presets::paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, scale, seed);
        want.rounds = 200;
        assert_eq!(plain.cfg.canonical_json(), want.canonical_json());

        let opts = RunOptions {
            clients_per_round: Some(ClientsPerRound::Count(5)),
            ..RunOptions::default()
        };
        let sampled = ServeScenarioSpec::parse("b=ncf", &opts).unwrap();
        assert_eq!(sampled.name, "b");
        assert_eq!(sampled.cfg.model.kind, ModelKind::Ncf);
        assert_eq!(
            sampled.cfg.federation.clients_per_round,
            ClientsPerRound::Count(5)
        );
        let sampled_mf = ServeScenarioSpec::parse("mf", &opts).unwrap();
        assert_ne!(scenario_key(&sampled_mf.cfg), scenario_key(&plain.cfg));

        for bad in ["=mf", "a=svd", "gru"] {
            assert!(ServeScenarioSpec::parse(bad, &opts).is_err(), "{bad}");
        }
    }

    fn temp_cache(tag: &str) -> SuiteCache {
        let dir = std::env::temp_dir().join(format!("frs-serve-cmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SuiteCache::open(dir).unwrap()
    }

    fn socket_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("frs-serve-cmd-{tag}-{}.sock", std::process::id()))
    }

    fn query<S: Read + Write>(stream: &mut S, reader: &mut BufReader<S>, line: &str) -> String {
        writeln!(stream, "{line}").unwrap();
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        out.trim().to_string()
    }

    /// Connects to the session's socket once it listens. The file appears
    /// at `bind(2)`, before `listen(2)`: a connect in between is refused,
    /// and one before the bind finds no file. Both retry until a deadline.
    fn connect_when_listening(socket: &Path) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(socket) {
                Ok(stream) => return stream,
                Err(e)
                    if matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::NotFound)
                        && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("connect {}: {e}", socket.display()),
            }
        }
    }

    /// Requests a shutdown when a test panics inside its `thread::scope`.
    /// The scope joins the serve session before it re-raises the panic,
    /// and the session returns only on a shutdown request, so without this
    /// a failing test would hang instead of failing.
    struct ShutdownOnPanic;

    impl Drop for ShutdownOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                shutdown::trigger();
            }
        }
    }

    #[test]
    fn serves_queries_during_training_then_drains_on_shutdown() {
        let _guard = shutdown::test_lock();
        shutdown::reset();
        let cfg = tiny_cfg(40, 21);
        let cache = temp_cache("during");
        let socket = socket_path("during");
        let budget = CoreBudget::new(2);

        let session = std::thread::scope(|scope| {
            let _stop = ShutdownOnPanic;
            let worker = scope.spawn(|| {
                serve_scenarios(
                    vec![ServeScenarioSpec {
                        name: "only".into(),
                        cfg: cfg.clone(),
                    }],
                    &ServeOptions {
                        socket: Some(&socket),
                        cache: Some(&cache),
                        checkpoint_every: 5,
                        keep_checkpoints: 1,
                        probe_every: 10,
                        ..ServeOptions::default()
                    },
                    &budget,
                )
                .unwrap()
            });

            // The socket comes up while training runs; queries answer
            // against whatever epoch is current.
            let mut stream = connect_when_listening(&socket);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let status: StatusResponse =
                serde_json::from_str(&query(&mut stream, &mut reader, "{}")).unwrap();
            assert!(status.n_users > 0);
            assert_eq!(status.scenarios.len(), 1);
            let top: TopKResponse =
                serde_json::from_str(&query(&mut stream, &mut reader, "{\"user\":0,\"k\":3}"))
                    .unwrap();
            assert_eq!(top.items.len(), 3);
            assert_eq!(top.scenario, "only");

            shutdown::trigger();
            let session = worker.join().unwrap();
            shutdown::reset();
            session
        });

        assert!(session.queries_served >= 1);
        assert_eq!(session.scenarios.len(), 1);
        assert!(!socket.exists(), "socket removed on shutdown");
        // The final state left a resumable checkpoint.
        let key = scenario_key(&cfg);
        assert!(cache.load_checkpoint(&key).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn two_scenarios_train_serve_and_probe_over_tcp() {
        let _guard = shutdown::test_lock();
        shutdown::reset();
        let cfg_a = tiny_cfg(6, 21);
        let cfg_b = tiny_cfg(4, 22);
        let cache = temp_cache("two");
        let budget = CoreBudget::new(2);
        let bound = OnceLock::new();

        let session = std::thread::scope(|scope| {
            let _stop = ShutdownOnPanic;
            let worker = scope.spawn(|| {
                serve_scenarios(
                    vec![
                        ServeScenarioSpec {
                            name: "a/mf".into(),
                            cfg: cfg_a.clone(),
                        },
                        ServeScenarioSpec {
                            name: "b/mf".into(),
                            cfg: cfg_b.clone(),
                        },
                    ],
                    &ServeOptions {
                        tcp: Some("127.0.0.1:0"),
                        cache: Some(&cache),
                        checkpoint_every: 2,
                        keep_checkpoints: 2,
                        probe_every: 2,
                        tcp_bound: Some(&bound),
                        ..ServeOptions::default()
                    },
                    &budget,
                )
                .unwrap()
            });

            let addr = loop {
                if let Some(addr) = bound.get() {
                    break *addr;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());

            // Wait for both scenarios to finish training, watching the
            // multi-scenario status shape.
            loop {
                let status: StatusResponse =
                    serde_json::from_str(&query(&mut stream, &mut reader, "{}")).unwrap();
                assert_eq!(status.scenarios.len(), 2);
                if status.scenarios.iter().all(|s| s.training_done) {
                    // Probes were due at rounds 2/4/6 — published through
                    // status, round-stamped, with finite values.
                    for s in &status.scenarios {
                        let probe = s.probe.as_ref().expect("probe published");
                        assert!(probe.round > 0 && probe.round % 2 == 0);
                        assert!(probe.er_percent.is_finite() && probe.hr_percent.is_finite());
                    }
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }

            // Route a query to each scenario by name.
            let a: TopKResponse = serde_json::from_str(&query(
                &mut stream,
                &mut reader,
                "{\"scenario\":\"a/mf\",\"user\":1,\"k\":2}",
            ))
            .unwrap();
            assert_eq!((a.scenario.as_str(), a.round), ("a/mf", 6));
            let b: TopKResponse = serde_json::from_str(&query(
                &mut stream,
                &mut reader,
                "{\"scenario\":\"b/mf\",\"user\":1,\"k\":2}",
            ))
            .unwrap();
            assert_eq!((b.scenario.as_str(), b.round), ("b/mf", 4));

            drop(stream);
            shutdown::trigger();
            let session = worker.join().unwrap();
            shutdown::reset();
            session
        });

        assert!(!session.interrupted);
        assert_eq!(session.tcp_addr, Some(*bound.get().unwrap()));
        assert_eq!(session.scenarios.len(), 2);
        assert_eq!(session.scenarios[0].rounds_done, 6);
        assert_eq!(session.scenarios[1].rounds_done, 4);
        assert!(session.scenarios.iter().all(|s| s.queries_served >= 1));

        // Both scenarios checkpointed, with a rotated generation each
        // (keep_checkpoints = 2 and several checkpoint writes per cell).
        assert!(cache.load_checkpoint(&scenario_key(&cfg_a)).is_some());
        assert!(cache.load_checkpoint(&scenario_key(&cfg_b)).is_some());
        assert_eq!(cache.stats().unwrap().checkpoints, 4);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn served_checkpoints_carry_the_run_trend() {
        let _guard = shutdown::test_lock();
        shutdown::reset();
        let mut cfg = tiny_cfg(6, 23);
        cfg.trend_every = 2;
        let cache = temp_cache("trend");
        let socket = socket_path("trend");
        let budget = CoreBudget::new(2);

        let session = std::thread::scope(|scope| {
            let _stop = ShutdownOnPanic;
            let worker = scope.spawn(|| {
                serve_scenarios(
                    vec![ServeScenarioSpec {
                        name: "trend".into(),
                        cfg: cfg.clone(),
                    }],
                    &ServeOptions {
                        socket: Some(&socket),
                        cache: Some(&cache),
                        checkpoint_every: 4,
                        keep_checkpoints: 1,
                        ..ServeOptions::default()
                    },
                    &budget,
                )
                .unwrap()
            });
            let mut stream = connect_when_listening(&socket);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            loop {
                let status: StatusResponse =
                    serde_json::from_str(&query(&mut stream, &mut reader, "{}")).unwrap();
                if status.training_done {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            drop(stream);
            shutdown::trigger();
            let session = worker.join().unwrap();
            shutdown::reset();
            session
        });
        assert!(!session.interrupted);

        // The final checkpoint holds every trend point the plain run samples.
        let served = cache.load_checkpoint(&scenario_key(&cfg)).unwrap().trend;
        let plain = crate::scenario::run(&cfg).trend;
        assert_eq!(served.len(), 3);
        assert_eq!(served.len(), plain.len());
        for (a, b) in served.iter().zip(&plain) {
            assert_eq!((a.round, a.er, a.hr), (b.round, b.er, b.hr));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn interrupted_session_resumes_from_its_checkpoint() {
        let _guard = shutdown::test_lock();
        let cfg = tiny_cfg(8, 21);
        let cache = temp_cache("resume");
        let socket = socket_path("resume");
        let budget = CoreBudget::new(2);
        let serve_once = || {
            serve_scenarios(
                vec![ServeScenarioSpec {
                    name: "only".into(),
                    cfg: cfg.clone(),
                }],
                &ServeOptions {
                    socket: Some(&socket),
                    cache: Some(&cache),
                    checkpoint_every: 2,
                    keep_checkpoints: 1,
                    ..ServeOptions::default()
                },
                &budget,
            )
            .unwrap()
        };

        // A shutdown requested before the loop starts: train zero rounds,
        // checkpoint round 0, exit.
        shutdown::trigger();
        let first = serve_once();
        assert!(first.interrupted);
        assert_eq!(first.scenarios[0].rounds_done, 0);

        // Second session trains to completion and reports the resume point.
        shutdown::reset();
        let done = std::thread::scope(|scope| {
            let _stop = ShutdownOnPanic;
            let worker = scope.spawn(serve_once);
            // Watch training finish through the status endpoint, then stop
            // the daemon.
            let mut stream = connect_when_listening(&socket);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            loop {
                let status: StatusResponse =
                    serde_json::from_str(&query(&mut stream, &mut reader, "{}")).unwrap();
                if status.training_done {
                    assert_eq!(status.round, 8);
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            drop(stream);
            shutdown::trigger();
            let done = worker.join().unwrap();
            shutdown::reset();
            done
        });
        assert!(!done.interrupted);
        assert_eq!(done.scenarios[0].rounds_done, 8);

        // A third session resumes *at* the target: no training, serves the
        // final model.
        shutdown::trigger();
        let third = serve_once();
        assert_eq!(third.scenarios[0].resumed_from, Some(8));
        assert_eq!(third.scenarios[0].rounds_done, 8);
        assert!(!third.interrupted, "nothing left to interrupt");
        shutdown::reset();
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
