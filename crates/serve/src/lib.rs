//! Serving layer for the PIECK reproduction: answer top-K recommendation
//! queries from live or checkpointed federated training runs.
//!
//! Four pieces, bottom up:
//!
//! - [`wire`] — the line-delimited JSON protocol (`{"scenario":"table5/mf",
//!   "user":3,"k":10}` in, one response line out, pipelining allowed)
//!   spoken over a Unix socket or TCP.
//! - [`snapshot`] — [`Snapshot`]/[`SnapshotCell`]: a trainer publishes an
//!   immutable model view each round; query handlers rank against the
//!   latest epoch lock-free, so serving never blocks training and training
//!   never tears a response.
//! - [`router`] — [`Router`]/[`ScenarioHandle`]: one daemon hosts several
//!   scenarios, each with its own snapshot cell, query counter, and online
//!   evaluation probe; requests route by scenario name, defaulting to the
//!   first scenario so pre-routing clients keep working.
//! - [`server`] — the daemon: Unix and TCP listeners multiplexed across a
//!   fixed worker pool sized by a `CoreBudget` lease (shared with the
//!   trainers), bounded request framing, idle/write timeouts, and
//!   drain-based shutdown so an interrupt answers every buffered query
//!   before exiting.
//!
//! The `paper serve` subcommand (crate `frs-experiments`) wires these to
//! scenarios: it trains toward — or resumes from — cache checkpoints,
//! publishes a snapshot per round per scenario, and serves queries the
//! whole time. This crate stays training-agnostic: anything that can
//! produce a [`Snapshot`] can serve.
// A query daemon must answer a bad request with an error line, never die on
// it: panic-class calls are denied crate-wide outside tests (the frs-lint
// `panic-in-daemon` rule catches the slice-indexing clippy cannot).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod router;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use router::{Router, ScenarioHandle};
pub use server::{
    respond_line, spawn, spawn_tcp, spawn_tcp_with, spawn_with, ServerConfig, ServerHandle,
};
pub use snapshot::{Snapshot, SnapshotCell};
pub use wire::{
    ErrorResponse, ProbeStatus, Request, ScenarioStatus, ScoredItem, StatusResponse, TopKResponse,
    DEFAULT_K, MAX_LINE_BYTES,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    use frs_data::Dataset;
    use frs_federation::CoreBudget;
    use frs_model::{GlobalModel, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn snapshot(round: usize, done: bool) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(11);
        let model = GlobalModel::new(&ModelConfig::mf(4), 8, &mut rng);
        let train = Arc::new(Dataset::from_user_items(
            8,
            vec![vec![0, 1], vec![2], vec![3, 4, 5]],
        ));
        let users = frs_model::EmbeddingStore::from_rows(
            (0..3).map(|u| vec![0.1 * (u as f32 + 1.0); 4]).collect(),
        );
        Snapshot::new(round, done, model, users, train)
    }

    fn socket_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("frs-serve-test-{tag}-{}.sock", std::process::id()))
    }

    fn two_scenario_router() -> Arc<Router> {
        Arc::new(
            Router::new(vec![
                Arc::new(ScenarioHandle::new("a", snapshot(3, false))),
                Arc::new(ScenarioHandle::new("b", snapshot(7, true))),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn respond_line_speaks_the_protocol() {
        let router = two_scenario_router();

        let status: StatusResponse = serde_json::from_str(&respond_line("{}", &router)).unwrap();
        assert_eq!(status.round, 3, "status resolves the default scenario");
        assert_eq!(status.n_users, 3);
        assert_eq!(status.n_items, 8);
        assert_eq!(status.queries_served, 0);
        assert_eq!(status.scenarios.len(), 2, "status enumerates every host");
        assert_eq!(status.scenarios[1].name, "b");
        assert_eq!(status.scenarios[1].round, 7);

        let top: TopKResponse =
            serde_json::from_str(&respond_line("{\"user\":0,\"k\":3}", &router)).unwrap();
        assert_eq!(top.user, 0);
        assert_eq!(top.scenario, "a", "no scenario key routes to the default");
        assert_eq!(top.items.len(), 3);
        assert!(top.items.iter().all(|s| s.item > 1), "interacted excluded");

        let top: TopKResponse = serde_json::from_str(&respond_line(
            "{\"scenario\":\"b\",\"user\":0,\"k\":2}",
            &router,
        ))
        .unwrap();
        assert_eq!((top.scenario.as_str(), top.round), ("b", 7));

        // Default k applies when omitted; 8 items minus 2 interacted = 6.
        let top: TopKResponse =
            serde_json::from_str(&respond_line("{\"user\":0}", &router)).unwrap();
        assert_eq!(top.k, wire::DEFAULT_K);
        assert_eq!(top.items.len(), 6);

        let err: ErrorResponse =
            serde_json::from_str(&respond_line("{\"user\":99}", &router)).unwrap();
        assert!(err.error.contains("out of range"), "{}", err.error);

        let err: ErrorResponse =
            serde_json::from_str(&respond_line("{\"scenario\":\"nope\",\"user\":0}", &router))
                .unwrap();
        assert!(
            err.error.contains("unknown scenario `nope`"),
            "{}",
            err.error
        );
        assert!(
            err.error.contains("a, b"),
            "lists served names: {}",
            err.error
        );

        let err: ErrorResponse = serde_json::from_str(&respond_line("not json", &router)).unwrap();
        assert!(err.error.contains("bad request"), "{}", err.error);

        let status: StatusResponse = serde_json::from_str(&respond_line("{}", &router)).unwrap();
        assert_eq!(status.queries_served, 3, "only top-K answers count");
        assert_eq!(status.scenarios[0].queries_served, 2);
        assert_eq!(status.scenarios[1].queries_served, 1);
    }

    /// Writes a pipelined batch mixing both scenarios, a bad route, and a
    /// status probe; asserts responses come back strictly in order.
    fn exercise_pipelined_batch<S: Read + Write>(stream: S) {
        let mut stream = stream;
        let batch = "{\"user\":0,\"k\":2}\n\
                     {\"scenario\":\"b\",\"user\":1,\"k\":2}\n\
                     {\"scenario\":\"nope\",\"user\":0}\n\
                     {}\n";
        stream.write_all(batch.as_bytes()).unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!((top.user, top.scenario.as_str()), (0, "a"));

        line.clear();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!((top.user, top.scenario.as_str()), (1, "b"));

        line.clear();
        reader.read_line(&mut line).unwrap();
        let err: ErrorResponse = serde_json::from_str(line.trim()).unwrap();
        assert!(err.error.contains("unknown scenario"), "{}", err.error);

        line.clear();
        reader.read_line(&mut line).unwrap();
        let status: StatusResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(status.scenarios.len(), 2);
        assert_eq!(status.queries_served, 2, "the bad route did not count");
    }

    #[test]
    fn pipelined_batches_route_scenarios_over_unix() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let path = socket_path("pipeline-unix");
        let handle = spawn(&path, router, budget.lease()).unwrap();
        exercise_pipelined_batch(UnixStream::connect(&path).unwrap());
        assert_eq!(handle.shutdown(), 2);
        assert!(!path.exists());
    }

    #[test]
    fn pipelined_batches_route_scenarios_over_tcp() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let handle = spawn_tcp("127.0.0.1:0", router, budget.lease()).unwrap();
        let addr = handle.local_addr().expect("tcp daemon has a bound addr");
        exercise_pipelined_batch(TcpStream::connect(addr).unwrap());
        assert_eq!(handle.shutdown(), 2);
    }

    /// A duplex test client: both transports can split an independent read
    /// half off the write half.
    trait TestStream: Read + Write {
        fn read_half(&self) -> Box<dyn Read>;
    }
    impl TestStream for UnixStream {
        fn read_half(&self) -> Box<dyn Read> {
            Box::new(self.try_clone().unwrap())
        }
    }
    impl TestStream for TcpStream {
        fn read_half(&self) -> Box<dyn Read> {
            Box::new(self.try_clone().unwrap())
        }
    }

    /// Dribbles one request a few bytes at a time (frames split mid-line),
    /// then two requests where the second arrives in halves.
    fn exercise_partial_frames<S: TestStream>(stream: S) {
        let mut stream = stream;
        let mut reader = BufReader::new(stream.read_half());
        for part in ["{\"use", "r\":1,", "\"k\":1}", "\n"] {
            stream.write_all(part.as_bytes()).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(top.user, 1);

        // A complete request plus the head of the next in one write …
        stream
            .write_all(b"{\"user\":0,\"k\":1}\n{\"user\":2")
            .unwrap();
        stream.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(top.user, 0, "complete line answered before its sibling");

        // … then the tail.
        stream.write_all(b",\"k\":1}\n").unwrap();
        stream.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(top.user, 2);
    }

    #[test]
    fn partial_frames_are_reassembled_over_unix() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let path = socket_path("partial-unix");
        let handle = spawn(&path, router, budget.lease()).unwrap();
        exercise_partial_frames(UnixStream::connect(&path).unwrap());
        handle.shutdown();
    }

    #[test]
    fn partial_frames_are_reassembled_over_tcp() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let handle = spawn_tcp("127.0.0.1:0", router, budget.lease()).unwrap();
        let addr = handle.local_addr().unwrap();
        exercise_partial_frames(TcpStream::connect(addr).unwrap());
        handle.shutdown();
    }

    /// One write of 2,000 pipelined requests (~34 KB) spans several 4 KiB
    /// reads: every answer comes back in request order and echoes its user.
    fn exercise_deep_pipeline<S: TestStream + Send>(stream: S) {
        const DEPTH: usize = 2_000;
        let mut stream = stream;
        let reader = BufReader::new(stream.read_half());
        let batch: String = (0..DEPTH)
            .map(|i| format!("{{\"user\":{},\"k\":1}}\n", i % 3))
            .collect();
        let users: Vec<usize> = std::thread::scope(|scope| {
            scope.spawn(|| {
                stream.write_all(batch.as_bytes()).unwrap();
                stream.flush().unwrap();
            });
            reader
                .lines()
                .take(DEPTH)
                .map(|line| {
                    let top: TopKResponse = serde_json::from_str(&line.unwrap()).unwrap();
                    top.user
                })
                .collect()
        });
        let sent: Vec<usize> = (0..DEPTH).map(|i| i % 3).collect();
        assert!(users == sent, "answers out of order or missing");
    }

    #[test]
    fn deep_pipelines_are_answered_in_order_over_unix() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let path = socket_path("deep-unix");
        let handle = spawn(&path, router, budget.lease()).unwrap();
        exercise_deep_pipeline(UnixStream::connect(&path).unwrap());
        assert_eq!(handle.shutdown(), 2_000);
    }

    #[test]
    fn deep_pipelines_are_answered_in_order_over_tcp() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let handle = spawn_tcp("127.0.0.1:0", router, budget.lease()).unwrap();
        let addr = handle.local_addr().unwrap();
        exercise_deep_pipeline(TcpStream::connect(addr).unwrap());
        assert_eq!(handle.shutdown(), 2_000);
    }

    /// A 60 KB line of `[` nests one request 60,000 deep: the parser must
    /// refuse it with an error response instead of overflowing a worker's
    /// stack (which aborts the whole daemon), and the daemon answers a valid
    /// query afterwards on the same connection and on a fresh one.
    fn exercise_nesting_bomb<S: TestStream>(connect: impl Fn() -> S) {
        let mut stream = connect();
        let mut reader = BufReader::new(stream.read_half());
        let mut bomb = vec![b'['; 60_000];
        bomb.push(b'\n');
        stream.write_all(&bomb).unwrap();
        stream.write_all(b"{\"user\":0,\"k\":1}\n").unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let err: ErrorResponse = serde_json::from_str(line.trim()).unwrap();
        assert!(err.error.contains("bad request"), "{}", err.error);
        assert!(err.error.contains("deeper than"), "{}", err.error);
        line.clear();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(top.user, 0, "the connection survives a nesting bomb");

        let mut fresh = connect();
        let mut reader = BufReader::new(fresh.read_half());
        fresh.write_all(b"{\"user\":1,\"k\":1}\n").unwrap();
        fresh.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(top.user, 1, "the daemon survives a nesting bomb");
    }

    #[test]
    fn nesting_bombs_get_an_error_over_unix() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let path = socket_path("nesting-unix");
        let handle = spawn(&path, router, budget.lease()).unwrap();
        exercise_nesting_bomb(|| UnixStream::connect(&path).unwrap());
        assert_eq!(handle.shutdown(), 2);
    }

    #[test]
    fn nesting_bombs_get_an_error_over_tcp() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let handle = spawn_tcp("127.0.0.1:0", router, budget.lease()).unwrap();
        let addr = handle.local_addr().unwrap();
        exercise_nesting_bomb(|| TcpStream::connect(addr).unwrap());
        assert_eq!(handle.shutdown(), 2);
    }

    #[test]
    fn oversized_lines_get_an_error_and_the_connection_survives() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let path = socket_path("oversize");
        let handle = spawn(&path, router, budget.lease()).unwrap();

        let mut stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        // An unterminated line past the bound: the daemon rejects it before
        // the newline ever arrives instead of buffering forever.
        let junk = vec![b'x'; MAX_LINE_BYTES + 1024];
        stream.write_all(&junk).unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let err: ErrorResponse = serde_json::from_str(line.trim()).unwrap();
        assert!(err.error.contains("exceeds"), "{}", err.error);

        // Finish the junk line; the connection resynchronizes and the next
        // request is answered normally — no second error for the tail.
        stream.write_all(b"xxxx\n{\"user\":0,\"k\":1}\n").unwrap();
        stream.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(top.user, 0, "connection survives an oversized line");

        // A complete oversized line (newline included in the same burst)
        // earns exactly one error, and the following request still works.
        let mut burst = vec![b'y'; MAX_LINE_BYTES + 1];
        burst.push(b'\n');
        burst.extend_from_slice(b"{\"user\":1,\"k\":1}\n");
        stream.write_all(&burst).unwrap();
        stream.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let err: ErrorResponse = serde_json::from_str(line.trim()).unwrap();
        assert!(err.error.contains("exceeds"), "{}", err.error);
        line.clear();
        reader.read_line(&mut line).unwrap();
        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(top.user, 1);

        handle.shutdown();
    }

    #[test]
    fn idle_connections_are_evicted() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let handle = spawn_tcp_with(
            "127.0.0.1:0",
            router,
            budget.lease(),
            ServerConfig {
                idle_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.local_addr().unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Stay silent past the idle timeout: the daemon hangs up (EOF).
        let mut buf = [0u8; 16];
        let n = stream.read(&mut buf).unwrap();
        assert_eq!(n, 0, "idle connection evicted with EOF");
        handle.shutdown();
    }

    #[test]
    fn a_quiet_worker_wakes_when_a_request_arrives() {
        let router = two_scenario_router();
        let budget = CoreBudget::new(2);
        let poll = Duration::from_secs(1);
        let handle = spawn_tcp_with(
            "127.0.0.1:0",
            router,
            budget.lease(),
            ServerConfig {
                poll,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.local_addr().unwrap()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        for _ in 0..3 {
            // Let the worker finish its sweep and block, then wake it.
            std::thread::sleep(Duration::from_millis(50));
            let sent = std::time::Instant::now();
            stream.write_all(b"{}\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let waited = sent.elapsed();
            assert!(waited < poll / 4, "answered after {waited:?}");
        }
        handle.shutdown();
    }

    #[test]
    fn daemon_answers_concurrent_clients_across_epoch_swaps() {
        let scenario = Arc::new(ScenarioHandle::new("only", snapshot(0, false)));
        let router = Arc::new(Router::new(vec![Arc::clone(&scenario)]).unwrap());
        let budget = CoreBudget::new(4);
        let path = socket_path("concurrent");
        let handle = spawn(&path, router, budget.lease()).unwrap();

        let clients: Vec<_> = (0..4)
            .map(|c| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let mut stream = UnixStream::connect(&path).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut answers = Vec::new();
                    for i in 0..5 {
                        let user = (c + i) % 3;
                        writeln!(stream, "{{\"user\":{user},\"k\":2}}").unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
                        assert_eq!(top.user, user);
                        assert_eq!(top.items.len(), 2);
                        answers.push(top.round);
                    }
                    answers
                })
            })
            .collect();

        // Swap epochs while the clients hammer the socket.
        for round in 1..4 {
            scenario.publish(snapshot(round, round == 3));
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        for client in clients {
            let rounds = client.join().unwrap();
            // Every answer carries some published round, monotone per
            // connection (later queries never see an older epoch).
            for pair in rounds.windows(2) {
                assert!(pair[0] <= pair[1], "epochs went backwards: {rounds:?}");
            }
        }

        assert_eq!(handle.queries_served(), 20);
        assert_eq!(scenario.queries_served(), 20);
        let served = handle.shutdown();
        assert_eq!(served, 20);
        assert!(!path.exists(), "shutdown removes the socket file");
    }

    #[test]
    fn shutdown_drains_in_flight_pipelined_requests() {
        let (router, _) = Router::single("only", snapshot(2, true));
        let budget = CoreBudget::new(2);
        let path = socket_path("drain");
        let handle = spawn(&path, Arc::new(router), budget.lease()).unwrap();

        // Pipeline requests but delay reading: shutdown must still answer
        // everything already buffered before the socket closes.
        let mut stream = UnixStream::connect(&path).unwrap();
        for user in [0usize, 1, 2] {
            writeln!(stream, "{{\"user\":{user},\"k\":1}}").unwrap();
        }
        stream.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100));

        let shutdown = std::thread::spawn(move || handle.shutdown());
        let mut reader = BufReader::new(stream);
        let mut answered = 0;
        for _ in 0..3 {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            let top: TopKResponse = serde_json::from_str(line.trim()).unwrap();
            assert_eq!(top.items.len(), 1);
            answered += 1;
        }
        assert_eq!(answered, 3, "drain answers every buffered request");
        assert_eq!(shutdown.join().unwrap(), 3);
        assert!(!path.exists());
    }

    #[test]
    fn stale_socket_is_reclaimed_live_socket_is_refused() {
        let path = socket_path("reclaim");
        // A dead daemon's leftover: bind and drop without unlinking.
        drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
        assert!(path.exists());

        let budget = CoreBudget::new(2);
        let router = two_scenario_router();
        let handle = spawn(&path, Arc::clone(&router), budget.lease()).unwrap();

        // A second daemon on the live socket is refused.
        let err = spawn(&path, router, budget.lease()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        handle.shutdown();
    }
}
