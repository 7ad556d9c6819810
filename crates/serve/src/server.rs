//! The long-lived query daemon: Unix-socket and TCP listeners answering the
//! wire protocol against a multi-scenario [`Router`].
//!
//! Concurrency model: a **fixed worker pool** sized by a [`CoreLease`] from
//! the invocation's shared `CoreBudget` — the same ledger the trainer
//! leases from — so query handling and training split the `--threads` grant
//! fairly instead of oversubscribing the machine. Each worker multiplexes
//! any number of non-blocking connections (accepting from the shared
//! listener as clients arrive), so a worker pool smaller than the
//! connection count still serves everyone: pipelined requests on one
//! connection are answered in order while other connections make progress.
//! A worker whose sweep finds nothing to do blocks in `poll(2)` until its
//! listener or one of its connections is readable, so a request is picked
//! up as it arrives rather than at the next tick of a sleep.
//!
//! The read path is bounded: request lines longer than
//! [`ServerConfig::max_line`] earn a protocol error and the connection
//! resynchronizes at the next newline instead of growing its buffer
//! without limit; a connection idle past [`ServerConfig::idle_timeout`] is
//! closed, and a client that stops draining responses is disconnected once
//! a write stalls past [`ServerConfig::write_timeout`] — a stalled client
//! can never pin a worker.
//!
//! Shutdown is drain-based: [`ServerHandle::shutdown`] raises the stop
//! flag; every worker answers the complete request lines already buffered
//! on its connections and exits — no query is ever cut off mid-response.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use frs_federation::CoreLease;

use crate::router::Router;
use crate::wire::{ErrorResponse, Request, StatusResponse, TopKResponse, DEFAULT_K};

/// Tuning knobs for a daemon listener. [`Default`] is the production shape;
/// tests shrink the timeouts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; `None` sizes the pool to the lease's width at spawn.
    pub workers: Option<usize>,
    /// Longest accepted request line (bytes, newline excluded).
    pub max_line: usize,
    /// Close a connection that has been silent this long.
    pub idle_timeout: Duration,
    /// Disconnect a client whose response write stalls this long.
    pub write_timeout: Duration,
    /// Longest a worker blocks between sweeps when every connection is
    /// quiet; a readable socket wakes it sooner. Also the retry interval of
    /// a stalled response write.
    pub poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: None,
            max_line: crate::wire::MAX_LINE_BYTES,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            poll: Duration::from_millis(1),
        }
    }
}

/// Answers one request line against `router`, returning the JSON response
/// line (no trailing newline). Counts answered top-K queries into the
/// router's per-scenario and daemon-wide counters. Pure aside from the
/// counters — the unit under test for protocol behaviour.
pub fn respond_line(line: &str, router: &Router) -> String {
    fn error(error: String) -> String {
        serialize_response(&ErrorResponse { error })
    }
    let request: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => return error(format!("bad request: {e}")),
    };
    let handle = match router.resolve(request.scenario.as_deref()) {
        Ok(handle) => handle,
        Err(e) => return error(e),
    };
    let snapshot = handle.latest();
    match request.user {
        None => serialize_response(&StatusResponse {
            round: snapshot.round(),
            training_done: snapshot.training_done(),
            n_users: snapshot.n_users(),
            n_items: snapshot.n_items(),
            queries_served: router.queries_served(),
            scenarios: router.scenarios().iter().map(|h| h.status()).collect(),
        }),
        Some(user) => {
            let k = request.k.unwrap_or(DEFAULT_K);
            match snapshot.top_k(user, k) {
                Ok(items) => {
                    router.count_query(handle);
                    serialize_response(&TopKResponse {
                        user,
                        k,
                        round: snapshot.round(),
                        training_done: snapshot.training_done(),
                        items,
                        scenario: handle.name().to_string(),
                    })
                }
                Err(e) => error(e),
            }
        }
    }
}

/// Response serialization can only fail on a malformed float or a broken
/// derive — neither is worth a worker thread. The fallback is a hand-built
/// constant error line, so the answer path is infallible and the client
/// still gets valid JSON and keeps its connection.
fn serialize_response<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value)
        .unwrap_or_else(|_| r#"{"error":"internal: response serialization failed"}"#.to_string())
}

/// A listening endpoint, transport-erased.
#[derive(Debug)]
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// An accepted connection, transport-erased.
#[derive(Debug)]
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn configure(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(true),
            Stream::Tcp(s) => {
                // Pipelined line-sized responses must not wait on Nagle.
                s.set_nodelay(true)?;
                s.set_nonblocking(true)
            }
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

fn is_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Longest a single pump may keep reading one connection before yielding to
/// its siblings (chunks of 4 KiB — a bound on per-sweep monopoly, not on
/// request size).
const READS_PER_PUMP: usize = 64;

/// One multiplexed connection's state.
struct Conn {
    stream: Stream,
    /// Bytes received but not yet framed into a complete line.
    buf: Vec<u8>,
    /// An oversized line was rejected; bytes are dropped until its newline.
    discarding: bool,
    last_activity: Instant,
}

/// What one pump of a connection observed.
enum Pump {
    /// Bytes moved (or the peer closed after a final answered batch).
    Progress,
    /// Nothing to do.
    Idle,
    /// Connection finished or failed; drop it.
    Closed,
}

impl Conn {
    fn new(stream: Stream) -> io::Result<Self> {
        stream.configure()?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            discarding: false,
            last_activity: Instant::now(),
        })
    }

    /// Writes `bytes` fully, sleeping through `WouldBlock` up to the write
    /// timeout — a client that stops draining responses is an error, not a
    /// pinned worker.
    fn write_all(&mut self, bytes: &[u8], cfg: &ServerConfig) -> io::Result<()> {
        let deadline = Instant::now() + cfg.write_timeout;
        let mut written = 0;
        while written < bytes.len() {
            // lint:allow(panic-in-daemon): the loop guard keeps `written` <= len, so the range slice cannot panic
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if is_would_block(&e) => {
                    if Instant::now() >= deadline {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    std::thread::sleep(cfg.poll);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Answers every complete line currently buffered (responses batched
    /// into one write). A cursor walks the lines and one `drain` drops them
    /// all afterwards, so a deep pipeline costs time linear in its bytes.
    /// An `Err` means the connection is beyond saving.
    fn answer_buffered(&mut self, router: &Router, cfg: &ServerConfig) -> io::Result<()> {
        let mut out = Vec::new();
        let mut rest: &[u8] = &self.buf;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (line, newline_on) = rest.split_at(pos);
            rest = newline_on.get(1..).unwrap_or_default();
            if self.discarding {
                // The tail of a line already rejected as oversized: the
                // error went out when the bound tripped; just resync.
                self.discarding = false;
                continue;
            }
            let line = String::from_utf8_lossy(line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let response = if line.len() > cfg.max_line {
                oversize_error(cfg.max_line)
            } else {
                respond_line(line, router)
            };
            out.extend_from_slice(response.as_bytes());
            out.push(b'\n');
        }
        let answered = self.buf.len() - rest.len();
        self.buf.drain(..answered);
        // Unterminated remainder past the bound: reject now (the newline
        // may never come), then discard until it does.
        if !self.discarding && self.buf.len() > cfg.max_line {
            self.buf.clear();
            self.discarding = true;
            out.extend_from_slice(oversize_error(cfg.max_line).as_bytes());
            out.push(b'\n');
        }
        if !out.is_empty() {
            self.write_all(&out, cfg)?;
        }
        Ok(())
    }

    /// One service sweep: ingest available bytes, answer complete lines.
    fn pump(&mut self, router: &Router, cfg: &ServerConfig, chunk: &mut [u8]) -> Pump {
        let mut moved = false;
        for _ in 0..READS_PER_PUMP {
            match self.stream.read(chunk) {
                Ok(0) => {
                    // EOF: answer what the peer already sent, then close.
                    let _ = self.answer_buffered(router, cfg);
                    return Pump::Closed;
                }
                Ok(n) => {
                    moved = true;
                    self.last_activity = Instant::now();
                    // lint:allow(panic-in-daemon): `read` returns n <= chunk.len() by contract
                    self.ingest(&chunk[..n]);
                    if self.answer_buffered(router, cfg).is_err() {
                        return Pump::Closed;
                    }
                }
                Err(e) if is_would_block(&e) => break,
                Err(_) => return Pump::Closed,
            }
        }
        if moved {
            Pump::Progress
        } else {
            Pump::Idle
        }
    }

    /// Appends received bytes, honouring discard mode (bytes belonging to a
    /// rejected oversized line are dropped up to and including its newline).
    fn ingest(&mut self, bytes: &[u8]) {
        if !self.discarding {
            self.buf.extend_from_slice(bytes);
            return;
        }
        // Otherwise we're still inside the oversized line: drop everything
        // up to (and including) its terminating newline.
        if let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
            self.discarding = false;
            // lint:allow(panic-in-daemon): `position` returned pos < len, so pos + 1 <= len and the range slice holds
            self.buf.extend_from_slice(&bytes[pos + 1..]);
        }
    }
}

fn oversize_error(max_line: usize) -> String {
    serialize_response(&ErrorResponse {
        error: format!("request line exceeds {max_line} bytes"),
    })
}

/// Where a running daemon listens.
#[derive(Debug)]
enum Endpoint {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves the workers running for the process
/// lifetime; call `shutdown` for a clean drain.
#[derive(Debug)]
pub struct ServerHandle {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    router: Arc<Router>,
    workers: Vec<JoinHandle<()>>,
    /// Keeps the daemon's share of the core budget accounted until shutdown.
    _lease: CoreLease,
}

impl ServerHandle {
    /// The Unix socket path this daemon listens on, if it is a Unix daemon.
    pub fn socket(&self) -> Option<&Path> {
        match &self.endpoint {
            Endpoint::Unix(path) => Some(path),
            Endpoint::Tcp(_) => None,
        }
    }

    /// The bound TCP address, if this is a TCP daemon (with port 0 in the
    /// bind address, this is where the kernel actually put the listener).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            Endpoint::Unix(_) => None,
            Endpoint::Tcp(addr) => Some(*addr),
        }
    }

    /// The scenario router this daemon answers from.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Top-K queries answered so far (all scenarios, all transports sharing
    /// the router).
    pub fn queries_served(&self) -> u64 {
        self.router.queries_served()
    }

    /// Stops accepting, drains every buffered request, removes the socket
    /// file (Unix), and returns the router's total query count.
    pub fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        self.router.queries_served()
    }
}

/// Binds `socket` and spawns the worker pool with default tuning. An
/// existing socket file is reclaimed only if nothing answers on it — a live
/// daemon is an `AddrInUse` error, a leftover from a dead one is silently
/// replaced.
pub fn spawn(
    socket: impl Into<PathBuf>,
    router: Arc<Router>,
    lease: CoreLease,
) -> io::Result<ServerHandle> {
    spawn_with(socket, router, lease, ServerConfig::default())
}

/// [`spawn`] with explicit [`ServerConfig`] tuning.
pub fn spawn_with(
    socket: impl Into<PathBuf>,
    router: Arc<Router>,
    lease: CoreLease,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let socket = socket.into();
    if socket.exists() {
        if UnixStream::connect(&socket).is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{} is already being served", socket.display()),
            ));
        }
        std::fs::remove_file(&socket)?;
    }
    let listener = UnixListener::bind(&socket)?;
    spawn_pool(
        Listener::Unix(listener),
        Endpoint::Unix(socket),
        router,
        lease,
        config,
    )
}

/// Binds a TCP address (e.g. `127.0.0.1:7411`, or port `0` for an
/// ephemeral port — read it back via [`ServerHandle::local_addr`]) and
/// spawns the worker pool with default tuning.
pub fn spawn_tcp(addr: &str, router: Arc<Router>, lease: CoreLease) -> io::Result<ServerHandle> {
    spawn_tcp_with(addr, router, lease, ServerConfig::default())
}

/// [`spawn_tcp`] with explicit [`ServerConfig`] tuning.
pub fn spawn_tcp_with(
    addr: &str,
    router: Arc<Router>,
    lease: CoreLease,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    spawn_pool(
        Listener::Tcp(listener),
        Endpoint::Tcp(bound),
        router,
        lease,
        config,
    )
}

fn spawn_pool(
    listener: Listener,
    endpoint: Endpoint,
    router: Arc<Router>,
    lease: CoreLease,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    listener.set_nonblocking()?;
    let stop = Arc::new(AtomicBool::new(false));
    // The pool is *fixed* at spawn: the lease's width is the daemon's fair
    // share of the budget at boot (workers multiplex connections, so a
    // small pool still serves any number of clients).
    let n_workers = config.workers.unwrap_or_else(|| lease.width()).max(1);
    let listener = Arc::new(listener);
    let workers = (0..n_workers)
        .map(|_| {
            let listener = Arc::clone(&listener);
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            std::thread::spawn(move || worker_loop(&listener, &router, &config, &stop))
        })
        .collect();
    Ok(ServerHandle {
        endpoint,
        stop,
        router,
        workers,
        _lease: lease,
    })
}

/// One pool worker: accept whatever is pending, pump every owned
/// connection, wait for readiness only when fully quiet. On stop, answer
/// the complete lines already buffered (the drain guarantee) and exit.
fn worker_loop(listener: &Listener, router: &Router, cfg: &ServerConfig, stop: &AtomicBool) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok(stream) => {
                    if let Ok(conn) = Conn::new(stream) {
                        conns.push(conn);
                        progressed = true;
                    }
                }
                Err(e) if is_would_block(&e) => break,
                Err(_) => break, // listener hiccup; retry next sweep
            }
        }
        if stop.load(Ordering::SeqCst) {
            for conn in &mut conns {
                let _ = conn.answer_buffered(router, cfg);
            }
            return;
        }
        conns.retain_mut(|conn| match conn.pump(router, cfg, &mut chunk) {
            Pump::Progress => {
                progressed = true;
                true
            }
            Pump::Idle => conn.last_activity.elapsed() < cfg.idle_timeout,
            Pump::Closed => false,
        });
        if !progressed {
            wait_readable(listener, &conns, cfg.poll);
        }
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// Blocks until the listener or one of `conns` is readable or hung up, or
/// until `timeout` (rounded up to whole milliseconds) passes. A failed or
/// interrupted wait returns early; the caller sweeps again either way.
fn wait_readable(listener: &Listener, conns: &[Conn], timeout: Duration) {
    const POLLIN: i16 = 0x1;
    let mut fds: Vec<PollFd> = std::iter::once(listener.as_raw_fd())
        .chain(conns.iter().map(|conn| conn.stream.as_raw_fd()))
        .map(|fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let millis = i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX);
    // SAFETY: `fds` is a live, writable array of `fds.len()` `#[repr(C)]`
    // `pollfd`s for the whole call; `poll` writes only their `revents`.
    #[allow(
        unsafe_code,
        reason = "there is no libc crate to wrap poll(2); see the workspace manifest"
    )]
    unsafe {
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
        }
        poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, millis);
    }
}
