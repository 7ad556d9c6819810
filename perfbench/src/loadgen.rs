//! The benchmark's own open-loop query generator: one thread, one
//! nonblocking TCP connection, seeded zipf users, and each query's latency
//! taken from the time it was scheduled to be sent, so a stall also counts
//! against the queries queued behind it.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use frs_serve::TopKResponse;

use crate::host::now;

/// Top-K cutoff of every generated query.
pub const K: usize = 10;

/// SplitMix64: a small seeded generator for the query stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over users `0..n`, user `u` drawn with weight `(u + 1)^-s`, by
/// rejection-inversion (Hörmann and Derflinger), so no table of `n`
/// entries is needed.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    s: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    threshold: f64,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1 && s > 0.0, "zipf needs n >= 1 and s > 0");
        let n = n as f64;
        let mut z = Self {
            n,
            s,
            h_integral_x1: 0.0,
            h_integral_n: 0.0,
            threshold: 0.0,
        };
        z.h_integral_x1 = z.h_integral(1.5) - 1.0;
        z.h_integral_n = z.h_integral(n + 0.5);
        z.threshold = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        expm1_over_x((1.0 - self.s) * log_x) * log_x
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        (log1p_over_x(t) * x).exp()
    }

    /// One user id in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        loop {
            let u = self.h_integral_n + rng.next_f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.threshold || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as usize - 1;
            }
        }
    }
}

fn expm1_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x / 2.0
    }
}

fn log1p_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x / 2.0
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Sleeps until `fd` is readable (or writable, when `write` is set) or
/// `timeout` passes. `poll(2)` counts in milliseconds; `ppoll` keeps the
/// nanoseconds a 250 µs send interval needs.
fn wait_ready(fd: i32, write: bool, timeout: Duration) -> io::Result<()> {
    let mut pfd = PollFd {
        fd,
        events: if write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live for the whole call, the count of one
    // matches the single `pollfd`, and a null signal mask is documented to
    // leave the mask unchanged.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// The generator's one connection, with its unsent and unparsed bytes.
pub struct Conn {
    stream: TcpStream,
    unsent: Vec<u8>,
    sent_upto: usize,
    received: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            unsent: Vec::new(),
            sent_upto: 0,
            received: Vec::new(),
        })
    }

    /// Sends `line` and waits for one response line (blocking; used for the
    /// status request that ends the set-up clock, before the window opens).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.received.iter().position(|&b| b == b'\n') {
                let rest = self.received.split_off(pos + 1);
                let mut out = std::mem::replace(&mut self.received, rest);
                out.pop();
                return String::from_utf8(out)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.received.extend_from_slice(&chunk[..n]);
        }
    }

    fn flush_some(&mut self) -> io::Result<()> {
        while self.sent_upto < self.unsent.len() {
            match self.stream.write(&self.unsent[self.sent_upto..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent_upto += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent_upto == self.unsent.len() {
            self.unsent.clear();
            self.sent_upto = 0;
        }
        Ok(())
    }

    /// Reads whatever has arrived; returns whether anything did.
    fn read_some(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        let mut got = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.received.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One answered query of a window.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Scheduled send time, seconds after the window opened.
    pub sched_s: f64,
    /// From scheduled send to the read that delivered the response.
    pub latency_us: f64,
}

/// What one fixed-rate window observed.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub rate: f64,
    pub seconds: f64,
    pub sent: usize,
    /// Valid responses, in send order.
    pub answers: Vec<Answer>,
    /// Error lines and responses that failed validation.
    pub failed: usize,
    /// How late each query was sent, in microseconds.
    pub late_us: Vec<f64>,
    /// `(seconds after the window opened, round)` each time the served
    /// snapshot's round changed, as seen in responses.
    pub round_changes: Vec<(f64, usize)>,
    /// The first validation failure, for the report.
    pub first_failure: Option<String>,
}

impl Window {
    /// Latencies in microseconds, failed queries counting as infinitely
    /// late.
    pub fn latencies_with_misses(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.answers.iter().map(|a| a.latency_us).collect();
        out.resize(self.sent, f64::INFINITY);
        out
    }
}

/// Validates one response line for a top-`K` query for `user`, who has
/// `eligible` items left to recommend: a `TopKResponse` for that user with
/// `min(K, eligible)` distinct items and non-increasing finite scores.
/// Returns the snapshot round it was answered from.
pub fn check_response(line: &str, user: usize, eligible: usize) -> Result<usize, String> {
    if line.starts_with("{\"error\"") {
        return Err(format!("error response for user {user}: {line}"));
    }
    let resp: TopKResponse =
        serde_json::from_str(line).map_err(|e| format!("unparsable response `{line}`: {e}"))?;
    if resp.user != user || resp.k != K {
        return Err(format!(
            "asked user {user} k {K}, got user {} k {}",
            resp.user, resp.k
        ));
    }
    let want = K.min(eligible);
    if resp.items.len() != want {
        return Err(format!(
            "user {user}: {} items, expected {want}",
            resp.items.len()
        ));
    }
    let mut items: Vec<u32> = resp.items.iter().map(|s| s.item).collect();
    items.sort_unstable();
    items.dedup();
    if items.len() != want {
        return Err(format!("user {user}: duplicate items in {line}"));
    }
    for pair in resp.items.windows(2) {
        if !pair[0].score.is_finite() || !pair[1].score.is_finite() || pair[1].score > pair[0].score
        {
            return Err(format!("user {user}: scores not non-increasing in {line}"));
        }
    }
    Ok(resp.round)
}

/// The query stream of one run: zipf-drawn users from a seeded generator,
/// and what each user's response must hold.
pub struct Generator {
    /// Items each user has not interacted with, by user id.
    eligible: Vec<u32>,
    zipf: Zipf,
    rng: SplitMix,
}

impl Generator {
    /// Queries users of `train`, hottest first by id, drawn with exponent 1.
    pub fn new(train: &frs_data::Dataset, seed: u64) -> Self {
        let n_items = train.n_items();
        let eligible = (0..train.n_users())
            .map(|u| {
                let left = n_items.saturating_sub(train.items_of(u).len());
                u32::try_from(left).unwrap_or(u32::MAX)
            })
            .collect::<Vec<u32>>();
        Self {
            zipf: Zipf::new(eligible.len(), 1.0),
            eligible,
            rng: SplitMix::new(seed ^ 0x5EED_10AD),
        }
    }

    /// The next user to query.
    pub fn user(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }

    /// Sends top-`K` queries at `rate` per second for `seconds`, then waits
    /// for every response, so the connection is clean for the next window.
    /// A query still unanswered `drain` after the window closed is an error.
    pub fn window(
        &mut self,
        conn: &mut Conn,
        rate: f64,
        seconds: f64,
        drain: Duration,
    ) -> io::Result<Window> {
        conn.stream.set_nonblocking(true)?;
        let fd = conn.stream.as_raw_fd();
        let total = (rate * seconds).round() as usize;
        let interval = 1.0 / rate;
        let mut out = Window {
            rate,
            seconds,
            late_us: Vec::with_capacity(total),
            answers: Vec::with_capacity(total),
            ..Window::default()
        };
        let mut inflight: VecDeque<(usize, f64)> = VecDeque::new();
        let mut last_round = None;
        let start = now();
        let since = |t: Instant| t.duration_since(start).as_secs_f64();
        let give_up = seconds + drain.as_secs_f64();

        loop {
            let t = since(now());
            while out.sent < total && out.sent as f64 * interval <= t {
                let sched = out.sent as f64 * interval;
                let user = self.user();
                out.late_us.push((t - sched) * 1e6);
                writeln!(conn.unsent, "{{\"user\":{user},\"k\":{K}}}")?;
                inflight.push_back((user, sched));
                out.sent += 1;
            }
            conn.flush_some()?;
            if conn.read_some()? {
                let t_read = since(now());
                let mut consumed = 0;
                while let Some(pos) = conn.received[consumed..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&conn.received[consumed..consumed + pos]);
                    consumed += pos + 1;
                    let Some((user, sched)) = inflight.pop_front() else {
                        return Err(io::Error::new(
                            ErrorKind::InvalidData,
                            format!("response with no query outstanding: {line}"),
                        ));
                    };
                    match check_response(&line, user, self.eligible[user] as usize) {
                        Ok(round) => {
                            out.answers.push(Answer {
                                sched_s: sched,
                                latency_us: (t_read - sched) * 1e6,
                            });
                            if last_round != Some(round) {
                                last_round = Some(round);
                                out.round_changes.push((t_read, round));
                            }
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.first_failure.get_or_insert(e);
                        }
                    }
                }
                conn.received.drain(..consumed);
            }
            let t = since(now());
            if out.sent == total && inflight.is_empty() {
                break;
            }
            if t > give_up {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    format!("{} queries still unanswered after draining", inflight.len()),
                ));
            }
            let until = if out.sent < total {
                out.sent as f64 * interval
            } else {
                give_up
            };
            let wait = Duration::from_secs_f64((until - t).max(0.0));
            if !wait.is_zero() {
                wait_ready(fd, !conn.unsent.is_empty(), wait)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stays_in_range_and_favours_low_ids() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = SplitMix::new(3);
        let mut counts = vec![0usize; 1000];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[999]);
        // P(user 0) = 1 / H(1000) ≈ 0.1336.
        let share = counts[0] as f64 / 200_000.0;
        assert!((share - 0.1336).abs() < 0.005, "{share}");
        let one = Zipf::new(1, 1.2);
        assert_eq!(one.sample(&mut rng), 0);
    }

    #[test]
    fn same_seed_same_stream() {
        let zipf = Zipf::new(1_000_000, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix::new(seed);
            (0..64).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn responses_are_validated() {
        let good = r#"{"user":4,"k":10,"round":3,"training_done":false,"items":[{"item":1,"score":0.9},{"item":2,"score":0.8},{"item":3,"score":0.8},{"item":4,"score":0.7},{"item":5,"score":0.6},{"item":6,"score":0.5},{"item":7,"score":0.4},{"item":8,"score":0.3},{"item":9,"score":0.2},{"item":10,"score":0.1}],"scenario":"s"}"#;
        assert_eq!(check_response(good, 4, 500), Ok(3));
        assert!(check_response(good, 5, 500).is_err(), "wrong user");
        assert!(
            check_response(good, 4, 9).is_err(),
            "only 9 items were left"
        );
        let rising = good.replace("\"score\":0.1", "\"score\":0.95");
        assert!(check_response(&rising, 4, 500).is_err());
        let dup = good.replace("\"item\":10", "\"item\":9");
        assert!(check_response(&dup, 4, 500).is_err());
        assert!(check_response(r#"{"error":"user 4 out of range"}"#, 4, 500).is_err());
        assert!(check_response("not json", 4, 500).is_err());
        let one = r#"{"user":2,"k":10,"round":0,"training_done":true,"items":[{"item":7,"score":0.5}],"scenario":"s"}"#;
        assert_eq!(
            check_response(one, 2, 1),
            Ok(0),
            "a user with one item left gets one"
        );
    }
}
