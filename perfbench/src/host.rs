//! What the host adds to a run's numbers: CPU clocks that exclude
//! hypervisor steal, the steal share itself, the core count, the
//! process's peak resident set, and the reference kernel that reads the
//! host's speed.

use std::time::{Duration, Instant};

/// The benchmark's one wall clock. Timing is this program's purpose; no
/// reading of it reaches the simulations it drives.
pub fn now() -> Instant {
    Instant::now() // lint:allow(unseeded-entropy): benchmark wall clock; timings are the output and never feed a simulation
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and the kernel writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is never negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec is below one second"),
    )
}

/// CPU time of the whole process, exited threads included. The scheduler
/// charges it from its task clock, which leaves out steal time.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, steal excluded as for [`process_cpu`].
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Cumulative counters of the aggregate `cpu` line of `/proc/stat`, in
/// clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal. Guest
    /// time is already inside user and nice, so it is not added again.
    pub total: u64,
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of a `/proc/stat` text.
pub fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse::<u64>().ok())
        .collect::<Option<Vec<u64>>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        total: fields.iter().sum::<u64>(),
        steal: fields[7],
    })
}

pub fn read_cpu_times() -> Option<CpuTimes> {
    parse_cpu_times(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Share of all CPU ticks between two readings that the hypervisor stole.
pub fn steal_share(from: CpuTimes, to: CpuTimes) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        return 0.0;
    }
    to.steal.saturating_sub(from.steal) as f64 / total as f64
}

/// Parses `VmHWM` (peak resident set) out of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value = parts.next()?.parse::<u64>().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Resets this process's peak resident set to its current resident set, so
/// that a later [`peak_rss_mib`] covers only what ran after. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Seconds one [`ReferenceKernel`] pass takes on a quiet host of the
/// kind this benchmark was tuned on (2 vCPUs). Normalized times are scaled
/// to this speed.
pub const KERNEL_REF_S: f64 = 0.011;

/// A fixed mix of the programs' kinds of work in the benchmark's own code:
/// dense dot products over an L2-sized table, binary searches in sorted id
/// lists, and a 1 MiB copy. Its time moves with the host's speed, never
/// with the program under test.
pub struct ReferenceKernel {
    table: Vec<f32>,
    lists: Vec<Vec<u32>>,
    src: Vec<u64>,
    dst: Vec<u64>,
}

impl ReferenceKernel {
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let table = (0..2048 * 16)
            .map(|_| (next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect();
        let lists = (0..512)
            .map(|_| {
                let mut list: Vec<u64> = (0..64).map(|_| next() % 2048).collect();
                list.sort_unstable();
                list.into_iter()
                    .map(|v| u32::try_from(v).expect("below 2048"))
                    .collect()
            })
            .collect();
        let src: Vec<u64> = (0..128 * 1024).map(|_| next()).collect();
        let dst = vec![0; src.len()];
        Self {
            table,
            lists,
            src,
            dst,
        }
    }

    /// Seconds one pass takes now.
    fn pass(&mut self) -> f64 {
        let start = now();
        let mut acc = 0.0f32;
        for user in self.table.chunks_exact(16).take(64) {
            for item in self.table.chunks_exact(16) {
                let mut dot = 0.0f32;
                for (a, b) in user.iter().zip(item) {
                    dot += a * b;
                }
                acc += dot.max(0.0);
            }
        }
        let mut hits = 0usize;
        for list in &self.lists {
            for j in 0..2048u32 {
                hits += usize::from(list.binary_search(&j).is_ok());
            }
        }
        for _ in 0..4 {
            self.dst.copy_from_slice(std::hint::black_box(&self.src));
        }
        std::hint::black_box((acc, hits, &self.dst));
        start.elapsed().as_secs_f64()
    }

    /// The host's current speed: the median of three passes, in seconds.
    pub fn sample(&mut self) -> f64 {
        let mut t = [self.pass(), self.pass(), self.pass()];
        t.sort_by(f64::total_cmp);
        t[1]
    }
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  4705 150 1120 16250 520 0 37 900 0 0\n\
                        cpu0 2300 75 560 8125 260 0 18 450 0 0\n\
                        intr 12345\n";

    #[test]
    fn cpu_line_sums_the_first_eight_fields_and_picks_steal() {
        let t = parse_cpu_times(STAT).unwrap();
        assert_eq!(t.steal, 900);
        assert_eq!(t.total, 4705 + 150 + 1120 + 16250 + 520 + 37 + 900);
    }

    #[test]
    fn cpu_line_needs_eight_numeric_fields() {
        assert_eq!(parse_cpu_times("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_cpu_times("cpu  1 2 x 4 5 6 7 8\n"), None);
        assert_eq!(parse_cpu_times("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert!(parse_cpu_times("cpu  1 2 3 4 5 6 7 8\n").is_some());
    }

    #[test]
    fn steal_share_is_the_steal_delta_over_the_total_delta() {
        let a = CpuTimes {
            total: 1000,
            steal: 10,
        };
        let b = CpuTimes {
            total: 1400,
            steal: 110,
        };
        assert!((steal_share(a, b) - 0.25).abs() < 1e-12);
        assert_eq!(steal_share(a, a), 0.0);
    }

    #[test]
    fn vm_hwm_reads_the_kib_value() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   90112 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(90112));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let before = thread_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu() > before, "{x}");
        assert!(process_cpu() >= thread_cpu());
    }
}
