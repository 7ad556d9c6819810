//! One round's measurements, and the per-layer numbers of the round loop
//! that a traced window of them gives.

use frs_federation::{RoundStats, Simulation};

use crate::host::now;
use crate::report::Report;
use crate::stats;
use crate::trace::Meters;

/// Rounds whose `RoundStats` counts the traced run reports; fixed so the
/// counts repeat exactly for a seed.
pub const COUNTED_ROUNDS: usize = 8;

/// One round's measurements.
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub stats: RoundStats,
    pub aggregate_s: f64,
    pub uploads: u64,
    pub attack_s: f64,
    pub attack_calls: u64,
    pub regularizer_s: f64,
    pub regularizer_calls: u64,
}

/// Runs one round, timing its wall and `cpu` clocks and, with `meters`,
/// collecting the decorators' layer times.
pub fn timed_round(
    sim: &mut Simulation,
    meters: Option<&Meters>,
    cpu: fn() -> std::time::Duration,
) -> Round {
    let (t, cpu_from) = (now(), cpu());
    let stats = sim.run_round();
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), (cpu() - cpu_from).as_secs_f64());
    let mut round = Round {
        wall_s,
        cpu_s,
        stats,
        aggregate_s: 0.0,
        uploads: 0,
        attack_s: 0.0,
        attack_calls: 0,
        regularizer_s: 0.0,
        regularizer_calls: 0,
    };
    if let Some(m) = meters {
        round.aggregate_s = m.aggregate.take().0.as_secs_f64();
        round.uploads = m.uploads.swap(0, std::sync::atomic::Ordering::Relaxed);
        let (attack, calls) = m.attack.take();
        round.attack_s = attack.as_secs_f64();
        round.attack_calls = calls;
        let (reg, calls) = m.regularizer.take();
        round.regularizer_s = reg.as_secs_f64();
        round.regularizer_calls = calls;
    }
    round
}

/// One over the median round wall time.
pub fn rounds_per_s(rounds: &[Round]) -> f64 {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    1.0 / stats::median(&walls).unwrap_or(f64::NAN)
}

/// Per-layer numbers of the round loop from a traced training window.
pub fn report_round_layers(rounds: &[Round], report: &mut Report) {
    let col = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let n = rounds.len() as f64;
    let total = |f: &dyn Fn(&Round) -> f64| {
        let mut s = 0.0;
        for r in rounds {
            s += f(r);
        }
        s
    };
    let walls = col(&|r| r.wall_s * 1e3);
    let p = |v: &[f64], q: f64| stats::percentile(v, q).map_or(f64::NAN, |p| p.value);
    let how = format!("over {} rounds", rounds.len());
    report.metric("round.wall_ms_p50", p(&walls, 0.5), "ms", &how);
    let p99 = stats::percentile(&walls, 0.99);
    report.metric(
        "round.wall_ms_p99",
        p99.map_or(f64::NAN, |p| p.value),
        "ms",
        p99.map_or(how.clone(), |p| p.note()),
    );
    report.metric(
        "round.cpu_ms_p50",
        p(&col(&|r| r.cpu_s * 1e3), 0.5),
        "ms",
        format!("CPU time, steal excluded, {how}"),
    );
    let counted = &rounds[..COUNTED_ROUNDS.min(rounds.len())];
    let mean = |f: &dyn Fn(&RoundStats) -> usize| {
        let mut s = 0usize;
        for r in counted {
            s += f(&r.stats);
        }
        s as f64 / counted.len() as f64
    };
    let first = format!("mean over the first {} rounds", counted.len());
    report.metric("round.clients", mean(&|s| s.n_selected), "count", &first);
    report.metric(
        "round.malicious",
        mean(&|s| s.n_malicious_selected),
        "count",
        &first,
    );
    report.metric(
        "round.upload_bytes",
        mean(&|s| s.upload_bytes),
        "bytes",
        &first,
    );
    report.metric(
        "round.items_updated",
        mean(&|s| s.n_items_updated),
        "count",
        &first,
    );
    let width = rounds[0].stats.n_threads;
    report.metric("pool.width", width as f64, "threads", "round fan-out width");
    report.metric(
        "pool.busy_share",
        p(
            &col(&|r| r.cpu_s / (r.wall_s * r.stats.n_threads as f64)),
            0.5,
        ),
        "ratio",
        format!("median round CPU / (wall x width), {how}"),
    );
    report.metric(
        "round.self_ms_p50",
        p(
            &col(&|r| (r.wall_s - r.aggregate_s - r.attack_s - r.regularizer_s) * 1e3),
            0.5,
        ),
        "ms",
        format!("round wall minus aggregate, attack and regularizer time, {how}"),
    );
    report.metric(
        "aggregate.ms_p50",
        p(&col(&|r| r.aggregate_s * 1e3), 0.5),
        "ms",
        &how,
    );
    report.metric(
        "aggregate.share_of_round",
        total(&|r| r.aggregate_s) / total(&|r| r.wall_s),
        "ratio",
        &how,
    );
    report.metric(
        "aggregate.uploads",
        total(&|r| r.uploads as f64) / n,
        "count",
        format!("per round, {how}"),
    );
    report.metric(
        "attack.ms_per_round",
        total(&|r| r.attack_s * 1e3) / n,
        "ms",
        format!("summed over clients and threads, {how}"),
    );
    report.metric(
        "attack.clients_per_round",
        total(&|r| r.attack_calls as f64) / n,
        "count",
        &how,
    );
    // A share, not a time: workloads without a client-side defense have no
    // regularizer calls, and every traced run reports the same metrics.
    report.metric(
        "regularizer.share_of_round",
        total(&|r| r.regularizer_s) / total(&|r| r.wall_s * r.stats.n_threads as f64),
        "ratio",
        format!("observe + apply time over round wall x width, {how}"),
    );
    report.info(
        "regularizer.ms_per_round",
        total(&|r| r.regularizer_s * 1e3) / n,
        "ms",
        format!("observe + apply, summed over clients and threads, {how}"),
    );
    report.metric(
        "regularizer.calls_per_round",
        total(&|r| r.regularizer_calls as f64) / n,
        "count",
        &how,
    );
}
