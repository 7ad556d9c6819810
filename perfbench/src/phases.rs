//! Steps every workload shares: repeated timing, readings of the host's
//! speed, the pinned output check and the host report.

use std::sync::Arc;

use frs_data::TrainTestSplit;
use frs_experiments::scenario::{build_simulation, build_world};
use frs_experiments::ScenarioConfig;
use frs_federation::Simulation;

use crate::host::{self, now, ReferenceKernel, KERNEL_REF_S};
use crate::report::Report;
use crate::stats;
use crate::trace::{build_traced_simulation, Meters};
use crate::workload::{check_pins, evaluate, Evaluation, Workload, PINNED_SEED};

/// Runs `f` at least `min_reps` times and until `min_seconds` have passed,
/// at most `max_reps` times, and returns every result.
pub fn repeat<T>(
    min_reps: usize,
    min_seconds: f64,
    max_reps: usize,
    mut f: impl FnMut() -> T,
) -> Vec<T> {
    let start = now();
    let mut out = Vec::new();
    while out.len() < max_reps
        && (out.len() < min_reps || start.elapsed().as_secs_f64() < min_seconds)
    {
        out.push(f());
    }
    out
}

/// Readings of the reference kernel taken between stretches of measured
/// work: the host's speed while each stretch ran.
pub struct HostSpeed {
    kernel: ReferenceKernel,
    readings: Vec<f64>,
}

impl HostSpeed {
    /// Takes the first reading, which opens the first stretch.
    pub fn new() -> Self {
        let mut kernel = ReferenceKernel::new();
        let readings = vec![kernel.sample()];
        Self { kernel, readings }
    }

    /// Closes a stretch of work with a reading (which also opens the next)
    /// and returns the factor that scales the stretch's times to the
    /// reference speed: `KERNEL_REF_S` over the mean of the readings either
    /// side of it.
    pub fn close_stretch(&mut self) -> f64 {
        let before = self.readings[self.readings.len() - 1];
        let after = self.kernel.sample();
        self.readings.push(after);
        KERNEL_REF_S / (0.5 * (before + after))
    }

    /// Median reading in milliseconds, with the count.
    pub fn median_ms(&self) -> (f64, usize) {
        (
            stats::median(&self.readings).unwrap_or(f64::NAN) * 1e3,
            self.readings.len(),
        )
    }
}

/// Time samples of one metric, as measured and scaled to the reference
/// kernel's speed.
#[derive(Default)]
pub struct Samples {
    wall: Vec<f64>,
    scaled: Vec<f64>,
}

impl Samples {
    pub fn add(&mut self, seconds: &[f64], scale: f64) {
        self.wall.extend_from_slice(seconds);
        self.scaled.extend(seconds.iter().map(|s| s * scale));
    }

    /// `(scaled median, wall median, count)`.
    pub fn medians(&self) -> (f64, f64, usize) {
        (
            stats::median(&self.scaled).unwrap_or(f64::NAN),
            stats::median(&self.wall).unwrap_or(f64::NAN),
            self.wall.len(),
        )
    }
}

/// Reports an end-to-end time at the reference host speed, with the wall
/// time beside it; `invert` reports one over it (a rate).
pub fn report_scaled(
    name: &str,
    unit: &str,
    samples: &Samples,
    invert: bool,
    how: &str,
    report: &mut Report,
) {
    let (scaled, wall, n) = samples.medians();
    let f = |v: f64| if invert { 1.0 / v } else { v };
    report.metric(
        name,
        f(scaled),
        unit,
        format!("{how}; median of {n}, at the reference kernel's speed"),
    );
    report.info(
        &format!("{name}.wall"),
        f(wall),
        unit,
        "the same median as measured",
    );
}

/// Median of `values` with the sample count, for the printed notes.
pub fn median_of(values: &[f64]) -> (f64, String) {
    let m = stats::median(values).unwrap_or(f64::NAN);
    (m, format!("median of {}", values.len()))
}

/// The pinned state: [`PINNED_SEED`] trained for the workload's pinned
/// rounds, whose evaluation every run times and checks against
/// `pins.json`.
pub struct Pinned {
    workload: Workload,
    cfg: ScenarioConfig,
    split: TrainTestSplit,
    targets: Vec<u32>,
    users: Vec<usize>,
    sim: Simulation,
}

impl Pinned {
    /// Builds and trains the pinned state (through the traced assembly
    /// when `meters` is given).
    pub fn build(workload: Workload, meters: Option<&Arc<Meters>>) -> Self {
        let cfg = workload.config(PINNED_SEED);
        let (full, split, targets) = build_world(&cfg);
        drop(full);
        let train = Arc::new(split.train.clone());
        let mut sim = match meters {
            Some(m) => build_traced_simulation(&cfg, Arc::clone(&train), &targets, m),
            None => build_simulation(&cfg, Arc::clone(&train), &targets),
        };
        for _ in 0..workload.pinned_rounds() {
            sim.run_round();
        }
        let users = workload.eval_users(&sim, &train);
        Self {
            workload,
            cfg,
            split,
            targets,
            users,
            sim,
        }
    }

    pub fn evaluate(&self) -> Evaluation {
        evaluate(
            &self.cfg,
            &self.sim,
            &self.users,
            &self.split,
            &self.targets,
        )
    }

    /// Checks that every evaluation of the state is identical and matches
    /// `pins.json`.
    pub fn check(&self, evals: &[Evaluation], report: &mut Report) {
        let first = &evals[0];
        report.check(evals.iter().all(|e| e.outputs() == first.outputs()), || {
            "repeated evaluations of one state differ".into()
        });
        let pinned = check_pins(self.workload, first);
        report.check(pinned.is_ok(), || pinned.clone().unwrap_err());
        report.note(format!(
            "pinned seed {PINNED_SEED}, {} rounds: ER@10 {:.4}% HR@10 {:.4}% NDCG {:.6} over {} users, digest {}",
            self.workload.pinned_rounds(),
            first.er_percent,
            first.hr_percent,
            first.ndcg,
            first.users,
            first.digest
        ));
    }
}

/// Reports the per-call evaluation layers of a traced run.
pub fn report_eval_layers(evals: &[Evaluation], report: &mut Report) {
    let ms = |part: fn(&Evaluation) -> f64| {
        let v: Vec<f64> = evals.iter().map(|e| part(e) * 1e3).collect();
        median_of(&v)
    };
    for (name, (m, how)) in [
        ("eval.snapshot_ms", ms(|e| e.snapshot_s)),
        ("eval.exposure_ms", ms(|e| e.exposure_s)),
        ("eval.quality_ms", ms(|e| e.quality_s)),
    ] {
        report.metric(name, m, "ms", how);
    }
    report.metric("eval.users", evals[0].users as f64, "count", "users ranked");
}

/// Host conditions: context for untraced runs, metrics for traced ones.
pub fn report_host(
    steal_from: Option<host::CpuTimes>,
    speed: &HostSpeed,
    traced: bool,
    report: &mut Report,
) {
    let steal = match (steal_from, host::read_cpu_times()) {
        (Some(a), Some(b)) => host::steal_share(a, b),
        _ => f64::NAN,
    };
    let (kernel_ms, readings) = speed.median_ms();
    if traced {
        report.metric(
            "host.steal_share",
            steal,
            "ratio",
            "/proc/stat over the run",
        );
        report.metric(
            "host.cores",
            host::cores() as f64,
            "count",
            "available parallelism",
        );
        report.metric(
            "host.kernel_ms",
            kernel_ms,
            "ms",
            format!("reference kernel pass, median of {readings} readings"),
        );
    } else {
        report.info(
            "fail_share",
            report.fail_share(),
            "ratio",
            "failed checks and queries over attempted",
        );
        report.note(format!(
            "host steal_share {steal:.4} over the run, cores {}, reference kernel {kernel_ms:.3} ms \
             (median of {readings} readings; {:.1} ms is the reference speed)",
            host::cores(),
            KERNEL_REF_S * 1e3
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_each_stretch_by_its_own_factor() {
        let mut s = Samples::default();
        s.add(&[1.0, 2.0, 3.0], 0.5);
        s.add(&[10.0], 2.0);
        // Scaled 0.5, 1, 1.5, 20 and wall 1, 2, 3, 10: lower middles.
        assert_eq!(s.medians(), (1.0, 2.0, 4));
    }
}
