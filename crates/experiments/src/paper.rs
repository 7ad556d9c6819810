//! One declaration per paper table/figure, consumed by the `paper` CLI.
//!
//! Every command is a declarative [`ExperimentSuite`] (or a bespoke report
//! builder) over registry selections: the ablation tables (VI, IX) sweep
//! the parameterized catalog entries `frs_attacks::variants` registers at
//! startup — zero runtime `register_attack` calls, so their cells rebuild
//! from serialized configs alone. A few figures (3, 4, 6b) and Table II
//! need direct simulation access and build their [`Report`] by hand; every
//! command renders through the same Markdown/CSV/JSON sinks.

use std::sync::Arc;

use frs_attacks::{AttackKind, AttackSel};
use frs_data::{synth, DataSource, DatasetSpec, DatasetStats};
use frs_defense::{DefenseKind, DefenseSel};
use frs_federation::ClientsPerRound;
use frs_metrics::{
    average_recommended_popularity, catalogue_coverage, covered_users, gini_coefficient,
    pairwise_kl, recommendation_frequency, user_coverage_ratio, DeltaNormTracker,
};
use frs_model::{LossKind, ModelKind};
use pieck_core::MultiTargetStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::sha256_hex;
use crate::cli::CommonArgs;
use crate::presets::{paper_scenario, PaperDataset};
use crate::report::{pct, Report, Table};
use crate::scenario::{build_simulation, build_world, ScenarioConfig};
use crate::suite::{Axis, ConfigPatch, ExecOptions, ExperimentSuite, RunOptions, Sweep};

/// Every subcommand of the `paper` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperCommand {
    Table2,
    Table3,
    Table4,
    Table5,
    Table6,
    Table7,
    Table9,
    Table10,
    Table11,
    Fig3,
    Fig4,
    Fig5,
    Fig6a,
    Fig6b,
    Fig7,
    PopularityBias,
    Scale,
}

impl PaperCommand {
    /// All commands, in paper order.
    pub fn all() -> [PaperCommand; 17] {
        use PaperCommand::*;
        [
            Table2,
            Table3,
            Table4,
            Table5,
            Table6,
            Table7,
            Table9,
            Table10,
            Table11,
            Fig3,
            Fig4,
            Fig5,
            Fig6a,
            Fig6b,
            Fig7,
            PopularityBias,
            Scale,
        ]
    }

    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Table2 => "table2",
            Self::Table3 => "table3",
            Self::Table4 => "table4",
            Self::Table5 => "table5",
            Self::Table6 => "table6",
            Self::Table7 => "table7",
            Self::Table9 => "table9",
            Self::Table10 => "table10",
            Self::Table11 => "table11",
            Self::Fig3 => "fig3",
            Self::Fig4 => "fig4",
            Self::Fig5 => "fig5",
            Self::Fig6a => "fig6a",
            Self::Fig6b => "fig6b",
            Self::Fig7 => "fig7",
            Self::PopularityBias => "popularity-bias",
            Self::Scale => "scale",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|c| c.name() == name)
    }

    /// Whether this command executes a cell grid — i.e. consults the suite
    /// cache and emits progress events. The bespoke commands drive a
    /// simulation directly and never touch either.
    pub fn emits_cell_events(&self) -> bool {
        !matches!(
            self,
            Self::Table2 | Self::Fig3 | Self::Fig4 | Self::PopularityBias | Self::Scale
        )
    }

    /// One-line description for `paper list`.
    pub fn description(&self) -> &'static str {
        match self {
            Self::Table2 => "PKL / UCR of mined popular sets (Table II)",
            Self::Table3 => "every attack × model × dataset, no defense (Table III)",
            Self::Table4 => "every defense × the top attacks (Table IV)",
            Self::Table5 => "effect of the list length K (Table V)",
            Self::Table6 => "L_IPE and L_def ablations (Table VI)",
            Self::Table7 => "q=10 and |T|=3 system settings (Table VII)",
            Self::Table9 => "multi-target strategies (Table IX)",
            Self::Table10 => "inconsistent learning rates (Table X)",
            Self::Table11 => "BCE vs BPR training loss (Table XI)",
            Self::Fig3 => "item-popularity long tail (Fig. 3)",
            Self::Fig4 => "Δ-Norm top-50 vs true popularity (Fig. 4)",
            Self::Fig5 => "malicious ratio p̃ and mined N sweeps (Fig. 5)",
            Self::Fig6a => "ER/HR convergence trends (Fig. 6a)",
            Self::Fig6b => "cost per communication round (Fig. 6b)",
            Self::Fig7 => "HR vs negative-sampling ratio q (Fig. 7)",
            Self::PopularityBias => "popularity bias of served lists (extension)",
            Self::Scale => "sampled million-client smoke cell (the CI scale gate)",
        }
    }

    /// Runs the command and returns its report. `args.positional[1..]` holds
    /// command operands (e.g. dataset names for `table3`); unknown operands
    /// are an `Err`, not a process exit, so programmatic callers can recover.
    ///
    /// Suite-backed commands execute through `exec` — their cells consult
    /// its cache and stream to its progress sink. The bespoke commands that
    /// drive a simulation directly (`table2`, `fig3`, `fig4`,
    /// `popularity-bias`) have no per-cell grid and bypass both.
    pub fn run(&self, args: &CommonArgs, exec: &ExecOptions<'_>) -> Result<Report, String> {
        let opts = args.run_options();
        let operands = &args.positional.get(1..).unwrap_or_default();
        Ok(match self {
            Self::Table2 => table2(args, &opts, exec),
            Self::Table3 => table3(operands)?
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .pivot_report(Axis::Attack, Axis::Dataset),
            Self::Table4 => table4(operands)?
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .pivot_report(Axis::Defense, Axis::Attack),
            Self::Table5 => table5()
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .pivot_report(Axis::Attack, Axis::Variant),
            Self::Table6 => {
                let result = table6().run_with(&opts, exec).map_err(|e| e.to_string())?;
                let mut report = Report::new(result.name.clone(), result.title.clone());
                // The two panels read best under different pivots: ablation
                // variants are rows on the left, defense switches on the right.
                report.section(
                    result.sweeps[0].title.clone(),
                    result.sweeps[0].pivot(Axis::Attack, Axis::Variant),
                );
                report.section(
                    result.sweeps[1].title.clone(),
                    result.sweeps[1].pivot(Axis::Variant, Axis::Attack),
                );
                report
            }
            Self::Table7 => table7()
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .pivot_report(Axis::Attack, Axis::Defense),
            Self::Table9 => table9()
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .pivot_report(Axis::Variant, Axis::Attack),
            Self::Table10 => table10()
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .pivot_report(Axis::Variant, Axis::Attack),
            Self::Table11 => table11()
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .pivot_report(Axis::Attack, Axis::Variant),
            Self::Fig3 => fig3(args, operands, &opts)?,
            Self::Fig4 => fig4(&opts, exec),
            Self::Fig5 => fig5(operands)
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .pivot_report(Axis::Variant, Axis::Attack),
            Self::Fig6a => fig6a(args, operands, &opts, exec)?,
            Self::Fig6b => fig6b(args, &opts, exec).map_err(|e| e.to_string())?,
            Self::Fig7 => fig7()
                .run_with(&opts, exec)
                .map_err(|e| e.to_string())?
                .report(),
            Self::PopularityBias => popularity_bias(args, &opts, exec),
            Self::Scale => scale_smoke(args, operands, &opts)?,
        })
    }
}

fn models_from(operands: &[String]) -> Result<Vec<ModelKind>, String> {
    match operands.first().map(String::as_str) {
        Some("mf") => Ok(vec![ModelKind::Mf]),
        Some("ncf") => Ok(vec![ModelKind::Ncf]),
        None => Ok(vec![ModelKind::Mf, ModelKind::Ncf]),
        Some(other) => Err(format!("unknown model {other}; use mf|ncf")),
    }
}

fn datasets_from(
    operands: &[String],
    default: &[PaperDataset],
) -> Result<Vec<PaperDataset>, String> {
    if operands.is_empty() {
        return Ok(default.to_vec());
    }
    operands
        .iter()
        .map(|name| {
            PaperDataset::from_name(name)
                .ok_or_else(|| format!("unknown dataset {name}; use ml100k|ml1m|az"))
        })
        .collect()
}

// ------------------------------------------------------------ suite tables

/// Table III: every attack, both model families, selected datasets.
fn table3(operands: &[String]) -> Result<ExperimentSuite, String> {
    let datasets = datasets_from(operands, &[PaperDataset::Ml100k])?;
    let mut suite =
        ExperimentSuite::new("table3", "Table III — attack effectiveness (ER@10 / HR@10)");
    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        suite = suite.sweep(
            Sweep::new(
                format!("attacks-{}", kind.label()),
                format!("{} — attacks × datasets, no defense", kind.label()),
            )
            .over_datasets(datasets.clone())
            .over_models([kind])
            .over_attacks(AttackKind::all()),
        );
    }
    Ok(suite)
}

/// Table IV: every defense × the top-3 attacks.
fn table4(operands: &[String]) -> Result<ExperimentSuite, String> {
    let mut suite =
        ExperimentSuite::new("table4", "Table IV — defense effectiveness (ml100k-like)");
    for kind in models_from(operands)? {
        suite = suite.sweep(
            Sweep::new(
                format!("defenses-{}", kind.label()),
                format!("{} — defenses × attacks", kind.label()),
            )
            .over_models([kind])
            .over_attacks([AttackKind::AHum, AttackKind::PieckIpe, AttackKind::PieckUea])
            .over_defenses(DefenseKind::all()),
        );
    }
    Ok(suite)
}

fn k_variants() -> [ConfigPatch; 2] {
    [
        ConfigPatch {
            label: "K=5".into(),
            eval_k: Some(5),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "K=20".into(),
            eval_k: Some(20),
            ..ConfigPatch::default()
        },
    ]
}

/// Table V: recommendation-list length K ∈ {5, 20}.
fn table5() -> ExperimentSuite {
    ExperimentSuite::new("table5", "Table V — effect of K (MF-FRS, ml100k-like)")
        .sweep(
            Sweep::new("undefended", "No defense")
                .over_attacks([
                    AttackKind::NoAttack,
                    AttackKind::PieckIpe,
                    AttackKind::PieckUea,
                ])
                .over_variants(k_variants()),
        )
        .sweep(
            Sweep::new("defended", "Our defense")
                .over_attacks([AttackKind::PieckIpe, AttackKind::PieckUea])
                .over_defenses([DefenseKind::Ours])
                .over_variants(k_variants()),
        )
}

/// Table VI: L_IPE ablation (left) and L_def ablation (right).
fn table6() -> ExperimentSuite {
    // The ablation rows are builtin parameterized catalog entries
    // (`frs_attacks::variants::IpeAblation`), not runtime registrations.
    let ablation_attacks = [
        "ipe-ablation-pkl",
        "ipe-ablation-pcos",
        "ipe-ablation-pcos-k",
        "ipe-ablation-full",
    ]
    .map(AttackSel::named);
    let def_variants =
        [(false, false), (true, false), (false, true), (true, true)].map(|(re1, re2)| {
            ConfigPatch {
                label: format!(
                    "Re1{} Re2{}",
                    if re1 { "+" } else { "−" },
                    if re2 { "+" } else { "−" }
                ),
                use_re1: Some(re1),
                use_re2: Some(re2),
                ..ConfigPatch::default()
            }
        });
    ExperimentSuite::new("table6", "Table VI — ablations (MF-FRS, ml100k-like)")
        .sweep(
            Sweep::new("ipe-loss", "L_IPE ablation (registered attack variants)")
                .over_attacks(ablation_attacks),
        )
        .sweep(
            // Re1−Re2− under `ours` contributes zero regularization — it *is*
            // the undefended row, so one sweep covers the whole right table.
            Sweep::new("def-loss", "L_def ablation")
                .over_attacks([AttackKind::PieckIpe, AttackKind::PieckUea])
                .over_defenses([DefenseKind::Ours])
                .over_variants(def_variants),
        )
}

/// Table VII: large sampling ratio (q=10) and multiple targets (|T|=3).
fn table7() -> ExperimentSuite {
    ExperimentSuite::new(
        "table7",
        "Table VII — system settings (MF-FRS, ml100k-like)",
    )
    .sweep(
        Sweep::new("q10", "sampling ratio q = 10")
            .over_attacks([
                AttackKind::NoAttack,
                AttackKind::PieckIpe,
                AttackKind::PieckUea,
            ])
            .over_defenses([DefenseKind::NoDefense, DefenseKind::Ours])
            .over_variants([ConfigPatch {
                label: "q=10".into(),
                negative_ratio: Some(10),
                ..ConfigPatch::default()
            }])
            .mined_n(10, 15),
    )
    .sweep(
        Sweep::new("t3", "target count |T| = 3")
            .over_attacks([
                AttackKind::NoAttack,
                AttackKind::PieckIpe,
                AttackKind::PieckUea,
            ])
            .over_defenses([DefenseKind::NoDefense, DefenseKind::Ours])
            .over_variants([ConfigPatch {
                label: "|T|=3".into(),
                n_targets: Some(3),
                ..ConfigPatch::default()
            }]),
    )
}

/// The Table IX rows: builtin catalog entries pinning PIECK to a
/// multi-target strategy (`frs_attacks::variants::MultiTargetPieck`), with
/// the paper's per-solution mined-set sizes as their `top_n` defaults.
fn multi_target_attacks(strategy: MultiTargetStrategy) -> Vec<AttackSel> {
    let suffix = match strategy {
        MultiTargetStrategy::TrainTogether => "together",
        MultiTargetStrategy::TrainOneThenCopy => "copy",
    };
    ["pieck-ipe", "pieck-uea"]
        .into_iter()
        .map(|base| AttackSel::named(format!("{base}-{suffix}")))
        .collect()
}

/// Table IX: |T| ∈ {2..5} under both multi-target strategies.
fn table9() -> ExperimentSuite {
    let target_variants: Vec<ConfigPatch> = [2usize, 3, 4, 5]
        .into_iter()
        .map(|t| ConfigPatch {
            label: format!("|T|={t}"),
            n_targets: Some(t),
            ..ConfigPatch::default()
        })
        .collect();
    let mut suite = ExperimentSuite::new(
        "table9",
        "Table IX — multi-target strategies (MF-FRS, ml100k-like)",
    );
    for strategy in [
        MultiTargetStrategy::TrainTogether,
        MultiTargetStrategy::TrainOneThenCopy,
    ] {
        suite = suite.sweep(
            Sweep::new(format!("{strategy:?}"), format!("{strategy:?}"))
                .over_attacks(multi_target_attacks(strategy))
                .over_variants(target_variants.clone()),
        );
    }
    suite
}

/// Table X: inconsistent client/server learning rates.
fn table10() -> ExperimentSuite {
    ExperimentSuite::new(
        "table10",
        "Table X — client learning rates (MF-FRS, ml100k-like)",
    )
    .sweep(
        Sweep::new("rates", "client η schedules")
            .over_attacks([
                AttackKind::NoAttack,
                AttackKind::PieckIpe,
                AttackKind::PieckUea,
            ])
            .over_variants([
                ConfigPatch::labeled("1e-0 (consistent)"),
                ConfigPatch {
                    label: "1e-2 (static)".into(),
                    client_learning_rate: Some(0.01),
                    ..ConfigPatch::default()
                },
                ConfigPatch {
                    label: "1e-2..1e-0 (dynamic)".into(),
                    client_lr_cycle: Some((0.01, 1.0)),
                    ..ConfigPatch::default()
                },
            ]),
    )
}

fn loss_variants() -> [ConfigPatch; 2] {
    [
        ConfigPatch {
            label: "BCE".into(),
            loss: Some(LossKind::Bce),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "BPR".into(),
            loss: Some(LossKind::Bpr),
            ..ConfigPatch::default()
        },
    ]
}

/// Table XI: BCE vs BPR training loss.
fn table11() -> ExperimentSuite {
    ExperimentSuite::new(
        "table11",
        "Table XI — loss generalization (MF-FRS, ml100k-like)",
    )
    .sweep(
        Sweep::new("undefended", "No defense")
            .over_attacks([
                AttackKind::NoAttack,
                AttackKind::PieckIpe,
                AttackKind::PieckUea,
            ])
            .over_variants(loss_variants()),
    )
    .sweep(
        Sweep::new("defended", "Our defense")
            .over_attacks([AttackKind::PieckIpe, AttackKind::PieckUea])
            .over_defenses([DefenseKind::Ours])
            .over_variants(loss_variants()),
    )
}

/// Fig. 5: malicious-ratio and mined-N sweeps, each with and without the
/// defense.
fn fig5(operands: &[String]) -> ExperimentSuite {
    let which = operands.first().map(String::as_str).unwrap_or("both");
    let ratio_variants: Vec<ConfigPatch> = [0.01, 0.05, 0.10, 0.15]
        .into_iter()
        .map(|p| ConfigPatch {
            label: format!("p̃={:.0}%", p * 100.0),
            malicious_ratio: Some(p),
            mined_top_n: Some(10),
            ..ConfigPatch::default()
        })
        .collect();
    let n_variants: Vec<ConfigPatch> = [5usize, 10, 50, 250]
        .into_iter()
        .map(|n| ConfigPatch {
            label: format!("N={n}"),
            mined_top_n: Some(n),
            ..ConfigPatch::default()
        })
        .collect();

    let mut suite = ExperimentSuite::new("fig5", "Fig. 5 — parameter sweeps (MF-FRS, ml100k-like)");
    for (axis, variants, enabled) in [
        ("p", ratio_variants, which == "p" || which == "both"),
        ("n", n_variants, which == "n" || which == "both"),
    ] {
        if !enabled {
            continue;
        }
        let what = if axis == "p" {
            "malicious ratio p̃"
        } else {
            "mined popular item number N"
        };
        for defense in [DefenseKind::NoDefense, DefenseKind::Ours] {
            suite = suite.sweep(
                Sweep::new(
                    format!("{axis}-{}", defense.name()),
                    format!("{what} ({})", defense.label()),
                )
                .over_attacks([AttackKind::PieckIpe, AttackKind::PieckUea])
                .over_defenses([defense])
                .over_variants(variants.clone()),
            );
        }
    }
    suite
}

/// Fig. 7: HR@10 vs negative-sampling ratio q (no attack).
fn fig7() -> ExperimentSuite {
    ExperimentSuite::new(
        "fig7",
        "Fig. 7 — HR@10 vs sampling ratio q (MF-FRS, ml100k-like)",
    )
    .sweep(Sweep::new("q", "sampling ratio q").over_variants(
        [1usize, 2, 4, 6, 8, 10, 12, 16].map(|q| ConfigPatch {
            label: format!("q={q}"),
            negative_ratio: Some(q),
            ..ConfigPatch::default()
        }),
    ))
}

// --------------------------------------------------------- bespoke reports

/// The bespoke commands drive one simulation at a time, so an `Auto` policy
/// simply leases from the shared budget for the simulation's lifetime (the
/// sole holder gets the whole grant).
fn bespoke_lease(opts: &RunOptions, exec: &ExecOptions<'_>) -> Option<frs_federation::CoreLease> {
    exec.budget
        .filter(|_| opts.round_threads.is_auto())
        .map(|budget| budget.lease())
}

/// `paper scale [n_users]` — the sampled million-client smoke cell (the CI
/// scale gate). One paper-faithful MF round loop over a synthetic long-tail
/// population of `n_users` registered clients (default 1,000,000): benign
/// clients materialize lazily from the embedding arena, uploads stay
/// sparse, and the default defense aggregates item-sharded
/// (`median:shards=8`). Evaluation ranks a deterministic ~10k-user stride
/// subsample — full-population ranking is an experiment of its own — and
/// the report is byte-stable for a given seed: identical across
/// `--round-threads` policies and replays, so CI `cmp`s
/// two runs' reports verbatim. A SHA-256 digest over the final item table
/// and the evaluated users' embedding bits pins the entire training
/// trajectory, not just the headline metrics.
fn scale_smoke(
    args: &CommonArgs,
    operands: &[String],
    opts: &RunOptions,
) -> Result<Report, String> {
    let n_users: usize = match operands.first().map(String::as_str) {
        Some(s) => s
            .replace('_', "")
            .parse()
            .map_err(|_| format!("bad population `{s}`; use a client count"))?,
        None => 1_000_000,
    };
    if n_users < 100 {
        return Err("population must be ≥ 100 (this is the scale smoke)".into());
    }

    // Million-client regimes are sparse by nature: a modest catalogue and
    // tiny per-user histories, so the population — not the data volume —
    // is what the cell exercises.
    let spec = DatasetSpec {
        name: format!("scale-{n_users}"),
        n_users,
        n_items: 2000,
        n_interactions: n_users.saturating_mul(3),
        item_zipf_exponent: 0.9,
        user_zipf_exponent: 0.6,
        min_interactions_per_user: 2,
        source: DataSource::Synth,
    };
    let mut cfg = ScenarioConfig::baseline(spec, ModelKind::Mf, opts.seed);
    cfg.rounds = args.rounds_or(3);
    cfg.attack = args
        .attack
        .clone()
        .unwrap_or_else(|| AttackKind::PieckUea.into());
    cfg.defense = match &args.defense {
        Some(d) => d.clone(),
        None => DefenseSel::parse("median:shards=8").expect("builtin defense spec"),
    };
    // 0.1% malicious: ~1k boxed attacker clients at the million mark — the
    // lazy pool keeps the other 99.9% as arena rows only.
    cfg.malicious_ratio = 0.001;
    cfg.federation.clients_per_round = opts
        .clients_per_round
        .unwrap_or(ClientsPerRound::Count(1024));
    cfg.federation.round_threads = opts.round_threads;

    let (full, split, targets) = build_world(&cfg);
    // Every retained Dataset copy is ~100 MB at the million mark; the RSS
    // ceiling CI asserts depends on dropping the unsplit original here.
    drop(full);
    let train = Arc::new(split.train.clone());
    let mut sim = build_simulation(&cfg, Arc::clone(&train), &targets);
    for _ in 0..cfg.rounds {
        sim.run_round();
    }

    let stride = (n_users / 10_000).max(1);
    let eval_users: Vec<usize> = (0..train.n_users()).step_by(stride).collect();
    let embs = sim.user_embeddings();
    let er = frs_metrics::ExposureReport::compute(
        sim.model(),
        &embs,
        &eval_users,
        &train,
        &targets,
        cfg.eval_k,
    );
    let hr =
        frs_metrics::QualityReport::compute(sim.model(), &embs, &eval_users, &split, cfg.eval_k);

    // Exact final-state bits: item table first, then each evaluated user's
    // embedding row. Any nondeterminism anywhere in the run lands here.
    let mut state = Vec::with_capacity(
        (sim.model().items().as_slice().len() + eval_users.len() * sim.model().dim()) * 4,
    );
    for &x in sim.model().items().as_slice() {
        state.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for &u in &eval_users {
        for &x in embs.row(u) {
            state.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    let digest = sha256_hex(&state);

    let stats = sim.stats();
    let mut report = Report::new(
        "scale",
        format!("Scale smoke — sampled federation at {n_users} clients"),
    );
    let mut table = Table::new(&["metric", "value"]);
    table.row(&["registered clients".into(), n_users.to_string()]);
    table.row(&[
        "clients per round".into(),
        format!(
            "{} (effective {})",
            cfg.federation.clients_per_round,
            cfg.federation.clients_per_round.effective(sim.n_clients())
        ),
    ]);
    table.row(&["rounds".into(), cfg.rounds.to_string()]);
    table.row(&["attack".into(), cfg.attack.label()]);
    table.row(&["defense".into(), cfg.defense.label()]);
    table.row(&[
        "malicious sampled".into(),
        stats.total_malicious_selected.to_string(),
    ]);
    table.row(&["upload bytes".into(), stats.total_upload_bytes.to_string()]);
    table.row(&["eval users".into(), eval_users.len().to_string()]);
    table.row(&[format!("ER@{}", cfg.eval_k), pct(er.mean_percent())]);
    table.row(&[format!("HR@{}", cfg.eval_k), pct(hr.hr_percent())]);
    table.row(&["NDCG".into(), format!("{:.6}", hr.ndcg)]);
    table.row(&["state digest".into(), digest]);
    report.section("Sampled cell", table);
    Ok(report)
}

/// Table II: PKL and UCR of the Δ-Norm-mined popular set, per model family.
fn table2(args: &CommonArgs, opts: &RunOptions, exec: &ExecOptions<'_>) -> Report {
    let mut report = Report::new("table2", "Table II — PKL and UCR of mined popular sets");
    let sizes = [1usize, 10, 50, 150];
    let rounds = args.rounds_or(200);

    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        let mut cfg = paper_scenario(PaperDataset::Ml100k, kind, opts.scale, opts.seed);
        cfg.federation.round_threads = opts.round_threads;
        let (_, split, _) = build_world(&cfg);
        let train = Arc::new(split.train.clone());
        let mut sim = build_simulation(&cfg, Arc::clone(&train), &[]);
        sim.set_core_lease(bespoke_lease(opts, exec));

        // Track Δ-Norm across the whole run so the mined set is the stable one.
        let mut tracker = DeltaNormTracker::new(train.n_items());
        tracker.observe(sim.model().items());
        for _ in 0..rounds {
            sim.run_round();
            tracker.observe(sim.model().items());
        }

        let embs = sim.user_embeddings();
        let mut table = Table::new(&["N", "PKL", "UCR"]);
        for &n in &sizes {
            let popular = tracker.top_n(n);
            let item_embs: Vec<&[f32]> = popular
                .iter()
                .map(|&j| sim.model().item_embedding(j))
                .collect();
            let covered = covered_users(&train, &popular);
            let user_embs: Vec<&[f32]> = covered.iter().map(|&u| embs.row(u)).collect();
            table.row(&[
                n.to_string(),
                format!("{:.4}", pairwise_kl(&item_embs, &user_embs)),
                pct(user_coverage_ratio(&train, &popular) * 100.0),
            ]);
        }
        report.section(
            format!("{} — round {rounds} on {}", kind.label(), cfg.dataset.name),
            table,
        );
    }
    report
}

/// Fig. 3: item-popularity long-tail distribution.
fn fig3(args: &CommonArgs, operands: &[String], opts: &RunOptions) -> Result<Report, String> {
    let mut report = Report::new("fig3", "Fig. 3 — item-popularity distribution");
    for dataset in datasets_from(operands, &[PaperDataset::Ml100k, PaperDataset::Az])? {
        let spec = if opts.scale < 1.0 {
            dataset.spec().scaled(opts.scale)
        } else {
            dataset.spec()
        };
        let data = synth::generate(&spec, &mut StdRng::seed_from_u64(args.seed));
        let stats = DatasetStats::compute(&data);
        let mut table = Table::new(&["Top items (%)", "Share of interactions (%)"]);
        for top in [1.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0] {
            let share = stats.head_share(top / 100.0) * 100.0;
            table.row(&[format!("{top:.0}"), format!("{share:.1}")]);
        }
        report
            .section(
                format!(
                    "{} ({} users, {} items, {} interactions)",
                    spec.name, stats.n_users, stats.n_items, stats.n_interactions
                ),
                table,
            )
            .note(format!(
                "items covering 50% of interactions: {:.1}% of the catalogue  |  \
                 top-15% share: {:.1}% (paper: >50%)",
                stats.items_covering(0.5) * 100.0,
                stats.head_share(0.15) * 100.0
            ));
    }
    Ok(report)
}

/// Fig. 4: popularity ranks of the top-50 items by Δ-Norm over rounds.
fn fig4(opts: &RunOptions, exec: &ExecOptions<'_>) -> Report {
    let mut report = Report::new("fig4", "Fig. 4 — Δ-Norm top-50 vs true popularity");
    // Snapshot rounds are pinned to the paper's panels; `--rounds` does not
    // apply here.
    let snapshots = [4usize, 8, 20, 80];
    let top_k = 50;

    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        let mut cfg = paper_scenario(PaperDataset::Ml100k, kind, opts.scale, opts.seed);
        cfg.federation.round_threads = opts.round_threads;
        let (_, split, _) = build_world(&cfg);
        let train = Arc::new(split.train.clone());
        let popularity_rank = train.popularity_rank_of();
        let n_popular = (train.n_items() as f64 * 0.15).ceil() as usize;
        let mut sim = build_simulation(&cfg, Arc::clone(&train), &[]);
        sim.set_core_lease(bespoke_lease(opts, exec));

        let mut table = Table::new(&[
            "Round",
            "popular in top-50 (true top-15%)",
            "median popularity rank",
            "max popularity rank",
        ]);
        let mut tracker = DeltaNormTracker::new(train.n_items());
        tracker.observe(sim.model().items());
        let last = *snapshots.last().unwrap();
        for round in 1..=last {
            sim.run_round();
            tracker.observe(sim.model().items());
            if snapshots.contains(&round) {
                let top = tracker.top_n(top_k);
                let mut ranks: Vec<usize> =
                    top.iter().map(|&j| popularity_rank[j as usize]).collect();
                ranks.sort_unstable();
                let popular_hits = ranks.iter().filter(|&&r| r < n_popular).count();
                table.row(&[
                    round.to_string(),
                    format!("{popular_hits}/{top_k}"),
                    ranks[ranks.len() / 2].to_string(),
                    ranks.last().unwrap().to_string(),
                ]);
                tracker.reset_accumulation();
            }
        }
        report.section(
            format!(
                "top-{top_k} Δ-Norm items on {} ({})",
                cfg.dataset.name,
                kind.label()
            ),
            table,
        );
    }
    report
}

/// Fig. 6(a): ER/HR convergence trends of IPE vs UEA.
fn fig6a(
    args: &CommonArgs,
    operands: &[String],
    opts: &RunOptions,
    exec: &ExecOptions<'_>,
) -> Result<Report, String> {
    let dataset = datasets_from(operands, &[PaperDataset::Ml1m])?
        .into_iter()
        .next()
        .expect("datasets_from returns at least the default");
    let rounds = args.rounds_or(400);
    let every = (rounds / 20).max(1);

    let suite = ExperimentSuite::new("fig6a", "Fig. 6(a) — convergence trends (MF-FRS)").sweep(
        Sweep::new("trend", "trend")
            .over_datasets([dataset.clone()])
            .over_attacks([AttackKind::PieckIpe, AttackKind::PieckUea])
            .rounds(rounds)
            .trend_every(every),
    );
    let result = suite
        .run_with(
            &RunOptions {
                rounds: Some(rounds),
                ..opts.clone()
            },
            exec,
        )
        .map_err(|e| e.to_string())?;
    let cells = &result.sweeps[0].cells;
    let (ipe, uea) = (&cells[0], &cells[1]);

    let mut table = Table::new(&["Round", "IPE ER", "IPE HR", "UEA ER", "UEA HR"]);
    for (i, p) in ipe.outcome.trend.iter().enumerate() {
        let u = &uea.outcome.trend[i];
        table.row(&[
            p.round.to_string(),
            pct(p.er),
            pct(p.hr),
            pct(u.er),
            pct(u.hr),
        ]);
    }
    let mut report = Report::new("fig6a", "Fig. 6(a) — convergence trends (MF-FRS)");
    report.section(format!("ER@10 / HR@10 trend on {}", dataset.name()), table);
    Ok(report)
}

/// Fig. 6(b): mean wall-clock cost per round, per model family.
///
/// Timing-sensitive: a cache hit replays the *cold* run's measured wall
/// time (the cache persists it), so warm reports stay byte-identical.
fn fig6b(
    args: &CommonArgs,
    opts: &RunOptions,
    exec: &ExecOptions<'_>,
) -> Result<Report, crate::progress::SuiteAborted> {
    let rounds = args.rounds_or(50);
    let mut suite = ExperimentSuite::new("fig6b", "Fig. 6(b) — cost per round (ml1m-like)");
    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        suite = suite
            .sweep(
                Sweep::new(
                    format!("attacks-{}", kind.label()),
                    kind.label().to_string(),
                )
                .over_datasets([PaperDataset::Ml1m])
                .over_models([kind])
                .over_attacks([
                    AttackKind::NoAttack,
                    AttackKind::PieckIpe,
                    AttackKind::PieckUea,
                ])
                .mined_n(10, 10)
                .rounds(rounds),
            )
            .sweep(
                Sweep::new(
                    format!("defense-{}", kind.label()),
                    format!("{} (defense)", kind.label()),
                )
                .over_datasets([PaperDataset::Ml1m])
                .over_models([kind])
                .over_defenses([DefenseKind::Ours])
                .mined_n(10, 10)
                .rounds(rounds),
            );
    }
    let result = suite.run_with(
        &RunOptions {
            rounds: Some(rounds),
            ..opts.clone()
        },
        exec,
    )?;

    let mut table = Table::new(&["Model", "Scenario", "ms/round", "KiB uploaded/round"]);
    for r in result.all_cells() {
        let label = if r.cell.defense == DefenseKind::Ours {
            "DEFENSE(ours)".to_string()
        } else if r.cell.attack.is_none() {
            "No(Att.&Def.)".to_string()
        } else {
            r.cell.attack.label()
        };
        table.row(&[
            r.cell.model.label().to_string(),
            label,
            format!("{:.2}", r.outcome.mean_round_time.as_secs_f64() * 1e3),
            format!(
                "{:.1}",
                r.outcome.total_upload_bytes as f64 / rounds as f64 / 1024.0
            ),
        ]);
    }
    let mut report = Report::new("fig6b", "Fig. 6(b) — cost per round (ml1m-like)");
    report.section("mean time and upload volume per communication round", table);
    Ok(report)
}

/// Extension experiment: popularity bias of the served top-10 lists.
fn popularity_bias(args: &CommonArgs, opts: &RunOptions, exec: &ExecOptions<'_>) -> Report {
    let mut table = Table::new(&["Scenario", "coverage@10", "Gini", "mean rec. popularity"]);
    for (label, attack, defense) in [
        ("clean", AttackKind::NoAttack, DefenseKind::NoDefense),
        ("PIECK-UEA", AttackKind::PieckUea, DefenseKind::NoDefense),
        ("UEA + ours", AttackKind::PieckUea, DefenseKind::Ours),
        ("defense only", AttackKind::NoAttack, DefenseKind::Ours),
    ] {
        let mut cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, opts.scale, opts.seed);
        cfg.attack = attack.into();
        cfg.defense = defense.into();
        cfg.mined_top_n = 30;
        cfg.federation.round_threads = opts.round_threads;
        let (_, split, targets) = build_world(&cfg);
        let train = Arc::new(split.train.clone());
        let mut sim = build_simulation(&cfg, Arc::clone(&train), &targets);
        sim.set_core_lease(bespoke_lease(opts, exec));
        sim.run(args.rounds_or(150));
        let benign = sim.benign_ids();
        let freq =
            recommendation_frequency(sim.model(), &sim.user_embeddings(), &benign, &train, 10);
        table.row(&[
            label.to_string(),
            format!("{:.3}", catalogue_coverage(&freq)),
            format!("{:.3}", gini_coefficient(&freq)),
            format!("{:.1}", average_recommended_popularity(&freq, &train)),
        ]);
    }
    let mut report = Report::new(
        "popularity-bias",
        "Extension — popularity bias of served top-10 lists (MF-FRS, ml100k-like)",
    );
    report
        .section(
            "catalogue coverage, Gini, mean recommended popularity",
            table,
        )
        .note(
            "Reading: PIECK-UEA drags a cold item into the lists (lower mean \
             recommended popularity, Gini slightly up); the defense restores the \
             clean profile without flattening the system's natural popularity skew.",
        );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names_round_trip() {
        for cmd in PaperCommand::all() {
            assert_eq!(PaperCommand::from_name(cmd.name()), Some(cmd));
            assert!(!cmd.description().is_empty());
        }
        assert_eq!(PaperCommand::from_name("table1"), None);
    }

    #[test]
    fn suite_declarations_expand() {
        assert_eq!(table3(&[]).unwrap().cell_count(), 2 * 7);
        assert_eq!(table4(&[]).unwrap().cell_count(), 2 * 3 * 8);
        assert_eq!(table5().cell_count(), 3 * 2 + 2 * 2);
        assert_eq!(table6().cell_count(), 4 + 2 * 4);
        assert_eq!(table7().cell_count(), 2 * 3 * 2);
        assert_eq!(table9().cell_count(), 2 * 2 * 4);
        assert_eq!(table10().cell_count(), 3 * 3);
        assert_eq!(table11().cell_count(), 3 * 2 + 2 * 2);
        assert_eq!(fig5(&[]).cell_count(), 4 * 2 * 4);
        assert_eq!(fig5(&["p".to_string()]).cell_count(), 2 * 2 * 4);
        assert_eq!(fig7().cell_count(), 8);
    }

    #[test]
    fn ablation_attacks_are_builtin_catalog_entries() {
        // The names resolve from a cold registry, *before* any suite is
        // declared: table6/table9 perform zero runtime registrations.
        assert!(frs_attacks::attack_factory("ipe-ablation-pkl").is_some());
        assert!(frs_attacks::attack_factory("ipe-ablation-full").is_some());
        assert!(frs_attacks::attack_factory("pieck-uea-copy").is_some());
        assert!(frs_attacks::attack_factory("pieck-ipe-together").is_some());
        // And every cell the ablation suites materialize builds cleanly
        // from its serialized config alone.
        for suite in [table6(), table9()] {
            for cell in suite.cells(&RunOptions::default()) {
                let ctx = cell.config.attack_ctx(0, 0, &[]);
                cell.config
                    .attack
                    .try_build_clients(&ctx)
                    .unwrap_or_else(|e| panic!("{}: {e}", cell.config.attack));
            }
        }
    }

    #[test]
    fn table7_policy_sets_uea_mined_n() {
        let opts = RunOptions::default();
        let cells = table7().cells(&opts);
        let uea_q10 = cells
            .iter()
            .find(|c| c.sweep == "q10" && c.attack == AttackKind::PieckUea)
            .unwrap();
        assert_eq!(uea_q10.config.mined_top_n, 15);
        assert_eq!(uea_q10.config.federation.negative_ratio, 10);
        let uea_t3 = cells
            .iter()
            .find(|c| c.sweep == "t3" && c.attack == AttackKind::PieckUea)
            .unwrap();
        assert_eq!(uea_t3.config.mined_top_n, 30);
        assert_eq!(uea_t3.config.n_targets, 3);
    }
}
