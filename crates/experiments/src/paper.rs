//! One declaration per paper table/figure, consumed by the `paper` CLI.
//!
//! Every command is a declarative [`ExperimentSuite`] (or a bespoke report
//! builder) over catalog selections: the ablation tables (VI, IX) sweep
//! the parameterized rows of `frs_attacks::variants`, so their cells
//! rebuild from serialized configs alone. Table II, Fig. 4,
//! `popularity-bias` and `scale` need the simulation between rounds: they
//! drive a [`ScenarioRun`] themselves and build their [`Report`] by hand
//! (Fig. 3 only builds datasets). Every command builds its scenarios
//! through `RunOptions::scenario`, so the shared flags mean the same
//! everywhere, and renders through the same Markdown/CSV/JSON sinks. Three
//! commands keep one thing of their own: Fig. 4 its pinned snapshot
//! rounds, `popularity-bias` its four attack × defense rows, and `scale`
//! its population ([`scale_scenario`]), which `--dataset` and `--scale` do
//! not touch.

use frs_attacks::AttackKind;
use frs_data::DatasetStats;
use frs_defense::DefenseKind;
use frs_federation::Catalog;
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
use crate::presets::{scale_scenario, PaperDataset};
use crate::report::{pct, Report, Table};
use crate::scenario::{self, stride_sample, ScenarioRun};
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
    /// `popularity-bias`, `scale`) have no per-cell grid and bypass both;
    /// they take only its core budget.
    pub fn run(&self, args: &CommonArgs, exec: &ExecOptions<'_>) -> Result<Report, String> {
        let opts = &args.run;
        let operands = &args.positional.get(1..).unwrap_or_default();
        let on = shown_dataset(opts, PaperDataset::Ml100k);
        let run = |suite: ExperimentSuite| suite.run_with(opts, exec).map_err(|e| e.to_string());
        Ok(match self {
            Self::Table2 => table2(opts, exec),
            Self::Table3 => run(table3(operands, opts)?)?.pivot_report(Axis::Attack, Axis::Dataset),
            Self::Table4 => run(table4(operands, &on)?)?.pivot_report(Axis::Defense, Axis::Attack),
            Self::Table5 => run(table5(&on))?.pivot_report(Axis::Attack, Axis::Variant),
            Self::Table6 => {
                let result = run(table6(&on))?;
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
            Self::Table7 => run(table7(&on))?.pivot_report(Axis::Attack, Axis::Defense),
            Self::Table9 => run(table9(&on))?.pivot_report(Axis::Variant, Axis::Attack),
            Self::Table10 => run(table10(&on))?.pivot_report(Axis::Variant, Axis::Attack),
            Self::Table11 => run(table11(&on))?.pivot_report(Axis::Attack, Axis::Variant),
            Self::Fig3 => fig3(operands, opts)?,
            Self::Fig4 => fig4(opts, exec),
            Self::Fig5 => run(fig5(operands, &on))?.pivot_report(Axis::Variant, Axis::Attack),
            Self::Fig6a => fig6a(operands, opts, exec)?,
            Self::Fig6b => fig6b(opts, exec).map_err(|e| e.to_string())?,
            Self::Fig7 => run(fig7(&on))?.report(),
            Self::PopularityBias => popularity_bias(opts, exec, &on),
            Self::Scale => scale_smoke(operands, opts, exec)?,
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

/// The generator name of the dataset a suite's cells run on, for report
/// titles: the `--dataset` override when given, else the suite's own.
fn shown_dataset(opts: &RunOptions, default: PaperDataset) -> String {
    opts.dataset.clone().unwrap_or(default).spec().name
}

/// The datasets a command runs on: `--dataset` alone when given (it
/// collapses the dataset axis, as in every suite), else the operands, else
/// `default`. A `file:PATH` operand must name a file, as `--dataset` must.
fn datasets_from(
    operands: &[String],
    opts: &RunOptions,
    default: &[PaperDataset],
) -> Result<Vec<PaperDataset>, String> {
    let named = operands
        .iter()
        .map(|name| match PaperDataset::from_name(name) {
            Some(PaperDataset::File(path)) if !std::path::Path::new(&path).is_file() => {
                Err(format!("bad dataset {name}: no such file"))
            }
            Some(dataset) => Ok(dataset),
            None => Err(format!(
                "unknown dataset {name}; use ml100k|ml1m|az|file:PATH"
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(match &opts.dataset {
        Some(dataset) => vec![dataset.clone()],
        None if named.is_empty() => default.to_vec(),
        None => named,
    })
}

// ------------------------------------------------------------ suite tables

/// Table III: every attack, both model families, selected datasets.
fn table3(operands: &[String], opts: &RunOptions) -> Result<ExperimentSuite, String> {
    let datasets = datasets_from(operands, opts, &[PaperDataset::Ml100k])?;
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
fn table4(operands: &[String], on: &str) -> Result<ExperimentSuite, String> {
    let mut suite =
        ExperimentSuite::new("table4", format!("Table IV — defense effectiveness ({on})"));
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
fn table5(on: &str) -> ExperimentSuite {
    ExperimentSuite::new("table5", format!("Table V — effect of K (MF-FRS, {on})"))
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
fn table6(on: &str) -> ExperimentSuite {
    // The ablation rows are `AttackKind` rows (built in
    // `frs_attacks::variants`), in Table VI order.
    let ablation_attacks = [
        AttackKind::IpeAblationPkl,
        AttackKind::IpeAblationPcos,
        AttackKind::IpeAblationPcosK,
        AttackKind::IpeAblationFull,
    ];
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
    ExperimentSuite::new("table6", format!("Table VI — ablations (MF-FRS, {on})"))
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
fn table7(on: &str) -> ExperimentSuite {
    ExperimentSuite::new(
        "table7",
        format!("Table VII — system settings (MF-FRS, {on})"),
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

/// The Table IX rows: `AttackKind` rows pinning PIECK-IPE and PIECK-UEA
/// to a multi-target strategy (built in `frs_attacks::variants`), with the
/// paper's per-solution mined-set sizes as their `top_n` defaults.
fn multi_target_attacks(strategy: MultiTargetStrategy) -> [AttackKind; 2] {
    match strategy {
        MultiTargetStrategy::TrainTogether => {
            [AttackKind::PieckIpeTogether, AttackKind::PieckUeaTogether]
        }
        MultiTargetStrategy::TrainOneThenCopy => {
            [AttackKind::PieckIpeCopy, AttackKind::PieckUeaCopy]
        }
    }
}

/// Table IX: |T| ∈ {2..5} under both multi-target strategies.
fn table9(on: &str) -> ExperimentSuite {
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
        format!("Table IX — multi-target strategies (MF-FRS, {on})"),
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
fn table10(on: &str) -> ExperimentSuite {
    ExperimentSuite::new(
        "table10",
        format!("Table X — client learning rates (MF-FRS, {on})"),
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
fn table11(on: &str) -> ExperimentSuite {
    ExperimentSuite::new(
        "table11",
        format!("Table XI — loss generalization (MF-FRS, {on})"),
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
fn fig5(operands: &[String], on: &str) -> ExperimentSuite {
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

    let mut suite =
        ExperimentSuite::new("fig5", format!("Fig. 5 — parameter sweeps (MF-FRS, {on})"));
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
fn fig7(on: &str) -> ExperimentSuite {
    ExperimentSuite::new(
        "fig7",
        format!("Fig. 7 — HR@10 vs sampling ratio q (MF-FRS, {on})"),
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

/// `paper scale [n_users]` — the sampled million-client smoke cell (the CI
/// scale gate). One paper-faithful MF round loop over [`scale_scenario`]'s
/// synthetic long-tail population of `n_users` registered clients (default
/// 1,000,000), under the run's overrides: benign clients materialize
/// lazily from the embedding arena, uploads stay sparse, and the default
/// defense aggregates item-sharded (`median:shards=8`). Evaluation ranks
/// the deterministic ~10k-user [`stride_sample`] — full-population ranking
/// is an experiment of its own — and the report is byte-stable for a given
/// seed: identical across `--round-threads` policies and replays, so CI
/// `cmp`s two runs' reports verbatim. A SHA-256 digest over the final item
/// table and the evaluated users' embedding bits pins the entire training
/// trajectory, not just the headline metrics.
fn scale_smoke(
    operands: &[String],
    opts: &RunOptions,
    exec: &ExecOptions<'_>,
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

    let mut cfg = scale_scenario(n_users, opts.seed);
    opts.apply(&mut cfg);
    let mut run = ScenarioRun::new(cfg, exec.budget);
    run.sim.run(run.cfg.rounds);
    let eval_users = stride_sample(run.train.n_users());
    let eval = run.evaluate(&eval_users);
    let (cfg, sim, embs) = (&run.cfg, &run.sim, run.sim.user_embeddings());

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
    table.row(&[format!("ER@{}", cfg.eval_k), pct(eval.er_percent)]);
    table.row(&[format!("HR@{}", cfg.eval_k), pct(eval.hr_percent)]);
    table.row(&["NDCG".into(), format!("{:.6}", eval.ndcg)]);
    table.row(&["state digest".into(), digest]);
    report.section("Sampled cell", table);
    Ok(report)
}

/// Table II: PKL and UCR of the Δ-Norm-mined popular set, per model family.
fn table2(opts: &RunOptions, exec: &ExecOptions<'_>) -> Report {
    let mut report = Report::new("table2", "Table II — PKL and UCR of mined popular sets");
    let sizes = [1usize, 10, 50, 150];

    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        let cfg = opts.scenario(PaperDataset::Ml100k, kind, 200);
        let rounds = cfg.rounds;
        let mut run = ScenarioRun::new(cfg, exec.budget);

        // Track Δ-Norm across the whole run so the mined set is the stable one.
        let mut tracker = DeltaNormTracker::new(run.train.n_items());
        tracker.observe(run.sim.model().items());
        for _ in 0..rounds {
            run.round();
            tracker.observe(run.sim.model().items());
        }

        let (cfg, train, sim) = (&run.cfg, &run.train, &run.sim);
        let embs = sim.user_embeddings();
        let mut table = Table::new(&["N", "PKL", "UCR"]);
        for &n in &sizes {
            let popular = tracker.top_n(n);
            let item_embs: Vec<&[f32]> = popular
                .iter()
                .map(|&j| sim.model().item_embedding(j))
                .collect();
            let covered = covered_users(train, &popular);
            let user_embs: Vec<&[f32]> = covered.iter().map(|&u| embs.row(u)).collect();
            table.row(&[
                n.to_string(),
                format!("{:.4}", pairwise_kl(&item_embs, &user_embs)),
                pct(user_coverage_ratio(train, &popular) * 100.0),
            ]);
        }
        report.section(
            format!("{} — round {rounds} on {}", kind.label(), cfg.dataset.name),
            table,
        );
    }
    report
}

/// Fig. 3: item-popularity long-tail distribution of each dataset, as
/// generated or, for `file:PATH`, as loaded.
fn fig3(operands: &[String], opts: &RunOptions) -> Result<Report, String> {
    let mut report = Report::new("fig3", "Fig. 3 — item-popularity distribution");
    for dataset in datasets_from(operands, opts, &[PaperDataset::Ml100k, PaperDataset::Az])? {
        // Fig. 3 trains nothing: it keeps the scenario's dataset spec and
        // draws from its own seed, not the one the scenario's world uses.
        let spec = opts.scenario(dataset, ModelKind::Mf, 0).dataset;
        let data = scenario::build_dataset(&spec, &mut StdRng::seed_from_u64(opts.seed));
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
    let last = *snapshots.last().unwrap();
    let top_k = 50;

    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        let cfg = opts.scenario(PaperDataset::Ml100k, kind, last);
        let mut run = ScenarioRun::new(cfg, exec.budget);
        let popularity_rank = run.train.popularity_rank_of();
        let n_popular = (run.train.n_items() as f64 * 0.15).ceil() as usize;

        let mut table = Table::new(&[
            "Round",
            "popular in top-50 (true top-15%)",
            "median popularity rank",
            "max popularity rank",
        ]);
        let mut tracker = DeltaNormTracker::new(run.train.n_items());
        tracker.observe(run.sim.model().items());
        for round in 1..=last {
            run.round();
            tracker.observe(run.sim.model().items());
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
                run.cfg.dataset.name,
                kind.label()
            ),
            table,
        );
    }
    report
}

/// Fig. 6(a): ER/HR convergence trends of IPE vs UEA.
fn fig6a(operands: &[String], opts: &RunOptions, exec: &ExecOptions<'_>) -> Result<Report, String> {
    let dataset = datasets_from(operands, opts, &[PaperDataset::Ml1m])?
        .into_iter()
        .next()
        .expect("datasets_from returns at least the default");
    let rounds = opts.rounds.unwrap_or(400);
    let every = (rounds / 20).max(1);

    let suite = ExperimentSuite::new("fig6a", "Fig. 6(a) — convergence trends (MF-FRS)").sweep(
        Sweep::new("trend", "trend")
            .over_datasets([dataset.clone()])
            .over_attacks([AttackKind::PieckIpe, AttackKind::PieckUea])
            .rounds(rounds)
            .trend_every(every),
    );
    let result = suite.run_with(opts, exec).map_err(|e| e.to_string())?;
    // One ER/HR column pair per attack cell: IPE and UEA, or the one
    // `--attack` leaves.
    let cells = &result.sweeps[0].cells;
    let mut header = vec!["Round".to_string()];
    for r in cells {
        let label = r.cell.attack.label();
        let attack = label.trim_start_matches("PIECK-");
        header.extend([format!("{attack} ER"), format!("{attack} HR")]);
    }
    let mut table = Table::from_header(header);
    for (i, p) in cells[0].outcome.trend.iter().enumerate() {
        let mut row = vec![p.round.to_string()];
        for r in cells {
            let t = &r.outcome.trend[i];
            row.extend([pct(t.er), pct(t.hr)]);
        }
        table.row(&row);
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
    opts: &RunOptions,
    exec: &ExecOptions<'_>,
) -> Result<Report, crate::progress::SuiteAborted> {
    let rounds = opts.rounds.unwrap_or(50);
    let title = format!(
        "Fig. 6(b) — cost per round ({})",
        shown_dataset(opts, PaperDataset::Ml1m)
    );
    let mut suite = ExperimentSuite::new("fig6b", title.clone());
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
    let result = suite.run_with(opts, exec)?;

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
    let mut report = Report::new("fig6b", title);
    report.section("mean time and upload volume per communication round", table);
    Ok(report)
}

/// Extension experiment: popularity bias of the served top-10 lists, on
/// the dataset `on` names.
fn popularity_bias(opts: &RunOptions, exec: &ExecOptions<'_>, on: &str) -> Report {
    let mut table = Table::new(&["Scenario", "coverage@10", "Gini", "mean rec. popularity"]);
    for (label, attack, defense) in [
        ("clean", AttackKind::NoAttack, DefenseKind::NoDefense),
        ("PIECK-UEA", AttackKind::PieckUea, DefenseKind::NoDefense),
        ("UEA + ours", AttackKind::PieckUea, DefenseKind::Ours),
        ("defense only", AttackKind::NoAttack, DefenseKind::Ours),
    ] {
        let mut cfg = opts.scenario(PaperDataset::Ml100k, ModelKind::Mf, 150);
        cfg.attack = attack.into();
        cfg.defense = defense.into();
        cfg.mined_top_n = 30;
        let mut run = ScenarioRun::new(cfg, exec.budget);
        run.sim.run(run.cfg.rounds);
        let (sim, train) = (&run.sim, &run.train);
        let freq = recommendation_frequency(
            sim.model(),
            &sim.user_embeddings(),
            &sim.benign_ids(),
            train,
            10,
        );
        table.row(&[
            label.to_string(),
            format!("{:.3}", catalogue_coverage(&freq)),
            format!("{:.3}", gini_coefficient(&freq)),
            format!("{:.1}", average_recommended_popularity(&freq, train)),
        ]);
    }
    let mut report = Report::new(
        "popularity-bias",
        format!("Extension — popularity bias of served top-10 lists (MF-FRS, {on})"),
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
    use frs_attacks::AttackSel;
    use frs_federation::{CoreBudget, RoundThreads};

    #[test]
    fn bespoke_runs_lease_their_width_from_the_budget() {
        let budget = CoreBudget::new(4);
        let exec = ExecOptions {
            cache: None,
            sink: None,
            budget: Some(&budget),
            checkpoint_every: 0,
            checkpoint_keep: 1,
        };
        let auto = RunOptions {
            scale: 0.05,
            round_threads: RoundThreads::Auto,
            ..RunOptions::default()
        };
        let cfg = auto.scenario(PaperDataset::Ml100k, ModelKind::Mf, 1);
        let run = ScenarioRun::new(cfg, exec.budget);
        assert_eq!(run.sim.effective_round_width(1024), 4);

        // The default fixed policy ignores the budget.
        let fixed = RunOptions {
            round_threads: RoundThreads::default(),
            ..auto
        };
        let cfg = fixed.scenario(PaperDataset::Ml100k, ModelKind::Mf, 1);
        let run = ScenarioRun::new(cfg, exec.budget);
        assert_eq!(run.sim.effective_round_width(1024), 1);
    }

    #[test]
    fn bespoke_commands_run_on_the_dataset_flag() {
        let run = |cmd: PaperCommand| {
            let args = format!("{} --dataset az --scale 0.02 --rounds 1", cmd.name());
            let args = CommonArgs::parse_from(args.split(' ').map(String::from)).unwrap();
            cmd.run(&args, &ExecOptions::default()).unwrap()
        };
        for cmd in [PaperCommand::Table2, PaperCommand::Fig4] {
            let report = run(cmd);
            assert_eq!(report.sections.len(), 2, "{}", cmd.name());
            for section in &report.sections {
                assert!(section.heading.contains("az-like"), "{}", section.heading);
            }
        }
        assert_eq!(
            run(PaperCommand::PopularityBias).title,
            "Extension — popularity bias of served top-10 lists (MF-FRS, az-like)"
        );
    }

    #[test]
    fn fig6a_keeps_the_attack_an_override_leaves() {
        let args = "fig6a ml100k --attack pieck-uea --scale 0.02 --rounds 2";
        let args = CommonArgs::parse_from(args.split(' ').map(String::from)).unwrap();
        let report = PaperCommand::Fig6a
            .run(&args, &ExecOptions::default())
            .unwrap();
        let table = &report.sections[0].table;
        assert_eq!(table.header(), ["Round", "UEA ER", "UEA HR"]);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn fig3_reports_a_file_dataset_as_loaded() {
        // 20 users × 6 ratings over items 1..=25: a shape no synthetic
        // preset scales to.
        let path = std::env::temp_dir().join(format!("frs-fig3-{}.data", std::process::id()));
        let lines: String = (1..=20)
            .flat_map(|u| (0..6).map(move |k| format!("{u}\t{}\t4\t881250949\n", u + k)))
            .collect();
        std::fs::write(&path, lines).unwrap();
        let operand = format!("file:{}", path.display());
        for scale in [0.25, 1.0] {
            let opts = RunOptions {
                scale,
                ..RunOptions::default()
            };
            let report = fig3(std::slice::from_ref(&operand), &opts).unwrap();
            let headings: Vec<&str> = report.sections.iter().map(|s| s.heading.as_str()).collect();
            let want = format!("{operand} (20 users, 25 items, 120 interactions)");
            assert_eq!(headings, [want.as_str()], "scale {scale}");
        }
        let _ = std::fs::remove_file(&path);
        // A missing file is an argument error, not a panic mid-command.
        let err = fig3(std::slice::from_ref(&operand), &RunOptions::default()).unwrap_err();
        assert!(err.contains("no such file"), "{err}");
    }

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
        let opts = RunOptions::default();
        assert_eq!(table3(&[], &opts).unwrap().cell_count(), 2 * 7);
        let on = "ml100k-like";
        assert_eq!(table4(&[], on).unwrap().cell_count(), 2 * 3 * 8);
        assert_eq!(table5(on).cell_count(), 3 * 2 + 2 * 2);
        assert_eq!(table6(on).cell_count(), 4 + 2 * 4);
        assert_eq!(table7(on).cell_count(), 2 * 3 * 2);
        assert_eq!(table9(on).cell_count(), 2 * 2 * 4);
        assert_eq!(table10(on).cell_count(), 3 * 3);
        assert_eq!(table11(on).cell_count(), 3 * 2 + 2 * 2);
        assert_eq!(fig5(&[], on).cell_count(), 4 * 2 * 4);
        assert_eq!(fig5(&["p".to_string()], on).cell_count(), 2 * 2 * 4);
        assert_eq!(fig7(on).cell_count(), 8);
    }

    #[test]
    fn ablation_attacks_are_builtin_catalog_entries() {
        // The names resolve to catalog rows, *before* any suite is
        // declared.
        for name in [
            "ipe-ablation-pkl",
            "ipe-ablation-full",
            "pieck-uea-copy",
            "pieck-ipe-together",
        ] {
            assert!(AttackSel::named(name).resolve().is_some(), "{name}");
        }
        // And every cell the ablation suites materialize builds cleanly
        // from its serialized config alone.
        for suite in [table6("ml100k-like"), table9("ml100k-like")] {
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
    fn titles_name_the_dataset_the_cells_run() {
        let titles = |opts: &RunOptions| {
            let on = shown_dataset(opts, PaperDataset::Ml100k);
            [
                table4(&[], &on).unwrap().title,
                table5(&on).title,
                table6(&on).title,
                table7(&on).title,
                table9(&on).title,
                table10(&on).title,
                table11(&on).title,
                fig5(&[], &on).title,
                fig7(&on).title,
            ]
        };
        // Without `--dataset`, the titles the reports have always printed.
        let default = [
            "Table IV — defense effectiveness (ml100k-like)",
            "Table V — effect of K (MF-FRS, ml100k-like)",
            "Table VI — ablations (MF-FRS, ml100k-like)",
            "Table VII — system settings (MF-FRS, ml100k-like)",
            "Table IX — multi-target strategies (MF-FRS, ml100k-like)",
            "Table X — client learning rates (MF-FRS, ml100k-like)",
            "Table XI — loss generalization (MF-FRS, ml100k-like)",
            "Fig. 5 — parameter sweeps (MF-FRS, ml100k-like)",
            "Fig. 7 — HR@10 vs sampling ratio q (MF-FRS, ml100k-like)",
        ];
        assert_eq!(titles(&RunOptions::default()), default);
        for (dataset, name) in [
            (PaperDataset::Ml1m, "ml1m-like"),
            (PaperDataset::Az, "az-like"),
            (PaperDataset::File("u.data".into()), "file:u.data"),
        ] {
            let opts = RunOptions {
                dataset: Some(dataset.clone()),
                ..RunOptions::default()
            };
            let want = default.map(|t| t.replace("ml100k-like", name));
            assert_eq!(titles(&opts), want, "{name}");
            assert_eq!(shown_dataset(&opts, PaperDataset::Ml1m), name);
        }
        // Fig. 6(b)'s own default is ML-1M.
        let opts = RunOptions::default();
        assert_eq!(shown_dataset(&opts, PaperDataset::Ml1m), "ml1m-like");
    }

    #[test]
    fn table7_policy_sets_uea_mined_n() {
        let opts = RunOptions::default();
        let cells = table7("ml100k-like").cells(&opts);
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
