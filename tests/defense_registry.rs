//! Integration tests of the defense-side registry redesign: the paper's
//! defense built through the catalog is byte-identical to the pre-refactor
//! hand-wired special case; every `DefenseSel` params flip re-keys the
//! suite cache; and the client-side defense's params reach every benign
//! client end to end through an `ExperimentSuite`.

use std::sync::Arc;

use pieck_frs::attacks::AttackKind;
use pieck_frs::data::DatasetSpec;
use pieck_frs::defense::{DefenseKind, DefenseSel};
use pieck_frs::experiments::cache::scenario_key;
use pieck_frs::experiments::scenario::{self, build_world, ScenarioConfig};
use pieck_frs::experiments::{ExperimentSuite, RunOptions, Sweep};
use pieck_frs::federation::{BenignClient, Client, Simulation, SumAggregator};
use pieck_frs::metrics::{ExposureReport, QualityReport};
use pieck_frs::model::{GlobalModel, ModelKind};
use pieck_frs::pieck::{DefenseConfig, PieckDefense};
use proptest::prelude::*;

fn ours_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 42);
    cfg.federation.clients_per_round = pieck_frs::federation::ClientsPerRound::Count(24);
    cfg.rounds = 40;
    cfg.attack = AttackKind::PieckUea.into();
    cfg.defense = DefenseSel::named("ours");
    cfg.mined_top_n = 12;
    cfg
}

/// Golden test: the registry-built `"ours"` produces a byte-identical
/// `ScenarioOutcome` to the pre-refactor special case. The right-hand side
/// reproduces exactly what `scenario::build_simulation_with` hard-coded
/// before the redesign: every benign client armed with
/// `PieckDefense::new({top_n: mined_top_n.max(1), ..model-tuned defaults})`
/// plus plain-sum aggregation.
#[test]
fn registry_built_ours_matches_the_old_special_case_exactly() {
    let cfg = ours_cfg();

    // New path: everything through the registry.
    let via_registry = scenario::run(&cfg);

    // Old path, hand-wired. Same world, same seeds, same client order.
    let (_, split, targets) = build_world(&cfg);
    let train = Arc::new(split.train.clone());
    let mut rng =
        <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.federation.seed ^ 0x0DE1);
    let model = GlobalModel::new(&cfg.model, train.n_items(), &mut rng);
    let n_benign = train.n_users();
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for u in 0..n_benign {
        // MF defaults were DefenseConfig::default() with the scenario's
        // mined N — the construction the deleted special case performed.
        let def_cfg = DefenseConfig {
            top_n: cfg.mined_top_n.max(1),
            ..DefenseConfig::default()
        };
        let client = BenignClient::new(
            u,
            Arc::clone(&train),
            cfg.model.embedding_dim,
            cfg.model.init_scale,
            cfg.federation.seed ^ ((u as u64) << 16) ^ 0xBE9,
        )
        .with_regularizer(Box::new(PieckDefense::new(def_cfg)));
        clients.push(Box::new(client));
    }
    let n_mal = cfg.n_malicious(n_benign);
    clients.extend(
        cfg.attack
            .build_clients(&cfg.attack_ctx(n_benign, n_mal, &targets)),
    );
    let mut sim = Simulation::builder(model)
        .clients(clients)
        .aggregator(Box::new(SumAggregator))
        .config(cfg.federation.clone())
        .build();
    sim.run(cfg.rounds);
    let benign = sim.benign_ids();
    let embs = sim.user_embeddings();
    let er = ExposureReport::compute(sim.model(), &embs, &benign, &train, &targets, cfg.eval_k);
    let hr = QualityReport::compute(sim.model(), &embs, &benign, &split, cfg.eval_k);

    assert_eq!(via_registry.targets, targets);
    assert_eq!(
        via_registry.er_percent,
        er.mean_percent(),
        "ER must be bit-identical"
    );
    assert_eq!(
        via_registry.hr_percent,
        hr.hr_percent(),
        "HR must be bit-identical"
    );
    assert_eq!(via_registry.ndcg, hr.ndcg, "NDCG must be bit-identical");
}

/// The NCF-tuned β/γ defaults moved from `ScenarioConfig::baseline` into
/// the build context; explicit params must override them and the defaults
/// must differ from MF's (the paper tunes per base model).
#[test]
fn model_tuned_defaults_flow_through_the_context() {
    let mf = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 1).defense_ctx();
    let ncf = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Ncf, 1).defense_ctx();
    assert_eq!((mf.default_beta, mf.default_gamma), (0.5, 0.5));
    assert_eq!((ncf.default_beta, ncf.default_gamma), (5.0, 10.0));
    assert_eq!(mf.model, ModelKind::Mf);
    assert_eq!(ncf.model, ModelKind::Ncf);
    assert_eq!(mf.embedding_dim, 16);
}

/// The client-side defense with both regularizers switched off: its
/// params reach the regularizer inside every benign client, so the suite's
/// two `ours` cells differ.
#[test]
fn out_of_crate_client_side_defense_runs_through_a_suite() {
    assert!(DefenseSel::named("ours")
        .resolve()
        .unwrap()
        .is_client_side());

    let suite = ExperimentSuite::new("client-def", "Client-side defense suite").sweep(
        Sweep::new("grid", "ours vs ours without Re1/Re2")
            .over_attacks([AttackKind::PieckUea])
            .over_defenses([
                DefenseSel::named("ours"),
                DefenseSel::parse("ours:re1=false,re2=false").unwrap(),
            ]),
    );
    let opts = RunOptions {
        scale: 0.08,
        seed: 11,
        rounds: Some(60),
        threads: 2,
        ..RunOptions::default()
    };
    let result = suite.run(&opts);
    let cells: Vec<_> = result.all_cells().collect();
    assert_eq!(cells.len(), 2);
    let outcome_of = |params: &str| {
        let cell = cells
            .iter()
            .find(|c| c.cell.defense.params().to_string() == params)
            .unwrap();
        (
            cell.outcome.er_percent,
            cell.outcome.hr_percent,
            cell.outcome.ndcg,
        )
    };
    assert_ne!(
        outcome_of(""),
        outcome_of("re1=false,re2=false"),
        "switching both regularizers off must change the run"
    );
}

/// A parameterized selection round-trips through the scenario config JSON
/// (the object `{name, params}` wire form).
#[test]
fn parameterized_scenario_config_round_trips() {
    let mut cfg = ours_cfg();
    cfg.defense = DefenseSel::named("ours")
        .with_param("beta", 0.75f32)
        .with_param("re1", false);
    let json = serde_json::to_string(&cfg).unwrap();
    assert!(json.contains("\"params\""), "{json}");
    let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.defense, cfg.defense);
    assert_eq!(back.canonical_json(), cfg.canonical_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every `DefenseSel` params field flip re-keys the suite cache: keys
    /// are stable under re-hashing, insensitive to insertion order, and
    /// sensitive to each individual parameter.
    #[test]
    fn every_params_field_flip_rekeys_the_cache(
        beta in 0.01f32..4.0,
        gamma in 0.01f32..4.0,
        mining_rounds in 1usize..5,
        top_n in 1usize..40,
        re1 in 0usize..2,
        re2 in 0usize..2,
    ) {
        let (re1, re2) = (re1 == 1, re2 == 1);
        let sel = DefenseSel::named("ours")
            .with_param("beta", beta)
            .with_param("gamma", gamma)
            .with_param("mining_rounds", mining_rounds)
            .with_param("top_n", top_n)
            .with_param("re1", re1)
            .with_param("re2", re2);
        let mut cfg = ours_cfg();
        cfg.defense = sel.clone();
        let key = scenario_key(&cfg);

        // Stable: same config, same key; insertion order is canonicalized.
        prop_assert_eq!(&key, &scenario_key(&cfg.clone()));
        let mut reordered = ours_cfg();
        reordered.defense = DefenseSel::named("ours")
            .with_param("re2", re2)
            .with_param("top_n", top_n)
            .with_param("re1", re1)
            .with_param("mining_rounds", mining_rounds)
            .with_param("gamma", gamma)
            .with_param("beta", beta);
        prop_assert_eq!(&key, &scenario_key(&reordered));

        // The bare selection (defaults) addresses a different cell.
        let mut bare = ours_cfg();
        bare.defense = DefenseSel::named("ours");
        prop_assert_ne!(&key, &scenario_key(&bare));

        // Each individual field flip re-keys.
        let flips: [DefenseSel; 6] = [
            sel.clone().with_param("beta", beta + 0.5),
            sel.clone().with_param("gamma", gamma + 0.5),
            sel.clone().with_param("mining_rounds", mining_rounds + 1),
            sel.clone().with_param("top_n", top_n + 1),
            sel.clone().with_param("re1", !re1),
            sel.clone().with_param("re2", !re2),
        ];
        for flipped in flips {
            let mut other = ours_cfg();
            other.defense = flipped.clone();
            prop_assert_ne!(&key, &scenario_key(&other));
        }
    }
}

/// Defense overrides at the run level (`--defense`) collapse the sweep's
/// defense axis to the single overriding selection.
#[test]
fn run_level_defense_override_collapses_the_axis() {
    let sweep = Sweep::new("s", "S").over_defenses(DefenseKind::all());
    let plain = sweep.expand(&RunOptions {
        rounds: Some(1),
        ..RunOptions::default()
    });
    assert_eq!(plain.len(), 8);

    let overridden = sweep.expand(&RunOptions {
        rounds: Some(1),
        defense: Some(DefenseSel::parse("ours:beta=0.5").unwrap()),
        ..RunOptions::default()
    });
    assert_eq!(overridden.len(), 1, "axis collapses to the override");
    assert_eq!(overridden[0].defense.name(), "ours");
    assert_eq!(
        overridden[0]
            .config
            .defense
            .params()
            .get_f32("beta")
            .unwrap(),
        Some(0.5)
    );

    // An override to a server-side rule running through `ours`-specific
    // ablation variants (the table6 shape) skips the inapplicable re1/re2
    // knobs instead of panicking at build time.
    use pieck_frs::experiments::ConfigPatch;
    let ablation = Sweep::new("a", "A")
        .over_defenses([DefenseKind::Ours])
        .over_variants([ConfigPatch {
            label: "Re1− Re2−".into(),
            use_re1: Some(false),
            use_re2: Some(false),
            ..ConfigPatch::default()
        }]);
    let krum = ablation.expand(&RunOptions {
        rounds: Some(1),
        defense: Some(DefenseSel::named("krum")),
        ..RunOptions::default()
    });
    assert!(
        krum[0].config.defense.params().is_empty(),
        "krum accepts no re1/re2: {}",
        krum[0].config.defense
    );
    assert!(krum[0]
        .config
        .defense
        .try_build(&krum[0].config.defense_ctx())
        .is_ok());
    // Without the override the ablation switches land as params.
    let ours = ablation.expand(&RunOptions {
        rounds: Some(1),
        ..RunOptions::default()
    });
    assert_eq!(
        ours[0].config.defense.to_string(),
        "ours:re1=false,re2=false"
    );

    // The dataset override collapses its axis the same way.
    use pieck_frs::experiments::PaperDataset;
    let sweep = Sweep::new("d", "D").over_datasets([PaperDataset::Ml100k, PaperDataset::Ml1m]);
    let overridden = sweep.expand(&RunOptions {
        rounds: Some(1),
        dataset: Some(PaperDataset::File("data/u.data".into())),
        ..RunOptions::default()
    });
    assert_eq!(overridden.len(), 1);
    assert_eq!(overridden[0].dataset.name(), "file:data/u.data");
    assert_eq!(
        overridden[0].config.dataset.file_path(),
        Some("data/u.data")
    );
}

/// `ConfigPatch`'s re1/re2 knobs write into the selection's params payload
/// (there is no `our_defense` side channel anymore).
#[test]
fn config_patch_defense_knobs_route_into_selection_params() {
    use pieck_frs::experiments::ConfigPatch;

    let mut cfg = ours_cfg();
    let patch = ConfigPatch {
        label: "ablate".into(),
        use_re1: Some(false),
        ..ConfigPatch::default()
    };
    patch.apply(&mut cfg);
    assert_eq!(cfg.defense.params().get_bool("re1").unwrap(), Some(false));
    assert_eq!(cfg.defense.params().get_bool("re2").unwrap(), None);
    // And the patched scenario still builds + runs through the registry.
    cfg.rounds = 4;
    let out = scenario::run(&cfg);
    assert!(out.er_percent.is_finite() && out.hr_percent.is_finite());
}
