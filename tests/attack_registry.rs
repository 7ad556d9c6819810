//! Integration tests of the attack-side registry redesign (the mirror of
//! `defense_registry.rs`): attacks built through the parameterized catalog
//! are byte-identical to the pre-refactor hard-wired dispatch and to the
//! deleted `table6`/`table9` runtime-registered closures; every `AttackSel`
//! params flip re-keys the suite cache; and a builtin attack's params reach
//! its clients end to end through an `ExperimentSuite`.

use pieck_frs::attacks::{AttackKind, AttackSel, ScaledClient};
use pieck_frs::data::DatasetSpec;
use pieck_frs::experiments::cache::scenario_key;
use pieck_frs::experiments::progress::MemorySink;
use pieck_frs::experiments::scenario::{self, ScenarioConfig};
use pieck_frs::experiments::suite::ExecOptions;
use pieck_frs::experiments::{ConfigPatch, ExperimentSuite, RunOptions, Sweep};
use pieck_frs::federation::{Catalog, Client};
use pieck_frs::model::ModelKind;
use pieck_frs::pieck::{
    IpeConfig, MultiTargetStrategy, PieckClient, PieckConfig, SimilarityMetric,
};
use proptest::prelude::*;

fn attacked_cfg(attack: AttackSel) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 42);
    cfg.federation.clients_per_round = pieck_frs::federation::ClientsPerRound::Count(24);
    cfg.rounds = 30;
    cfg.attack = attack;
    cfg.mined_top_n = 12;
    cfg.poison_scale = 4.0;
    cfg
}

fn assert_outcomes_identical(
    label: &str,
    a: &scenario::ScenarioOutcome,
    b: &scenario::ScenarioOutcome,
) {
    assert_eq!(a.targets, b.targets, "{label}: targets");
    assert_eq!(
        a.er_percent, b.er_percent,
        "{label}: ER must be bit-identical"
    );
    assert_eq!(
        a.hr_percent, b.hr_percent,
        "{label}: HR must be bit-identical"
    );
    assert_eq!(a.ndcg, b.ndcg, "{label}: NDCG must be bit-identical");
}

/// Golden test, builtin rows: the registry-built attacks produce
/// byte-identical `ScenarioOutcome`s to the pre-params hard-wired enum
/// dispatch. The right-hand side reproduces exactly what the old
/// `AttackKind::build_clients` match performed: shared sybil seed, the
/// scenario's mined N, and a norm-capped `ScaledClient` wrap for
/// gradient-style attacks whenever `poison_scale ≠ 1` (never for UEA).
#[test]
fn registry_built_attacks_match_the_old_hard_wired_dispatch_exactly() {
    for kind in [AttackKind::PieckIpe, AttackKind::PieckUea, AttackKind::ARa] {
        let cfg = attacked_cfg(kind.into());
        let via_registry = scenario::run(&cfg);
        let via_hand = scenario::run_with(&cfg, |first_id, count, targets| {
            (0..count)
                .map(|i| {
                    let id = first_id + i;
                    let client_seed = cfg.federation.seed ^ 0xA77AC;
                    let client: Box<dyn Client> = match kind {
                        AttackKind::PieckIpe => {
                            let mut pieck = PieckConfig::ipe(targets.to_vec());
                            pieck.top_n = cfg.mined_top_n;
                            Box::new(PieckClient::new(id, pieck))
                        }
                        AttackKind::PieckUea => {
                            let mut pieck = PieckConfig::uea(targets.to_vec());
                            pieck.top_n = cfg.mined_top_n;
                            Box::new(PieckClient::new(id, pieck))
                        }
                        AttackKind::ARa => Box::new(pieck_frs::attacks::ARaClient::new(
                            id,
                            targets.to_vec(),
                            32,
                            client_seed,
                        )),
                        other => unreachable!("{other:?}"),
                    };
                    let scalable = kind != AttackKind::PieckUea;
                    if scalable && (cfg.poison_scale - 1.0).abs() > f32::EPSILON {
                        Box::new(ScaledClient::new(client, cfg.poison_scale).with_cap(2.0))
                            as Box<dyn Client>
                    } else {
                        client
                    }
                })
                .collect()
        });
        assert_outcomes_identical(kind.label(), &via_registry, &via_hand);
    }
}

/// Golden test, ablation rows: the builtin `ipe-ablation-*` /
/// `pieck-*-together|copy` catalog entries reproduce the deleted
/// runtime-registered closures bit for bit — including the unconditional
/// norm-capped wrap the IPE closures carried and Table IX's pinned
/// per-solution mined-set sizes.
#[test]
fn variant_catalog_entries_match_the_old_runtime_closures_exactly() {
    // table6's PKL row.
    let cfg = attacked_cfg(AttackSel::named("ipe-ablation-pkl"));
    let via_registry = scenario::run(&cfg);
    let ipe = IpeConfig {
        metric: SimilarityMetric::Kl,
        use_rank_weights: false,
        use_sign_partition: false,
        lambda: 1.0,
    };
    let via_hand = scenario::run_with(&cfg, |first_id, count, targets| {
        (0..count)
            .map(|i| {
                let mut pieck = PieckConfig::ipe(targets.to_vec());
                pieck.variant = pieck_frs::pieck::PieckVariant::Ipe(ipe.clone());
                pieck.top_n = cfg.mined_top_n;
                let client: Box<dyn Client> = Box::new(PieckClient::new(first_id + i, pieck));
                Box::new(ScaledClient::new(client, cfg.poison_scale).with_cap(2.0))
                    as Box<dyn Client>
            })
            .collect()
    });
    assert_outcomes_identical("ipe-ablation-pkl", &via_registry, &via_hand);

    // table9's UEA × TrainTogether row: pinned N=30 regardless of the
    // scenario's mined_top_n, no scaling wrap.
    let cfg = attacked_cfg(AttackSel::named("pieck-uea-together"));
    let via_registry = scenario::run(&cfg);
    let via_hand = scenario::run_with(&cfg, |first_id, count, targets| {
        (0..count)
            .map(|i| {
                let mut pieck = PieckConfig::uea(targets.to_vec());
                pieck.multi_target = MultiTargetStrategy::TrainTogether;
                pieck.top_n = 30;
                Box::new(PieckClient::new(first_id + i, pieck)) as Box<dyn Client>
            })
            .collect()
    });
    assert_outcomes_identical("pieck-uea-together", &via_registry, &via_hand);
}

/// A builtin parameterized attack swept at two values of one declared
/// param: the values reach the clients (the cells differ), the progress
/// events record them, and a mistyped value is a clean build error.
#[test]
fn out_of_crate_parameterized_attack_runs_through_a_suite() {
    let suite = ExperimentSuite::new("param-atk", "Parameterized attack suite").sweep(
        Sweep::new("grid", "weak vs full scale").over_attacks([
            AttackSel::named("pieck-ipe").with_param("scale", 1u64),
            AttackSel::named("pieck-ipe").with_param("scale", 12u64),
        ]),
    );
    let opts = RunOptions {
        scale: 0.08,
        seed: 11,
        rounds: Some(40),
        threads: 2,
        ..RunOptions::default()
    };
    let sink = MemorySink::new();
    let result = suite
        .run_with(
            &opts,
            &ExecOptions {
                cache: None,
                sink: Some(&sink),
                budget: None,
                checkpoint_every: 0,
                checkpoint_keep: 1,
            },
        )
        .unwrap();
    let cells: Vec<_> = result.all_cells().collect();
    assert_eq!(cells.len(), 2);
    let er_of = |params: &str| {
        cells
            .iter()
            .find(|c| c.cell.attack.params().to_string() == params)
            .unwrap()
            .outcome
            .er_percent
    };
    assert!(
        er_of("scale=12") > er_of("scale=1"),
        "a larger poison scale must expose the target more: {} vs {}",
        er_of("scale=12"),
        er_of("scale=1")
    );
    // Events record the attack params the cells actually ran with, and the
    // catalog label renders in reports.
    let mut event_params: Vec<String> =
        sink.events().into_iter().map(|e| e.attack_params).collect();
    event_params.sort();
    assert_eq!(event_params, ["scale=1", "scale=12"]);
    assert!(result.report().to_markdown().contains("PIECK-IPE"));

    // Bad values surface as clean errors through try_build_clients, the
    // same path the CLI probes at startup.
    let bad = AttackSel::named("pieck-ipe").with_param("scale", "huge");
    let probe = pieck_frs::attacks::AttackBuildCtx::minimal(0, 0, &[]);
    assert!(bad.try_build_clients(&probe).is_err());
}

/// A parameterized attack selection round-trips through the scenario config
/// JSON (the object `{name, params}` wire form).
#[test]
fn parameterized_scenario_config_round_trips() {
    let cfg = attacked_cfg(
        AttackSel::named("pieck-uea")
            .with_param("scale", 2.0f32)
            .with_param("top_n", 20usize),
    );
    let json = serde_json::to_string(&cfg).unwrap();
    assert!(json.contains("\"params\""), "{json}");
    let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.attack, cfg.attack);
    assert_eq!(back.canonical_json(), cfg.canonical_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every `AttackSel` params field flip re-keys the suite cache: keys
    /// are stable under re-hashing, insensitive to insertion order, and
    /// sensitive to each individual parameter — the port of the PR 4
    /// defense-params proptests onto the attack payload.
    #[test]
    fn every_attack_params_field_flip_rekeys_the_cache(
        scale in 0.1f32..8.0,
        top_n in 1usize..40,
        mining_rounds in 1usize..5,
        lambda in 0.01f32..0.99,
    ) {
        let sel = AttackSel::named("ipe-ablation-full")
            .with_param("scale", scale)
            .with_param("top_n", top_n)
            .with_param("mining_rounds", mining_rounds)
            .with_param("lambda", lambda);
        let cfg = attacked_cfg(sel.clone());
        let key = scenario_key(&cfg);

        // Stable: same config, same key; insertion order is canonicalized.
        prop_assert_eq!(&key, &scenario_key(&cfg.clone()));
        let reordered = attacked_cfg(
            AttackSel::named("ipe-ablation-full")
                .with_param("lambda", lambda)
                .with_param("mining_rounds", mining_rounds)
                .with_param("top_n", top_n)
                .with_param("scale", scale),
        );
        prop_assert_eq!(&key, &scenario_key(&reordered));

        // The bare selection (defaults) addresses a different cell.
        let bare = attacked_cfg(AttackSel::named("ipe-ablation-full"));
        prop_assert_ne!(&key, &scenario_key(&bare));

        // Each individual field flip re-keys.
        let flips: [AttackSel; 4] = [
            sel.clone().with_param("scale", scale + 0.5),
            sel.clone().with_param("top_n", top_n + 1),
            sel.clone().with_param("mining_rounds", mining_rounds + 1),
            sel.clone().with_param("lambda", lambda / 2.0),
        ];
        for flipped in flips {
            prop_assert_ne!(&key, &scenario_key(&attacked_cfg(flipped)));
        }
    }
}

/// Attack overrides at the run level (`--attack`) collapse the sweep's
/// attack axis to the single overriding selection, and the `ConfigPatch`
/// attack knobs route into its params only when the schema declares them.
#[test]
fn run_level_attack_override_collapses_the_axis() {
    let sweep = Sweep::new("s", "S").over_attacks(AttackKind::all());
    let plain = sweep.expand(&RunOptions {
        rounds: Some(1),
        ..RunOptions::default()
    });
    assert_eq!(plain.len(), 7);

    let overridden = sweep.expand(&RunOptions {
        rounds: Some(1),
        attack: Some(AttackSel::parse("pieck-uea:scale=2.0").unwrap()),
        ..RunOptions::default()
    });
    assert_eq!(overridden.len(), 1, "axis collapses to the override");
    assert_eq!(overridden[0].attack.name(), "pieck-uea");
    assert_eq!(
        overridden[0]
            .config
            .attack
            .params()
            .get_f32("scale")
            .unwrap(),
        Some(2.0)
    );
    // The override still matches the sweep's per-attack mined-N policy
    // (name-only comparison against AttackKind::PieckUea).
    assert_eq!(overridden[0].config.mined_top_n, 30);

    // An override to a mining-free attack running through variants that
    // sweep the attack knobs skips the inapplicable keys instead of
    // panicking at build time.
    let knobs = Sweep::new("k", "K")
        .over_attacks([AttackKind::PieckIpe])
        .over_variants([ConfigPatch {
            label: "N=17".into(),
            mined_top_n: Some(17),
            ..ConfigPatch::default()
        }]);
    let ara = knobs.expand(&RunOptions {
        rounds: Some(1),
        attack: Some(AttackSel::named("a-ra")),
        ..RunOptions::default()
    });
    // a-ra does not declare `top_n`.
    assert_eq!(ara[0].config.attack.to_string(), "a-ra", "top_n is skipped");
    let ctx = ara[0].config.attack_ctx(0, 0, &[]);
    assert!(ara[0].config.attack.try_build_clients(&ctx).is_ok());
    let none = knobs.expand(&RunOptions {
        rounds: Some(1),
        attack: Some(AttackSel::named("none")),
        ..RunOptions::default()
    });
    assert!(
        none[0].config.attack.params().is_empty(),
        "the no-attack baseline accepts no knobs: {}",
        none[0].config.attack
    );
    // Without the override the knob lands as a pieck-ipe param.
    let ipe = knobs.expand(&RunOptions {
        rounds: Some(1),
        ..RunOptions::default()
    });
    assert_eq!(ipe[0].config.attack.to_string(), "pieck-ipe:top_n=17");
}
