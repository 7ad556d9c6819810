//! Integration tests of the content-addressed suite cache and the streaming
//! run layer: cache-key stability (identical configs hash equal, *any*
//! `ConfigPatch` field flip re-keys, canonicalization is map-order
//! independent), warm runs that are bit-identical to cold ones, and
//! interrupted runs that resume from the cache executing only the remaining
//! cells.

use pieck_frs::attacks::AttackKind;
use pieck_frs::defense::DefenseKind;
use pieck_frs::experiments::cache::{scenario_key, SuiteCache};
use pieck_frs::experiments::progress::MemorySink;
use pieck_frs::experiments::suite::ExecOptions;
use pieck_frs::experiments::{
    paper_scenario, ConfigPatch, ExperimentSuite, PaperDataset, ReportFormat, RunOptions,
    ScenarioConfig, Sweep,
};
use pieck_frs::model::{LossKind, ModelKind};
use proptest::prelude::*;

fn base_config() -> ScenarioConfig {
    paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.05, 7)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("frs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn identical_configs_hash_equal() {
    let a = base_config();
    let b = base_config();
    assert_eq!(scenario_key(&a), scenario_key(&b));
    assert_eq!(a.canonical_json(), b.canonical_json());
    // The key is a SHA-256 hex digest.
    let key = scenario_key(&a);
    assert_eq!(key.len(), 64);
    assert!(key.bytes().all(|b| b.is_ascii_hexdigit()));
}

/// Every substantive `ConfigPatch` field participates in the cache key: a
/// flip of any one of them must re-address the cell. The `label` field is
/// report-only and must NOT affect the key.
#[test]
fn every_config_patch_field_flip_changes_the_key() {
    let base = base_config();
    let base_key = scenario_key(&base);

    let flips: Vec<ConfigPatch> = vec![
        ConfigPatch {
            label: "eval_k".into(),
            eval_k: Some(5),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "n_targets".into(),
            n_targets: Some(3),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "malicious_ratio".into(),
            malicious_ratio: Some(0.11),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "negative_ratio".into(),
            negative_ratio: Some(9),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "loss".into(),
            loss: Some(LossKind::Bpr),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "client_learning_rate".into(),
            client_learning_rate: Some(0.33),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "client_lr_cycle".into(),
            client_lr_cycle: Some((0.01, 1.0)),
            ..ConfigPatch::default()
        },
    ];

    let mut keys = vec![base_key.clone()];
    for patch in &flips {
        let mut cfg = base_config();
        patch.apply(&mut cfg);
        let key = scenario_key(&cfg);
        assert_ne!(
            key, base_key,
            "flipping `{}` must change the cache key",
            patch.label
        );
        keys.push(key);
    }

    // The defense knobs write into the selection's params payload, so they
    // re-key cells whose defense declares the key…
    let ours_base = {
        let mut cfg = base_config();
        cfg.defense = DefenseKind::Ours.into();
        cfg
    };
    let ours_key = scenario_key(&ours_base);
    keys.push(ours_key.clone());
    let defense_flips: Vec<ConfigPatch> = vec![
        ConfigPatch {
            label: "use_re1".into(),
            use_re1: Some(false),
            ..ConfigPatch::default()
        },
        ConfigPatch {
            label: "use_re2".into(),
            use_re2: Some(false),
            ..ConfigPatch::default()
        },
    ];
    for patch in &defense_flips {
        let mut cfg = ours_base.clone();
        patch.apply(&mut cfg);
        let key = scenario_key(&cfg);
        assert_ne!(
            key, ours_key,
            "flipping `{}` on `ours` must change the cache key",
            patch.label
        );
        keys.push(key);
    }
    // …and are inert on a defense that does not accept them (no cache
    // duplication for parameters that cannot change the outcome).
    let mut none_cfg = base_config();
    defense_flips[0].apply(&mut none_cfg);
    assert_eq!(
        scenario_key(&none_cfg),
        base_key,
        "re1 on NoDefense is skipped, so the key must not move"
    );

    // The attack knobs mirror the defense hardening: they write into the
    // attack selection's params payload, re-keying cells whose attack
    // declares the key…
    let ipe_base = {
        let mut cfg = base_config();
        cfg.attack = AttackKind::PieckIpe.into();
        cfg
    };
    let ipe_key = scenario_key(&ipe_base);
    keys.push(ipe_key.clone());
    let attack_flips: Vec<ConfigPatch> = vec![ConfigPatch {
        label: "mined_top_n".into(),
        mined_top_n: Some(17),
        ..ConfigPatch::default()
    }];
    for patch in &attack_flips {
        let mut cfg = ipe_base.clone();
        patch.apply(&mut cfg);
        let key = scenario_key(&cfg);
        assert_ne!(
            key, ipe_key,
            "flipping `{}` on pieck-ipe must change the cache key",
            patch.label
        );
        keys.push(key);
    }
    // …and are inert on the no-attack baseline (regression: these knobs
    // used to re-key — and thereby duplicate — every cell, including ones
    // whose attack ignores them).
    for patch in &attack_flips {
        let mut cfg = base_config();
        patch.apply(&mut cfg);
        assert_eq!(
            scenario_key(&cfg),
            base_key,
            "`{}` on NoAttack is skipped, so the key must not move",
            patch.label
        );
    }
    // All flips address distinct cells (no accidental collisions/aliasing).
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        keys.len(),
        "cache keys must be pairwise distinct"
    );

    // The label is presentation-only: an identity patch with a label keeps
    // the base key.
    let mut labeled = base_config();
    ConfigPatch::labeled("just-a-label").apply(&mut labeled);
    assert_eq!(scenario_key(&labeled), base_key);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonical serialization is independent of the order object keys were
    /// inserted in: any permutation of the same (key, value) pairs
    /// canonicalizes to the same byte string, and parsing it back yields
    /// the same tree.
    #[test]
    fn canonicalization_is_map_order_independent(
        pairs in prop::collection::vec((0u32..10_000, any::<i64>()), 1..12),
        rotation in 0usize..12,
    ) {
        use serde_json::{Map, Number, Value};

        // Dedup generated keys (keeping the first value) so both insertion
        // orders describe the same mapping.
        let mut seen = std::collections::BTreeSet::new();
        let entries: Vec<(String, Value)> = pairs
            .iter()
            .filter(|&&(k, _)| seen.insert(k))
            .map(|&(k, v)| (format!("k{k}"), Value::Number(Number::I64(v))))
            .collect();

        let mut forward = Map::new();
        for (k, v) in &entries {
            forward.insert(k.clone(), v.clone());
        }
        // Insert the same pairs in a rotated (arbitrarily different) order.
        let mut rotated = Map::new();
        let n = entries.len();
        for i in 0..n {
            let (k, v) = &entries[(i + rotation) % n];
            rotated.insert(k.clone(), v.clone());
        }

        let forward = Value::Object(forward);
        let rotated = Value::Object(rotated);
        let canon_a = serde_json::to_string_canonical(&forward).unwrap();
        let canon_b = serde_json::to_string_canonical(&rotated).unwrap();
        prop_assert_eq!(&canon_a, &canon_b);
        // Round trip: parsing the canonical text re-canonicalizes to the
        // same bytes (the parser may widen I64→U64, so compare texts).
        let reparsed = serde_json::parse(&canon_a).unwrap();
        prop_assert_eq!(serde_json::to_string_canonical(&reparsed).unwrap(), canon_a);
    }
}

fn tiny_opts(threads: usize) -> RunOptions {
    RunOptions {
        scale: 0.05,
        seed: 23,
        rounds: Some(8),
        threads,
        ..RunOptions::default()
    }
}

fn six_cell_suite() -> ExperimentSuite {
    ExperimentSuite::new("resume", "Resume test").sweep(
        Sweep::new("grid", "Grid")
            .over_attacks([
                AttackKind::NoAttack,
                AttackKind::PieckIpe,
                AttackKind::PieckUea,
            ])
            .over_defenses([DefenseKind::NoDefense, DefenseKind::Ours]),
    )
}

/// Warm-cache correctness end to end: a second identical run executes zero
/// simulations and renders byte-identical reports in every format.
#[test]
fn warm_run_is_all_hits_and_byte_identical() {
    let dir = temp_dir("warm");
    let cache = SuiteCache::open(&dir).unwrap();
    let suite = six_cell_suite();
    let opts = tiny_opts(2);

    let cold_sink = MemorySink::new();
    let cold = suite
        .run_with(
            &opts,
            &ExecOptions {
                cache: Some(&cache),
                sink: Some(&cold_sink),
                budget: None,
                checkpoint_every: 0,
                checkpoint_keep: 1,
            },
        )
        .unwrap();
    assert_eq!(cold_sink.events().len(), 6);
    assert_eq!(cold_sink.hits(), 0, "cold run must execute every cell");
    assert_eq!(cache.stats().unwrap().live, 6);

    let warm_sink = MemorySink::new();
    let warm = suite
        .run_with(
            &opts,
            &ExecOptions {
                cache: Some(&cache),
                sink: Some(&warm_sink),
                budget: None,
                checkpoint_every: 0,
                checkpoint_keep: 1,
            },
        )
        .unwrap();
    assert_eq!(
        warm_sink.hits(),
        6,
        "warm run must replay every cell from the cache"
    );

    for format in [
        ReportFormat::Markdown,
        ReportFormat::Csv,
        ReportFormat::Json,
    ] {
        assert_eq!(
            cold.report().render(format),
            warm.report().render(format),
            "warm report must be byte-identical ({format:?})"
        );
    }
    // Including the timing-bearing fields: the cache preserves the cold
    // run's measured wall time through the serde-skip side channel.
    for (a, b) in cold.all_cells().zip(warm.all_cells()) {
        assert_eq!(a.outcome.mean_round_time, b.outcome.mean_round_time);
        assert_eq!(a.outcome.total_upload_bytes, b.outcome.total_upload_bytes);
        assert_eq!(a.outcome.targets, b.outcome.targets);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An interrupted run (sink aborts after N cells — the in-process stand-in
/// for a kill) leaves its finished cells cached; the re-run executes only
/// the remainder and its report matches an uninterrupted run exactly.
#[test]
fn aborted_run_resumes_from_cache_executing_only_the_remainder() {
    let dir = temp_dir("resume");
    let cache = SuiteCache::open(&dir).unwrap();
    let suite = six_cell_suite();
    // Sequential so "aborted after 2 cells" means exactly cells 0 and 1.
    let opts = tiny_opts(1);

    let killer = MemorySink::stop_after(2);
    let err = suite
        .run_with(
            &opts,
            &ExecOptions {
                cache: Some(&cache),
                sink: Some(&killer),
                budget: None,
                checkpoint_every: 0,
                checkpoint_keep: 1,
            },
        )
        .unwrap_err();
    assert_eq!((err.completed, err.total), (2, 6));
    assert_eq!(cache.stats().unwrap().live, 2, "finished cells persisted");

    // The resumed run: cells 0–1 replay as hits, 2–5 execute fresh.
    let resume_sink = MemorySink::new();
    let resumed = suite
        .run_with(
            &opts,
            &ExecOptions {
                cache: Some(&cache),
                sink: Some(&resume_sink),
                budget: None,
                checkpoint_every: 0,
                checkpoint_keep: 1,
            },
        )
        .unwrap();
    let events = resume_sink.events();
    assert_eq!(events.len(), 6);
    assert_eq!(resume_sink.hits(), 2, "only the killed run's cells replay");
    assert!(
        events.iter().all(|e| e.cache_hit == (e.index < 2)),
        "exactly the first two (completed) cells must be hits"
    );

    // And the resumed result matches a from-scratch run, byte for byte.
    let fresh = suite.run(&opts);
    for format in [
        ReportFormat::Markdown,
        ReportFormat::Csv,
        ReportFormat::Json,
    ] {
        assert_eq!(
            fresh.report().render(format),
            resumed.report().render(format)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
