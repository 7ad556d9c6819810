//! Integration tests of the `ExperimentSuite` API across crate boundaries:
//! an attack × defense grid runs through a suite and its attack beats the
//! clean baseline; suite configurations round-trip through JSON, unknown
//! attack names included; and the `paper` command declarations execute end
//! to end at CI scale.

use pieck_frs::attacks::{AttackKind, AttackSel};
use pieck_frs::defense::DefenseKind;
use pieck_frs::experiments::{
    Axis, ConfigPatch, ExperimentSuite, RunOptions, ScenarioConfig, Sweep,
};

fn tiny_opts(threads: usize) -> RunOptions {
    RunOptions {
        scale: 0.05,
        seed: 11,
        rounds: Some(10),
        threads,
        ..RunOptions::default()
    }
}

#[test]
fn out_of_crate_attack_runs_through_a_suite() {
    let suite = ExperimentSuite::new("grid", "Attack × defense suite").sweep(
        Sweep::new("grid", "clean vs attacked")
            .over_attacks([AttackKind::NoAttack, AttackKind::PieckUea])
            .over_defenses([DefenseKind::NoDefense, DefenseKind::NormBound]),
    );
    // PIECK mines the popular items for two rounds before it poisons, so
    // the grid runs longer than `tiny_opts`.
    let result = suite.run(&RunOptions {
        scale: 0.08,
        rounds: Some(40),
        ..tiny_opts(2)
    });

    let cells: Vec<_> = result.all_cells().collect();
    assert_eq!(cells.len(), 4);
    for cell in &cells {
        assert!(cell.outcome.er_percent.is_finite(), "{:?}", cell.cell);
        assert!(cell.outcome.hr_percent.is_finite(), "{:?}", cell.cell);
    }
    // The attack actually fielded malicious clients: its undefended exposure
    // must exceed the clean baseline's.
    let er_of = |attack: &str, defense: DefenseKind| {
        cells
            .iter()
            .find(|c| c.cell.attack == AttackSel::named(attack) && c.cell.defense == defense)
            .unwrap()
            .outcome
            .er_percent
    };
    assert!(
        er_of("pieck-uea", DefenseKind::NoDefense) > er_of("none", DefenseKind::NoDefense),
        "PIECK-UEA should expose its target: {} vs {}",
        er_of("pieck-uea", DefenseKind::NoDefense),
        er_of("none", DefenseKind::NoDefense)
    );
    // And it renders under its catalog label.
    let md = result.report().to_markdown();
    assert!(md.contains("PIECK-UEA"), "{md}");
}

#[test]
fn suite_with_custom_attack_round_trips_through_json() {
    let suite = ExperimentSuite::new("rt", "Round trip").sweep(
        Sweep::new("s", "S")
            .over_attacks([AttackSel::named("blast"), AttackKind::PieckIpe.into()])
            .over_variants([ConfigPatch {
                label: "q=4".into(),
                negative_ratio: Some(4),
                ..ConfigPatch::default()
            }]),
    );
    let json = serde_json::to_string_pretty(&suite).unwrap();
    let back: ExperimentSuite = serde_json::from_str(&json).unwrap();
    assert_eq!(back.cell_count(), suite.cell_count());
    let cells = back.cells(&tiny_opts(1));
    assert_eq!(cells[0].attack, AttackSel::named("blast"));
    assert_eq!(cells[1].attack, AttackKind::PieckIpe);
    assert_eq!(cells[0].config.federation.negative_ratio, 4);

    // A single materialized scenario round-trips too, unknown name included.
    let cfg_json = serde_json::to_string(&cells[0].config).unwrap();
    let cfg: ScenarioConfig = serde_json::from_str(&cfg_json).unwrap();
    assert_eq!(cfg.attack, AttackSel::named("blast"));
}

#[test]
fn pivot_and_long_tables_agree_on_metrics() {
    let suite = ExperimentSuite::new("agree", "Agreement")
        .sweep(Sweep::new("s", "S").over_attacks([AttackKind::NoAttack, AttackKind::PieckUea]));
    let result = suite.run(&tiny_opts(2));
    let sweep = &result.sweeps[0];
    let long = sweep.long_table();
    let pivot = sweep.pivot(Axis::Attack, Axis::Variant);
    // Long format: ER is column 7; pivot: ER is column 1.
    for (i, cell) in sweep.cells.iter().enumerate() {
        let er = format!("{:.2}", cell.outcome.er_percent);
        assert_eq!(long.rows()[i][7], er);
        assert_eq!(pivot.rows()[i][1], er);
    }
}
