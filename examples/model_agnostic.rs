//! PIECK's model-agnostic property: the *same* attack code drives exposure
//! on both MF-FRS (fixed dot-product) and DL-FRS (learnable NeuMF-style
//! interaction) — the property Table III demonstrates.
//!
//! Run with: `cargo run --release --example model_agnostic`

use pieck_frs::attacks::AttackKind;
use pieck_frs::experiments::{paper_scenario, run, PaperDataset};
use pieck_frs::federation::Catalog;
use pieck_frs::model::ModelKind;

fn main() {
    println!(
        "{:<10} {:<12} {:>8} {:>8}",
        "model", "attack", "ER@10", "HR@10"
    );
    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        for attack in [
            AttackKind::NoAttack,
            AttackKind::PieckIpe,
            AttackKind::PieckUea,
        ] {
            let mut cfg = paper_scenario(PaperDataset::Ml100k, kind, 0.25, 7);
            cfg.attack = attack.into();
            cfg.rounds = 150;
            cfg.mined_top_n = if attack == AttackKind::PieckUea {
                30
            } else {
                10
            };
            let out = run(&cfg);
            println!(
                "{:<10} {:<12} {:>7.2}% {:>7.2}%",
                kind.label(),
                attack.label(),
                out.er_percent,
                out.hr_percent
            );
        }
    }
}
