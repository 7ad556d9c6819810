//! The paper's defense in action: the same PIECK attacks, with benign
//! clients adding the Re1/Re2 regularizers (Eq. 14–16) — exposure collapses
//! while recommendation quality is preserved.
//!
//! Run with: `cargo run --release --example defense_demo`

use pieck_frs::attacks::AttackKind;
use pieck_frs::defense::DefenseKind;
use pieck_frs::experiments::{paper_scenario, run, PaperDataset};
use pieck_frs::federation::Catalog;
use pieck_frs::model::ModelKind;

fn main() {
    println!(
        "{:<12} {:<12} {:>8} {:>8}",
        "attack", "defense", "ER@10", "HR@10"
    );
    for attack in [AttackKind::PieckIpe, AttackKind::PieckUea] {
        for defense in [DefenseKind::NoDefense, DefenseKind::Ours] {
            let mut cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.25, 7);
            cfg.attack = attack.into();
            cfg.defense = defense.into();
            cfg.rounds = 150;
            cfg.mined_top_n = if attack == AttackKind::PieckUea {
                30
            } else {
                10
            };
            let out = run(&cfg);
            println!(
                "{:<12} {:<12} {:>7.2}% {:>7.2}%",
                attack.label(),
                defense.label(),
                out.er_percent,
                out.hr_percent
            );
        }
    }
}
