//! The headline attack: PIECK-UEA promotes a cold target item into almost
//! every user's top-10 with 5% malicious clients, no prior knowledge, and no
//! model assumptions.
//!
//! Run with: `cargo run --release --example attack_demo`

use pieck_frs::attacks::AttackKind;
use pieck_frs::experiments::{paper_scenario, run, PaperDataset};
use pieck_frs::federation::Catalog;
use pieck_frs::model::ModelKind;

fn main() {
    for attack in [AttackKind::NoAttack, AttackKind::PieckUea] {
        let mut cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.25, 7);
        cfg.attack = attack.into();
        cfg.rounds = 150;
        cfg.mined_top_n = 30;
        cfg.trend_every = 30;
        let out = run(&cfg);
        println!("\n=== {} ===", attack.label());
        println!(
            "target item(s): {:?} (coldest in the catalogue)",
            out.targets
        );
        for p in &out.trend {
            println!(
                "  round {:>4}: ER@10 = {:6.2}%   HR@10 = {:5.2}%",
                p.round, p.er, p.hr
            );
        }
        println!(
            "final: ER@10 = {:.2}%  HR@10 = {:.2}% (recommendation quality untouched)",
            out.er_percent, out.hr_percent
        );
    }
}
