//! Popular-item mining accuracy inside a *real* federation, and the defense's
//! regularizer behaviour over full training runs.

use pieck_frs::experiments::scenario::{build_simulation, build_world};
use pieck_frs::experiments::{paper_scenario, PaperDataset};
use pieck_frs::metrics::DeltaNormTracker;
use pieck_frs::model::ModelKind;
use pieck_frs::pieck::mining::{mining_precision, PopularItemMiner};
use std::sync::Arc;

/// Algorithm 1's claim: after observing R̃+1 = 3 models, the mined top-N
/// consists (almost) entirely of genuinely popular items.
#[test]
fn mining_identifies_true_populars_across_seeds() {
    for seed in [1u64, 2, 3] {
        let cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.12, seed);
        let (_, split, _) = build_world(&cfg);
        let train = Arc::new(split.train.clone());
        let rank = train.popularity_rank_of();
        let n_top15 = (train.n_items() as f64 * 0.15).ceil() as usize;
        let mut sim = build_simulation(&cfg, Arc::clone(&train), &[]);

        let mut miner = PopularItemMiner::new(2, 10);
        miner.observe(sim.model());
        while !miner.is_complete() {
            sim.run_round();
            miner.observe(sim.model());
        }
        let precision = mining_precision(miner.mined().unwrap(), &rank, n_top15);
        assert!(precision >= 0.8, "seed {seed}: precision {precision}");
    }
}

/// Algorithm 1 agrees with the Δ-Norm reference (`DeltaNormTracker`, the
/// Fig. 4 instrument) bit for bit: fed the same models two rounds apart,
/// the frozen miner's accumulated Δ-Norms carry the tracker's bits and its
/// popular set is the tracker's top-N, for both model families.
#[test]
fn miner_matches_the_delta_norm_reference() {
    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        let cfg = paper_scenario(PaperDataset::Ml100k, kind, 0.12, 9);
        let (_, split, _) = build_world(&cfg);
        let train = Arc::new(split.train.clone());
        let mut sim = build_simulation(&cfg, Arc::clone(&train), &[]);

        let mut miner = PopularItemMiner::new(3, 25);
        let mut tracker = DeltaNormTracker::new(train.n_items());
        miner.observe(sim.model());
        tracker.observe(sim.model().items());
        while !miner.is_complete() {
            sim.run(2);
            miner.observe(sim.model());
            tracker.observe(sim.model().items());
        }
        assert_eq!(tracker.observations(), 3, "{kind:?}");
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(miner.accumulated()),
            bits(tracker.accumulated()),
            "{kind:?}"
        );
        assert_eq!(miner.mined(), Some(&tracker.top_n(25)[..]), "{kind:?}");
    }
}

/// Mining still works when the miner only sees every k-th round (sparse
/// sampling of the malicious client).
#[test]
fn mining_tolerates_sparse_sampling() {
    let cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.12, 4);
    let (_, split, _) = build_world(&cfg);
    let train = Arc::new(split.train.clone());
    let rank = train.popularity_rank_of();
    let n_top15 = (train.n_items() as f64 * 0.15).ceil() as usize;
    let mut sim = build_simulation(&cfg, Arc::clone(&train), &[]);

    let mut miner = PopularItemMiner::new(2, 10);
    miner.observe(sim.model());
    while !miner.is_complete() {
        sim.run(4); // sampled once every 4 rounds
        miner.observe(sim.model());
    }
    let precision = mining_precision(miner.mined().unwrap(), &rank, n_top15);
    assert!(precision >= 0.7, "sparse sampling precision {precision}");
}

/// The DL-FRS miner agrees with the MF-FRS miner's picks to a reasonable
/// degree — the property is model-agnostic (both are driven by the long
/// tail, not by model internals).
#[test]
fn mining_is_model_agnostic() {
    let mut results: Vec<f64> = Vec::new();
    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        let cfg = paper_scenario(PaperDataset::Ml100k, kind, 0.12, 5);
        let (_, split, _) = build_world(&cfg);
        let train = Arc::new(split.train.clone());
        let rank = train.popularity_rank_of();
        let n_top15 = (train.n_items() as f64 * 0.15).ceil() as usize;
        let mut sim = build_simulation(&cfg, Arc::clone(&train), &[]);
        let mut miner = PopularItemMiner::new(2, 10);
        miner.observe(sim.model());
        while !miner.is_complete() {
            sim.run_round();
            miner.observe(sim.model());
        }
        results.push(mining_precision(miner.mined().unwrap(), &rank, n_top15));
    }
    assert!(results.iter().all(|&p| p >= 0.7), "precisions {results:?}");
}
