//! Federation-protocol invariants that span crates: upload accounting on
//! real uploads, thread-count independence, malicious-population accounting.

use pieck_frs::attacks::AttackKind;
use pieck_frs::data::{synth, DatasetSpec};
use pieck_frs::experiments::scenario::{build_simulation, build_world};
use pieck_frs::experiments::{paper_scenario, PaperDataset};
use pieck_frs::federation::{wire, BenignClient, Client, RoundContext};
use pieck_frs::linalg::SeedStream;
use pieck_frs::model::{GlobalModel, LossKind, ModelConfig, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn real_client_upload_sizes_follow_the_wire_layout() {
    let mut rng = StdRng::seed_from_u64(1);
    let data = Arc::new(synth::generate(&DatasetSpec::tiny(), &mut rng));
    let mut sizes = Vec::new();
    for config in [ModelConfig::mf(8), ModelConfig::ncf(8)] {
        let model = GlobalModel::new(&config, data.n_items(), &mut rng);
        let mut client = BenignClient::new(0, Arc::clone(&data), 8, 0.1, 3);
        let ctx = RoundContext::new(0, 1.0, 1.0, 1, LossKind::Bce, SeedStream::new(4));
        let upload = client.local_round(&ctx, &model);
        // Item count, then (id, dim, dim × f32) per item, then the MLP flag
        // and, when present, the MLP part (see `wire`'s layout table).
        let mlp = upload.mlp.as_ref().map_or(0, |m| {
            4 + m
                .weights
                .iter()
                .map(|w| 8 + 4 * w.rows() * w.cols())
                .sum::<usize>()
                + m.biases.iter().map(|b| 4 + 4 * b.len()).sum::<usize>()
                + 4
                + 4 * m.projection.len()
        });
        let size = wire::encoded_size(&upload);
        assert_eq!(
            size,
            4 + upload.n_items() * (8 + 4 * 8) + 1 + mlp,
            "{:?}",
            config.kind
        );
        sizes.push(size);
    }
    // The reported upload volume (Fig. 6b, `paper scale`, checkpoints) must
    // not drift: these are the byte counts of the two uploads above.
    assert_eq!(sizes, [2965, 3957]);
}

#[test]
fn thread_count_does_not_change_results() {
    use pieck_frs::federation::{CoreBudget, RoundThreads};

    let build = |round_threads: RoundThreads, lease_from: Option<&CoreBudget>| {
        let mut cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.1, 3);
        cfg.attack = AttackKind::PieckUea.into();
        cfg.federation.round_threads = round_threads;
        let (_, split, targets) = build_world(&cfg);
        let train = Arc::new(split.train);
        let mut sim = build_simulation(&cfg, train, &targets);
        sim.set_core_lease(lease_from.map(CoreBudget::lease));
        sim.run(15);
        sim.model().items().clone()
    };
    let budget = CoreBudget::new(4);
    let sequential = build(RoundThreads::Fixed(1), None);
    assert_eq!(sequential, build(RoundThreads::Fixed(4), None));
    assert_eq!(sequential, build(RoundThreads::Auto, Some(&budget)));
}

#[test]
fn malicious_population_matches_ratio() {
    let mut cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.1, 4);
    cfg.attack = AttackKind::PieckUea.into();
    cfg.malicious_ratio = 0.10;
    let (_, split, targets) = build_world(&cfg);
    let train = Arc::new(split.train);
    let n_benign = train.n_users();
    let sim = build_simulation(&cfg, train, &targets);
    let n_mal = sim.malicious_ids().len();
    let ratio = n_mal as f64 / (n_benign + n_mal) as f64;
    assert!((ratio - 0.10).abs() < 0.02, "p̃ = {ratio}");
    assert_eq!(sim.n_clients(), n_benign + n_mal);
}

#[test]
fn malicious_sampling_rate_converges_to_ratio() {
    let mut cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.1, 5);
    cfg.attack = AttackKind::PieckIpe.into();
    cfg.malicious_ratio = 0.05;
    let (_, split, targets) = build_world(&cfg);
    let train = Arc::new(split.train);
    let mut sim = build_simulation(&cfg, train, &targets);
    sim.run(60);
    let rate = sim.stats().malicious_selection_rate();
    assert!(
        (rate - 0.05).abs() < 0.03,
        "empirical selection rate {rate}"
    );
}
