//! Golden outcomes for the three drivers that run a scenario: suite cells
//! (`scenario::run` and the checkpointed `scenario::run_checkpointed`), the
//! bespoke `paper scale` command, and the `paper serve` trainer.
//!
//! Every row pins exact bits: ER@K, HR@K and NDCG as `f64` bit patterns,
//! the target items, the upload byte count and every trend point, or the
//! SHA-256 of a whole report or checkpoint file. A refactor of any driver
//! must leave this table unchanged. On a mismatch the test prints the whole
//! observed table, ready to paste over [`GOLDEN`] once a change of bits is
//! intended.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pieck_frs::attacks::AttackKind;
use pieck_frs::data::DatasetSpec;
use pieck_frs::defense::DefenseSel;
use pieck_frs::experiments::cache::{scenario_key, sha256_hex, SuiteCache};
use pieck_frs::experiments::paper::PaperCommand;
use pieck_frs::experiments::scenario::{self, CheckpointCtl};
use pieck_frs::experiments::suite::ExecOptions;
use pieck_frs::experiments::{
    serve_scenarios, shutdown, CommonArgs, ReportFormat, ScenarioConfig, ScenarioOutcome,
    ServeOptions, ServeScenarioSpec,
};
use pieck_frs::federation::{ClientsPerRound, CoreBudget};
use pieck_frs::model::{LossKind, ModelKind};

/// The pinned table, one row per run:
/// - `a`: `scenario::run`, MF, PIECK-IPE × `ours`, a trend point every 3
///   rounds;
/// - `b`: `scenario::run`, NCF, PIECK-UEA × `median:shards=4`, half the
///   population sampled per round;
/// - `c`: run `a` through `run_checkpointed`, interrupted after round 3 and
///   resumed, so the round-3 trend point rides the checkpoint (it must
///   equal row `a`);
/// - `d`: SHA-256 of `paper scale 1000 --rounds 3`'s JSON report;
/// - `e`: SHA-256 of the final checkpoint a `serve_scenarios` session
///   leaves once it has trained an MF scenario to completion;
/// - `f`: row `e`'s session with an NCF model, so the sidecar's bytes
///   include a serialized interaction MLP;
/// - `g`: `scenario::run`, NCF, PIECK-UEA × `ours` under the BPR loss, a
///   trend point every 4 rounds, so benign clients train pairwise and run
///   the defense's Re1/Re2 through the interaction MLP;
/// - `h`: SHA-256 of `paper scale 20000 --rounds 3`'s JSON report: past
///   20,000 users `scenario::stride_sample` evaluates every second user, so
///   the stride is pinned too.
const GOLDEN: &str = "\
a er=403c11f7047dc11f hr=4014000000000000 ndcg=3f9348aa135721db targets=[112] upload=1557816 trend=[3:40218b3a62ce98b3:4027555555555555,6:40218b3a62ce98b3:4027555555555555,9:403dd31674c59d31:4024000000000000,12:403a50d79435e50d:4027555555555555,15:40388fb823ee08fb:4027555555555555,18:40388fb823ee08fb:402aaaaaaaaaaaab]
b er=0000000000000000 hr=4034000000000000 ndcg=3fb44402e4437afd targets=[112] upload=2622648 trend=[]
c er=403c11f7047dc11f hr=4014000000000000 ndcg=3f9348aa135721db targets=[112] upload=1557816 trend=[3:40218b3a62ce98b3:4027555555555555,6:40218b3a62ce98b3:4027555555555555,9:403dd31674c59d31:4024000000000000,12:403a50d79435e50d:4027555555555555,15:40388fb823ee08fb:4027555555555555,18:40388fb823ee08fb:402aaaaaaaaaaaab]
d sha256=f8129d19f85bdebbfb1d0689861129ecd905a32b9e0894f43b672a51e7620cb4
e sha256=78ca0bb2a06af56f194be5b126049893c4204a50c4fafb47a51aa2b678343a81
f sha256=d46a027f76ed1b7c75f494cecfee56447d4d3527f9ebda3d28218ad55cb74970
g er=4059000000000000 hr=4035aaaaaaaaaaab ndcg=3fb595563df22cc4 targets=[112] upload=1964592 trend=[4:0000000000000000:402e000000000000,8:4059000000000000:402aaaaaaaaaaaab,12:4059000000000000:4035aaaaaaaaaaab]
h sha256=521abf1f62400d1c467004d5321f87ed73a9a9db84e051c20e6b115c95a429c2
";

fn ipe_ours_mf() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 42);
    cfg.federation.clients_per_round = ClientsPerRound::Count(24);
    cfg.rounds = 20;
    cfg.trend_every = 3;
    cfg.attack = AttackKind::PieckIpe.into();
    cfg.defense = DefenseSel::named("ours");
    cfg
}

fn uea_median_ncf() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Ncf, 42);
    cfg.federation.clients_per_round = ClientsPerRound::parse("50%").unwrap();
    cfg.rounds = 12;
    cfg.attack = AttackKind::PieckUea.into();
    cfg.defense = DefenseSel::parse("median:shards=4").unwrap();
    cfg
}

fn uea_ours_ncf_bpr() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Ncf, 42);
    cfg.federation.clients_per_round = ClientsPerRound::Count(24);
    cfg.federation.loss = LossKind::Bpr;
    cfg.rounds = 12;
    cfg.trend_every = 4;
    cfg.attack = AttackKind::PieckUea.into();
    cfg.defense = DefenseSel::named("ours");
    cfg
}

fn temp_cache(tag: &str) -> SuiteCache {
    let dir = std::env::temp_dir().join(format!("frs-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SuiteCache::open(dir).unwrap()
}

/// One table row: every deterministic field of an outcome, as bits.
fn outcome_row(name: &str, out: &ScenarioOutcome) -> String {
    let trend: Vec<String> = out
        .trend
        .iter()
        .map(|p| {
            format!(
                "{}:{:016x}:{:016x}",
                p.round,
                p.er.to_bits(),
                p.hr.to_bits()
            )
        })
        .collect();
    format!(
        "{name} er={:016x} hr={:016x} ndcg={:016x} targets={:?} upload={} trend=[{}]",
        out.er_percent.to_bits(),
        out.hr_percent.to_bits(),
        out.ndcg.to_bits(),
        out.targets,
        out.total_upload_bytes,
        trend.join(",")
    )
}

/// Row `c`: config `a` stopped after round 3 by a held shutdown request
/// (one round per call), then resumed from its checkpoint to the end.
fn checkpointed_resume(cfg: &ScenarioConfig) -> ScenarioOutcome {
    let cache = temp_cache("resume");
    let key = scenario_key(cfg);
    let ctl = CheckpointCtl {
        cache: &cache,
        key: &key,
        every: 0,
        keep: 1,
    };
    shutdown::trigger();
    for _ in 0..3 {
        assert!(scenario::run_checkpointed(cfg, None, &ctl).is_err());
    }
    shutdown::reset();
    let out = scenario::run_checkpointed(cfg, None, &ctl).expect("resumed run finishes");
    let _ = std::fs::remove_dir_all(cache.dir());
    out
}

/// Rows `d` and `h`: the report `paper scale USERS --rounds 3 --json DIR`
/// writes.
fn scale_report_digest(users: &str) -> String {
    let args = CommonArgs::parse_from(["scale", users, "--rounds", "3"].map(String::from))
        .expect("valid arguments");
    let report = PaperCommand::Scale
        .run(&args, &ExecOptions::default())
        .expect("scale runs");
    sha256_hex(report.render(ReportFormat::Json).as_bytes())
}

/// Rows `e` and `f`: serves one scenario of `kind` to completion, stops the
/// session, and digests the checkpoint sidecar it leaves behind.
fn serve_sidecar_digest(kind: ModelKind) -> String {
    let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), kind, 5);
    cfg.federation.clients_per_round = ClientsPerRound::Count(24);
    cfg.rounds = 6;
    cfg.attack = AttackKind::PieckUea.into();
    cfg.defense = DefenseSel::named("ours");
    let key = scenario_key(&cfg);
    let cache = temp_cache("serve");
    let budget = CoreBudget::new(2);
    let bound = OnceLock::new();
    let opts = ServeOptions {
        tcp: Some("127.0.0.1:0"),
        cache: Some(&cache),
        checkpoint_every: 0,
        keep_checkpoints: 1,
        tcp_bound: Some(&bound),
        ..ServeOptions::default()
    };
    let sidecar = cache.dir().join(format!("{key}.ckpt.json"));
    let summary = std::thread::scope(|scope| {
        let session = scope.spawn(|| {
            serve_scenarios(
                vec![ServeScenarioSpec {
                    name: "e".into(),
                    cfg,
                }],
                &opts,
                &budget,
            )
        });
        // With `checkpoint_every = 0` the session writes its sidecar once,
        // atomically, after the last round.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !sidecar.exists() && !session.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        shutdown::trigger();
        let summary = session.join().expect("serve session panicked");
        shutdown::reset();
        summary.expect("serve session runs")
    });
    assert!(!summary.interrupted, "the session trained to completion");
    let digest = sha256_hex(&std::fs::read(&sidecar).expect("final sidecar on disk"));
    let _ = std::fs::remove_dir_all(cache.dir());
    digest
}

#[test]
fn every_driver_reproduces_its_pinned_outcome() {
    let _guard = shutdown::test_lock();
    shutdown::reset();
    let a = ipe_ours_mf();
    let rows = [
        outcome_row("a", &scenario::run(&a)),
        outcome_row("b", &scenario::run(&uea_median_ncf())),
        outcome_row("c", &checkpointed_resume(&a)),
        format!("d sha256={}", scale_report_digest("1000")),
        format!("e sha256={}", serve_sidecar_digest(ModelKind::Mf)),
        format!("f sha256={}", serve_sidecar_digest(ModelKind::Ncf)),
        outcome_row("g", &scenario::run(&uea_ours_ncf_bpr())),
        format!("h sha256={}", scale_report_digest("20000")),
    ];
    let observed: String = rows.iter().map(|row| format!("{row}\n")).collect();
    assert!(
        observed == GOLDEN,
        "golden outcomes moved; observed table:\n\nconst GOLDEN: &str = \"\\\n{observed}\";\n"
    );
}
