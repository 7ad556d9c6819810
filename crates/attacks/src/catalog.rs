//! Attack catalogue: the paper's Table III rows and the Table VI / IX
//! variants, one [`AttackKind`] variant each.
//!
//! [`AttackKind`] is the attack family's [`Catalog`]: every row's name,
//! label, parameter schema and construction are match arms here, and the
//! Table VI / IX rows build through [`crate::variants`]. Scenarios
//! reference rows through selections
//! (`AttackSel::from(AttackKind::PieckUea)`), so a new attack is one more
//! variant plus its arms.

use frs_federation::{Catalog, Client, ParamSpec, Params};
use pieck_core::{PieckClient, PieckConfig};

use crate::fedrecattack::FedRecAttack;
use crate::interaction::{AHumClient, ARaClient};
use crate::pipattack::PipAttack;
use crate::registry::AttackBuildCtx;
use crate::scaled::ScaledClient;
use crate::variants;

/// Norm cap applied to scaled gradient-style poison uploads.
pub(crate) const POISON_NORM_CAP: f32 = 2.0;

/// Schema entry for the poison-upload scale of gradient-style attacks.
pub(crate) fn scale_spec() -> ParamSpec {
    ParamSpec::new(
        "scale",
        "poison upload scale (wrapped in ScaledClient, norm-capped)",
        "scenario poison_scale",
    )
}

/// Schema entry for the mined popular-set size of PIECK variants.
pub(crate) fn top_n_spec(default: &str) -> ParamSpec {
    ParamSpec::new("top_n", "mined popular-set size N", default)
}

/// Schema entry for the PIECK mining-phase length R̃.
pub(crate) fn mining_rounds_spec() -> ParamSpec {
    ParamSpec::new(
        "mining_rounds",
        "R̃ mining transitions before attacking",
        "2",
    )
}

/// Validates the shared numeric attack params and resolves their effective
/// values against the context defaults: `(top_n, mining_rounds, scale)`.
/// Out-of-range explicit values are a clean `Err` — this runs before any
/// client is constructed, so the CLI's `count = 0` probe catches them.
pub(crate) fn resolve_pieck_knobs(
    ctx: &AttackBuildCtx<'_>,
    params: &Params,
) -> Result<(usize, usize, f32), String> {
    let top_n = params.get_usize("top_n")?.unwrap_or(ctx.mined_top_n);
    if params.get_usize("top_n")?.is_some() && top_n == 0 {
        return Err("param `top_n` must be ≥ 1".into());
    }
    let mining_rounds = params.get_usize("mining_rounds")?.unwrap_or(2);
    if mining_rounds == 0 {
        return Err("param `mining_rounds` must be ≥ 1".into());
    }
    let scale = resolve_scale(ctx, params)?;
    Ok((top_n, mining_rounds, scale))
}

/// Validates and resolves the `scale` param against the scenario default.
pub(crate) fn resolve_scale(ctx: &AttackBuildCtx<'_>, params: &Params) -> Result<f32, String> {
    match params.get_f32("scale")? {
        None => Ok(ctx.poison_scale),
        Some(s) if s > 0.0 => Ok(s),
        Some(s) => Err(format!("param `scale` must be positive, got {s}")),
    }
}

/// UEA's effective scale: the explicit param only (validated positive,
/// defaulting to 1 = unscaled) — the scenario-wide poison_scale never
/// applies to UEA's absolute displacement.
pub(crate) fn resolve_uea_scale(params: &Params) -> Result<f32, String> {
    match params.get_f32("scale")? {
        None => Ok(1.0),
        Some(s) if s > 0.0 => Ok(s),
        Some(s) => Err(format!("param `scale` must be positive, got {s}")),
    }
}

/// Wraps a crafted client in a [`ScaledClient`] capped at
/// [`POISON_NORM_CAP`], even at scale 1.
pub(crate) fn capped(client: Box<dyn Client>, scale: f32) -> Box<dyn Client> {
    Box::new(ScaledClient::new(client, scale).with_cap(POISON_NORM_CAP))
}

/// [`capped`] when the scale deviates from 1 (the builtin gradient-style
/// policy), else the client as crafted.
pub(crate) fn maybe_scaled(client: Box<dyn Client>, scale: f32) -> Box<dyn Client> {
    if (scale - 1.0).abs() > f32::EPSILON {
        capped(client, scale)
    } else {
        client
    }
}

/// Every attack row: the paper's Table III attacks, then the Table VI and
/// Table IX variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// No malicious clients at all.
    NoAttack,
    /// FedRecAttack \[32\] (prior knowledge masked).
    FedRecA,
    /// PipAttack \[42\] (prior knowledge masked).
    Pipa,
    /// A-RA \[31\].
    ARa,
    /// A-HUM \[31\].
    AHum,
    /// PIECK-IPE (ours).
    PieckIpe,
    /// PIECK-UEA (ours).
    PieckUea,
    /// Table VI `L_IPE` ablation: KL similarity, no κ, no P±.
    IpeAblationPkl,
    /// Table VI: cosine similarity, no κ, no P±.
    IpeAblationPcos,
    /// Table VI: cosine similarity with the rank weights κ.
    IpeAblationPcosK,
    /// Table VI: the full `L_IPE`, cosine with κ and the sign partition P±.
    IpeAblationFull,
    /// Table IX: PIECK-IPE crafting one gradient per target.
    PieckIpeTogether,
    /// Table IX: PIECK-IPE optimizing one target and copying its gradient.
    PieckIpeCopy,
    /// Table IX: PIECK-UEA crafting one gradient per target.
    PieckUeaTogether,
    /// Table IX: PIECK-UEA optimizing one target and copying its gradient.
    PieckUeaCopy,
}

impl AttackKind {
    /// The Table III attacks, in the paper's row order.
    pub fn all() -> [AttackKind; 7] {
        [
            AttackKind::NoAttack,
            AttackKind::FedRecA,
            AttackKind::Pipa,
            AttackKind::ARa,
            AttackKind::AHum,
            AttackKind::PieckIpe,
            AttackKind::PieckUea,
        ]
    }
}

/// The builtin construction logic. Params override the scenario-level
/// context defaults; an empty payload reproduces the pre-params wiring bit
/// for bit.
impl Catalog for AttackKind {
    const NOUN: &'static str = "attack";
    type Ctx<'a> = AttackBuildCtx<'a>;
    type Built = Vec<Box<dyn Client>>;

    fn rows() -> &'static [Self] {
        &[
            Self::AHum,
            Self::ARa,
            Self::FedRecA,
            Self::IpeAblationFull,
            Self::IpeAblationPcos,
            Self::IpeAblationPcosK,
            Self::IpeAblationPkl,
            Self::NoAttack,
            Self::PieckIpe,
            Self::PieckIpeCopy,
            Self::PieckIpeTogether,
            Self::PieckUea,
            Self::PieckUeaCopy,
            Self::PieckUeaTogether,
            Self::Pipa,
        ]
    }

    fn name(self) -> &'static str {
        match self {
            Self::NoAttack => "none",
            Self::FedRecA => "fedrecattack",
            Self::Pipa => "pipattack",
            Self::ARa => "a-ra",
            Self::AHum => "a-hum",
            Self::PieckIpe => "pieck-ipe",
            Self::PieckUea => "pieck-uea",
            Self::IpeAblationPkl => "ipe-ablation-pkl",
            Self::IpeAblationPcos => "ipe-ablation-pcos",
            Self::IpeAblationPcosK => "ipe-ablation-pcos-k",
            Self::IpeAblationFull => "ipe-ablation-full",
            Self::PieckIpeTogether => "pieck-ipe-together",
            Self::PieckIpeCopy => "pieck-ipe-copy",
            Self::PieckUeaTogether => "pieck-uea-together",
            Self::PieckUeaCopy => "pieck-uea-copy",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Self::NoAttack => "NoAttack",
            Self::FedRecA => "FedRecA",
            Self::Pipa => "PipA",
            Self::ARa => "A-ra",
            Self::AHum => "A-hum",
            Self::PieckIpe | Self::PieckIpeTogether | Self::PieckIpeCopy => "PIECK-IPE",
            Self::PieckUea | Self::PieckUeaTogether | Self::PieckUeaCopy => "PIECK-UEA",
            Self::IpeAblationPkl => "PKL",
            Self::IpeAblationPcos => "PCOS",
            Self::IpeAblationPcosK => "PCOS +κ",
            Self::IpeAblationFull => "PCOS +κ +P±",
        }
    }

    fn param_schema(self) -> Vec<ParamSpec> {
        match self {
            Self::NoAttack => Vec::new(),
            Self::FedRecA | Self::Pipa | Self::ARa | Self::AHum => vec![scale_spec()],
            Self::PieckIpe => vec![
                top_n_spec("scenario mined_top_n"),
                mining_rounds_spec(),
                scale_spec(),
            ],
            Self::PieckUea => vec![
                top_n_spec("scenario mined_top_n"),
                mining_rounds_spec(),
                ParamSpec::new(
                    "scale",
                    "explicit displacement scale (UEA's poison is an absolute \
                     displacement, so the scenario poison_scale never applies; \
                     an explicit value wraps in a norm-capped ScaledClient)",
                    "1 (unscaled)",
                ),
            ],
            Self::IpeAblationPkl
            | Self::IpeAblationPcos
            | Self::IpeAblationPcosK
            | Self::IpeAblationFull => variants::ablation_schema(),
            Self::PieckIpeTogether
            | Self::PieckIpeCopy
            | Self::PieckUeaTogether
            | Self::PieckUeaCopy => variants::multi_target_schema(self),
        }
    }

    fn build(
        self,
        ctx: &AttackBuildCtx<'_>,
        params: &Params,
    ) -> Result<Vec<Box<dyn Client>>, String> {
        // Values are checked first: a `count = 0` probe must still catch
        // bad values before any client is constructed.
        let pieck = match self {
            Self::NoAttack => return Ok(Vec::new()),
            Self::IpeAblationPkl
            | Self::IpeAblationPcos
            | Self::IpeAblationPcosK
            | Self::IpeAblationFull => return variants::build_ablation(self, ctx, params),
            Self::PieckIpeTogether
            | Self::PieckIpeCopy
            | Self::PieckUeaTogether
            | Self::PieckUeaCopy => return variants::build_multi_target(self, ctx, params),
            Self::PieckIpe | Self::PieckUea => true,
            Self::FedRecA | Self::Pipa | Self::ARa | Self::AHum => false,
        };
        let (top_n, mining_rounds, param_scale) = if pieck {
            resolve_pieck_knobs(ctx, params)?
        } else {
            (ctx.mined_top_n, 2, resolve_scale(ctx, params)?)
        };
        // UEA's poison is an absolute displacement toward the locally
        // optimized embedding — scaling it overshoots the optimum and
        // destabilizes the attack rather than strengthening it, so the
        // scenario-wide poison_scale never applies; only an explicit
        // `scale` param does. All gradient-style attacks scale, with a norm
        // cap to prevent runaway feedback (see ScaledClient::with_cap).
        let scale = if self == Self::PieckUea {
            resolve_uea_scale(params)?
        } else {
            param_scale
        };
        let targets = ctx.targets.to_vec();
        Ok((0..ctx.count)
            .map(|i| {
                let id = ctx.first_id + i;
                // One attacker controls every sybil (Section III-B), so the
                // synthetic users / classifiers are shared across malicious
                // clients: poison directions add up instead of cancelling.
                let seed = ctx.seed ^ 0xA77AC;
                let client: Box<dyn Client> = match self {
                    Self::FedRecA => {
                        Box::new(FedRecAttack::new(id, targets.clone(), 32, None, seed))
                    }
                    Self::Pipa => Box::new(PipAttack::new(id, targets.clone(), 32, None, seed)),
                    Self::ARa => Box::new(ARaClient::new(id, targets.clone(), 32, seed)),
                    Self::AHum => Box::new(AHumClient::new(id, targets.clone(), 32, 10, seed)),
                    Self::PieckIpe => {
                        let mut cfg = PieckConfig::ipe(targets.clone());
                        cfg.top_n = top_n;
                        cfg.mining_rounds = mining_rounds;
                        Box::new(PieckClient::new(id, cfg))
                    }
                    Self::PieckUea => {
                        let mut cfg = PieckConfig::uea(targets.clone());
                        cfg.top_n = top_n;
                        cfg.mining_rounds = mining_rounds;
                        Box::new(PieckClient::new(id, cfg))
                    }
                    other => unreachable!("{other:?} returned above"),
                };
                maybe_scaled(client, scale)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AttackSel;

    #[test]
    fn no_attack_builds_nothing() {
        let clients = AttackSel::from(AttackKind::NoAttack)
            .build_clients(&AttackBuildCtx::minimal(10, 5, &[1]));
        assert!(clients.is_empty());
    }

    #[test]
    fn other_attacks_build_count_clients_with_dense_ids() {
        for kind in AttackKind::all().into_iter().skip(1) {
            let clients = AttackSel::from(kind).build_clients(&AttackBuildCtx {
                poison_scale: 2.0,
                ..AttackBuildCtx::minimal(100, 3, &[1, 2])
            });
            assert_eq!(clients.len(), 3, "{kind:?}");
            let ids: Vec<usize> = clients.iter().map(|c| c.id()).collect();
            assert_eq!(ids, vec![100, 101, 102], "{kind:?}");
            assert!(clients.iter().all(|c| c.is_malicious()), "{kind:?}");
        }
    }

    #[test]
    fn labels_and_names_are_unique() {
        let labels: std::collections::HashSet<&str> =
            AttackKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 7);
        let names: std::collections::HashSet<&str> =
            AttackKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn bad_param_values_are_clean_errors_even_on_a_count_zero_probe() {
        // The CLI's startup probe builds with count = 0: unknown keys,
        // mistyped values, and out-of-range numbers must all surface as
        // `Err` before any client is constructed — never as a panic.
        let probe = AttackBuildCtx::minimal(0, 0, &[]);
        for spec in [
            "pieck-uea:scale=-1",
            "pieck-uea-copy:scale=-2",
            "pieck-ipe:scale=0",
            "pieck-ipe:top_n=0",
            "pieck-uea:mining_rounds=0",
            "pieck-ipe:top_n=abc",
            "none:x=1",
            "fedrecattack:top_n=5",
            "a-ra:scale=true",
        ] {
            let sel = AttackSel::parse(spec).unwrap();
            assert!(sel.try_build_clients(&probe).is_err(), "{spec}");
        }
        // The same specs with good values build (count 0 ⇒ empty vec).
        for spec in [
            "pieck-uea:scale=2.0",
            "pieck-ipe:top_n=20,scale=1.5",
            "pieck-uea-copy:scale=2",
            "a-ra:scale=3",
        ] {
            let sel = AttackSel::parse(spec).unwrap();
            assert!(sel.try_build_clients(&probe).unwrap().is_empty(), "{spec}");
        }
    }

    #[test]
    fn explicit_params_change_construction() {
        // An explicit UEA scale wraps in a norm-capped ScaledClient (the
        // default never does), observable through the upload norm.
        use frs_federation::RoundContext;
        use frs_linalg::SeedStream;
        use frs_model::{GlobalModel, LossKind, ModelConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let targets = [2u32];
        let ctx = AttackBuildCtx::minimal(0, 1, &targets);
        let model = GlobalModel::new(&ModelConfig::mf(4), 8, &mut StdRng::seed_from_u64(0));
        let round = RoundContext::new(0, 1.0, 1.0, 1, LossKind::Bce, SeedStream::new(0));
        let norm_of = |sel: &AttackSel| {
            let mut clients = sel.build_clients(&ctx);
            let upload = clients[0].local_round(&round, &model);
            frs_federation::upload_norm(&upload)
        };
        // A-RA scaled 1000x hits the norm cap; unscaled stays below it.
        let plain = norm_of(&AttackSel::named("a-ra"));
        let scaled = norm_of(&AttackSel::parse("a-ra:scale=1000").unwrap());
        assert!(scaled >= plain, "{scaled} vs {plain}");
        assert!(scaled <= POISON_NORM_CAP + 1e-4, "cap applies: {scaled}");
    }
}
