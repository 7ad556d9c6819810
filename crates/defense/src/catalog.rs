//! Defense catalogue: the rows of Table IV.
//!
//! Like `frs_attacks::catalog`, [`DefenseKind`] is its family's
//! [`Catalog`]: every row's name, label, parameter schema and construction
//! are match arms here. Scenarios reference rows through selections
//! (`DefenseSel::from(DefenseKind::Krum)`), so a defense's params compose
//! with every caller.
//!
//! The paper's client-side defense (`Ours`, `pieck_core::defense`) is an
//! ordinary row here: it reads its β/γ weights, Re1/Re2 switches, and
//! mining parameters from the selection's params, falling back to the
//! model-tuned defaults the [`DefenseBuildCtx`] carries.

use frs_federation::{Aggregator, Catalog, ParamSpec, Params, ShardedAggregator, SumAggregator};
use pieck_core::{DefenseConfig, PieckDefense};

use crate::krum::{Bulyan, Krum, MultiKrum};
use crate::median::{Median, TrimmedMean};
use crate::norm_bound::NormBound;
use crate::registry::{DefenseBuildCtx, DefenseInstance};

/// Every defense evaluated in the paper, in Table IV row order. `Ours` is
/// client-side (see `pieck_core::defense`) and pairs with plain-sum server
/// aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    NoDefense,
    NormBound,
    Median,
    TrimmedMean,
    Krum,
    MultiKrum,
    Bulyan,
    /// The paper's client-side regularization defense (Section V-B).
    Ours,
}

impl DefenseKind {
    /// All defenses in table order.
    pub fn all() -> [DefenseKind; 8] {
        [
            DefenseKind::NoDefense,
            DefenseKind::NormBound,
            DefenseKind::Median,
            DefenseKind::TrimmedMean,
            DefenseKind::Krum,
            DefenseKind::MultiKrum,
            DefenseKind::Bulyan,
            DefenseKind::Ours,
        ]
    }

    /// True for defenses that run inside benign clients rather than in the
    /// server's aggregation rule.
    pub fn is_client_side(self) -> bool {
        self == DefenseKind::Ours
    }
}

/// The builtin construction logic.
impl Catalog for DefenseKind {
    const NOUN: &'static str = "defense";
    type Ctx<'a> = DefenseBuildCtx;
    type Built = DefenseInstance;

    fn rows() -> &'static [Self] {
        &[
            Self::Bulyan,
            Self::Krum,
            Self::Median,
            Self::MultiKrum,
            Self::NoDefense,
            Self::NormBound,
            Self::Ours,
            Self::TrimmedMean,
        ]
    }

    fn name(self) -> &'static str {
        match self {
            Self::NoDefense => "none",
            Self::NormBound => "norm-bound",
            Self::Median => "median",
            Self::TrimmedMean => "trimmed-mean",
            Self::Krum => "krum",
            Self::MultiKrum => "multi-krum",
            Self::Bulyan => "bulyan",
            Self::Ours => "ours",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Self::NoDefense => "NoDefense",
            Self::NormBound => "NormBound",
            Self::Median => "Median",
            Self::TrimmedMean => "TrimmedMean",
            Self::Krum => "Krum",
            Self::MultiKrum => "MultiKrum",
            Self::Bulyan => "Bulyan",
            Self::Ours => "ours",
        }
    }

    fn param_schema(self) -> Vec<ParamSpec> {
        let shards = || {
            ParamSpec::new(
                "shards",
                "item-shard count for the aggregation (1 = dense path)",
                "1",
            )
        };
        match self {
            Self::NoDefense => Vec::new(),
            Self::Median => vec![shards()],
            Self::NormBound => vec![ParamSpec::new(
                "threshold",
                "L2 clipping threshold per upload",
                "scenario norm_bound_threshold",
            )],
            Self::TrimmedMean | Self::Krum | Self::MultiKrum | Self::Bulyan => vec![
                ParamSpec::new(
                    "ratio",
                    "assumed malicious fraction p̃ (clamped to [0, 0.49])",
                    "scenario malicious_ratio",
                ),
                shards(),
            ],
            Self::Ours => vec![
                ParamSpec::new("beta", "weight β of Re1 (Eq. 14)", "model-tuned (ctx)"),
                ParamSpec::new("gamma", "weight γ of Re2 (Eq. 15)", "model-tuned (ctx)"),
                ParamSpec::new("re1", "enable the Re1 confusion term", "true"),
                ParamSpec::new("re2", "enable the Re2 separation term", "true"),
                ParamSpec::new("mining_rounds", "R̃ for the benign-side miner", "2"),
                ParamSpec::new(
                    "top_n",
                    "N for the benign-side miner",
                    "scenario mined_top_n",
                ),
            ],
        }
    }

    fn build(self, ctx: &DefenseBuildCtx, params: &Params) -> Result<DefenseInstance, String> {
        // Robust rules assume a minority of malicious uploads; clamp.
        let ratio = params
            .get_f64("ratio")?
            .unwrap_or(ctx.assumed_malicious_ratio)
            .clamp(0.0, 0.49);
        // Robust rules optionally run item-sharded (million-client rounds);
        // shards == 1 is the bitwise-identical dense path. Item ids are u32,
        // so the residue classes are counted in u32 too.
        let shards = params.get_usize("shards")?.unwrap_or(1);
        let shards = u32::try_from(shards)
            .ok()
            .filter(|&s| s >= 1)
            .ok_or_else(|| format!("shards must be in 1..={} (got {shards})", u32::MAX))?;
        let sharded = |agg: Box<dyn Aggregator>| -> Box<dyn Aggregator> {
            if shards > 1 {
                Box::new(ShardedAggregator::new(agg, shards))
            } else {
                agg
            }
        };
        // Coordinate-wise rules reduce each item's gradients on their own,
        // so sharding gives them the bare rule's bits at any count
        // (`sharded_parity` pins it) and only costs the per-shard copies:
        // they run bare, and `shards` stays a keyed, validated no-op.
        Ok(match self {
            Self::NoDefense => DefenseInstance::server(Box::new(SumAggregator)),
            Self::NormBound => {
                // Checked whether it came from the param or from the ctx
                // default, which a ConfigPatch can set.
                let threshold = params
                    .get_f32("threshold")?
                    .unwrap_or(ctx.norm_bound_threshold);
                if threshold <= 0.0 || !threshold.is_finite() {
                    return Err(format!(
                        "param `threshold` must be positive and finite, got {threshold}"
                    ));
                }
                DefenseInstance::server(Box::new(NormBound::new(threshold)))
            }
            Self::Median => DefenseInstance::server(Box::new(Median)),
            Self::TrimmedMean => DefenseInstance::server(Box::new(TrimmedMean::new(ratio))),
            Self::Krum => DefenseInstance::server(sharded(Box::new(Krum::new(ratio)))),
            Self::MultiKrum => DefenseInstance::server(sharded(Box::new(MultiKrum::new(ratio)))),
            Self::Bulyan => DefenseInstance::server(sharded(Box::new(Bulyan::new(ratio)))),
            Self::Ours => {
                let config = DefenseConfig {
                    mining_rounds: params.get_usize("mining_rounds")?.unwrap_or(2),
                    top_n: params
                        .get_usize("top_n")?
                        .unwrap_or_else(|| ctx.mined_top_n.max(1)),
                    beta: params.get_f32("beta")?.unwrap_or(ctx.default_beta),
                    gamma: params.get_f32("gamma")?.unwrap_or(ctx.default_gamma),
                    use_re1: params.get_bool("re1")?.unwrap_or(true),
                    use_re2: params.get_bool("re2")?.unwrap_or(true),
                };
                config
                    .validate()
                    .map_err(|e| format!("invalid `ours` parameters: {e}"))?;
                DefenseInstance::client(
                    Box::new(SumAggregator),
                    // Mining state is per-client: every benign client gets
                    // its own fresh PieckDefense.
                    Box::new(move |_client_id| Box::new(PieckDefense::new(config.clone()))),
                )
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DefenseSel;

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            DefenseKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn only_ours_is_client_side() {
        for k in DefenseKind::all() {
            assert_eq!(k.is_client_side(), k == DefenseKind::Ours, "{k:?}");
        }
    }

    #[test]
    fn aggregators_build_and_name_sensibly() {
        use frs_model::GlobalGradients;
        for k in DefenseKind::all() {
            let agg = DefenseSel::from(k)
                .build(&DefenseBuildCtx::minimal(0.05, 1.0))
                .aggregator;
            let mut u1 = GlobalGradients::new();
            u1.add_item_grad(0, &[0.5, 0.5]);
            let mut u2 = GlobalGradients::new();
            u2.add_item_grad(0, &[0.4, 0.6]);
            let out = agg.aggregate(&[u1, u2]);
            let g = out.get(0).unwrap();
            assert_eq!(g.len(), 2, "{k:?}");
            assert!(g.iter().all(|v| v.is_finite()), "{k:?}");
            assert!(!agg.name().is_empty());
        }
    }

    #[test]
    fn extreme_assumed_ratio_is_clamped() {
        use frs_model::GlobalGradients;
        // Must not panic even with a ratio >= 0.5 — from ctx or from params.
        let agg = DefenseSel::from(DefenseKind::Krum)
            .build(&DefenseBuildCtx::minimal(0.9, 1.0))
            .aggregator;
        let mut u = GlobalGradients::new();
        u.add_item_grad(0, &[1.0]);
        assert!(agg.aggregate(&[u]).get(0).unwrap()[0].is_finite());

        let sel = DefenseSel::named("krum").with_param("ratio", 0.9f64);
        let inst = sel.build(&DefenseBuildCtx::minimal(0.05, 1.0));
        let mut u = GlobalGradients::new();
        u.add_item_grad(0, &[1.0]);
        assert!(inst.aggregator.aggregate(&[u]).get(0).unwrap()[0].is_finite());
    }

    #[test]
    fn ours_builds_a_per_client_regularizer_through_the_registry() {
        let ctx = DefenseBuildCtx {
            mined_top_n: 7,
            ..DefenseBuildCtx::minimal(0.05, 0.5)
        };
        let inst = DefenseSel::named("ours").build(&ctx);
        assert!(inst.regularizer_factory.is_some());
        let reg = inst.regularizer_for(0).unwrap();
        assert_eq!(reg.name(), "ours");
        // Aggregation stays a plain sum (the defense is client-side).
        assert_eq!(inst.aggregator.name(), "NoDefense");
    }

    #[test]
    fn ours_params_override_context_defaults() {
        let ctx = DefenseBuildCtx::minimal(0.05, 0.5);
        // Invalid overrides are caught by DefenseConfig::validate.
        let bad = DefenseSel::named("ours").with_param("mining_rounds", 0usize);
        assert!(
            bad.try_build(&ctx).unwrap_err().contains("invalid"),
            "{bad}"
        );
        // Unknown keys are rejected against the schema.
        let typo = DefenseSel::named("ours").with_param("betta", 1.0f32);
        assert!(typo.try_build(&ctx).unwrap_err().contains("unknown"));
        // A valid override builds fine.
        let ok = DefenseSel::named("ours")
            .with_param("beta", 0.9f32)
            .with_param("re2", false);
        assert!(ok.try_build(&ctx).is_ok());
    }

    #[test]
    fn shard_counts_past_u32_are_rejected() {
        // 2^32 once wrapped to 0 shards (an update with no items) and
        // 2^32 + 1 to 1; the largest u32 count still builds.
        let ctx = DefenseBuildCtx::minimal(0.05, 1.0);
        for spec in ["median:shards=4294967296", "krum:shards=4294967297"] {
            let err = DefenseSel::parse(spec)
                .unwrap()
                .try_build(&ctx)
                .unwrap_err();
            assert!(
                err.contains("shards must be in 1..=4294967295"),
                "{spec}: {err}"
            );
        }
        assert!(DefenseSel::parse("median:shards=4294967295")
            .unwrap()
            .try_build(&ctx)
            .is_ok());
    }

    #[test]
    fn shards_param_wraps_robust_rules() {
        use frs_model::GlobalGradients;
        let ctx = DefenseBuildCtx::minimal(0.05, 1.0);
        for name in ["median", "trimmed-mean", "krum", "multi-krum", "bulyan"] {
            // shards = 0 is rejected.
            let bad = DefenseSel::named(name).with_param("shards", 0usize);
            assert!(
                bad.try_build(&ctx).unwrap_err().contains("shards"),
                "{name}"
            );
            // A sharded build aggregates to finite values and keeps the
            // inner rule's display name (coordinate-wise rules run bare).
            let inst = DefenseSel::named(name)
                .with_param("shards", 4usize)
                .build(&ctx);
            let mut u1 = GlobalGradients::new();
            let mut u2 = GlobalGradients::new();
            for item in 0..8u32 {
                u1.add_item_grad(item, &[0.5, 0.5]);
                u2.add_item_grad(item, &[0.4, 0.6]);
            }
            let out = inst.aggregator.aggregate(&[u1, u2]);
            assert_eq!(out.n_items(), 8, "{name}");
            assert!(out.rows().iter().all(|v| v.is_finite()), "{name}");
        }
        // NoDefense/NormBound/Ours do not take the param; a row with no
        // schema at all says so.
        let typo = DefenseSel::named("none").with_param("shards", 2usize);
        let err = typo.try_build(&ctx).unwrap_err();
        assert!(err.contains("unknown"), "{err}");
        assert!(err.contains("takes no parameters"), "{err}");
    }

    #[test]
    fn coordinate_wise_rules_aggregate_bare_at_any_shard_count() {
        use frs_model::GlobalGradients;
        let ctx = DefenseBuildCtx::minimal(0.2, 1.0);
        let uploads: Vec<GlobalGradients> = (0..5u32)
            .map(|c| {
                let mut g = GlobalGradients::new();
                for item in (c % 3..12).step_by(2) {
                    let x = (item * 7 + c * 3) as f32 * 0.37 - 2.0;
                    g.add_item_grad(item, &[x, -x * 0.5, 1e-40]);
                }
                g
            })
            .collect();
        for name in ["median", "trimmed-mean"] {
            let bare = DefenseSel::named(name)
                .build(&ctx)
                .aggregator
                .aggregate(&uploads);
            for shards in [2usize, 8] {
                let out = DefenseSel::named(name)
                    .with_param("shards", shards)
                    .build(&ctx)
                    .aggregator
                    .aggregate(&uploads);
                assert_eq!(out.ids(), bare.ids(), "{name}:shards={shards}");
                let bits = |g: &GlobalGradients| -> Vec<u32> {
                    g.rows().iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&out), bits(&bare), "{name}:shards={shards}");
            }
        }
    }

    #[test]
    fn normbound_threshold_param_overrides_ctx() {
        use frs_model::GlobalGradients;
        let ctx = DefenseBuildCtx::minimal(0.05, 1000.0);
        // With a tiny explicit threshold the upload is clipped hard.
        let clipped = DefenseSel::named("norm-bound")
            .with_param("threshold", 0.001f32)
            .build(&ctx);
        let mut u = GlobalGradients::new();
        u.add_item_grad(0, &[3.0, 4.0]);
        let out = clipped.aggregator.aggregate(&[u.clone()]);
        let norm: f32 = out
            .get(0)
            .unwrap()
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt();
        assert!(norm <= 0.0011, "clipped to the param threshold: {norm}");
        // Without the param, the huge ctx threshold leaves it untouched.
        let loose = DefenseSel::named("norm-bound").build(&ctx);
        let out = loose.aggregator.aggregate(&[u]);
        assert_eq!(out.get(0).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn normbound_rejects_a_non_positive_threshold_without_panicking() {
        // From the param…
        let ctx = DefenseBuildCtx::minimal(0.05, 1.0);
        for spec in ["norm-bound:threshold=0", "norm-bound:threshold=-1"] {
            let err = DefenseSel::parse(spec)
                .unwrap()
                .try_build(&ctx)
                .unwrap_err();
            assert!(err.contains("must be positive and finite"), "{spec}: {err}");
        }
        // …and from the ctx default a ConfigPatch can set.
        for threshold in [0.0, -1.0, f32::INFINITY, f32::NAN] {
            let err = DefenseSel::from(DefenseKind::NormBound)
                .try_build(&DefenseBuildCtx::minimal(0.05, threshold))
                .unwrap_err();
            assert!(err.contains("threshold"), "{threshold}: {err}");
        }
    }
}
