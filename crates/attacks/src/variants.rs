//! The paper's Table VI / Table IX attack variants as ordinary catalog
//! entries.
//!
//! Each variant is a plain parameterized row of the fixed catalog, like
//! every other builtin, so a `table6`/`table9` cell rebuilds from its
//! serialized [`AttackSel`] alone. Its distinguishing switches are either
//! baked per entry (the ablation's similarity metric, the multi-target
//! strategy — those *are* the catalog identity, like `DefenseKind` rows) or
//! ordinary [`AttackParams`] keys (`top_n`, `mining_rounds`, `scale`,
//! `lambda`), and the cache schema versions their code like any builtin's.
//! A new attack is a new row written the same way.
//!
//! Construction replicates the runtime-registered closures these rows
//! replaced byte for byte —
//! including the unconditional norm-capped [`ScaledClient`] wrap the IPE
//! variants carried — so pre-existing suite reports are `cmp`-identical
//! (pinned by the golden test in `tests/attack_registry.rs`).
//!
//! [`AttackSel`]: crate::registry::AttackSel

use frs_federation::registry::Factory;
use frs_federation::Client;
use pieck_core::{IpeConfig, MultiTargetStrategy, PieckClient, PieckConfig, SimilarityMetric};

use crate::catalog::{
    mining_rounds_spec, resolve_pieck_knobs, resolve_uea_scale, scale_spec, top_n_spec,
    POISON_NORM_CAP,
};
use crate::registry::{AttackBuildCtx, AttackFactory, AttackParams, ParamSpec};
use crate::scaled::ScaledClient;

// ------------------------------------------------- Table VI: L_IPE ablation

/// One Table VI `L_IPE` ablation row: PIECK-IPE with the similarity metric,
/// rank-weighting κ, and sign-partition P± switches pinned per entry.
#[derive(Debug, Clone)]
pub struct IpeAblation {
    name: &'static str,
    label: &'static str,
    ipe: IpeConfig,
}

impl IpeAblation {
    /// The four ablation rows, in Table VI order.
    pub fn all() -> [IpeAblation; 4] {
        [
            IpeAblation {
                name: "ipe-ablation-pkl",
                label: "PKL",
                ipe: IpeConfig {
                    metric: SimilarityMetric::Kl,
                    use_rank_weights: false,
                    use_sign_partition: false,
                    lambda: 1.0,
                },
            },
            IpeAblation {
                name: "ipe-ablation-pcos",
                label: "PCOS",
                ipe: IpeConfig {
                    metric: SimilarityMetric::Cosine,
                    use_rank_weights: false,
                    use_sign_partition: false,
                    lambda: 1.0,
                },
            },
            IpeAblation {
                name: "ipe-ablation-pcos-k",
                label: "PCOS +κ",
                ipe: IpeConfig {
                    metric: SimilarityMetric::Cosine,
                    use_rank_weights: true,
                    use_sign_partition: false,
                    lambda: 1.0,
                },
            },
            IpeAblation {
                name: "ipe-ablation-full",
                label: "PCOS +κ +P±",
                ipe: IpeConfig::default(),
            },
        ]
    }
}

impl Factory for IpeAblation {
    fn name(&self) -> &str {
        self.name
    }

    fn label(&self) -> &str {
        self.label
    }

    fn param_schema(&self) -> Vec<ParamSpec> {
        vec![
            top_n_spec("scenario mined_top_n"),
            mining_rounds_spec(),
            scale_spec(),
            ParamSpec::new(
                "lambda",
                "partition strength λ ∈ (0, 1] of L_IPE",
                "the row's λ (1.0)",
            ),
        ]
    }
}

impl AttackFactory for IpeAblation {
    fn build_clients(
        &self,
        ctx: &AttackBuildCtx<'_>,
        params: &AttackParams,
    ) -> Result<Vec<Box<dyn Client>>, String> {
        let (top_n, mining_rounds, scale) = resolve_pieck_knobs(ctx, params)?;
        let mut ipe = self.ipe.clone();
        if let Some(lambda) = params.get_f32("lambda")? {
            if !(0.0..=1.0).contains(&lambda) || lambda == 0.0 {
                return Err(format!("param `lambda` must be in (0, 1], got {lambda}"));
            }
            ipe.lambda = lambda;
        }
        Ok((0..ctx.count)
            .map(|i| {
                let mut pieck = PieckConfig::ipe(ctx.targets.to_vec());
                pieck.variant = pieck_core::PieckVariant::Ipe(ipe.clone());
                pieck.top_n = top_n;
                pieck.mining_rounds = mining_rounds;
                let client: Box<dyn Client> = Box::new(PieckClient::new(ctx.first_id + i, pieck));
                // Unconditional wrap, matching the pre-catalog closure: the
                // norm cap applies even at scale 1.0.
                Box::new(ScaledClient::new(client, scale).with_cap(POISON_NORM_CAP))
                    as Box<dyn Client>
            })
            .collect())
    }
}

// ------------------------------------------- Table IX: multi-target rows

/// One Table IX row family: PIECK pinned to a multi-target strategy. The
/// strategy is the catalog identity (stable names like `pieck-uea-copy` are
/// referenced by saved suite JSON); the mined-set size defaults to the
/// paper's Table IX setting (N=10 for IPE, N=30 for UEA) and is an ordinary
/// `top_n` param.
#[derive(Debug, Clone)]
pub struct MultiTargetPieck {
    name: &'static str,
    label: &'static str,
    uea: bool,
    strategy: MultiTargetStrategy,
    default_top_n: usize,
}

impl MultiTargetPieck {
    /// The four strategy × solution entries.
    pub fn all() -> [MultiTargetPieck; 4] {
        [
            MultiTargetPieck {
                name: "pieck-ipe-together",
                label: "PIECK-IPE",
                uea: false,
                strategy: MultiTargetStrategy::TrainTogether,
                default_top_n: 10,
            },
            MultiTargetPieck {
                name: "pieck-ipe-copy",
                label: "PIECK-IPE",
                uea: false,
                strategy: MultiTargetStrategy::TrainOneThenCopy,
                default_top_n: 10,
            },
            MultiTargetPieck {
                name: "pieck-uea-together",
                label: "PIECK-UEA",
                uea: true,
                strategy: MultiTargetStrategy::TrainTogether,
                default_top_n: 30,
            },
            MultiTargetPieck {
                name: "pieck-uea-copy",
                label: "PIECK-UEA",
                uea: true,
                strategy: MultiTargetStrategy::TrainOneThenCopy,
                default_top_n: 30,
            },
        ]
    }
}

impl Factory for MultiTargetPieck {
    fn name(&self) -> &str {
        self.name
    }

    fn label(&self) -> &str {
        self.label
    }

    fn param_schema(&self) -> Vec<ParamSpec> {
        let mut schema = vec![
            top_n_spec(if self.uea {
                "30 (Table IX)"
            } else {
                "10 (Table IX)"
            }),
            mining_rounds_spec(),
        ];
        schema.push(if self.uea {
            ParamSpec::new(
                "scale",
                "explicit displacement scale (UEA never scales by default)",
                "1 (unscaled)",
            )
        } else {
            scale_spec()
        });
        schema
    }
}

impl AttackFactory for MultiTargetPieck {
    fn build_clients(
        &self,
        ctx: &AttackBuildCtx<'_>,
        params: &AttackParams,
    ) -> Result<Vec<Box<dyn Client>>, String> {
        // Table IX pins the mined-set size per solution: the scenario's
        // mined_top_n *default* deliberately does not apply (the
        // pre-catalog closures pinned it the same way). An explicit
        // `top_n` param — including one a ConfigPatch mined_top_n override
        // routes in — still wins over the pin: explicit knobs are never
        // silently inert.
        let pinned = AttackBuildCtx {
            mined_top_n: self.default_top_n,
            ..ctx.clone()
        };
        let (top_n, mining_rounds, scale) = resolve_pieck_knobs(&pinned, params)?;
        let uea = self.uea;
        let strategy = self.strategy;
        // UEA's displacement is absolute: only an explicit `scale` wraps
        // (validated positive, like every other ingest path).
        let uea_scale = resolve_uea_scale(params)?;
        Ok((0..ctx.count)
            .map(|i| {
                let mut pieck = if uea {
                    PieckConfig::uea(ctx.targets.to_vec())
                } else {
                    PieckConfig::ipe(ctx.targets.to_vec())
                };
                pieck.multi_target = strategy;
                pieck.top_n = top_n;
                pieck.mining_rounds = mining_rounds;
                let client: Box<dyn Client> = Box::new(PieckClient::new(ctx.first_id + i, pieck));
                if uea {
                    // Matches the builtin UEA policy for explicit params.
                    if (uea_scale - 1.0).abs() > f32::EPSILON {
                        Box::new(ScaledClient::new(client, uea_scale).with_cap(POISON_NORM_CAP))
                            as Box<dyn Client>
                    } else {
                        client
                    }
                } else {
                    // Unconditional wrap, matching the pre-catalog closure.
                    Box::new(ScaledClient::new(client, scale).with_cap(POISON_NORM_CAP))
                        as Box<dyn Client>
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AttackSel;

    #[test]
    fn variant_entries_are_builtin_registry_rows() {
        // The names resolve from a cold registry.
        for name in [
            "ipe-ablation-pkl",
            "ipe-ablation-pcos",
            "ipe-ablation-pcos-k",
            "ipe-ablation-full",
            "pieck-ipe-together",
            "pieck-ipe-copy",
            "pieck-uea-together",
            "pieck-uea-copy",
        ] {
            let factory = crate::registry::attack_factory(name)
                .unwrap_or_else(|| panic!("`{name}` must be a builtin"));
            assert!(!factory.param_schema().is_empty(), "{name}");
        }
        assert_eq!(AttackSel::named("ipe-ablation-pkl").label(), "PKL");
        assert_eq!(AttackSel::named("pieck-uea-copy").label(), "PIECK-UEA");
    }

    #[test]
    fn ablation_builds_count_clients_and_validates_lambda() {
        let targets = [1u32, 2];
        let ctx = AttackBuildCtx {
            poison_scale: 2.0,
            ..AttackBuildCtx::minimal(50, 3, &targets)
        };
        let clients = AttackSel::named("ipe-ablation-pkl").build_clients(&ctx);
        assert_eq!(clients.len(), 3);
        let ids: Vec<usize> = clients.iter().map(|c| c.id()).collect();
        assert_eq!(ids, vec![50, 51, 52]);
        assert!(clients.iter().all(|c| c.is_malicious()));

        let bad = AttackSel::named("ipe-ablation-pkl").with_param("lambda", 1.5f32);
        let err = bad.try_build_clients(&ctx).err().unwrap();
        assert!(err.contains("lambda"), "{err}");
        // Validation runs even on a count-0 probe.
        let probe = AttackBuildCtx::minimal(0, 0, &[]);
        assert!(bad.try_build_clients(&probe).is_err());
        let typo = AttackSel::named("ipe-ablation-pkl").with_param("lamda", 0.5f32);
        assert!(typo
            .try_build_clients(&probe)
            .err()
            .unwrap()
            .contains("unknown parameter"));
    }

    #[test]
    fn multi_target_entries_pin_the_table9_top_n() {
        // The scenario's mined_top_n must NOT leak into these entries — the
        // paper pins N per solution, and the pre-catalog closures did too.
        let targets = [1u32];
        let ctx = AttackBuildCtx {
            mined_top_n: 999,
            ..AttackBuildCtx::minimal(0, 1, &targets)
        };
        for entry in MultiTargetPieck::all() {
            let clients = AttackSel::named(entry.name).build_clients(&ctx);
            assert_eq!(clients.len(), 1, "{}", entry.name);
        }
        // An explicit top_n still overrides the pin.
        let sel = AttackSel::named("pieck-uea-copy").with_param("top_n", 7usize);
        assert_eq!(sel.build_clients(&ctx).len(), 1);
        // top_n=0 is a clean error.
        let zero = AttackSel::named("pieck-uea-copy").with_param("top_n", 0usize);
        assert!(zero
            .try_build_clients(&ctx)
            .err()
            .unwrap()
            .contains("top_n"));
    }
}
