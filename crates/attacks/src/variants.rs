//! How the paper's Table VI / Table IX attack rows build.
//!
//! Each variant is an ordinary [`AttackKind`] row, like every other
//! builtin, so a `table6`/`table9` cell rebuilds from its serialized
//! [`AttackSel`] alone. Its distinguishing switches are either pinned per
//! row (the ablation's similarity metric, the multi-target strategy — those
//! *are* the row's identity, like `DefenseKind` rows) or ordinary params
//! (`top_n`, `mining_rounds`, `scale`, `lambda`), and the cache schema
//! versions their code like any builtin's.
//!
//! Construction replicates the runtime-registered closures these rows
//! replaced byte for byte — including the unconditional norm-capped
//! [`ScaledClient`] wrap the IPE variants carried — so pre-existing suite
//! reports are `cmp`-identical (pinned by the golden test in
//! `tests/attack_registry.rs`).
//!
//! [`AttackSel`]: crate::registry::AttackSel
//! [`ScaledClient`]: crate::ScaledClient

use frs_federation::{Client, ParamSpec, Params};
use pieck_core::{
    IpeConfig, MultiTargetStrategy, PieckClient, PieckConfig, PieckVariant, SimilarityMetric,
};

use crate::catalog::{
    capped, maybe_scaled, mining_rounds_spec, resolve_pieck_knobs, resolve_uea_scale, scale_spec,
    top_n_spec, AttackKind,
};
use crate::registry::AttackBuildCtx;

// ------------------------------------------------- Table VI: L_IPE ablation

/// The parameters every Table VI row accepts.
pub(crate) fn ablation_schema() -> Vec<ParamSpec> {
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

/// Builds a Table VI `L_IPE` ablation row: PIECK-IPE with the similarity
/// metric, rank-weighting κ and sign-partition P± switches the row pins.
pub(crate) fn build_ablation(
    row: AttackKind,
    ctx: &AttackBuildCtx<'_>,
    params: &Params,
) -> Result<Vec<Box<dyn Client>>, String> {
    let (metric, use_rank_weights, use_sign_partition) = match row {
        AttackKind::IpeAblationPkl => (SimilarityMetric::Kl, false, false),
        AttackKind::IpeAblationPcos => (SimilarityMetric::Cosine, false, false),
        AttackKind::IpeAblationPcosK => (SimilarityMetric::Cosine, true, false),
        AttackKind::IpeAblationFull => (SimilarityMetric::Cosine, true, true),
        other => unreachable!("{other:?} is not a Table VI row"),
    };
    let (top_n, mining_rounds, scale) = resolve_pieck_knobs(ctx, params)?;
    let lambda = params.get_f32("lambda")?.unwrap_or(1.0);
    if !(0.0..=1.0).contains(&lambda) || lambda == 0.0 {
        return Err(format!("param `lambda` must be in (0, 1], got {lambda}"));
    }
    let ipe = IpeConfig {
        metric,
        use_rank_weights,
        use_sign_partition,
        lambda,
    };
    Ok((0..ctx.count)
        .map(|i| {
            let mut pieck = PieckConfig::ipe(ctx.targets.to_vec());
            pieck.variant = PieckVariant::Ipe(ipe.clone());
            pieck.top_n = top_n;
            pieck.mining_rounds = mining_rounds;
            // Unconditional wrap, matching the pre-catalog closure: the
            // norm cap applies even at scale 1.0.
            capped(Box::new(PieckClient::new(ctx.first_id + i, pieck)), scale)
        })
        .collect())
}

// ------------------------------------------- Table IX: multi-target rows

/// Whether a Table IX row runs PIECK-UEA (else PIECK-IPE), and the
/// multi-target strategy it pins. The strategy is the row's identity
/// (stable names like `pieck-uea-copy` are referenced by saved suite JSON).
fn multi_target(row: AttackKind) -> (bool, MultiTargetStrategy) {
    match row {
        AttackKind::PieckIpeTogether => (false, MultiTargetStrategy::TrainTogether),
        AttackKind::PieckIpeCopy => (false, MultiTargetStrategy::TrainOneThenCopy),
        AttackKind::PieckUeaTogether => (true, MultiTargetStrategy::TrainTogether),
        AttackKind::PieckUeaCopy => (true, MultiTargetStrategy::TrainOneThenCopy),
        other => unreachable!("{other:?} is not a Table IX row"),
    }
}

/// The parameters a Table IX row accepts.
pub(crate) fn multi_target_schema(row: AttackKind) -> Vec<ParamSpec> {
    let (uea, _) = multi_target(row);
    vec![
        top_n_spec(if uea {
            "30 (Table IX)"
        } else {
            "10 (Table IX)"
        }),
        mining_rounds_spec(),
        if uea {
            ParamSpec::new(
                "scale",
                "explicit displacement scale (UEA never scales by default)",
                "1 (unscaled)",
            )
        } else {
            scale_spec()
        },
    ]
}

/// Builds a Table IX row: PIECK pinned to the row's multi-target strategy.
/// The mined-set size defaults to the paper's Table IX setting (N=10 for
/// IPE, N=30 for UEA) and is an ordinary `top_n` param.
pub(crate) fn build_multi_target(
    row: AttackKind,
    ctx: &AttackBuildCtx<'_>,
    params: &Params,
) -> Result<Vec<Box<dyn Client>>, String> {
    let (uea, strategy) = multi_target(row);
    // Table IX pins the mined-set size per solution: the scenario's
    // mined_top_n *default* deliberately does not apply (the pre-catalog
    // closures pinned it the same way). An explicit `top_n` param —
    // including one a ConfigPatch mined_top_n override routes in — still
    // wins over the pin: explicit knobs are never silently inert.
    let pinned = AttackBuildCtx {
        mined_top_n: if uea { 30 } else { 10 },
        ..ctx.clone()
    };
    let (top_n, mining_rounds, scale) = resolve_pieck_knobs(&pinned, params)?;
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
                maybe_scaled(client, uea_scale)
            } else {
                // Unconditional wrap, matching the pre-catalog closure.
                capped(client, scale)
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AttackSel;
    use frs_federation::Catalog;

    #[test]
    fn variant_entries_are_builtin_registry_rows() {
        // The names resolve to catalog rows.
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
            let row = AttackSel::named(name)
                .resolve()
                .unwrap_or_else(|| panic!("`{name}` must be a builtin"));
            assert!(!row.param_schema().is_empty(), "{name}");
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
        for row in [
            AttackKind::PieckIpeTogether,
            AttackKind::PieckIpeCopy,
            AttackKind::PieckUeaTogether,
            AttackKind::PieckUeaCopy,
        ] {
            let clients = AttackSel::from(row).build_clients(&ctx);
            assert_eq!(clients.len(), 1, "{row:?}");
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
