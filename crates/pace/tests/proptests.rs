//! Property tests for the prediction toolkit.

use agentgrid_pace::dsl::{parse_models, render_models};
use agentgrid_pace::{
    AnalyticModel, AppId, ApplicationModel, CachedEngine, ModelCurve, NetworkModel, NoiseModel,
    PaceEngine, Phase, Platform, ResourceModel, TabulatedModel, TemplateModel,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_tabulated() -> impl Strategy<Value = TabulatedModel> {
    proptest::collection::vec(0.1f64..1000.0, 1..32)
        .prop_map(|v| TabulatedModel::new(v).expect("positive times"))
}

fn arb_analytic() -> impl Strategy<Value = AnalyticModel> {
    (0.0f64..100.0, 0.01f64..1000.0, 0.0f64..10.0, 0.0f64..10.0)
        .prop_map(|(s, p, cl, cn)| AnalyticModel::new(s, p, cl, cn).expect("valid terms"))
}

fn arb_phase() -> impl Strategy<Value = Phase> {
    prop_oneof![
        (0.001f64..100.0).prop_map(|w| Phase::ParallelCompute { work_s: w }),
        (0.001f64..100.0).prop_map(|w| Phase::SerialCompute { work_s: w }),
        (1u64..1_000_000, 1u32..8).prop_map(|(b, c)| Phase::Exchange { bytes: b, count: c }),
        (0u64..1_000_000).prop_map(|b| Phase::Broadcast { bytes: b }),
        (0u64..1_000_000).prop_map(|b| Phase::AllToAll { bytes: b }),
        Just(Phase::Barrier),
    ]
}

fn arb_template() -> impl Strategy<Value = TemplateModel> {
    (
        proptest::collection::vec(arb_phase(), 1..8),
        1u32..100,
        1e-6f64..1e-3,
        1e6f64..1e10,
    )
        .prop_filter_map("valid template", |(phases, iters, lat, bw)| {
            TemplateModel::new(
                phases,
                iters,
                NetworkModel {
                    latency_s: lat,
                    bandwidth_bps: bw,
                },
            )
            .ok()
        })
}

fn arb_curve() -> impl Strategy<Value = ModelCurve> {
    prop_oneof![
        arb_tabulated().prop_map(ModelCurve::Tabulated),
        arb_analytic().prop_map(ModelCurve::Analytic),
        arb_template().prop_map(ModelCurve::Templated),
    ]
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    (0u32..10, 0.1f64..20.0, 0.1f64..20.0)
        .prop_map(|(id, cpu, comm)| Platform::new(id, &format!("P{id}"), cpu, comm))
}

proptest! {
    /// Predictions are finite, positive, and clamped to the resource
    /// size, for arbitrary models, platforms and processor counts.
    #[test]
    fn predictions_are_positive_and_clamped(
        curve in arb_curve(),
        platform in arb_platform(),
        nproc in 1usize..32,
        request in 0usize..100,
    ) {
        let app = ApplicationModel::new(AppId(0), "p", curve, (1.0, 10.0)).unwrap();
        let resource = ResourceModel::new(platform, nproc).unwrap();
        let engine = PaceEngine::new();
        let t = engine.evaluate(&app, &resource, request);
        prop_assert!(t.is_finite() && t > 0.0);
        // Clamping: any request beyond nproc equals the nproc prediction.
        let t_max = engine.evaluate(&app, &resource, nproc);
        let t_over = engine.evaluate(&app, &resource, nproc + request);
        prop_assert_eq!(t_max, t_over);
    }

    /// The cache is transparent: cached and raw engines agree exactly,
    /// including on repeated queries.
    #[test]
    fn cache_is_transparent_for_arbitrary_models(
        curve in arb_curve(),
        platform in arb_platform(),
        nproc in 1usize..16,
        queries in proptest::collection::vec(0usize..32, 1..40),
    ) {
        let app = ApplicationModel::new(AppId(3), "q", curve, (1.0, 10.0)).unwrap();
        let resource = ResourceModel::new(platform, nproc).unwrap();
        let raw = PaceEngine::new();
        let cached = CachedEngine::new();
        for q in queries {
            prop_assert_eq!(raw.evaluate(&app, &resource, q), cached.evaluate(&app, &resource, q));
        }
    }

    /// best_time really is the minimum over all processor counts, and
    /// the memoised second call is bit-identical to the uncached engine.
    #[test]
    fn best_time_is_the_minimum(
        curve in arb_curve(),
        nproc in 1usize..24,
    ) {
        let app = ApplicationModel::new(AppId(1), "b", curve, (1.0, 10.0)).unwrap();
        let resource = ResourceModel::new(Platform::sgi_origin2000(), nproc).unwrap();
        let engine = CachedEngine::new();
        let (want_k, want_t) = PaceEngine::new().best_time(&app, &resource);
        let (k, t) = engine.best_time(&app, &resource);
        prop_assert_eq!((k, t.to_bits()), (want_k, want_t.to_bits()));
        let (k, t) = engine.best_time(&app, &resource);
        prop_assert_eq!((k, t.to_bits()), (want_k, want_t.to_bits()));
        prop_assert!(k >= 1 && k <= nproc);
        for other in 1..=nproc {
            prop_assert!(t <= engine.evaluate(&app, &resource, other) + 1e-12);
        }
        prop_assert!((t - engine.evaluate(&app, &resource, k)).abs() < 1e-12);
    }

    /// The model DSL round-trips arbitrary models exactly.
    #[test]
    fn dsl_roundtrips_arbitrary_models(
        curves in proptest::collection::vec(arb_curve(), 1..8),
        lo in 0.5f64..100.0,
        span in 0.0f64..100.0,
    ) {
        let apps: Vec<ApplicationModel> = curves
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                ApplicationModel::new(
                    AppId(i as u32),
                    &format!("app{i}"),
                    c,
                    (lo, lo + span),
                )
                .unwrap()
            })
            .collect();
        let text = render_models(&apps);
        let parsed = parse_models(&text).unwrap();
        prop_assert_eq!(parsed.len(), apps.len());
        for (a, b) in parsed.iter().zip(&apps) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(&a.curve, &b.curve);
            prop_assert_eq!(a.deadline_bounds_s, b.deadline_bounds_s);
        }
    }

    /// Noise factors are always strictly positive and Exact is 1.
    #[test]
    fn noise_factors_positive(seed in any::<u64>(), sigma in 0.0f64..2.0, rel in 0.0f64..2.0) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for model in [
            NoiseModel::Exact,
            NoiseModel::Uniform { rel },
            NoiseModel::LogNormal { sigma },
        ] {
            for _ in 0..16 {
                let f = model.factor(&mut rng);
                prop_assert!(f > 0.0 && f.is_finite(), "{model:?} gave {f}");
            }
        }
        prop_assert_eq!(NoiseModel::Exact.factor(&mut rng), 1.0);
    }

    /// Analytic models are monotone in each platform factor.
    #[test]
    fn analytic_monotone_in_factors(
        model in arb_analytic(),
        n in 1usize..32,
        f1 in 0.1f64..10.0,
        f2 in 0.1f64..10.0,
    ) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(model.time(n, lo, 1.0) <= model.time(n, hi, 1.0) + 1e-9);
        prop_assert!(model.time(n, 1.0, lo) <= model.time(n, 1.0, hi) + 1e-9);
    }
}
