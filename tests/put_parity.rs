//! Corpus relations for the fast American puts (`corpus`): nest
//! equivalence, put–call symmetry against the Θ(T²) *call* nests (the fast
//! calls are mirrored puts, so the nests are the independent side), the
//! frontier's monotonicity and batch-of-one bitwise identity; and two pinned
//! heavyweight cases.

mod corpus;
use corpus::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bopm_fast_put_matches_naive_on_random_params(c in Contracts(16..600)) {
        fast_matches_nest(BOPM_PUT, &c, 1e-8, 1e-12)?;
    }

    #[test]
    fn topm_fast_put_matches_naive_on_random_params(c in Contracts(16..400)) {
        fast_matches_nest(TOPM_PUT, &c, 1e-8, 1e-12)?;
    }

    #[test]
    fn bopm_put_call_symmetry_holds(c in Contracts(16..500)) {
        put_call_symmetry(ModelKind::Bopm, &c, 1e-11)?;
    }

    #[test]
    fn topm_put_call_symmetry_holds(c in Contracts(16..400)) {
        put_call_symmetry(ModelKind::Topm, &c, 1e-11)?;
    }

    #[test]
    fn bopm_put_boundary_is_monotone(c in Contracts(64..400)) {
        put_frontier_is_monotone(&c)?;
    }

    #[test]
    fn batch_of_one_put_is_bitwise_identical_to_the_direct_pricer(
        c in Contracts(16..300),
        kind in 0usize..2,
    ) {
        let pricer = BatchPricer::new(EngineConfig::default());
        batch_of_one_is_direct(&pricer, [BOPM_PUT, TOPM_PUT][kind], &c)?;
    }
}

/// The symmetry where the trapezoid recursion is deep.
#[test]
fn put_call_symmetry_at_depth() {
    put_call_symmetry(ModelKind::Bopm, &Case::paper(8192), 0.0).unwrap();
}

/// The batch layer prices American puts on the fast engine, not the nest:
/// bitwise the fast route (which differs from the nest in the last few
/// ulps), and the nest within 1e-9.
#[test]
fn batch_put_route_is_the_fast_engine() {
    let pricer = BatchPricer::new(EngineConfig::default());
    batch_of_one_is_direct(&pricer, BOPM_PUT, &Case::paper(300)).unwrap();
    fast_matches_nest(BOPM_PUT, &Case::paper(300), 1e-9, 0.0).unwrap();
}
