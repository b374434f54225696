//! Corpus relations on generated contracts (`corpus`): every fast route
//! against its nest, the model-free bounds, parity, convexity and the
//! boundary drift.

mod corpus;
use corpus::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bopm_fast_matches_naive_on_random_params(c in Contracts(16..600)) {
        fast_matches_nest(BOPM_CALL, &c, 1e-8, 1e-12)?;
    }

    #[test]
    fn topm_fast_matches_naive_on_random_params(c in Contracts(16..400)) {
        fast_matches_nest(TOPM_CALL, &c, 1e-8, 1e-12)?;
    }

    #[test]
    fn bsm_fast_matches_naive_on_random_params(c in Contracts(16..400)) {
        fast_matches_nest(BSM_PUT, &c, 1e-8, 1e-12)?;
    }

    #[test]
    fn american_dominates_european_and_intrinsic(c in Contracts(16..300)) {
        each(&FAST, |kind| bounded(kind, &c))?;
    }

    #[test]
    fn american_price_is_convex_in_strike(c in Contracts(16..300)) {
        each(&[BOPM_CALL, BOPM_PUT, TOPM_CALL, TOPM_PUT], |kind| convex_in_strike(kind, &c))?;
    }

    #[test]
    fn put_call_parity_on_random_lattices(c in Contracts(32..500)) {
        each(&[BOPM_CALL, TOPM_CALL], |(model, _)| european_parity(model, &c))?;
    }

    #[test]
    fn boundary_drift_invariant_on_random_lattices(c in Contracts(32..300)) {
        boundary_drift(&c)?;
        each(&[BOPM_CALL, BOPM_PUT, TOPM_CALL, TOPM_PUT], |kind| frontier_is_the_nests(kind, &c))?;
    }
}
