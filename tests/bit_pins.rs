//! "Prices did not move" as a test, not a tolerance: the fast routes' prices
//! are pinned bit for bit, and no pool width changes one of those bits.
//!
//! The join tree of a pricing is fixed by sizes (`EngineConfig`, the FFT's
//! fork thresholds); the scheduler only decides which worker runs a node.
//! The constants below are the `f64::to_bits` of what that tree computes on
//! the paper's parameter set.  A change that moves one of them changed
//! arithmetic — re-pin only with that stated, and with the distance.
//!
//! History.  The four `bopm_*` constants are those of the commit before the
//! work-stealing pool replaced thread-per-`join` (PR 14, `f4a52bc`).  The six
//! `topm_*` / `bsm_put` constants were re-pinned once, when the kernel
//! response began reading its roots of unity from the plan's twiddle table
//! (PR 16): a two-tap kernel reads `cis(step·k)`, the very bits it used to
//! compute, so the binomial routes did not move; a three-tap kernel reads
//! `e^{−2πi·2k/n}` for `2k ≥ n/2` as the exact negative of a stored twiddle
//! where it used to call `cis` on the larger angle, which differs in the
//! last place.  Old → new, in ulp (PAPER_STEPS, DEEP_STEPS): `topm_call`
//! −1, +9; `topm_put` +2, −14; `bsm_put` +7, −2.  Neither the vanished-bin
//! cut nor the depth-first transform of that PR moved a bit of any of the
//! ten.
//!
//! All ten were re-pinned once more when the engine began to take a row
//! wider than its cone in one hop (PR 18, parent `ec8115a`).  That changes
//! the *schedule* — which correlations run, at which heights — not a
//! rounding, so the old bits are no yardstick and the Θ(T²) nests are: a
//! re-pin was to be refused if its relative distance to the serial nest
//! exceeded max(3 × the old distance, 5e-12).  Old → new in ulp, then
//! |fast − nest| / nest before → after, at PAPER_STEPS and at DEEP_STEPS:
//!
//! | route       | ulp 4 096 | nest 4 096          | ulp 16 384 | nest 16 384         |
//! |-------------|-----------|---------------------|------------|---------------------|
//! | `bopm_call` | +114      | 1.20e-12 → 1.23e-12 | +1 894     | 1.49e-12 → 1.08e-12 |
//! | `bopm_put`  | +823      | 4.48e-13 → 3.30e-13 | +10 698    | 1.21e-12 → 2.74e-12 |
//! | `topm_call` | +197      | 6.04e-13 → 6.46e-13 | −1 537     | 1.91e-11 → 1.94e-11 |
//! | `topm_put`  | −11       | 6.61e-13 → 6.59e-13 | −5 160     | 7.04e-13 → 1.44e-12 |
//! | `bsm_put`   | +921      | 1.06e-13 → 2.49e-13 | −3 020     | 1.21e-12 → 1.68e-12 |
//!
//! The in-place `stepped` loop of the same PR moved no bit of any of them.

use american_option_pricing::parallel::run_with_threads;
use american_option_pricing::prelude::*;

/// T = 16 384 is above the FFT's fork threshold (a 16 385-cell row travels
/// as a 16 384-point transform) and every `sequential_below`, so each
/// pricing forks in the engine, the butterfly passes and the pointwise pass.
const DEEP_STEPS: usize = 16_384;
const PAPER_STEPS: usize = 4_096;

/// The five fast American routes with their pinned bits at `PAPER_STEPS`
/// and at `DEEP_STEPS`.
const PINS: [(&str, ModelKind, OptionType, u64, u64); 5] = [
    ("bopm_call", ModelKind::Bopm, OptionType::Call, 0x4020a77abadfedaa, 0x4020a79594a859f4),
    ("bopm_put", ModelKind::Bopm, OptionType::Put, 0x4028d92522e9c99e, 0x4028d9538c55bf1c),
    ("topm_call", ModelKind::Topm, OptionType::Call, 0x4020a7a0a2647ad6, 0x4020a79fbd0b9c94),
    ("topm_put", ModelKind::Topm, OptionType::Put, 0x4028d9620a49560f, 0x4028d9635548fc99),
    ("bsm_put", ModelKind::Bsm, OptionType::Put, 0x4026c552eac4d696, 0x4026c53a8e7eee7e),
];

/// The route's price through the facade's one dispatcher, the batch layer
/// (memo off; a batch of one is bitwise the direct pricer, `tests/batch.rs`).
fn price_bits(model: ModelKind, option_type: OptionType, steps: usize) -> u64 {
    let base = OptionParams::paper_defaults();
    let params = match model {
        // The BSM grid is dividend-free by construction.
        ModelKind::Bsm => OptionParams { dividend_yield: 0.0, ..base },
        _ => base,
    };
    let request = PricingRequest::american(model, option_type, params, steps);
    let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
    pricer.price_one(&request).expect("the paper's contract prices").to_bits()
}

#[test]
fn paper_prices_are_the_parent_commits_bit_for_bit() {
    for (name, model, option_type, pinned, _) in PINS {
        let got = price_bits(model, option_type, PAPER_STEPS);
        assert_eq!(got, pinned, "{name} at T = {PAPER_STEPS}: {}", f64::from_bits(got));
    }
}

#[test]
fn no_pool_width_moves_a_bit_of_a_forking_pricing() {
    for (name, model, option_type, _, pinned) in PINS {
        // `None` is the default pool.
        for width in [Some(1), Some(2), Some(3), None] {
            let price = || price_bits(model, option_type, DEEP_STEPS);
            let got = width.map_or_else(price, |w| run_with_threads(w, price));
            assert_eq!(
                got,
                pinned,
                "{name} at T = {DEEP_STEPS}, pool width {width:?}: {}",
                f64::from_bits(got)
            );
        }
    }
}
