//! "Prices did not move" as a test, not a tolerance: the fast routes' prices
//! are pinned bit for bit, and no pool width changes one of those bits.
//!
//! The join tree of a pricing is fixed by sizes (the engine's and the FFT's
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
//!
//! The pins the engine's base case reaches were re-pinned once more when
//! `BASE_CUTOFF` rose from 8 to 32 (parent `da00365`): windows of height 9
//! to 32, and the chunks of a row whose cone edge hugs its boundary, are now
//! stepped where correlations computed them.  Same refusal rule as PR 18,
//! and no pin came near it.  The binomial routes did not move: every
//! correlation of a binomial window of height ≤ 32 spans at most 64 cells,
//! which `advance_powered` steps directly, tap by tap in the base case's
//! order.  The European routes are one correlation each and never reach the
//! base case.  Old → new in ulp, then |fast − nest| / nest before → after:
//!
//! | route       | ulp 4 096 | nest 4 096          | ulp 16 384 | nest 16 384         |
//! |-------------|-----------|---------------------|------------|---------------------|
//! | `topm_call` | −25       | 6.46e-13 → 6.41e-13 | +377       | 1.94e-11 → 1.93e-11 |
//! | `topm_put`  | −8        | 6.59e-13 → 6.58e-13 | −20        | 1.44e-12 → 1.45e-12 |
//! | `bsm_put`   | −212      | 2.49e-13 → 2.16e-13 | +237       | 1.68e-12 → 1.65e-12 |
//!
//! and of `BOOK_PINS` (`bopm_put`, `bopm_call` and `bopm_put_atm` did not
//! move, nor `topm_put` at 63 and 252):
//!
//! | route                    | T = 63                   | T = 252                   | T = 504                   |
//! |--------------------------|--------------------------|---------------------------|---------------------------|
//! | `topm_put`               | 0                        | 0                         | +4, 7.31e-16 → 0          |
//! | `topm_call`              | −9, 4.83e-15 → 6.33e-15  | +94, 6.23e-14 → 4.66e-14  | −18, 4.53e-13 → 4.50e-13  |
//! | `bsm_put_vanishing_rate` | −23, 1.28e-14 → 9.26e-15 | −22, 1.44e-14 → 1.78e-14  | −68, 1.50e-13 → 1.40e-13  |
//!
//! The four European lattice routes (`*_eu`) were pinned at `2fad527`, before
//! BOPM and TOPM became one generic lattice, so that refactor is checked bit
//! for bit on the one-correlation pass too.  `bsm_put_eu` was pinned at
//! `6270ea7`, before the BSM grid became a third lattice constructor, for the
//! same reason.
//!
//! All ten were re-pinned once more when a correlation with a nonnegative
//! kernel began to transform only its power kernel's band (parent
//! `fe1b2fd`; `amopt_fft::convolve` module docs): a deep correlation now runs
//! at a transform a fraction of its row's, so its rounding changed, while the
//! taps it drops weigh below τ = 1e-40.  Same refusal rule as above, and no
//! pin came near it.  `BOOK_PINS` did not move.  Of all their correlations
//! one takes the band, in the TOPM call at T = 504: 576 cells at height 251
//! through 512 points where 1 024 ran before, and that price kept its bits.
//! Old → new in ulp, then |fast − nest| / nest before → after:
//!
//! | route          | ulp 4 096 | nest 4 096          | ulp 16 384 | nest 16 384         |
//! |----------------|-----------|---------------------|------------|---------------------|
//! | `bopm_call`    | −2        | 1.23e-12 → 1.23e-12 | −2         | 1.08e-12 → 1.09e-12 |
//! | `bopm_put`     | +368      | 3.30e-13 → 2.77e-13 | +1 175     | 2.74e-12 → 2.90e-12 |
//! | `topm_call`    | +2        | 6.41e-13 → 6.41e-13 | −1         | 1.93e-11 → 1.93e-11 |
//! | `topm_put`     | −779      | 6.58e-13 → 5.47e-13 | −351       | 1.44e-12 → 1.49e-12 |
//! | `bsm_put`      | +2        | 2.16e-13 → 2.17e-13 | −374       | 1.65e-12 → 1.70e-12 |
//! | `bopm_call_eu` | −1 004    | 3.13e-12 → 2.91e-12 | −1 108     | 7.14e-12 → 6.90e-12 |
//! | `bopm_put_eu`  | −11 858   | 1.58e-12 → 1.15e-13 | −22 527    | 8.46e-12 → 5.24e-12 |
//! | `topm_call_eu` | +12 493   | 7.67e-13 → 1.94e-12 | −5 581     | 2.92e-11 → 3.04e-11 |
//! | `topm_put_eu`  | −1 843    | 8.71e-13 → 6.07e-13 | −30 586    | 5.33e-12 → 9.71e-12 |
//! | `bsm_put_eu`   | −461      | 2.25e-12 → 2.18e-12 | +66 173    | 1.37e-11 → 3.36e-12 |
//!
//! All ten, and most of `BOOK_PINS`, were re-pinned once more when
//! `Complex64::powu` took the multiplier `conj(K_k)^h` by square-and-multiply
//! in place of the polar form (parent `d7d8cfd`).  That moves every table's
//! rounding and no correlation: the schedule, the bands and the vanished
//! bins are the same, and `K_k` already carries a relative rounding δ ≈ ε,
//! so both forms leave about `h·δ` and square-and-multiply adds at most
//! about `(h − 1)·√5·ε/2`.  Same refusal rule as above, and no pin came
//! near it.  `bsm_put_eu` has no nest reachable from outside the crate
//! (the FD grid's European is crate-private); it moved by 2.1e-13 and
//! 6.3e-14 relative.  Old → new in ulp, then |fast − nest| / nest before →
//! after:
//!
//! | route          | ulp 4 096 | nest 4 096          | ulp 16 384 | nest 16 384         |
//! |----------------|-----------|---------------------|------------|---------------------|
//! | `bopm_call`    | +47       | 1.23e-12 → 1.24e-12 | −317       | 1.09e-12 → 1.15e-12 |
//! | `bopm_put`     | +2 813    | 2.77e-13 → 1.25e-13 | −82        | 2.90e-12 → 2.89e-12 |
//! | `topm_call`    | +107      | 6.41e-13 → 6.64e-13 | +267       | 1.93e-11 → 1.93e-11 |
//! | `topm_put`     | −818      | 5.47e-13 → 4.30e-13 | −4 033     | 1.49e-12 → 2.07e-12 |
//! | `bsm_put`      | −283      | 2.17e-13 → 1.73e-13 | +528       | 1.70e-12 → 1.62e-12 |
//! | `bopm_call_eu` | −4 812    | 2.91e-12 → 1.87e-12 | −12 806    | 6.90e-12 → 4.12e-12 |
//! | `bopm_put_eu`  | +1 270    | 1.15e-13 → 6.69e-14 | +1 646     | 5.24e-12 → 5.48e-12 |
//! | `topm_call_eu` | +1 446    | 1.94e-12 → 2.26e-12 | −5 276     | 3.04e-11 → 3.15e-11 |
//! | `topm_put_eu`  | −2 090    | 6.07e-13 → 3.09e-13 | +13 894    | 9.71e-12 → 7.72e-12 |
//! | `bsm_put_eu`   | +1 346    | —                   | −405       | —                   |
//!
//! and of `BOOK_PINS` (the binomial and trinomial puts at the paper's
//! moneyness did not move, nor `bopm_call` at 63 and `topm_call` at 252):
//!
//! | route                    | T = 63                   | T = 252                   | T = 504                   |
//! |--------------------------|--------------------------|---------------------------|---------------------------|
//! | `bopm_call`              | 0                        | −31, 1.40e-13 → 1.35e-13  | −51, 9.19e-15 → 1.77e-14  |
//! | `topm_call`              | +2, 6.33e-15 → 6.00e-15  | 0                         | +184, 4.50e-13 → 4.81e-13 |
//! | `bopm_put_atm`           | −12, 6.62e-15 → 4.73e-15 | −112, 0 → 1.77e-14        | −202, 1.24e-13 → 1.56e-13 |
//! | `bsm_put_vanishing_rate` | −7, 9.26e-15 → 8.18e-15  | +12, 1.78e-14 → 1.59e-14  | −308, 1.40e-13 → 9.21e-14 |
//!
//! Eighteen of the twenty, and ten of the eighteen `BOOK_PINS`, were re-pinned
//! once more when a correlation's transforms became radix-4 passes that never
//! permute (parent `39ac1b4`; `amopt_fft::radix2` module docs): a
//! decimation-in-frequency forward, the spectrum step in the bit-reversed
//! order it leaves, and a decimation-in-time inverse, with the inverse's
//! `1/n` and the real split's and merge's halvings folded into the
//! multipliers.  That moves the rounding of every transform and of every
//! multiplier, and no correlation: the schedule, the bands and the vanished
//! bins are the same.  Same refusal rule as above, and no pin came near it;
//! no pin moved by more than 21 ulp.  `bopm_put_eu` at 4 096 and
//! `topm_put_eu` at 16 384 kept their bits, and `bsm_put_eu` (no nest
//! reachable from outside the crate) moved by 1.25e-15 and 9.4e-16
//! relative.  Old → new in ulp, then |fast − nest| / nest before → after:
//!
//! | route          | ulp 4 096 | nest 4 096          | ulp 16 384 | nest 16 384         |
//! |----------------|-----------|---------------------|------------|---------------------|
//! | `bopm_call`    | −15       | 1.24e-12 → 1.23e-12 | −21        | 1.15e-12 → 1.16e-12 |
//! | `bopm_put`     | −6        | 1.25e-13 → 1.24e-13 | −16        | 2.89e-12 → 2.89e-12 |
//! | `topm_call`    | −14       | 6.64e-13 → 6.61e-13 | −20        | 1.93e-11 → 1.93e-11 |
//! | `topm_put`     | +5        | 4.30e-13 → 4.30e-13 | −1         | 2.07e-12 → 2.07e-12 |
//! | `bsm_put`      | −5        | 1.73e-13 → 1.72e-13 | −11        | 1.62e-12 → 1.62e-12 |
//! | `bopm_call_eu` | −4        | 1.87e-12 → 1.87e-12 | −8         | 4.12e-12 → 4.12e-12 |
//! | `bopm_put_eu`  | 0         | 6.69e-14            | −8         | 5.48e-12 → 5.48e-12 |
//! | `topm_call_eu` | −4        | 2.26e-12 → 2.25e-12 | −8         | 3.15e-11 → 3.15e-11 |
//! | `topm_put_eu`  | +4        | 3.09e-13 → 3.09e-13 | 0          | 7.72e-12            |
//! | `bsm_put_eu`   | −8        | —                   | −6         | —                   |
//!
//! and of `BOOK_PINS` (the binomial and trinomial puts at the paper's
//! moneyness did not move, nor `bopm_call` and `bopm_put_atm` at 63):
//!
//! | route                    | T = 63                   | T = 252                   | T = 504                   |
//! |--------------------------|--------------------------|---------------------------|---------------------------|
//! | `bopm_call`              | 0                        | −8, 1.35e-13 → 1.33e-13   | +2, 1.77e-14 → 1.74e-14   |
//! | `topm_call`              | −2, 6.00e-15 → 6.33e-15  | −7, 4.66e-14 → 4.78e-14   | −15, 4.81e-13 → 4.79e-13  |
//! | `bopm_put_atm`           | 0                        | −4, 1.77e-14 → 1.84e-14   | −3, 1.56e-13 → 1.56e-13   |
//! | `bsm_put_vanishing_rate` | −1, 8.18e-15 → 8.02e-15  | −7, 1.59e-14 → 1.70e-14   | −5, 9.21e-14 → 9.13e-14   |

use american_option_pricing::parallel::run_with_threads;
use american_option_pricing::prelude::*;

/// T = 16 384 is above the FFT's fork threshold (a 16 385-cell row travels
/// as a 16 384-point transform) and above `SEQUENTIAL_BELOW`, so each
/// pricing forks in the engine, the butterfly passes and the pointwise pass.
const DEEP_STEPS: usize = 16_384;
const PAPER_STEPS: usize = 4_096;

/// The five fast American routes and the five European routes with their
/// pinned bits at `PAPER_STEPS` and at `DEEP_STEPS`.
const PINS: [(&str, ModelKind, OptionType, ExerciseStyle, u64, u64); 10] = {
    use ExerciseStyle::{American, European};
    use ModelKind::{Bopm, Bsm, Topm};
    use OptionType::{Call, Put};
    [
        ("bopm_call", Bopm, Call, American, 0x4020a77abadfedc8, 0x4020a79594a858a0),
        ("bopm_put", Bopm, Put, American, 0x4028d92522e9d605, 0x4028d9538c55c351),
        ("topm_call", Topm, Call, American, 0x4020a7a0a2647b1c, 0x4020a79fbd0b9f03),
        ("topm_put", Topm, Put, American, 0x4028d9620a494fcf, 0x4028d9635548eb64),
        ("bsm_put", Bsm, Put, American, 0x4026c552eac4d4a4, 0x4026c53a8e7eeffa),
        ("bopm_call_eu", Bopm, Call, European, 0x4020628ead393084, 0x402062bd16a5912c),
        ("bopm_put_eu", Bopm, Put, European, 0x4028d92522e9d476, 0x4028d9538c5609fc),
        ("topm_call_eu", Topm, Call, European, 0x402062cb94987004, 0x402062ccdf9759ea),
        ("topm_put_eu", Topm, Put, European, 0x4028d9620a494c7e, 0x4028d96355485118),
        ("bsm_put_eu", Bsm, Put, European, 0x4026bec80f0b87f8, 0x4026beb283b548c6),
    ]
};

/// The route's price through the facade's one dispatcher, the batch layer
/// (memo off; a batch of one is bitwise the direct pricer, `tests/batch.rs`).
fn price_bits(
    model: ModelKind,
    option_type: OptionType,
    style: ExerciseStyle,
    steps: usize,
) -> u64 {
    let base = OptionParams::paper_defaults();
    let params = match model {
        // The BSM grid is dividend-free by construction.
        ModelKind::Bsm => OptionParams { dividend_yield: 0.0, ..base },
        _ => base,
    };
    let request = match style {
        ExerciseStyle::American => PricingRequest::american(model, option_type, params, steps),
        ExerciseStyle::European => PricingRequest::european(model, option_type, params, steps),
    };
    contract_bits(&request)
}

fn contract_bits(request: &PricingRequest) -> u64 {
    let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
    pricer.price_one(request).expect("the contract prices").to_bits()
}

/// The step counts of the benchmark's chain book, where the engine's base
/// case is a large share of a pricing.
const BOOK_STEPS: [usize; 3] = [63, 252, 504];

/// American routes at `BOOK_STEPS`, pinned on the commit before the base
/// case became one flat buffer read from a node table and re-pinned when
/// `BASE_CUTOFF` rose to 32, when the spectrum power became
/// square-and-multiply and when the transforms became permutation-free
/// radix-4 passes (module docs), in the order of `book_contracts`.
const BOOK_PINS: [(&str, [u64; 3]); 6] = [
    ("bopm_put", [0x40236c3dfa81c618, 0x40236fbfc7556a8a, 0x40236c87952af256]),
    ("bopm_call", [0x40254575c82b64b5, 0x40254a6d9dee03c6, 0x402545eaa784fb1a]),
    ("topm_put", [0x40237315e5fbc838, 0x40236bc8da571117, 0x40236dfaf893cbbe]),
    ("topm_call", [0x40255169cf93eeec, 0x402545eaa7832d33, 0x402548fe29d86e63]),
    ("bopm_put_atm", [0x40268d3c50fe3394, 0x4026736d3bf0da64, 0x40267609c03f1903]),
    ("bsm_put_vanishing_rate", [0x402705f37601b872, 0x4026ff0dad8f8d26, 0x4026fd6bcc436528]),
];

/// The contracts of `BOOK_PINS`:
/// * both trees' puts and calls at R = 5 %, Y = 2 %, where both exercise
///   (the paper's contract never exercises a tree put);
/// * the binomial put at the money, whose leaf on the strike ties
///   (exercise 0 against a continuation of 0) at even T;
/// * the FD put at R = 1e-9, whose exercise region vanishes faster than
///   the drift bound allows, so the engine's boundary outruns its window.
fn book_contracts() -> [(ModelKind, OptionType, OptionParams); 6] {
    use ModelKind::{Bopm, Bsm, Topm};
    use OptionType::{Call, Put};
    let paper = OptionParams::paper_defaults();
    let both = OptionParams { rate: 0.05, dividend_yield: 0.02, ..paper };
    let atm = OptionParams { spot: paper.strike, ..paper };
    let vanishing = OptionParams { rate: 1e-9, dividend_yield: 0.0, ..paper };
    [
        (Bopm, Put, both),
        (Bopm, Call, both),
        (Topm, Put, both),
        (Topm, Call, both),
        (Bopm, Put, atm),
        (Bsm, Put, vanishing),
    ]
}

#[test]
fn book_sized_prices_are_pinned_bit_for_bit() {
    for ((name, want), (model, option_type, params)) in BOOK_PINS.into_iter().zip(book_contracts())
    {
        for (steps, pinned) in BOOK_STEPS.into_iter().zip(want) {
            let got = contract_bits(&PricingRequest::american(model, option_type, params, steps));
            assert_eq!(got, pinned, "{name} at T = {steps}: {}", f64::from_bits(got));
        }
    }
}

#[test]
fn paper_prices_are_the_parent_commits_bit_for_bit() {
    for (name, model, option_type, style, pinned, _) in PINS {
        let got = price_bits(model, option_type, style, PAPER_STEPS);
        assert_eq!(got, pinned, "{name} at T = {PAPER_STEPS}: {}", f64::from_bits(got));
    }
}

#[test]
fn no_pool_width_moves_a_bit_of_a_forking_pricing() {
    for (name, model, option_type, style, _, pinned) in PINS {
        // `None` is the default pool.
        for width in [Some(1), Some(2), Some(3), None] {
            let price = || price_bits(model, option_type, style, DEEP_STEPS);
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
