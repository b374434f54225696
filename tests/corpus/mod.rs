//! The differential corpus: one seeded generator of contracts, one table of
//! routes, one list of relations, bound to draws or pinned cases by the
//! binaries that include it.
//!
//! * **Generator.** [`Contracts`] draws through the proptest shim, so a draw
//!   is a function of the test name and the attempt.  Half the draws come
//!   from a moderate box, half are one entry of one of the [`CORNERS`]
//!   families of such a draw.  The hostile sweep walks every entry.
//! * **Routes.** [`fast`], [`nest`], [`batch_one`], the five boundary extractors
//!   ([`frontier`]), the wire round trip ([`wire_replies`]); `cross_model`
//!   drives the greeks and implied-vol drivers itself.
//! * **Relations**, from [`fast_matches_nest`] on, one invariant each.  A
//!   relation rejects (`Err(Reject)`) a contract only where [`builds`] fails:
//!   a route that errs on a contract whose model builds fails the relation.

#![allow(dead_code)] // each binary binds only some of the relations

use american_option_pricing::core::bsm;
pub use american_option_pricing::prelude::*;
use american_option_pricing::service::wire::{self, JsonValue, WireRequest};
use exercise_boundary::BoundaryPoint;
pub use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use std::ops::Range;
pub use ExerciseStyle::American;

/// A model and an option type.
pub type Kind = (ModelKind, OptionType);
pub const BOPM_CALL: Kind = (ModelKind::Bopm, OptionType::Call);
pub const BOPM_PUT: Kind = (ModelKind::Bopm, OptionType::Put);
pub const TOPM_CALL: Kind = (ModelKind::Topm, OptionType::Call);
pub const TOPM_PUT: Kind = (ModelKind::Topm, OptionType::Put);
pub const BSM_PUT: Kind = (ModelKind::Bsm, OptionType::Put);
/// The five fast American routes.
pub const FAST: [Kind; 5] = [BOPM_CALL, BOPM_PUT, TOPM_CALL, TOPM_PUT, BSM_PUT];

/// A relation's verdict on one case.
pub type Check = Result<(), TestCaseError>;
/// What a pricing route answers.
pub type Price = Result<f64, PricingError>;

// ---- the generator ----

/// One contract at one lattice size.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub p: OptionParams,
    pub steps: usize,
}

impl Case {
    /// The paper's contract at `steps`.
    pub fn paper(steps: usize) -> Case {
        Case { p: OptionParams::paper_defaults(), steps }
    }

    /// This case's size with other parameters.
    fn with(&self, p: OptionParams) -> Case {
        Case { p, steps: self.steps }
    }

    /// The contract `kind` prices: the FD grid's is dividend-free.
    pub fn params(&self, kind: Kind) -> OptionParams {
        match kind.0 {
            ModelKind::Bsm => OptionParams { dividend_yield: 0.0, ..self.p },
            _ => self.p,
        }
    }
}

/// Magnitudes at the corners of `f64`: subnormal, the edges of the normal
/// range, and values whose ratios, squares and logarithm quotients overflow.
pub const HOSTILE: [f64; 10] =
    [5e-324, 1e-310, 1e-300, 1e-150, 1e-20, 1e-9, 1e9, 1e150, 1e300, f64::MAX];
/// The ulp walks around an edge.
const ULPS: [i64; 5] = [-4096, -1, 0, 1, 4096];

/// The corner families: each maps a draw to the cases of its corner.
pub const CORNERS: [fn(&Case) -> Vec<Case>; 6] =
    [sizes, vol_edges, rate_edges, carry, moneyness, hostile];

/// Every corner of `c`, family by family.
pub fn corners(c: &Case) -> Vec<Case> {
    CORNERS.iter().flat_map(|family| family(c)).collect()
}

/// T ∈ {1, 2}.
fn sizes(c: &Case) -> Vec<Case> {
    vec![Case { steps: 1, ..*c }, Case { steps: 2, ..*c }]
}

/// σ at the BOPM, TOPM and FD stability edges, walked ±1 and ±4096 ulps.
/// Each edge is the constructor's own, found by bisection on the bits of σ,
/// so the walk straddles it exactly.  The closed form can miss it by a few
/// thousand ulps.
fn vol_edges(c: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for kind in [BOPM_PUT, TOPM_PUT, BSM_PUT] {
        let at = |v: u64| c.with(OptionParams { volatility: f64::from_bits(v), ..c.p });
        let (mut lo, mut hi) = (0, c.p.volatility.to_bits());
        if !builds(kind, &at(hi)) {
            continue;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            *(if builds(kind, &at(mid)) { &mut hi } else { &mut lo }) = mid;
        }
        out.extend(ULPS.map(|ulps| at(hi.wrapping_add_signed(ulps))));
    }
    out
}

/// R at the FD grid's `c = 1 − ωΔτ − 2Δτ/Δs² ≥ 0` edge, R* = 0.2·T/E, walked
/// ±1 and ±4096 ulps: at the drawn σ, where `b < 0` refuses these rates
/// first, and at σ² = 0.1·T/E, where `c` is the binding weight.
fn rate_edges(c: &Case) -> Vec<Case> {
    let t_over_e = c.steps as f64 / c.p.expiry;
    let at = |volatility, ulps| {
        c.with(OptionParams {
            rate: f64::from_bits((0.2 * t_over_e).to_bits().wrapping_add_signed(ulps)),
            volatility,
            ..c.p
        })
    };
    [c.p.volatility, (0.1 * t_over_e).sqrt()].iter().flat_map(|&v| ULPS.map(|u| at(v, u))).collect()
}

/// R, Y or both zero, negative zero or negative.
fn carry(c: &Case) -> Vec<Case> {
    let b = c.p;
    let at = |v| [(v, b.dividend_yield), (b.rate, v), (v, v)];
    let pairs = [0.0, -0.0, -0.05].into_iter().flat_map(at);
    pairs.map(|(rate, dividend_yield)| c.with(OptionParams { rate, dividend_yield, ..b })).collect()
}

/// Deep in and out of the money (S/K = 10³, 10⁻³), at the money, and the
/// spot one ulp either side of the strike, where the rounding of `e^s − 1`
/// at the root column decides the leaf boundary.
pub fn moneyness(c: &Case) -> Vec<Case> {
    let k = c.p.strike;
    [k * 1e3, k * 1e-3, k, k * (1.0 + f64::EPSILON), k * (1.0 - f64::EPSILON)]
        .map(|spot| c.with(OptionParams { spot, ..c.p }))
        .into()
}

/// Each [`HOSTILE`] magnitude in one field alone, and in the tied pairs:
/// σ with no drift (R = Y, and R = Y = 0), so the lattice is not already
/// refused as arbitrageable, and R = Y, so the discount is what under- or
/// overflows.
fn hostile(c: &Case) -> Vec<Case> {
    let b = c.p;
    let fields = |v| {
        [
            OptionParams { spot: v, ..b },
            OptionParams { strike: v, ..b },
            OptionParams { volatility: v, ..b },
            OptionParams { expiry: v, ..b },
            OptionParams { rate: v, ..b },
            OptionParams { dividend_yield: v, ..b },
            OptionParams { volatility: v, dividend_yield: b.rate, ..b },
            OptionParams { volatility: v, rate: 0.0, dividend_yield: 0.0, ..b },
            OptionParams { rate: v, dividend_yield: v, ..b },
        ]
    };
    HOSTILE.into_iter().flat_map(fields).map(|p| c.with(p)).collect()
}

/// Draws at sizes `steps`: half from the moderate box (S and K 10–500, R and
/// Y 0–10 %, σ 5–80 %, E 0.1–3 years), half one corner of such a draw, the
/// family and then its entry chosen uniformly.
pub struct Contracts(pub Range<usize>);

impl Strategy for Contracts {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let mut u = |r: Range<f64>| r.generate(rng);
        let p = OptionParams {
            spot: u(10.0..500.0),
            strike: u(10.0..500.0),
            rate: u(0.0..0.10),
            volatility: u(0.05..0.8),
            dividend_yield: u(0.0..0.10),
            expiry: u(0.1..3.0),
        };
        let c = Case { p, steps: self.0.generate(rng) };
        if rng.next_f64() < 0.5 {
            return c;
        }
        let family = CORNERS[rng.usize_in(0, CORNERS.len())](&c);
        if family.is_empty() {
            return c;
        }
        family[rng.usize_in(0, family.len())]
    }
}

/// `n` draws for a test that is not a `proptest!`: seeded by `test` alike.
pub fn draws(test: &str, steps: Range<usize>, n: u64) -> Vec<Case> {
    (1..=n).map(|i| Contracts(steps.clone()).generate(&mut TestRng::for_case(test, i))).collect()
}

// ---- the routes ----

/// Whether `kind`'s model builds on `c`: the one ground for rejecting a case.
pub fn builds(kind: Kind, c: &Case) -> bool {
    match kind.0 {
        ModelKind::Bopm => BopmModel::new(c.p, c.steps).is_ok(),
        ModelKind::Topm => TopmModel::new(c.p, c.steps).is_ok(),
        ModelKind::Bsm => BsmModel::new(c.params(kind), c.steps).is_ok(),
    }
}

/// The fast American route of `kind` (the FD grid's: the put).
pub fn fast(kind: Kind, p: OptionParams, steps: usize) -> Price {
    fn on<const W: usize>(m: Lattice<W>, ty: OptionType) -> f64 {
        match ty {
            OptionType::Call => lattice_fast::price_american_call(&m),
            OptionType::Put => lattice_fast::price_american_put(&m),
        }
    }
    Ok(match kind.0 {
        ModelKind::Bopm => on(BopmModel::new(p, steps)?, kind.1),
        ModelKind::Topm => on(TopmModel::new(p, steps)?, kind.1),
        ModelKind::Bsm => {
            bsm::fast::price_american_put(&BsmModel::new(p, steps)?, &EngineConfig::default())
        }
    })
}

/// The serial Θ(T²) nest of `kind` (the FD grid's: the American put).
pub fn nest(kind: Kind, style: ExerciseStyle, p: OptionParams, steps: usize) -> Price {
    use lattice_naive::{price, ExecMode::Serial};
    Ok(match kind.0 {
        ModelKind::Bopm => price(&BopmModel::new(p, steps)?, kind.1, style, Serial),
        ModelKind::Topm => price(&TopmModel::new(p, steps)?, kind.1, style, Serial),
        ModelKind::Bsm => bsm::naive::price_american_put(&BsmModel::new(p, steps)?, Serial),
    })
}

/// A batch of one through a memo-less pricer.
pub fn batch_one(req: &PricingRequest) -> Price {
    BatchPricer::with_memo_capacity(EngineConfig::default(), 0).price_one(req)
}

/// The exercise-boundary extractor of `kind`, `rows` samples asked for.
pub fn frontier(kind: Kind, c: &Case, rows: usize) -> Result<Vec<BoundaryPoint>, PricingError> {
    Ok(match kind.0 {
        ModelKind::Bopm => extract(&BopmModel::new(c.p, c.steps)?, kind.1, rows),
        ModelKind::Topm => extract(&TopmModel::new(c.p, c.steps)?, kind.1, rows),
        ModelKind::Bsm => exercise_boundary::bsm_put_boundary(&BsmModel::new(c.p, c.steps)?, rows),
    })
}

fn extract<const W: usize>(m: &Lattice<W>, ty: OptionType, rows: usize) -> Vec<BoundaryPoint> {
    match ty {
        OptionType::Call => exercise_boundary::lattice_call_boundary(m, rows),
        OptionType::Put => exercise_boundary::lattice_put_boundary(m, rows),
    }
}

// ---- the relations ----

/// `relation` on every kind; rejects the case only when no kind builds.
pub fn each(kinds: &[Kind], relation: impl Fn(Kind) -> Check) -> Check {
    let mut built = false;
    for &kind in kinds {
        match relation(kind) {
            Err(TestCaseError::Reject) => {}
            verdict => built = verdict.is_ok() || return verdict,
        }
    }
    prop_assume!(built);
    Ok(())
}

/// Fast and nest answers, or a rejection: they err only when a model does not build.
fn both(a: Price, b: Price) -> Result<(f64, f64), TestCaseError> {
    a.and_then(|a| Ok((a, b?))).map_err(|_| TestCaseError::Reject)
}

/// An answer's bits, for bitwise comparison (errors alike).
fn bits(answer: &Price) -> Result<u64, PricingError> {
    answer.clone().map(f64::to_bits)
}

/// Fast ≈ nest, within `rel`·max(|nest|, 1) + `floor`·K (the FFT's ε·K).
pub fn fast_matches_nest(kind: Kind, c: &Case, rel: f64, floor: f64) -> Check {
    let p = c.params(kind);
    let (f, n) = both(fast(kind, p, c.steps), nest(kind, American, p, c.steps))?;
    let tol = rel * n.abs().max(1.0) + floor * p.strike;
    prop_assert!((f - n).abs() < tol, "{kind:?} {c:?}: fast {f} vs nest {n}");
    Ok(())
}

/// American ≥ European ≥ 0, and intrinsic ≤ American ≤ cap (S for a call, K for a put).  The
/// binomial put's Bermudan, exercisable at `steps/2` (step 1 on a one-step tree) and expiry,
/// sits between.
pub fn bounded(kind: Kind, c: &Case) -> Check {
    prop_assume!(builds(kind, c));
    let p = c.params(kind);
    let am = batch_one(&PricingRequest::american(kind.0, kind.1, p, c.steps));
    let eu = batch_one(&PricingRequest::european(kind.0, kind.1, p, c.steps));
    let ctx = format!("{kind:?} {c:?}: am {am:?}, eu {eu:?}");
    let (Ok(am), Ok(eu)) = (am, eu) else { return Err(TestCaseError::Fail(ctx)) };
    let cap = if kind.1 == OptionType::Call { p.spot } else { p.strike };
    let intrinsic = kind.1.payoff(p.spot, p.strike);
    prop_assert!(eu >= 0.0, "{ctx}: eu < 0");
    prop_assert!(am >= eu - 1e-8 * eu.abs().max(1.0), "{ctx}: am < eu");
    prop_assert!(am >= intrinsic - 1e-8 * p.strike, "{ctx}: am < intrinsic");
    prop_assert!(am <= cap * (1.0 + 1e-9), "{ctx}: am above {cap:e}");
    if kind == BOPM_PUT {
        let dates = vec![(c.steps / 2).max(1), c.steps];
        let be = batch_one(&PricingRequest::bermudan_put(p, c.steps, dates))
            .map_err(|e| TestCaseError::Fail(format!("{ctx}: Bermudan {e:?}")))?;
        prop_assert!(be >= eu - 1e-8 * eu.abs().max(1.0), "{ctx}: Bermudan {be} < eu");
        prop_assert!(am >= be - 1e-8 * be.abs().max(1.0), "{ctx}: am < Bermudan {be}");
    }
    Ok(())
}

/// European put–call parity on a tree, `C − P = S·e^{−YE} − K·e^{−RE}`, to 1e-7·max(K, S).
pub fn european_parity(model: ModelKind, c: &Case) -> Check {
    prop_assume!(builds((model, OptionType::Call), c));
    let (p, eu) = (c.p, |ty| batch_one(&PricingRequest::european(model, ty, c.p, c.steps)));
    let (call, put) = (eu(OptionType::Call), eu(OptionType::Put));
    let ctx = format!("{model:?} {c:?}: call {call:?}, put {put:?}");
    let (Ok(call), Ok(put)) = (call, put) else { return Err(TestCaseError::Fail(ctx)) };
    let rhs = p.spot * (-p.dividend_yield * p.expiry).exp() - p.strike * (-p.rate * p.expiry).exp();
    let gap = call - put - rhs;
    prop_assert!(gap.abs() < 1e-7 * p.strike.max(p.spot), "{ctx}: C − P − rhs {gap}");
    Ok(())
}

/// Put–call symmetry on `u·d = 1` trees: the fast put is the call nest of the mirror contract.
pub fn put_call_symmetry(model: ModelKind, c: &Case, floor: f64) -> Check {
    let (p, [call, put]) = (c.p, [OptionType::Call, OptionType::Put].map(|ty| (model, ty)));
    let (put, call) = both(fast(put, p, c.steps), nest(call, American, p.mirrored(), c.steps))?;
    let tol = 1e-8 * call.abs().max(1.0) + floor * p.strike.max(p.spot);
    prop_assert!((put - call).abs() < tol, "{model:?} {c:?}: put {put} vs mirror's nest {call}");
    Ok(())
}

/// Convex in strike, fast and nest alike (on trees: the FD grid's nodes move with K).
pub fn convex_in_strike(kind: Kind, c: &Case) -> Check {
    let h = 0.01 * c.p.strike;
    let at = |dk: f64| OptionParams { strike: c.p.strike + dk, ..c.p };
    let mut d2 = [0.0; 2];
    for (dk, w) in [(-h, 1.0), (0.0, -2.0), (h, 1.0)] {
        let (f, n) = both(fast(kind, at(dk), c.steps), nest(kind, American, at(dk), c.steps))?;
        d2 = [d2[0] + w * f, d2[1] + w * n];
    }
    prop_assert!(d2.iter().all(|&d| d >= -1e-12 * c.p.strike), "{kind:?} {c:?}: d² {d2:?}");
    Ok(())
}

/// Monotone in σ (+25 %) and in expiry (+25 % of the steps at the same step
/// length, so the longer grid holds every exercise of the shorter).
pub fn monotone(kind: Kind, c: &Case) -> Check {
    let (p, more) = (c.params(kind), c.steps + c.steps.div_ceil(4));
    let Ok(base) = fast(kind, p, c.steps) else { return Ok(()) };
    let longer = OptionParams { expiry: p.expiry * more as f64 / c.steps as f64, ..p };
    let bumps = [(OptionParams { volatility: 1.25 * p.volatility, ..p }, c.steps), (longer, more)];
    for (q, steps) in bumps {
        if let Ok(v) = fast(kind, q, steps) {
            prop_assert!(v >= base - 1e-9 * base.max(1.0), "{kind:?} {c:?}: {v} < {base} at {q:?}");
        }
    }
    Ok(())
}

/// Whether `ty`'s early-exercise carry (a call's Y, a put's R) moves a price
/// per step by more than rounding; below that, the frontier is rounding noise.
fn resolved(ty: OptionType, c: &Case) -> bool {
    let carry = if ty == OptionType::Call { c.p.dividend_yield } else { c.p.rate };
    carry * c.p.dt(c.steps) > 1e-12
}

/// Boundary drift on the BOPM call nest (Lemma 2.6, Cor. 2.7; ARCHITECTURE errata at row T).
pub fn boundary_drift(c: &Case) -> Check {
    prop_assume!(resolved(OptionType::Call, c));
    let m = BopmModel::new(c.p, c.steps).map_err(|_| TestCaseError::Reject)?;
    let (_, b) = lattice_naive::price_american_with_boundary(&m, OptionType::Call);
    for i in 0..c.steps {
        prop_assert!(b[i] >= b[i + 1] - 1, "{c:?} i={i}: {b:?}");
        prop_assert!(i + 1 == c.steps || b[i] <= b[i + 1] || b[i + 1] >= i as i64, "{c:?} i={i}");
    }
    Ok(())
}

/// The BOPM put frontier never rises with time to expiry beyond u², nor above K.
pub fn put_frontier_is_monotone(c: &Case) -> Check {
    prop_assume!(c.p.rate > 1e-4);
    let m = BopmModel::new(c.p, c.steps).map_err(|_| TestCaseError::Reject)?;
    let pts = extract(&m, OptionType::Put, 12);
    let prices: Vec<f64> = pts.iter().filter_map(|q| q.critical_price).collect();
    let slack = m.up().powi(2) * (1.0 + 1e-9);
    for w in prices.windows(2) {
        prop_assert!(w[1] <= w[0] * slack, "{c:?}: frontier not monotone: {w:?}");
    }
    for &x in &prices {
        prop_assert!(x <= c.p.strike * (1.0 + 1e-12), "{c:?}: critical {x} above strike");
    }
    Ok(())
}

/// A tree extractor's frontier is the nest's: exactly at expiry, where a leaf
/// tie counts red for a call, and to one column inside, where near-ties round.
pub fn frontier_is_the_nests(kind: Kind, c: &Case) -> Check {
    prop_assume!(resolved(kind.1, c) && builds(kind, c));
    fn on<const W: usize>(m: Lattice<W>, ty: OptionType, rows: usize) -> Check {
        let (_, dense) = lattice_naive::price_american_with_boundary(&m, ty);
        let critical = |i: usize, col: i64| match ty {
            OptionType::Call => (col < (W * i) as i64).then(|| m.node_price(i, col + 1)),
            OptionType::Put => (col >= 0).then(|| m.node_price(i, col.min((W * i) as i64))),
        };
        for pt in extract(&m, ty, rows) {
            let i = pt.time_step;
            let slack = i64::from(i < m.steps());
            let ok = (-slack..=slack).any(|d| critical(i, dense[i] + d) == pt.critical_price);
            prop_assert!(ok, "W={W} {ty:?} row {i}: {pt:?}, nest column {}", dense[i]);
        }
        Ok(())
    }
    match kind.0 {
        ModelKind::Bopm => on(BopmModel::new(c.p, c.steps).unwrap(), kind.1, 16),
        _ => on(TopmModel::new(c.p, c.steps).unwrap(), kind.1, 16),
    }
}

/// A frontier starts at expiry, descends (row by row when asked), has finite positive prices.
pub fn frontier_is_well_formed(kind: Kind, c: &Case, rows: usize) -> Result<(), String> {
    let Ok(pts) = frontier(kind, c, rows) else { return Ok(()) };
    let ctx = format!("{kind:?} {c:?}");
    let seen: Vec<usize> = pts.iter().map(|q| q.time_step).collect();
    let step_ok = |w: &[usize]| w[1] < w[0] && (rows < c.steps || w[1] + 1 == w[0]);
    if seen.first() != Some(&c.steps) || seen.len() > c.steps + 1 || !seen.windows(2).all(step_ok) {
        return Err(format!("{ctx}: frontier rows {seen:?}"));
    }
    match pts.iter().filter_map(|q| q.critical_price).find(|x| !(x.is_finite() && *x > 0.0)) {
        Some(x) => Err(format!("{ctx}: critical price {x:e}")),
        None => Ok(()),
    }
}

/// A batch of one is the direct fast route, bit for bit (errors alike).
pub fn batch_of_one_is_direct(pricer: &BatchPricer, kind: Kind, c: &Case) -> Check {
    let p = c.params(kind);
    let got = pricer.price_one(&PricingRequest::american(kind.0, kind.1, p, c.steps));
    let want = fast(kind, p, c.steps);
    prop_assume!(want.is_ok());
    prop_assert!(bits(&got) == bits(&want), "{kind:?} {c:?}: batch {got:?} vs direct {want:?}");
    Ok(())
}

/// A batch, and again from the memo, answers each slot bitwise as a batch of
/// one answers it; a valid one may take the price of another valid request
/// with the same memo key, an invalid one keeps its own error.
pub fn batch_is_its_batches_of_one(reqs: &[PricingRequest], alone: &[Price]) -> Result<(), String> {
    // Mirrors `quantize_on` (crates/core/src/batch.rs): cells of 1e-9 (σ: 1e-13), bits off
    // the grid or for a nonzero value in cell 0; `as_alone`'s `is_ok` stands for `builds`.
    let cell = |(x, grid): (f64, f64)| {
        let c = (x * grid).round();
        let on_grid = c.is_finite() && c.abs() < 9e18 && (c != 0.0 || x == 0.0);
        on_grid.then_some(c as i64).ok_or(x.to_bits())
    };
    let key = |r: &PricingRequest| {
        let (p, g) = (r.params, 1e9);
        let fields = [(p.spot, g), (p.strike, g), (p.rate, g), (p.volatility, 1e13)];
        let cells = fields.into_iter().chain([(p.dividend_yield, g), (p.expiry, g)]).map(cell);
        (r.model, r.option_type, r.style.clone(), r.steps, cells.collect::<Vec<_>>())
    };
    let keys: Vec<_> = reqs.iter().map(key).collect();
    let pricer = BatchPricer::new(EngineConfig::default());
    for pass in ["batch", "memo"] {
        let got = pricer.price_batch(reqs);
        let as_alone = |i: usize, j: usize| alone[j].is_ok() && bits(&got[i]) == bits(&alone[j]);
        let answered = |i: usize| {
            bits(&got[i]) == bits(&alone[i])
                || alone[i].is_ok() && (0..reqs.len()).any(|j| keys[i] == keys[j] && as_alone(i, j))
        };
        if let Some(i) = (0..reqs.len()).find(|&i| !answered(i)) {
            let (req, got, alone) = (&reqs[i], &got[i], &alone[i]);
            return Err(format!("{pass}: {req:?} answered {got:?}, alone {alone:?}"));
        }
    }
    Ok(())
}

/// A request's wire line decodes to it, and its reply parses back to the same bits.
pub fn wire_replies(req: &PricingRequest, answer: &Price) -> Result<(), String> {
    let line = wire::encode_pricing_request(7, "price", req);
    let (id, decoded) = wire::decode_request(&line);
    match decoded {
        Ok(WireRequest::Submit(ServiceRequest::Price(back), None)) if back == *req => {}
        other => return Err(format!("{line} decodes to {other:?}")),
    }
    let result = answer.clone().map(ServiceResponse::Price).map_err(ServiceError::Pricing);
    let reply = wire::encode_result(&id, &result);
    let back = wire::parse(&reply)?.get("price").and_then(JsonValue::as_f64);
    match back.map(f64::to_bits) == bits(answer).ok() {
        true => Ok(()),
        false => Err(format!("{reply} parses back to {back:?}, not {answer:?}")),
    }
}

/// A hostile answer is a typed error or a finite price in `[0, cap]`, ≥ intrinsic if American.
pub fn out_of_band(req: &PricingRequest, answer: &Price) -> Option<String> {
    let (p, &Ok(price)) = (&req.params, answer) else { return None };
    let cap = if req.option_type == OptionType::Call { p.spot } else { p.strike };
    let intrinsic = req.option_type.payoff(p.spot, p.strike);
    if !(price.is_finite() && price >= 0.0 && price <= cap * (1.0 + 1e-9)) {
        return Some(format!("price {price:e} outside [0, {cap:e}]"));
    }
    if req.style == batch::Style::American && price < intrinsic * (1.0 - 1e-9) {
        return Some(format!("American price {price:e} below intrinsic {intrinsic:e}"));
    }
    None
}
