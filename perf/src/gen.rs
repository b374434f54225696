//! Workload inputs, all pure functions of the seed.
//!
//! Sizes and shares are constants of the benchmark, chosen once (see the
//! README) so that two commits are always compared on the same traffic.

use crate::rng::Rng;
use amopt_core::batch::{ModelKind, PricingRequest};
use amopt_core::{OptionParams, OptionType};
use amopt_service::wire;

/// One of the four fast pricing routes the paper's algorithm serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    pub name: &'static str,
    pub model: ModelKind,
    pub option_type: OptionType,
}

pub const ROUTES: [Route; 4] = [
    Route { name: "bopm_call", model: ModelKind::Bopm, option_type: OptionType::Call },
    Route { name: "bopm_put", model: ModelKind::Bopm, option_type: OptionType::Put },
    Route { name: "topm_call", model: ModelKind::Topm, option_type: OptionType::Call },
    Route { name: "bsm_put", model: ModelKind::Bsm, option_type: OptionType::Put },
];

impl Route {
    /// The American request of this route for `params` on `steps` steps.
    /// The BSM grid is dividend-free by construction, so its route drops
    /// the yield.
    pub fn request(&self, params: OptionParams, steps: usize) -> PricingRequest {
        let params = match self.model {
            ModelKind::Bsm => OptionParams { dividend_yield: 0.0, ..params },
            _ => params,
        };
        PricingRequest::american(self.model, self.option_type, params, steps)
    }
}

/// Lattice steps of the `deep_lattice` workload (the paper's large-T regime).
pub const DEEP_STEPS: usize = 65_536;

/// The `deep_lattice` contract: the paper's parameter set with spot and
/// volatility moved by up to 2 %, so no two seeds price the same lattice
/// and all of them price about the same amount of work.
pub fn deep_contract(seed: u64) -> OptionParams {
    let mut rng = Rng::new(seed, 1);
    let base = OptionParams::paper_defaults();
    OptionParams {
        spot: base.spot * rng.range(0.98, 1.02),
        volatility: base.volatility * rng.range(0.98, 1.02),
        ..base
    }
}

/// Daily steps per year of expiry in the chain books.
pub const STEPS_PER_YEAR: f64 = 252.0;
pub const CHAIN_EXPIRIES: usize = 8;
pub const CHAIN_STRIKES: usize = 8;
pub const BOOK_UNDERLYINGS: usize = 64;

/// One listed underlying of a chain book.
#[derive(Debug, Clone, Copy)]
pub struct Underlying {
    pub index: usize,
    pub spot: f64,
    pub rate: f64,
    pub volatility: f64,
    pub dividend_yield: f64,
}

/// The eight market regimes `(volatility, rate, dividend yield)` the
/// underlyings cycle through.  How much work a contract is depends on these
/// (through where its exercise boundary runs) and not on its price level,
/// so every seed draws the same regimes in the same proportions — the seed
/// moves spots, strikes and a small jitter, not the amount of work.
const REGIMES: [(f64, f64, f64); 8] = [
    (0.15, 0.010, 0.030),
    (0.19, 0.020, 0.000),
    (0.23, 0.030, 0.010),
    (0.27, 0.040, 0.020),
    (0.31, 0.050, 0.005),
    (0.35, 0.015, 0.025),
    (0.39, 0.025, 0.015),
    (0.43, 0.035, 0.000),
];

/// Relative jitter applied to a regime's numbers, so that no two
/// underlyings (and no two seeds) share a parameter exactly.
const REGIME_JITTER: f64 = 0.02;

/// Underlying `index` of a book: a seeded spot (log-uniform in 20…500) and
/// the jittered regime `index / 8 mod 8`.  The model family follows
/// `index mod 8` (TOPM on 3 and 5; BSM, hence dividend-free, on 7; BOPM
/// elsewhere), so 64 consecutive underlyings put every family through
/// every regime.
pub fn underlying(rng: &mut Rng, index: usize) -> Underlying {
    let spot = (rng.range(20f64.ln(), 500f64.ln())).exp();
    let (volatility, rate, dividend_yield) = REGIMES[index / 8 % 8];
    let mut jitter = |x: f64| x * rng.range(1.0 - REGIME_JITTER, 1.0 + REGIME_JITTER);
    let (volatility, rate, dividend_yield) =
        (jitter(volatility), jitter(rate), jitter(dividend_yield));
    let dividend_yield = if index % 8 == 7 { 0.0 } else { dividend_yield };
    Underlying { index, spot, rate, volatility, dividend_yield }
}

impl Underlying {
    pub fn model(&self) -> ModelKind {
        match self.index % 8 {
            3 | 5 => ModelKind::Topm,
            7 => ModelKind::Bsm,
            _ => ModelKind::Bopm,
        }
    }

    /// The listed contract at `strike_ratio`·spot expiring in `expiry`
    /// years, on daily steps.  Out-of-the-money convention: puts below the
    /// spot, calls at and above it (the BSM grid prices puts only).
    pub fn contract(&self, strike_ratio: f64, expiry: f64) -> PricingRequest {
        let model = self.model();
        let option_type = if model == ModelKind::Bsm || strike_ratio < 1.0 {
            OptionType::Put
        } else {
            OptionType::Call
        };
        let params = OptionParams {
            spot: self.spot,
            strike: self.spot * strike_ratio,
            rate: self.rate,
            volatility: self.volatility,
            dividend_yield: self.dividend_yield,
            expiry,
        };
        let steps = (STEPS_PER_YEAR * expiry).round() as usize;
        PricingRequest::american(model, option_type, params, steps)
    }
}

/// The chain book: `underlyings` × 8 expiries (0.25…2.0 y) × 8 strikes
/// (0.80…1.15·S), 64 contracts per underlying in expiry-major order.  The
/// eight strikes of one expiry share (R, V, Y, E, T).
pub fn chain_book(seed: u64, underlyings: usize) -> Vec<PricingRequest> {
    let mut rng = Rng::new(seed, 2);
    let mut book = Vec::with_capacity(underlyings * CHAIN_EXPIRIES * CHAIN_STRIKES);
    for index in 0..underlyings {
        let u = underlying(&mut rng, index);
        for e in 1..=CHAIN_EXPIRIES {
            for k in 0..CHAIN_STRIKES {
                book.push(u.contract(0.80 + 0.05 * k as f64, 0.25 * e as f64));
            }
        }
    }
    book
}

/// Expiry of the short-dated contracts the churn and service workloads
/// quote: a quarter year, T = 63.
pub const SHORT_EXPIRY: f64 = 0.25;

/// A stream of never-repeating short-dated contracts: every draw takes a
/// fresh underlying and strike, so no two share a memo key.
#[derive(Debug, Clone)]
pub struct FreshContracts {
    rng: Rng,
    drawn: usize,
}

impl FreshContracts {
    pub fn new(seed: u64, stream: u64) -> Self {
        FreshContracts { rng: Rng::new(seed, stream), drawn: 0 }
    }

    pub fn draw(&mut self) -> PricingRequest {
        let u = underlying(&mut self.rng, self.drawn);
        // The listed strike ladder, in step with the regimes' period, moved
        // by up to half a rung.
        let rung = (self.drawn / 64 % CHAIN_STRIKES) as f64;
        self.drawn += 1;
        let ratio = 0.80 + 0.05 * (rung + self.rng.range(-0.5, 0.5));
        u.contract(ratio, SHORT_EXPIRY)
    }

    pub fn take(&mut self, n: usize) -> Vec<PricingRequest> {
        (0..n).map(|_| self.draw()).collect()
    }
}

pub const HOT_SET: usize = 256;
pub const CHURN_BATCH: usize = 256;
/// Requests of a churn batch drawn from the hot set; the rest are fresh.
pub const CHURN_HOT_PER_BATCH: usize = 128;

/// The `book_churn` traffic: a fixed hot set plus, per batch, 128 distinct
/// hot contracts and 128 contracts never seen before.
#[derive(Debug, Clone)]
pub struct ChurnTraffic {
    pub hot: Vec<PricingRequest>,
    picks: Rng,
    fresh: FreshContracts,
    order: Vec<usize>,
}

impl ChurnTraffic {
    pub fn new(seed: u64) -> Self {
        ChurnTraffic {
            hot: FreshContracts::new(seed, 3).take(HOT_SET),
            picks: Rng::new(seed, 4),
            fresh: FreshContracts::new(seed, 5),
            order: (0..HOT_SET).collect(),
        }
    }

    /// The next batch as `(hot-set index or None, request)` pairs, hot
    /// half first.
    pub fn next_batch(&mut self) -> Vec<(Option<usize>, PricingRequest)> {
        self.picks.shuffle(&mut self.order);
        let mut batch = Vec::with_capacity(CHURN_BATCH);
        for &h in &self.order[..CHURN_HOT_PER_BATCH] {
            batch.push((Some(h), self.hot[h].clone()));
        }
        for _ in CHURN_HOT_PER_BATCH..CHURN_BATCH {
            batch.push((None, self.fresh.draw()));
        }
        batch
    }
}

pub const SURFACE_UNDERLYINGS: usize = 16;
pub const SURFACE_EXPIRIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// One quote of the `surface_invert` workload before its market price is
/// known: the contract priced at the smile's volatility gives the price to
/// invert.
#[derive(Debug, Clone)]
pub struct SmilePoint {
    pub request: PricingRequest,
    pub smile_vol: f64,
}

/// 16 underlyings × (8 strikes × 4 expiries) BOPM quotes on a seeded
/// volatility smile (skewed, steeper at short expiries).
pub fn surface_points(seed: u64) -> Vec<SmilePoint> {
    let mut rng = Rng::new(seed, 6);
    let mut points = Vec::with_capacity(SURFACE_UNDERLYINGS * 32);
    for i in 0..SURFACE_UNDERLYINGS {
        // Indices ≡ 0 (mod 8) keep every surface underlying on the BOPM
        // lattice, the one the inversion driver prices, while walking the
        // regimes twice.
        let u = underlying(&mut rng, 8 * i);
        let (skew, curvature) = (-0.10 * rng.range(0.98, 1.02), 0.40 * rng.range(0.98, 1.02));
        for &expiry in &SURFACE_EXPIRIES {
            for k in 0..CHAIN_STRIKES {
                let ratio = 0.80 + 0.05 * k as f64;
                let m = ratio.ln() / expiry.sqrt();
                let smile_vol = u.volatility * (1.0 + skew * m + curvature * m * m);
                let mut request = u.contract(ratio, expiry);
                request.params.volatility = smile_vol;
                points.push(SmilePoint { request, smile_vol });
            }
        }
    }
    points
}

/// Share of `quote_stream` requests drawn from the hot set, as "9 of every
/// 10": each block of ten holds exactly one never-repeating tail request at
/// a seeded position.
pub const STREAM_BLOCK: usize = 10;
/// One request in 16 goes to the deadline-class connection.
pub const STREAM_TAGGED_EVERY: usize = 16;
/// Latency budget the deadline class asks for.
pub const TAGGED_DEADLINE_MS: f64 = 1.0;

/// One scheduled request of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scheduled {
    /// Index into [`StreamPlan::contracts`].
    pub contract: u32,
    /// Deadline class (connection B) or bulk (connection A).
    pub tagged: bool,
}

/// Everything the open-loop generator sends, fixed before the clock starts.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// Hot set first (`0..HOT_SET`), then the tail in order of first use.
    pub contracts: Vec<PricingRequest>,
    pub schedule: Vec<Scheduled>,
}

impl StreamPlan {
    /// A plan of `n` requests (rounded up to whole blocks of ten).
    pub fn new(seed: u64, n: usize) -> Self {
        let blocks = n.div_ceil(STREAM_BLOCK);
        let mut contracts = FreshContracts::new(seed, 7).take(HOT_SET);
        let mut tail = FreshContracts::new(seed, 8);
        let mut rng = Rng::new(seed, 9);
        let mut schedule = Vec::with_capacity(blocks * STREAM_BLOCK);
        for _ in 0..blocks {
            let tail_at = rng.below(STREAM_BLOCK);
            for slot in 0..STREAM_BLOCK {
                let contract = if slot == tail_at {
                    contracts.push(tail.draw());
                    contracts.len() - 1
                } else {
                    rng.below(HOT_SET)
                };
                let tagged = schedule.len() % STREAM_TAGGED_EVERY == STREAM_TAGGED_EVERY - 1;
                schedule.push(Scheduled { contract: contract as u32, tagged });
            }
        }
        StreamPlan { contracts, schedule }
    }

    /// The wire line (newline-terminated) of one scheduled request.
    pub fn line(&self, s: Scheduled) -> Vec<u8> {
        request_line(s.contract as u64, &self.contracts[s.contract as usize], s.tagged)
    }
}

/// A newline-terminated `price` request line, tagged with the deadline
/// class's budget when `tagged`.
pub fn request_line(id: u64, request: &PricingRequest, tagged: bool) -> Vec<u8> {
    let mut line = if tagged {
        wire::encode_pricing_request_with_deadline(id, "price", request, TAGGED_DEADLINE_MS)
    } else {
        wire::encode_pricing_request(id, "price", request)
    };
    line.push('\n');
    line.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Bit-exact identity of a request's numbers (the memo quantises more
    /// coarsely; distinct here by a margin is asserted separately).
    /// Every request's bytes in send order — what the server receives.
    fn request_bytes(plan: &StreamPlan) -> Vec<u8> {
        plan.schedule.iter().flat_map(|&s| plan.line(s)).collect()
    }

    fn identity(r: &PricingRequest) -> (u8, u8, [u64; 6], usize) {
        let p = &r.params;
        (
            r.model as u8,
            r.option_type as u8,
            [p.spot, p.strike, p.rate, p.volatility, p.dividend_yield, p.expiry].map(f64::to_bits),
            r.steps,
        )
    }

    #[test]
    fn the_same_seed_gives_identical_request_bytes_and_another_seed_does_not() {
        let a = request_bytes(&StreamPlan::new(11, 2_000));
        let b = request_bytes(&StreamPlan::new(11, 2_000));
        let c = request_bytes(&StreamPlan::new(12, 2_000));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().filter(|&&ch| ch == b'\n').count(), 2_000);
    }

    #[test]
    fn books_are_pure_functions_of_the_seed() {
        let ids =
            |seed| chain_book(seed, BOOK_UNDERLYINGS).iter().map(identity).collect::<Vec<_>>();
        assert_eq!(ids(5), ids(5));
        assert_ne!(ids(5), ids(6));
        assert_eq!(format!("{:?}", deep_contract(5)), format!("{:?}", deep_contract(5)));
        assert_ne!(format!("{:?}", deep_contract(5)), format!("{:?}", deep_contract(6)));
        let vols =
            |seed| surface_points(seed).iter().map(|p| p.smile_vol.to_bits()).collect::<Vec<_>>();
        assert_eq!(vols(5), vols(5));
        assert_ne!(vols(5), vols(6));
    }

    #[test]
    fn the_chain_book_has_the_stated_shape() {
        let book = chain_book(1, BOOK_UNDERLYINGS);
        assert_eq!(book.len(), 4_096);
        let distinct: HashSet<_> = book.iter().map(identity).collect();
        assert_eq!(distinct.len(), book.len(), "no contract is listed twice");
        let steps: HashSet<usize> = book.iter().map(|r| r.steps).collect();
        assert_eq!(steps, (1..=8).map(|e| 63 * e).collect::<HashSet<_>>());
        let count = |m: ModelKind| book.iter().filter(|r| r.model == m).count();
        assert_eq!(count(ModelKind::Topm), 2 * 8 * 64);
        assert_eq!(count(ModelKind::Bsm), 8 * 64);
        assert_eq!(count(ModelKind::Bopm), 5 * 8 * 64);
        for r in &book {
            if r.model == ModelKind::Bsm {
                assert_eq!(r.option_type, OptionType::Put);
                assert_eq!(r.params.dividend_yield, 0.0);
            }
        }
        // The eight strikes of one expiry share everything but the strike.
        for chain in book.chunks(CHAIN_STRIKES) {
            let first = &chain[0];
            for r in chain {
                assert_eq!((r.steps, r.model), (first.steps, first.model));
                assert_eq!(r.params.volatility.to_bits(), first.params.volatility.to_bits());
                assert_eq!(r.params.expiry.to_bits(), first.params.expiry.to_bits());
            }
        }
    }

    #[test]
    fn churn_batches_are_half_hot_half_never_seen() {
        let mut traffic = ChurnTraffic::new(3);
        let hot_ids: HashSet<_> = traffic.hot.iter().map(identity).collect();
        assert_eq!(hot_ids.len(), HOT_SET);
        let mut seen_fresh = HashSet::new();
        for _ in 0..40 {
            let batch = traffic.next_batch();
            assert_eq!(batch.len(), CHURN_BATCH);
            let hot: Vec<usize> = batch.iter().filter_map(|(h, _)| *h).collect();
            assert_eq!(hot.len(), CHURN_HOT_PER_BATCH);
            assert_eq!(
                hot.iter().collect::<HashSet<_>>().len(),
                hot.len(),
                "hot picks are distinct"
            );
            for (h, r) in &batch {
                assert_eq!(r.steps, 63);
                match h {
                    Some(h) => assert_eq!(identity(r), identity(&traffic.hot[*h])),
                    None => {
                        assert!(!hot_ids.contains(&identity(r)));
                        assert!(seen_fresh.insert(identity(r)), "a fresh contract repeated");
                    }
                }
            }
        }
    }

    #[test]
    fn the_stream_is_nine_tenths_hot_with_one_tagged_request_in_sixteen() {
        let plan = StreamPlan::new(9, 16_000);
        assert_eq!(plan.schedule.len(), 16_000);
        let hot = plan.schedule.iter().filter(|s| (s.contract as usize) < HOT_SET).count();
        assert_eq!(hot, 14_400);
        let tail: Vec<u32> =
            plan.schedule.iter().map(|s| s.contract).filter(|&c| c as usize >= HOT_SET).collect();
        assert_eq!(tail.len(), 1_600);
        assert_eq!(tail.iter().collect::<HashSet<_>>().len(), tail.len(), "the tail never repeats");
        assert_eq!(plan.contracts.len(), HOT_SET + 1_600);
        let all: HashSet<_> = plan.contracts.iter().map(identity).collect();
        assert_eq!(all.len(), plan.contracts.len());
        assert_eq!(plan.schedule.iter().filter(|s| s.tagged).count(), 1_000);
        // A tagged line differs from its bulk twin only by the deadline field.
        let s = plan.schedule[15];
        assert!(s.tagged);
        let line = String::from_utf8(plan.line(s)).unwrap();
        assert!(line.contains("\"deadline_ms\":1"), "{line}");
        assert!(!String::from_utf8(plan.line(Scheduled { tagged: false, ..s }))
            .unwrap()
            .contains("deadline"));
    }

    #[test]
    fn every_generated_contract_is_one_the_product_accepts() {
        let pricer =
            amopt_core::BatchPricer::with_memo_capacity(amopt_core::EngineConfig::default(), 0);
        let mut all = chain_book(2, 8);
        all.extend(FreshContracts::new(2, 3).take(512));
        all.extend(surface_points(2).into_iter().map(|p| p.request));
        for (r, price) in all.iter().zip(pricer.price_batch(&all)) {
            let price = price.unwrap_or_else(|e| panic!("{r:?}: {e}"));
            assert!(price.is_finite() && price >= 0.0, "{r:?}: {price}");
        }
    }
}
