//! Portfolio repricing: the paper's motivating scenario — markets move,
//! thousands of contracts must reprice *now*.  Prices a synthetic book of
//! American options across strikes and maturities through the batch pricing
//! subsystem (`amopt_core::batch`): one call fans the book out over the
//! fork-join pool, deduplicates repeats, and memoizes results so the second
//! tick only pays for what actually changed.  Then exercises the derived
//! layers on the same warm pricer: batch-native greeks (every contract's
//! bump ladder in one batch) and implied-vol surface inversion (all quotes'
//! root-finding rounds in lockstep).
//!
//! ```sh
//! cargo run --release --example portfolio_sweep
//! ```

use american_option_pricing::prelude::*;

fn main() {
    let base = OptionParams::paper_defaults();
    let steps = 4096;
    let pricer = BatchPricer::new(EngineConfig::default());

    // A strike ladder x maturity grid: 120 contracts.
    let strikes: Vec<f64> = (0..12).map(|i| 90.0 + 10.0 * i as f64).collect();
    let expiries: Vec<f64> = (1..=10).map(|i| i as f64 / 4.0).collect();
    let book: Vec<PricingRequest> = strikes
        .iter()
        .flat_map(|&k| {
            expiries.iter().map(move |&e| {
                let params = OptionParams { strike: k, expiry: e, ..base };
                PricingRequest::american(ModelKind::Bopm, OptionType::Call, params, steps)
            })
        })
        .collect();

    let results = pricer.price_batch(&book);
    let prices: Vec<f64> =
        results.into_iter().collect::<Result<_, _>>().expect("every contract in the book prices");

    println!("re-priced {} American calls at T={steps}", book.len());
    // Sanity: prices decrease in strike for fixed expiry.
    for e_idx in 0..expiries.len() {
        for k_idx in 1..strikes.len() {
            let hi = prices[(k_idx - 1) * expiries.len() + e_idx];
            let lo = prices[k_idx * expiries.len() + e_idx];
            assert!(lo <= hi + 1e-9, "prices must fall as strike rises");
        }
    }
    println!("monotonicity checks passed; sample row (K={}):", strikes[0]);
    for (e, p) in expiries.iter().zip(&prices[..expiries.len()]) {
        println!("  expiry {e:4.2}y -> {p:8.4}");
    }

    // The next market tick: the book is unchanged, so the memo answers it.
    let again = pricer.price_batch(&book);
    assert!(again.iter().zip(&prices).all(|(a, b)| a.as_ref().unwrap() == b));
    let stats = pricer.memo_stats();
    println!(
        "unchanged tick served from memo ({} hits / {} misses, {} entries across {} shards)",
        stats.hits, stats.misses, stats.entries, stats.shards
    );

    // Risk on the same book: every contract's 9-bump finite-difference
    // ladder, fanned through the warm pricer as one batch.  The ladders'
    // base requests are the book itself — already memoized.
    let risk_book: Vec<PricingRequest> = book.iter().take(24).cloned().collect();
    let ladder = batch_greeks(&pricer, &risk_book);
    let net_delta: f64 = ladder.iter().map(|g| g.as_ref().unwrap().delta).sum();
    println!("batch greeks for {} contracts (net delta {net_delta:.3})", risk_book.len());

    // Implied-vol surface: quote a near-the-money strike x expiry grid off
    // a synthetic 22%-vol market, then invert every quote in lockstep.
    // (Near the money the vega is healthy, so the recovered vols are sharp;
    // deep-ITM quotes would still invert, but in price space only.)
    let quote_strikes: Vec<f64> = (0..12).map(|i| 112.0 + 3.0 * i as f64).collect();
    let quotes: Vec<VolQuote> = quote_strikes
        .iter()
        .flat_map(|&k| {
            expiries.iter().take(4).map(move |&e| {
                let params = OptionParams { strike: k, expiry: e, volatility: 0.22, ..base };
                let market = lattice_fast::price_american_call(
                    &BopmModel::new(params, 512).expect("grid params are valid"),
                    &EngineConfig::default(),
                );
                VolQuote::new(OptionParams { volatility: 0.2, ..params }, 512, market)
            })
        })
        .collect();
    let vols = implied_vol_surface(&pricer, &quotes);
    let recovered: Vec<f64> = vols.into_iter().map(|v| v.expect("grid quote inverts")).collect();
    // Every recovered vol must reproduce its quote (price space: deep-ITM
    // quotes have near-zero vega, so vol space is the wrong place to test).
    for (q, v) in quotes.iter().zip(&recovered) {
        let reprice = lattice_fast::price_american_call(
            &BopmModel::new(OptionParams { volatility: *v, ..q.params }, q.steps).unwrap(),
            &EngineConfig::default(),
        );
        assert!((reprice - q.market_price).abs() < 1e-9, "vol {v} misses quote");
    }
    let max_dev = recovered.iter().map(|v| (v - 0.22).abs()).fold(0.0f64, f64::max);
    println!(
        "inverted a {}x4 implied-vol surface ({} quotes, max |vol - 0.22| = {max_dev:.2e})",
        quote_strikes.len(),
        quotes.len()
    );
}
