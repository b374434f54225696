//! `surface_invert`: a 512-quote implied-volatility surface inverted cold.

use super::{
    price_direct, repeat_for, replay_engine, Check, EngineTally, Measured, Region, Window, Workload,
};
use crate::gen::surface_points;
use crate::ledger::Ledger;
use crate::spans::Tracer;
use amopt_core::batch::surface::{implied_vol_surface, VolQuote};
use amopt_core::batch::{BatchPricer, ModelKind, PricingRequest};
use amopt_core::{EngineConfig, OptionType};
use std::time::Instant;

/// How far a recovered volatility's own price may sit from the quote: the
/// inversion driver accepts a root at 1e-10; repricing without the memo's
/// volatility grid adds a little.
const REPRICE_TOL: f64 = 1e-9;

pub struct Surface {
    quotes: Vec<VolQuote>,
    cfg: EngineConfig,
    /// Recovered volatilities of every inversion (NaN for an error).
    inversions: Vec<Vec<f64>>,
}

fn vols_of(results: Vec<amopt_core::Result<f64>>) -> Vec<f64> {
    results.into_iter().map(|r| r.unwrap_or(f64::NAN)).collect()
}

impl Surface {
    pub fn setup(seed: u64) -> Self {
        let cfg = EngineConfig::default();
        let points = surface_points(seed);
        // The market: every point priced at its smile volatility by the
        // fast pricer, through one memo-less batch.
        let requests: Vec<PricingRequest> = points.iter().map(|p| p.request.clone()).collect();
        let market = BatchPricer::with_memo_capacity(cfg, 0).price_batch(&requests);
        let quotes = points
            .iter()
            .zip(market)
            .map(|(p, price)| {
                let price = price.expect("generated surface point prices");
                match p.request.option_type {
                    OptionType::Call => VolQuote::new(p.request.params, p.request.steps, price),
                    OptionType::Put => VolQuote::put(p.request.params, p.request.steps, price),
                }
            })
            .collect();
        Surface { quotes, cfg, inversions: Vec::new() }
    }

    fn at_vol(&self, quote: &VolQuote, vol: f64) -> PricingRequest {
        let mut params = quote.params;
        params.volatility = vol;
        PricingRequest::american(ModelKind::Bopm, quote.option_type, params, quote.steps)
    }

    fn summarise(
        &self,
        (origin, durations, region): (Instant, Vec<f64>, Region),
        one_thread: bool,
    ) -> Measured {
        let inverted = (durations.len() * self.quotes.len()) as u64;
        Measured {
            attempted: inverted,
            answered: inverted,
            failed: 0,
            elapsed_s: region.elapsed_s,
            cpu_s: region.cpu_s,
            windows: Window::per_operation(self.quotes.len(), origin, &durations),
            op_samples: durations.len(),
            detail: Vec::new(),
            one_thread,
        }
    }
}

impl Workload for Surface {
    fn measure(&mut self, seconds: f64) -> Measured {
        let timed = repeat_for(seconds, |_| {
            let pricer = BatchPricer::new(self.cfg);
            self.inversions.push(vols_of(implied_vol_surface(&pricer, &self.quotes)));
        });
        self.summarise(timed, false)
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, ledger: &mut Ledger) -> Measured {
        let mut tally = EngineTally::default();
        let mut probes = 0u64;
        let mut last_pricer = None;
        let timed = repeat_for(seconds * 0.3, |iter| {
            let pricer = BatchPricer::new(self.cfg);
            let root = tracer.open(None, iter as u64, "workload", "inversion");
            let (span, vols) =
                tracer.span(Some(root), iter as u64, "batch", "implied_vol_surface", false, || {
                    amopt_parallel::run_with_threads(1, || {
                        vols_of(implied_vol_surface(&pricer, &self.quotes))
                    })
                });
            tracer.close(root);
            // The driver's probes are not visible from outside; the memo's
            // miss count says how many pricings it bought, and each quote's
            // share of them is replayed at the volatility it converged to.
            let stats = pricer.memo_stats();
            probes += stats.hits + stats.misses;
            let per_quote = (stats.misses as usize).div_ceil(self.quotes.len());
            let replays: Vec<PricingRequest> = self
                .quotes
                .iter()
                .zip(&vols)
                .filter(|(_, v)| v.is_finite())
                .flat_map(|(q, &v)| std::iter::repeat_n(self.at_vol(q, v), per_quote))
                .collect();
            replay_engine(tracer, &mut tally, span, iter as u64, &replays, &self.cfg);
            self.inversions.push(vols);
            last_pricer = Some(pricer);
        });
        tally.report(ledger);
        let inverted = (timed.1.len() * self.quotes.len()) as f64;
        ledger.set("surface.probes_per_quote", probes as f64 / inverted);

        // The surface quoted again on the pricer that has just inverted it.
        let pricer = last_pricer.expect("the pass ran at least one inversion");
        let t = Instant::now();
        // Not kept for the bitwise check: memo-served probes sit on the
        // memo's volatility grid, so the search path may differ in the
        // last bits.
        std::hint::black_box(implied_vol_surface(&pricer, &self.quotes));
        ledger.set(
            "surface.requote_quotes_per_s",
            self.quotes.len() as f64 / t.elapsed().as_secs_f64(),
        );

        // The quote-at-a-time loop the lockstep driver replaces, on the
        // first underlying's calls.
        let calls: Vec<&VolQuote> =
            self.quotes[..32].iter().filter(|q| q.option_type == OptionType::Call).collect();
        let t = Instant::now();
        for q in &calls {
            let vol = amopt_core::implied_vol::american_call_bopm(
                &q.params,
                q.steps,
                q.market_price,
                &self.cfg,
            );
            std::hint::black_box(vol.unwrap_or(f64::NAN));
        }
        ledger.set("surface.serial_quotes_per_s", calls.len() as f64 / t.elapsed().as_secs_f64());
        self.summarise(timed, true)
    }

    fn verify(&mut self) -> Check {
        let mut check = Check::default();
        let Some(first) = self.inversions.first() else { return check };
        for (n, vols) in self.inversions.iter().enumerate() {
            let same = vols.len() == first.len()
                && vols.iter().zip(first).all(|(a, b)| a.to_bits() == b.to_bits());
            check.expect(same, || format!("inversion {n} differs from inversion 0"));
        }
        for (i, (quote, &vol)) in self.quotes.iter().zip(first).enumerate() {
            if !vol.is_finite() {
                check.expect(false, || format!("quote {i} did not invert"));
                continue;
            }
            let reprice = price_direct(&self.at_vol(quote, vol), &self.cfg);
            let ok =
                (reprice - quote.market_price).abs() <= REPRICE_TOL * quote.market_price.max(1.0);
            check.expect(ok, || {
                format!(
                    "quote {i}: vol {vol} reprices to {reprice:e}, market {:e}",
                    quote.market_price
                )
            });
        }
        check
    }

    fn sample_contracts(&self) -> Vec<PricingRequest> {
        self.quotes.iter().map(|q| self.at_vol(q, q.params.volatility)).collect()
    }
}
