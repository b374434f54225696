//! `book_cold` and `book_churn`: the batch layer over small lattices,
//! without and with the memo.

use super::{
    price_naive, repeat_for, replay_engine, Check, EngineTally, Measured, Region, Window, Workload,
    NEST_REL_TOL,
};
use crate::gen::{chain_book, ChurnTraffic, BOOK_UNDERLYINGS, CHURN_BATCH, HOT_SET};
use crate::ledger::Ledger;
use crate::rng::Rng;
use crate::spans::Tracer;
use amopt_core::batch::{BatchPricer, MemoStats, PricingRequest};
use amopt_core::EngineConfig;
use std::time::Instant;

/// Share of a book's contracts the output check re-prices by the nests.
const NEST_SAMPLE: f64 = 0.02;

/// Unwraps a batch's results; a pricing error is kept as NaN so the output
/// check counts it.
fn prices_of(results: Vec<amopt_core::Result<f64>>) -> Vec<f64> {
    results.into_iter().map(|r| r.unwrap_or(f64::NAN)).collect()
}

pub struct Cold {
    seed: u64,
    book: Vec<PricingRequest>,
    pricer: BatchPricer,
    /// Prices of every repetition.
    reps: Vec<Vec<f64>>,
}

impl Cold {
    pub fn setup(seed: u64) -> Self {
        let cold = Cold {
            seed,
            book: chain_book(seed, BOOK_UNDERLYINGS),
            pricer: BatchPricer::with_memo_capacity(EngineConfig::default(), 0),
            reps: Vec::new(),
        };
        // Prime the pool, scratch and FFT plans on one underlying's chain.
        std::hint::black_box(cold.pricer.price_batch(&cold.book[..64]));
        cold
    }

    fn summarise(
        &self,
        (origin, durations, region): (Instant, Vec<f64>, Region),
        one_thread: bool,
    ) -> Measured {
        let priced = (durations.len() * self.book.len()) as u64;
        Measured {
            attempted: priced,
            answered: priced,
            failed: 0,
            elapsed_s: region.elapsed_s,
            cpu_s: region.cpu_s,
            windows: Window::per_operation(self.book.len(), origin, &durations),
            op_samples: durations.len(),
            detail: Vec::new(),
            one_thread,
        }
    }
}

impl Workload for Cold {
    fn measure(&mut self, seconds: f64) -> Measured {
        let timed =
            repeat_for(seconds, |_| self.reps.push(prices_of(self.pricer.price_batch(&self.book))));
        self.summarise(timed, false)
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, ledger: &mut Ledger) -> Measured {
        // One thread throughout, so a batch span and the replayed pricer
        // calls that stand for its work are on the same clock.
        let cfg = *self.pricer.engine_config();
        let mut tally = EngineTally::default();
        let timed = repeat_for(seconds * 0.4, |iter| {
            let root = tracer.open(None, iter as u64, "workload", "rep");
            let (batch, prices) =
                tracer.span(Some(root), iter as u64, "batch", "price_batch", false, || {
                    amopt_parallel::run_with_threads(1, || {
                        prices_of(self.pricer.price_batch(&self.book))
                    })
                });
            tracer.close(root);
            self.reps.push(prices);
            replay_engine(tracer, &mut tally, batch, iter as u64, &self.book, &cfg);
        });
        tally.report(ledger);
        self.summarise(timed, true)
    }

    fn verify(&mut self) -> Check {
        let mut check = Check::default();
        let Some(first) = self.reps.first() else { return check };
        for (n, rep) in self.reps.iter().enumerate() {
            let same = rep.len() == first.len()
                && rep.iter().zip(first).all(|(a, b)| a.to_bits() == b.to_bits());
            check.expect(same, || format!("repetition {n} differs from repetition 0"));
        }
        let mut rng = Rng::new(self.seed, 20);
        for _ in 0..(self.book.len() as f64 * NEST_SAMPLE).ceil() as usize {
            let i = rng.below(self.book.len());
            check.close(
                &format!("contract {i} vs nest"),
                first[i],
                price_naive(&self.book[i]),
                NEST_REL_TOL,
                1.0,
            );
        }
        check
    }

    fn sample_contracts(&self) -> Vec<PricingRequest> {
        // Every sixteenth contract: all 64 underlyings, alternating expiries.
        self.book.iter().step_by(16).cloned().collect()
    }
}

pub struct Churn {
    traffic: ChurnTraffic,
    pricer: BatchPricer,
    /// First price each hot contract was ever given.
    hot_price: Vec<Option<f64>>,
    hot_mismatches: Vec<String>,
    hot_checks: u64,
    /// Seeded sample of fresh contracts and the prices they got.
    sampled: Vec<(PricingRequest, f64)>,
    sampler: Rng,
    pricing_errors: u64,
}

impl Churn {
    pub fn setup(seed: u64) -> Self {
        let traffic = ChurnTraffic::new(seed);
        let pricer = BatchPricer::new(EngineConfig::default());
        // Make the hot set resident, as it is in a book that has been
        // quoted before.
        let primed = prices_of(pricer.price_batch(&traffic.hot));
        Churn {
            traffic,
            pricer,
            hot_price: primed.into_iter().map(Some).collect(),
            hot_mismatches: Vec::new(),
            hot_checks: 0,
            sampled: Vec::new(),
            sampler: Rng::new(seed, 21),
            pricing_errors: 0,
        }
    }

    /// Books one batch's prices for the output check.
    fn keep(&mut self, batch: &[(Option<usize>, PricingRequest)], prices: &[f64]) {
        for ((hot, request), &price) in batch.iter().zip(prices) {
            if price.is_nan() {
                self.pricing_errors += 1;
            }
            match hot {
                Some(h) => {
                    self.hot_checks += 1;
                    let first = *self.hot_price[*h].get_or_insert(price);
                    if first.to_bits() != price.to_bits() && self.hot_mismatches.len() < 8 {
                        self.hot_mismatches
                            .push(format!("hot contract {h}: {price:e} after {first:e}"));
                    }
                }
                None => {
                    if self.sampler.unit() < NEST_SAMPLE {
                        self.sampled.push((request.clone(), price));
                    }
                }
            }
        }
    }

    fn run(
        &mut self,
        seconds: f64,
        mut tracer: Option<(&mut Tracer, &mut EngineTally)>,
    ) -> (Measured, MemoStats, MemoStats) {
        let before = self.pricer.memo_stats();
        let cfg = *self.pricer.engine_config();
        // (end ns, duration us, options) of every batch.
        let mut ops: Vec<(u64, (Option<f64>, u64))> = Vec::new();
        let start = Instant::now();
        let mut iter = 0u64;
        let ((), region) = Region::time(|| {
            while start.elapsed().as_secs_f64() < seconds {
                // Generating the batch is the load generator's work: inside
                // the region's wall time, outside the operation's.
                let batch = self.traffic.next_batch();
                let requests: Vec<PricingRequest> = batch.iter().map(|(_, r)| r.clone()).collect();
                let t = Instant::now();
                let prices = match &mut tracer {
                    None => prices_of(self.pricer.price_batch(&requests)),
                    Some((tracer, tally)) => {
                        let root = tracer.open(None, iter, "workload", "batch");
                        let (span, prices) =
                            tracer.span(Some(root), iter, "batch", "price_batch", false, || {
                                amopt_parallel::run_with_threads(1, || {
                                    prices_of(self.pricer.price_batch(&requests))
                                })
                            });
                        tracer.close(root);
                        // The fresh half is what the batch had to price.
                        replay_engine(
                            tracer,
                            tally,
                            span,
                            iter,
                            &requests[crate::gen::CHURN_HOT_PER_BATCH..],
                            &cfg,
                        );
                        prices
                    }
                };
                ops.push((
                    start.elapsed().as_nanos() as u64,
                    (Some(t.elapsed().as_secs_f64() * 1e6), CHURN_BATCH as u64),
                ));
                self.keep(&batch, &prices);
                iter += 1;
            }
        });
        let priced = (ops.len() * CHURN_BATCH) as u64;
        let measured = Measured {
            attempted: priced,
            answered: priced,
            failed: 0,
            elapsed_s: region.elapsed_s,
            cpu_s: region.cpu_s,
            windows: Window::equal_counts(&ops, 0, start),
            op_samples: ops.len(),
            detail: Vec::new(),
            one_thread: tracer.is_some(),
        };
        (measured, before, self.pricer.memo_stats())
    }
}

/// Memo hit rate, evictions per request and unique share of a run, from the
/// pricer's own counters before and after it.
pub fn memo_metrics(ledger: &mut Ledger, before: &MemoStats, after: &MemoStats, requests: u64) {
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let probes = hits + misses;
    ledger.set("batch.hit_rate", if probes == 0 { 0.0 } else { hits as f64 / probes as f64 });
    if requests > 0 {
        ledger.set(
            "batch.evictions_per_req",
            (after.evictions - before.evictions) as f64 / requests as f64,
        );
        // One probe per unique request of a batch: probes ÷ requests is the
        // share in-batch deduplication left to look up.
        ledger.set("batch.unique_share", probes as f64 / requests as f64);
    }
}

impl Workload for Churn {
    fn measure(&mut self, seconds: f64) -> Measured {
        let (mut measured, before, after) = self.run(seconds, None);
        let probes = (after.hits - before.hits + after.misses - before.misses).max(1);
        measured.detail.push((
            "memo_hit_rate".to_string(),
            (after.hits - before.hits) as f64 / probes as f64,
            "ratio",
        ));
        measured
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, ledger: &mut Ledger) -> Measured {
        let mut tally = EngineTally::default();
        let (measured, before, after) = self.run(seconds * 0.4, Some((tracer, &mut tally)));
        memo_metrics(ledger, &before, &after, measured.attempted);
        tally.report(ledger);
        measured
    }

    fn verify(&mut self) -> Check {
        let mut check = Check { checked: self.hot_checks, ..Check::default() };
        check.wrong += self.hot_mismatches.len() as u64;
        check.notes.append(&mut self.hot_mismatches);
        check.expect(self.pricing_errors == 0, || {
            format!("{} requests came back as pricing errors", self.pricing_errors)
        });
        for (request, price) in &self.sampled {
            check.close("fresh contract vs nest", *price, price_naive(request), NEST_REL_TOL, 1.0);
        }
        for (h, price) in self.hot_price.iter().enumerate().take(HOT_SET).step_by(16) {
            if let Some(price) = price {
                check.close(
                    &format!("hot contract {h} vs nest"),
                    *price,
                    price_naive(&self.traffic.hot[h]),
                    NEST_REL_TOL,
                    1.0,
                );
            }
        }
        check
    }

    fn sample_contracts(&self) -> Vec<PricingRequest> {
        self.traffic.hot.clone()
    }
}
