//! `deep_lattice`: one contract at T = 65 536 through the four fast routes.

use super::{
    price_direct, price_naive, repeat_for, Check, EngineTally, Measured, Region, Window, Workload,
};
use crate::gen::{deep_contract, Route, DEEP_STEPS, ROUTES};
use crate::ledger::Ledger;
use crate::spans::Tracer;
use crate::stats::median;
use amopt_core::batch::PricingRequest;
use amopt_core::{EngineConfig, OptionParams};
use amopt_stencil::{advance, Backend, Segment, StencilKernel};
use std::time::Instant;

/// Lattice size of the nest comparison (the Θ(T²) nests are too slow at
/// the workload's own size).
const NEST_STEPS: usize = 4_096;

/// Fast-route prices of the paper's own parameter set at T = 4 096, as the
/// commit that introduced this benchmark computed them.  A change that
/// moves one of these beyond 1e-7 relative changed what the pricers
/// compute, not how fast.
const PINNED_PAPER_PRICES: [(&str, f64); 4] = [
    ("bopm_call", 8.327_108_230_438_059),
    ("bopm_put", 12.424_111_453_082_851),
    ("topm_call", 8.327_397_417_772_142),
    ("bsm_put", 11.385_398_232_005_977),
];

pub struct Deep {
    params: OptionParams,
    cfg: EngineConfig,
    /// Prices of every sweep, in `ROUTES` order.
    sweeps: Vec<[f64; 4]>,
    /// Per-route call durations of every sweep, seconds.
    route_seconds: Vec<[f64; 4]>,
    /// `(route index, price)` of the traced run's one-thread pricings.
    one_thread: Vec<(usize, f64)>,
}

impl Deep {
    pub fn setup(seed: u64) -> Self {
        let deep = Deep {
            params: deep_contract(seed),
            cfg: EngineConfig::default(),
            sweeps: Vec::new(),
            route_seconds: Vec::new(),
            one_thread: Vec::new(),
        };
        // Prime the pool, the scratch pool and the small FFT plans; the
        // 256k-point plans are first built inside the timed region, as a
        // user's first large pricing would build them.
        for route in &ROUTES {
            std::hint::black_box(price_direct(&route.request(deep.params, NEST_STEPS), &deep.cfg));
        }
        deep
    }

    fn request(&self, route: &Route) -> PricingRequest {
        route.request(self.params, DEEP_STEPS)
    }

    fn sweep(&mut self, mut each: impl FnMut(usize, &PricingRequest, &EngineConfig) -> f64) {
        let (mut prices, mut seconds) = ([0.0; 4], [0.0; 4]);
        for (i, route) in ROUTES.iter().enumerate() {
            let request = self.request(route);
            let t = Instant::now();
            prices[i] = each(i, &request, &self.cfg);
            seconds[i] = t.elapsed().as_secs_f64();
        }
        self.sweeps.push(prices);
        self.route_seconds.push(seconds);
    }

    fn summarise(
        &self,
        (origin, sweep_seconds, region): (Instant, Vec<f64>, Region),
        first: usize,
    ) -> Measured {
        let prices = 4 * sweep_seconds.len() as u64;
        let detail = ROUTES
            .iter()
            .enumerate()
            .map(|(i, route)| {
                let ms: Vec<f64> = self.route_seconds[first..].iter().map(|s| s[i] * 1e3).collect();
                (format!("price_ms.{}", route.name), median(&ms), "ms")
            })
            .collect();
        Measured {
            attempted: prices,
            answered: prices,
            failed: 0,
            elapsed_s: region.elapsed_s,
            cpu_s: region.cpu_s,
            windows: Window::per_operation(4, origin, &sweep_seconds),
            op_samples: sweep_seconds.len(),
            detail,
            one_thread: false,
        }
    }
}

impl Workload for Deep {
    fn measure(&mut self, seconds: f64) -> Measured {
        let first = self.sweeps.len();
        let timed =
            repeat_for(seconds, |_| self.sweep(|_, request, cfg| price_direct(request, cfg)));
        self.summarise(timed, first)
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, ledger: &mut Ledger) -> Measured {
        // The pass: sweeps on the default pool, each route one span that
        // carries the kernel-phase totals, followed by replays of one
        // top-level linear advance and the correlation inside it.
        let first = self.sweeps.len();
        let mut probes = TopLevelProbes::new();
        let timed = repeat_for(seconds * 0.3, |iter| {
            let root = tracer.open(None, iter as u64, "workload", "sweep");
            self.sweep(|i, request, cfg| {
                let before = amopt_obs::kernel::snapshot();
                let (id, price) =
                    tracer.span(Some(root), iter as u64, "engine", "price", false, || {
                        price_direct(request, cfg)
                    });
                let after = amopt_obs::kernel::snapshot();
                tracer.attr(id, "steps", request.steps as f64);
                for (k, phase) in amopt_obs::kernel::KERNEL_PHASES.iter().enumerate() {
                    tracer.attr(
                        id,
                        super::phase_attr(phase.name()),
                        (after[k].nanos - before[k].nanos) as f64,
                    );
                }
                probes.replay(tracer, id, iter as u64, ROUTES[i].name);
                price
            });
            tracer.close(root);
        });
        let measured = self.summarise(timed, first);

        // One thread, once per route: the plain serial baseline, with the
        // phase split and the allocation count of exactly one pricing each.
        let mut tally = EngineTally::default();
        ledger.set("engine.steps", DEEP_STEPS as f64);
        for (i, route) in ROUTES.iter().enumerate() {
            let request = self.request(route);
            let (price, ns, _) =
                amopt_parallel::run_with_threads(1, || tally.price(&request, &self.cfg));
            self.one_thread.push((i, price));
            ledger.set(&format!("engine.t1_us.{}", route.name), ns as f64 / 1e3);
            let pool_us = measured.detail[i].1 * 1e3;
            ledger.set(&format!("engine.par_speedup.{}", route.name), ns as f64 / 1e3 / pool_us);
        }
        tally.report(ledger);
        measured
    }

    fn verify(&mut self) -> Check {
        let mut check = Check::default();
        let Some(first) = self.sweeps.first().copied() else { return check };
        for (n, sweep) in self.sweeps.iter().enumerate() {
            for (i, route) in ROUTES.iter().enumerate() {
                check.bitwise(
                    &format!("sweep {n} {} repeats sweep 0", route.name),
                    sweep[i],
                    first[i],
                );
            }
        }
        // The pool's width must not change the arithmetic.
        for &(i, price) in &self.one_thread {
            check.bitwise(
                &format!("one-thread {} repeats sweep 0", ROUTES[i].name),
                price,
                first[i],
            );
        }
        // The two lattices discretise the same contract: at this size they
        // agree far inside the first decimals.
        check.close("bopm_call vs topm_call at T=65536", first[0], first[2], 1e-4, 1.0);
        for route in &ROUTES {
            let request = route.request(self.params, NEST_STEPS);
            let fast = price_direct(&request, &self.cfg);
            check.close(
                &format!("{} fast vs nest at T={NEST_STEPS}", route.name),
                fast,
                price_naive(&request),
                super::NEST_REL_TOL,
                1.0,
            );
        }
        for (route, (name, pinned)) in ROUTES.iter().zip(PINNED_PAPER_PRICES) {
            let request = route.request(OptionParams::paper_defaults(), NEST_STEPS);
            check.close(
                &format!("pinned paper price {name}"),
                price_direct(&request, &self.cfg),
                pinned,
                1e-7,
                1.0,
            );
        }
        check
    }

    fn sample_contracts(&self) -> Vec<PricingRequest> {
        Vec::new()
    }
}

/// Inputs for the replays that follow each deep `engine.price` span: one
/// linear advance at the lattice's top-level size, and the correlation it
/// bottoms out in — two-tap for the binomial routes, three-tap (half the
/// height, same power-kernel length) for the trinomial and BSM ones.
struct TopLevelProbes {
    row: Segment,
    scratch: amopt_fft::FftScratch,
}

impl TopLevelProbes {
    fn new() -> Self {
        let mut rng = crate::rng::Rng::new(0x5EED, 10);
        TopLevelProbes {
            row: Segment::new(0, (0..crate::probes::DEEP_L).map(|_| rng.unit()).collect()),
            scratch: amopt_fft::FftScratch::default(),
        }
    }

    fn replay(&mut self, tracer: &mut Tracer, parent: u32, iter: u64, route: &str) {
        let (weights, h) = if route.starts_with("bopm") {
            (vec![0.49, 0.5], crate::probes::DEEP_H2)
        } else {
            (vec![0.3, 0.35, 0.3], crate::probes::DEEP_H3)
        };
        let kernel = StencilKernel::new(weights.clone(), 0);
        let (advance_id, _) = tracer.span(Some(parent), iter, "stencil", "advance", true, || {
            std::hint::black_box(advance(&self.row, &kernel, h, Backend::Fft))
        });
        tracer.attr(advance_id, "len", self.row.len() as f64);
        tracer.attr(advance_id, "h", h as f64);
        tracer.span(Some(advance_id), iter, "fft", "correlate", true, || {
            std::hint::black_box(amopt_fft::correlate_power_valid_with(
                &self.row.values,
                &weights,
                h,
                &mut self.scratch,
            ))
        });
    }
}
