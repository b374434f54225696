//! The six workloads.  Each one sets the product up from generated
//! inputs, drives it for the asked number of seconds, and afterwards checks
//! every output it collected.

pub mod book;
pub mod deep;
pub mod service;
pub mod surface;

use crate::ledger::Ledger;
use crate::spans::Tracer;
use crate::speed::SpeedLog;
use amopt_core::batch::{ModelKind, PricingRequest};
use amopt_core::bopm::{self, BopmModel};
use amopt_core::bsm::{self, BsmModel};
use amopt_core::topm::{self, TopmModel};
use amopt_core::{EngineConfig, ExerciseStyle, OptionType};
use amopt_obs::kernel::{self, KernelPhaseStats, KERNEL_PHASE_COUNT};
use std::time::{Duration, Instant};

/// A workload's name, the reason it is in the benchmark, and the lattice
/// size its traced run measures the engines at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// What one timed operation is (the unit `p50_us`/`p99_us` are over).
    pub op: &'static str,
    pub engine_steps: usize,
    /// Whether the workload's timings scale with the machine's clock and so
    /// are restated at the reference speed (see [`crate::speed`]).  Not the
    /// open loop at a twentieth of saturation: its latency sits on the
    /// coalescing timer and its throughput on the schedule.
    pub cpu_bound: bool,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "deep_lattice",
        why: "one contract at T=65536 through the four fast routes: the paper's claim; fft, stencil and engine do all the work, batch and service none",
        op: "one sweep of the four routes",
        engine_steps: crate::gen::DEEP_STEPS,
        cpu_bound: true,
    },
    Spec {
        name: "book_cold",
        why: "4096-contract chain book, T=63..504, memo off: small-T, base-case- and allocation-heavy use of the same engines plus batch fan-out; a large-n FFT win that costs small n shows here",
        op: "one price_batch of the book",
        engine_steps: 252,
        cpu_bound: true,
    },
    Spec {
        name: "book_churn",
        why: "256-request batches at T=63, half from a 256-contract hot set and half never seen, default memo: every batch probes, publishes and evicts",
        op: "one price_batch of 256",
        engine_steps: 63,
        cpu_bound: true,
    },
    Spec {
        name: "surface_invert",
        why: "512 call/put quotes inverted in lockstep rounds, fresh pricer per inversion: many small dependent batches, span-bound where book_cold is work-bound",
        op: "one surface inversion",
        engine_steps: 252,
        cpu_bound: true,
    },
    Spec {
        name: "quote_stream",
        why: "open loop over loopback TCP at 2000 req/s, 90% hot set and 10% never-repeating tail, one request in 16 deadline-tagged: latency sits on the coalescing delay, so kernel changes must not move it",
        op: "one bulk request, timed from its due time",
        engine_steps: 63,
        cpu_bound: false,
    },
    Spec {
        name: "quote_saturate",
        why: "closed loop, one connection per core with 64 requests in flight, all-distinct chain contracts so the memo never hits: the service engine-bound, where backpressure code runs",
        op: "one request, send to reply",
        engine_steps: 252,
        cpu_bound: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One window of a timed region: what the product delivered in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// When the window began and ended.
    pub from: Instant,
    pub to: Instant,
    /// Options answered in the window per second of it.
    pub options_per_s: f64,
    /// Nearest-rank percentiles of the operations that ended in the window.
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Windows a timed region with many operations is cut into.
pub const WINDOWS: usize = 8;

impl Window {
    /// A workload with a handful of long operations, run back to back from
    /// `origin`: each one is a window.
    pub fn per_operation(
        options_per_op: usize,
        origin: Instant,
        op_seconds: &[f64],
    ) -> Vec<Window> {
        let mut from = origin;
        op_seconds
            .iter()
            .map(|&s| {
                let to = from + Duration::from_secs_f64(s);
                let window = Window {
                    from,
                    to,
                    options_per_s: options_per_op as f64 / s,
                    p50_us: s * 1e6,
                    p99_us: s * 1e6,
                };
                from = to;
                window
            })
            .collect()
    }

    /// Cuts the operations `(end time ns, (duration us, options answered))`,
    /// in the order they ended, into [`WINDOWS`] windows of equally many
    /// operations.  Times are nanoseconds after `origin`.  A window lasts
    /// from the end of the one before it (`t0` for the first) to its own
    /// last operation's end.  An operation without a duration counts
    /// towards the throughput only.
    pub fn equal_counts(
        ops: &[(u64, (Option<f64>, u64))],
        t0: u64,
        origin: Instant,
    ) -> Vec<Window> {
        let mut start = t0;
        crate::stats::split_windows(ops, WINDOWS)
            .iter()
            .map(|inside| {
                let end = inside.last().map_or(start, |op| op.0);
                let seconds = end.saturating_sub(start).max(1) as f64 / 1e9;
                let (from, to) =
                    (origin + Duration::from_nanos(start), origin + Duration::from_nanos(end));
                start = end;
                let durations: Vec<f64> = inside.iter().filter_map(|op| op.1 .0).collect();
                Window {
                    from,
                    to,
                    options_per_s: inside.iter().map(|op| op.1 .1).sum::<u64>() as f64 / seconds,
                    p50_us: crate::stats::percentile(&durations, 50.0),
                    p99_us: crate::stats::percentile(&durations, 99.0),
                }
            })
            .collect()
    }
}

/// What a timed region measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Options the workload asked the product to price, in total.
    pub attempted: u64,
    /// Options answered inside the timed region.
    pub answered: u64,
    /// Requests that came back refused, missing or late beyond the drain.
    pub failed: u64,
    /// Wall seconds of the timed region, and the CPU seconds (user +
    /// system, every thread, load generator included) the process spent
    /// in it.
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// The region window by window; the reported throughput and latencies
    /// are quartiles over these, so a stall that lands in one window moves
    /// one window's numbers and not the run's.
    pub windows: Vec<Window>,
    /// Number of timed operations in the region.
    pub op_samples: usize,
    /// Workload-specific numbers for the human report:
    /// `(name, value, unit)`.
    pub detail: Vec<(String, f64, &'static str)>,
    /// Set by a traced pass that had to change how the product runs (one
    /// thread, so replays share its clock): its timings do not compare
    /// with a plain run's.
    pub one_thread: bool,
}

/// Outcome of the output check that follows the timed region.
#[derive(Debug, Clone, Default)]
pub struct Check {
    pub checked: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Check {
    /// Counts one comparison; a failing one is described by `note` (only
    /// the first few are kept).
    pub fn expect(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.wrong += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    /// `|got − want|` within `rel` of the larger of `|want|` and `floor`.
    pub fn close(&mut self, what: &str, got: f64, want: f64, rel: f64, floor: f64) {
        let ok = (got - want).abs() <= rel * want.abs().max(floor);
        self.expect(ok, || format!("{what}: got {got:e}, want {want:e} (rel {rel:e})"));
    }

    pub fn bitwise(&mut self, what: &str, got: f64, want: f64) {
        self.expect(got.to_bits() == want.to_bits(), || {
            format!("{what}: got {got:e}, want bitwise {want:e}")
        });
    }
}

/// A workload, set up and ready to be timed.
pub trait Workload {
    /// Drives the product for about `seconds` and keeps its outputs.
    fn measure(&mut self, seconds: f64) -> Measured;
    /// The traced pass: the same traffic for about `seconds`, recorded as
    /// spans, plus the per-layer numbers only this workload can give.
    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, ledger: &mut Ledger) -> Measured;
    /// Checks every output kept so far.
    fn verify(&mut self) -> Check;
    /// Up to 512 of the workload's own contracts, for the batch-layer probes.
    fn sample_contracts(&self) -> Vec<PricingRequest>;
}

/// Generates the inputs, constructs the product and primes it — everything
/// `setup_s` covers.
pub fn setup(name: &str, seed: u64, seconds: f64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "deep_lattice" => Box::new(deep::Deep::setup(seed)),
        "book_cold" => Box::new(book::Cold::setup(seed)),
        "book_churn" => Box::new(book::Churn::setup(seed)),
        "surface_invert" => Box::new(surface::Surface::setup(seed)),
        "quote_stream" => Box::new(service::Stream::setup(seed, seconds)),
        "quote_saturate" => Box::new(service::Saturate::setup(seed)),
        _ => return None,
    })
}

/// The fast pricer behind `request`, called directly — no batch layer, no
/// memo.  American requests of the four routes only.
pub fn price_direct(request: &PricingRequest, cfg: &EngineConfig) -> f64 {
    let (p, t) = (request.params, request.steps);
    match (request.model, request.option_type) {
        (ModelKind::Bopm, OptionType::Call) => {
            bopm::fast::price_american_call(&BopmModel::new(p, t).expect("generated contract"), cfg)
        }
        (ModelKind::Bopm, OptionType::Put) => {
            bopm::fast::price_american_put(&BopmModel::new(p, t).expect("generated contract"), cfg)
        }
        (ModelKind::Topm, OptionType::Call) => {
            topm::fast::price_american_call(&TopmModel::new(p, t).expect("generated contract"), cfg)
        }
        (ModelKind::Topm, OptionType::Put) => {
            topm::fast::price_american_put(&TopmModel::new(p, t).expect("generated contract"), cfg)
        }
        (ModelKind::Bsm, _) => {
            bsm::fast::price_american_put(&BsmModel::new(p, t).expect("generated contract"), cfg)
        }
    }
}

/// The Θ(T²) reference nest for `request`, single-threaded: the oracle the
/// output checks compare the fast routes with.
pub fn price_naive(request: &PricingRequest) -> f64 {
    let (p, t) = (request.params, request.steps);
    let american = ExerciseStyle::American;
    match request.model {
        ModelKind::Bopm => bopm::naive::price(
            &BopmModel::new(p, t).expect("generated contract"),
            request.option_type,
            american,
            bopm::naive::ExecMode::Serial,
        ),
        ModelKind::Topm => topm::naive::price(
            &TopmModel::new(p, t).expect("generated contract"),
            request.option_type,
            american,
            topm::naive::ExecMode::Serial,
        ),
        ModelKind::Bsm => bsm::naive::price_american_put(
            &BsmModel::new(p, t).expect("generated contract"),
            bsm::naive::ExecMode::Serial,
        ),
    }
}

/// Tolerance of fast route against naive nest, as `tests/cross_model.rs`
/// asserts it (relative, with a floor of one currency unit so deep
/// out-of-the-money premiums are not held to 1e-9 of almost nothing).
pub const NEST_REL_TOL: f64 = 1e-9;

/// The run's figure for one per-window number: its quartile on the
/// **favourable** side (third quartile of throughputs, first of
/// latencies).  Interference from the machine's other tenants only ever
/// slows a window down, so the favourable quartile says what the product
/// did when left alone and repeats better than the median does; a
/// regression in the product slows every window and moves it all the same.
pub fn favourable(values: &[f64], higher_is_better: bool) -> f64 {
    let (q1, q3) = crate::stats::quartiles(values);
    if higher_is_better {
        q3
    } else {
        q1
    }
}

impl Measured {
    fn column(&self, pick: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.windows.iter().map(pick).collect()
    }

    pub fn options_per_s(&self) -> f64 {
        favourable(&self.column(|w| w.options_per_s), true)
    }

    pub fn p50_us(&self) -> f64 {
        favourable(&self.column(|w| w.p50_us), false)
    }

    pub fn p99_us(&self) -> f64 {
        favourable(&self.column(|w| w.p99_us), false)
    }

    pub fn cpu_us_per_option(&self) -> f64 {
        self.cpu_s * 1e6 / self.answered.max(1) as f64
    }

    /// Restates every window at the reference speed: a window timed while
    /// the machine ran `f` times slower than the reference delivered `f`
    /// times the throughput, in `1/f` of the time, that it was seen to.
    /// The figures as timed, and the slowdown over the whole region, stay
    /// in `detail`.  `cpu_bound: false` only notes the slowdown.
    pub fn at_reference_speed(&mut self, log: &SpeedLog, cpu_bound: bool) {
        self.detail.push(("machine_slowdown".to_string(), log.mean_slowdown(), "ratio"));
        if !cpu_bound {
            return;
        }
        self.detail.push(("options_per_s_as_timed".to_string(), self.options_per_s(), "1/s"));
        self.detail.push(("p50_us_as_timed".to_string(), self.p50_us(), "us"));
        for w in &mut self.windows {
            let slowdown = log.slowdown(w.from, w.to);
            w.options_per_s *= slowdown;
            w.p50_us /= slowdown;
            w.p99_us /= slowdown;
        }
    }
}

/// Wall and CPU seconds of a timed region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Region {
    pub elapsed_s: f64,
    pub cpu_s: f64,
}

impl Region {
    /// Runs `f` and returns its result with the wall and CPU time it took.
    pub fn time<R>(f: impl FnOnce() -> R) -> (R, Region) {
        let (start, cpu) = (Instant::now(), crate::sys::cpu_seconds());
        let out = f();
        (
            out,
            Region {
                elapsed_s: start.elapsed().as_secs_f64(),
                cpu_s: crate::sys::cpu_seconds() - cpu,
            },
        )
    }
}

/// Runs `op` until `seconds` have passed (at least once), returning when
/// the first call began, each call's duration in seconds, and the region's
/// wall and CPU time.
pub fn repeat_for(seconds: f64, mut op: impl FnMut(usize)) -> (Instant, Vec<f64>, Region) {
    let start = Instant::now();
    let (durations, region) = Region::time(|| {
        let mut durations = Vec::new();
        while durations.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            op(durations.len());
            durations.push(t.elapsed().as_secs_f64());
        }
        durations
    });
    (start, durations, region)
}

/// Totals over one-thread direct pricer calls: wall time, the product's
/// kernel phase counters (zero unless built `traced`) and allocations.
#[derive(Debug, Default, Clone)]
pub struct EngineTally {
    pub prices: u64,
    pub wall_ns: u64,
    pub phases: [KernelPhaseStats; KERNEL_PHASE_COUNT],
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl EngineTally {
    /// Prices `request` directly, adds the call to the totals and returns
    /// `(price, wall ns, phase deltas)`.  Call it under
    /// `run_with_threads(1, ..)`: the phase counters are wall time only on
    /// one thread.
    pub fn price(
        &mut self,
        request: &PricingRequest,
        cfg: &EngineConfig,
    ) -> (f64, u64, [KernelPhaseStats; KERNEL_PHASE_COUNT]) {
        let before = kernel::snapshot();
        let t = Instant::now();
        let (price, allocs, bytes) = crate::alloc::counted(|| price_direct(request, cfg));
        let ns = t.elapsed().as_nanos() as u64;
        let after = kernel::snapshot();
        let delta: [KernelPhaseStats; KERNEL_PHASE_COUNT] =
            std::array::from_fn(|i| KernelPhaseStats {
                calls: after[i].calls - before[i].calls,
                nanos: after[i].nanos - before[i].nanos,
            });
        self.prices += 1;
        self.wall_ns += ns;
        self.allocs += allocs;
        self.alloc_bytes += bytes;
        for (total, d) in self.phases.iter_mut().zip(&delta) {
            total.calls += d.calls;
            total.nanos += d.nanos;
        }
        (price, ns, delta)
    }

    /// Writes the engine layer's phase and allocation numbers.
    pub fn report(&self, ledger: &mut Ledger) {
        if self.prices == 0 {
            return;
        }
        let n = self.prices as f64;
        for (phase, stats) in kernel::KERNEL_PHASES.iter().zip(&self.phases) {
            let name = phase.name();
            ledger.set(
                &format!("engine.phase_share.{name}"),
                stats.nanos as f64 / self.wall_ns.max(1) as f64,
            );
            ledger.set(&format!("engine.phase_calls_per_price.{name}"), stats.calls as f64 / n);
        }
        ledger.set("engine.allocs_per_price", self.allocs as f64 / n);
        ledger.set("engine.alloc_kb_per_price", self.alloc_bytes as f64 / 1024.0 / n);
    }
}

/// Replays `requests` as `engine.price` spans under `parent`: one direct,
/// one-thread pricer call each, in order.
pub fn replay_engine(
    tracer: &mut Tracer,
    tally: &mut EngineTally,
    parent: u32,
    iter: u64,
    requests: &[PricingRequest],
    cfg: &EngineConfig,
) {
    amopt_parallel::run_with_threads(1, || {
        for request in requests {
            let (id, (_, _, phases)) =
                tracer.span(Some(parent), iter, "engine", "price", true, || {
                    tally.price(request, cfg)
                });
            tracer.attr(id, "steps", request.steps as f64);
            for (phase, stats) in kernel::KERNEL_PHASES.iter().zip(&phases) {
                tracer.attr(id, phase_attr(phase.name()), stats.nanos as f64);
            }
        }
    });
}

fn phase_attr(name: &str) -> &'static str {
    match name {
        "fft_pass" => "fft_pass_ns",
        "boundary_window" => "boundary_window_ns",
        _ => "base_case_ns",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_count_windows_time_each_group_from_the_end_of_the_one_before() {
        // 16 operations of one option each, ending every 100 ns from 1 000,
        // given out of order; the last two take longer to come.
        let mut ops: Vec<(u64, (Option<f64>, u64))> = (0..16u64)
            .map(|i| (1_000 + 100 * i + if i >= 14 { 400 } else { 0 }, (Some(10.0 + i as f64), 1)))
            .collect();
        ops.reverse();
        let origin = Instant::now();
        let windows = Window::equal_counts(&ops, 900, origin);
        assert_eq!(windows.len(), WINDOWS);
        // Two operations per window: 2 options in 200 ns, the last window in 600.
        assert!((windows[0].options_per_s - 2.0 / 200e-9).abs() < 1.0);
        assert!((windows[3].options_per_s - 2.0 / 200e-9).abs() < 1.0);
        assert!((windows[7].options_per_s - 2.0 / 600e-9).abs() < 1.0);
        assert_eq!((windows[0].p50_us, windows[0].p99_us), (10.0, 11.0));
        let after = |ns: u64| origin + Duration::from_nanos(ns);
        assert_eq!((windows[0].from, windows[0].to), (after(900), after(1_100)));
        assert_eq!((windows[7].from, windows[7].to), (after(2_300), after(2_900)));
        // An operation without a duration counts, but not in the percentiles.
        let mixed = [(100, (None, 3)), (200, (Some(7.0), 1))];
        let w = Window::equal_counts(&mixed, 0, origin);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].options_per_s, w[0].p50_us), (3.0 / 100e-9, 0.0));
        assert_eq!(w[1].p50_us, 7.0);
        assert!(Window::equal_counts(&[], 0, origin).is_empty());
    }

    #[test]
    fn windows_are_restated_at_the_reference_speed_one_by_one() {
        use crate::speed::{SpeedLog, REFERENCE_US};
        // Two one-second operations; the machine ran the second at 1.25x
        // the reference kernel time, and the second took 1.25x as long.
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let log = SpeedLog {
            cores: vec![vec![(at(500), REFERENCE_US), (at(1_500), 1.25 * REFERENCE_US)]],
        };
        let timed = || Measured {
            windows: Window::per_operation(100, origin, &[1.0, 1.25]),
            ..Measured::default()
        };
        let mut corrected = timed();
        corrected.at_reference_speed(&log, true);
        for w in &corrected.windows {
            assert!((w.options_per_s - 100.0).abs() < 1e-9 && (w.p50_us - 1e6).abs() < 1e-3);
        }
        let kept: Vec<&str> = corrected.detail.iter().map(|d| d.0.as_str()).collect();
        assert_eq!(kept, ["machine_slowdown", "options_per_s_as_timed", "p50_us_as_timed"]);
        assert!((corrected.detail[0].1 - 1.125).abs() < 1e-12);
        // A workload that waits on timers is left as timed.
        let mut left = timed();
        left.at_reference_speed(&log, false);
        assert_eq!(left.windows, timed().windows);
        assert_eq!(left.detail.len(), 1);
    }

    #[test]
    fn the_favourable_quartile_ignores_a_stalled_window() {
        let quiet = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0];
        let mut stalled = quiet;
        stalled[3] = 900.0;
        assert_eq!(favourable(&quiet, false), favourable(&stalled, false));
        assert!(favourable(&quiet, true) > favourable(&quiet, false));
        let origin = Instant::now();
        let per_op = Window::per_operation(4, origin, &[2.0, 1.0]);
        assert_eq!((per_op[0].options_per_s, per_op[1].p50_us), (2.0, 1e6));
        assert_eq!((per_op[0].from, per_op[1].from), (origin, origin + Duration::from_secs(2)));
        assert_eq!(per_op[1].to, origin + Duration::from_secs(3));
    }
}
