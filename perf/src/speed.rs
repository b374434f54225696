//! How fast the machine ran while a region was being timed.
//!
//! The machine this benchmark was defined on is a small VM on a shared
//! host.  Its cores change clock with the host's load — a fixed,
//! register-and-L1-only loop takes one of a few discrete times, the slowest
//! 1.27× the fastest — and stay at a level for two to twenty seconds at a
//! time, so two runs of the same code differ by whichever levels they
//! happened to meet.  Nothing inside the VM can avoid that, but it can be
//! measured: [`Speedometer`] threads, one pinned to each core, time the same
//! small kernel every [`PERIOD`] for as long as the region lasts, and the region's throughputs
//! and latencies are then restated at the **reference speed** — the speed at
//! which that kernel takes [`REFERENCE_US`].  A timing taken while the
//! kernel needed 1.2× its reference time is divided by 1.2.
//!
//! The kernel and `REFERENCE_US` are constants of the benchmark: changing
//! either re-bases every speed-corrected number, so a change that does so
//! measures its parent again.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time of one [`chunk`] at the reference speed, microseconds: about what
/// it takes on the defining machine at the clock it runs at most often.
pub const REFERENCE_US: f64 = 60.0;

/// How often each core's reading is taken.  Three chunks every 20 ms are
/// under 1 % of the core.
pub const PERIOD: Duration = Duration::from_millis(20);

const LANES: usize = 512;
const PASSES: usize = 640;

/// The reference kernel: butterfly passes over 4 KiB of `f64`, wide enough
/// for the compiler to vectorise and for a busy sibling hardware thread to
/// slow it, as both do to the pricers' own inner loops.  The values stay
/// bounded (each pass halves sums and differences and adds a constant).
fn chunk(lanes: &mut [f64; LANES]) -> f64 {
    let mut carry = 0.0;
    for _ in 0..PASSES {
        let (lo, hi) = lanes.split_at_mut(LANES / 2);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = (x + y) * 0.5 + 0.25;
            *b = (x - y) * 0.5 + 0.125;
        }
        carry += lo[17] + hi[3];
    }
    carry
}

/// One reading: the fastest of `chunks` runs of the kernel, microseconds,
/// so an interrupt or a preemption inside one of them does not count.
pub fn reading(chunks: usize) -> f64 {
    let mut lanes = [1.0f64; LANES];
    let mut best = f64::MAX;
    for _ in 0..chunks.max(1) {
        let t = Instant::now();
        std::hint::black_box(chunk(std::hint::black_box(&mut lanes)));
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// A reading as a multiple of the reference time: above 1 on a machine (or
/// at a moment) slower than the reference.
pub fn slowdown_now() -> f64 {
    reading(5) / REFERENCE_US
}

/// Readings taken over a region, one list per core sampled:
/// `(when, kernel time in us)`, each list in time order.
#[derive(Debug, Clone, Default)]
pub struct SpeedLog {
    pub cores: Vec<Vec<(Instant, f64)>>,
}

/// One core's mean kernel time over `from..=to`; an interval that holds no
/// reading takes the reading nearest to it.
fn core_mean(readings: &[(Instant, f64)], from: Instant, to: Instant) -> Option<f64> {
    let inside: Vec<f64> =
        readings.iter().filter(|r| r.0 >= from && r.0 <= to).map(|r| r.1).collect();
    if !inside.is_empty() {
        return Some(inside.iter().sum::<f64>() / inside.len() as f64);
    }
    let distance =
        |at: Instant| at.saturating_duration_since(to).max(from.saturating_duration_since(at));
    readings.iter().min_by_key(|r| distance(r.0)).map(|r| r.1)
}

impl SpeedLog {
    /// Mean kernel time over `from..=to`, averaged over the cores, ÷
    /// [`REFERENCE_US`].  A log without readings says 1.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let means: Vec<f64> = self.cores.iter().filter_map(|c| core_mean(c, from, to)).collect();
        if means.is_empty() {
            return 1.0;
        }
        means.iter().sum::<f64>() / means.len() as f64 / REFERENCE_US
    }

    /// [`slowdown`](Self::slowdown) over the whole log.
    pub fn mean_slowdown(&self) -> f64 {
        let all = || self.cores.iter().flatten().map(|r| r.0);
        match (all().min(), all().max()) {
            (Some(first), Some(last)) => self.slowdown(first, last),
            _ => 1.0,
        }
    }
}

/// The cores of one VM keep clocks of their own, so each core this process
/// may run on gets a reader thread pinned to it.  (Linux calls, like the
/// rest of the package.)
mod affinity {
    // `std` links the C library these come from.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    const WORDS: usize = 16;

    /// The cores the calling thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: the mask is WORDS * 8 writable bytes, as the size says.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
    }

    /// Pins the calling thread to `cpu`; `false` if the kernel refuses.
    pub fn pin(cpu: usize) -> bool {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the mask is WORDS * 8 readable bytes, as the size says.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }
}

/// At most this many cores are sampled.
const MAX_READERS: usize = 16;

/// The threads that take the readings.
pub struct Speedometer {
    stop: Arc<AtomicBool>,
    readers: Vec<JoinHandle<Vec<(Instant, f64)>>>,
}

impl Speedometer {
    /// Starts one reader per core this process may run on (one unpinned
    /// reader where cores cannot be told apart).
    fn start() -> Speedometer {
        let stop = Arc::new(AtomicBool::new(false));
        let mut cores: Vec<Option<usize>> =
            affinity::allowed().into_iter().take(MAX_READERS).map(Some).collect();
        if cores.is_empty() {
            cores.push(None);
        }
        let readers = cores
            .into_iter()
            .map(|core| {
                let stopped = stop.clone();
                std::thread::spawn(move || {
                    if let Some(cpu) = core {
                        affinity::pin(cpu);
                    }
                    let mut readings = Vec::new();
                    while !stopped.load(Ordering::Relaxed) {
                        readings.push((Instant::now(), reading(3)));
                        std::thread::sleep(PERIOD);
                    }
                    readings
                })
            })
            .collect();
        Speedometer { stop, readers }
    }

    /// Stops the readers, waits for them, and returns what they read.
    fn stop(self) -> SpeedLog {
        self.stop.store(true, Ordering::Relaxed);
        SpeedLog {
            cores: self
                .readers
                .into_iter()
                .map(|r| r.join().expect("a speedometer thread panicked"))
                .collect(),
        }
    }

    /// Runs `f` with a speedometer beside it.
    pub fn during<R>(f: impl FnOnce() -> R) -> (R, SpeedLog) {
        let meter = Speedometer::start();
        let out = f();
        (out, meter.stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_interval_reads_the_mean_of_its_readings_or_the_nearest_one() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let log = SpeedLog {
            cores: vec![vec![
                (at(0), REFERENCE_US),
                (at(20), 1.2 * REFERENCE_US),
                (at(40), 1.4 * REFERENCE_US),
                (at(60), REFERENCE_US),
            ]],
        };
        assert!((log.slowdown(at(10), at(50)) - 1.3).abs() < 1e-12);
        assert!((log.slowdown(at(20), at(20)) - 1.2).abs() < 1e-12);
        // Nothing inside 41..59: the nearest reading is the one at 40 or 60.
        assert!((log.slowdown(at(41), at(45)) - 1.4).abs() < 1e-12);
        assert!((log.slowdown(at(55), at(59)) - 1.0).abs() < 1e-12);
        assert!((log.slowdown(at(90), at(99)) - 1.0).abs() < 1e-12);
        assert!((log.mean_slowdown() - 1.15).abs() < 1e-12);
        assert_eq!(SpeedLog::default().slowdown(at(0), at(9)), 1.0);
        assert_eq!(SpeedLog::default().mean_slowdown(), 1.0);
        // A second core that ran at 1.5 throughout: the cores are averaged.
        let two = SpeedLog { cores: vec![log.cores[0].clone(), vec![(at(5), 1.5 * REFERENCE_US)]] };
        assert!((two.slowdown(at(10), at(50)) - 1.4).abs() < 1e-12);
        assert!((two.mean_slowdown() - 1.325).abs() < 1e-12);
    }

    #[test]
    fn the_speedometer_reads_while_the_region_runs_and_stops_with_it() {
        let ((), log) = Speedometer::during(|| std::thread::sleep(Duration::from_millis(150)));
        assert!(!log.cores.is_empty() && log.cores.len() <= MAX_READERS);
        for readings in &log.cores {
            assert!(readings.len() >= 3, "{} readings in 150 ms", readings.len());
            assert!(readings.windows(2).all(|w| w[0].0 <= w[1].0));
            // The kernel does real work: nowhere near zero, nowhere near a period.
            assert!(readings.iter().all(|r| r.1 > 1.0 && r.1 < 20_000.0), "{readings:?}");
        }
        assert!(slowdown_now() > 0.0);
    }
}
