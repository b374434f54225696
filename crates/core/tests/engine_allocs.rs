//! A warm pricing's allocations, counted exactly.  The engine recurses on
//! rows it borrows, correlates a row's stored cells as they are and stitches
//! each level into the capacity its window's row was allocated with, so what
//! is left per pricing is the output row of every base case and correlation,
//! the multiplier tables and node table the pricing owns, and its boundary
//! samples.  A clone, a staged copy or a regrown stitch adds to the count.
//! The count is the process's, so this binary holds this one test (run it
//! with `--test-threads=1`); one pool thread keeps it deterministic.

use amopt_core::bopm::BopmModel;
use amopt_core::bsm::{self, BsmModel};
use amopt_core::lattice::fast;
use amopt_core::topm::TopmModel;
use amopt_core::{EngineConfig, OptionParams};
use std::sync::atomic::Ordering;

mod counting {
    // amopt-lint: allow-scope(unsafe-confined) -- a global allocator is an unsafe trait impl; every method forwards to `System` unchanged
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Allocation calls so far: `alloc`, `alloc_zeroed` and `realloc`.
    pub static CALLS: AtomicU64 = AtomicU64::new(0);

    /// The system allocator plus a relaxed count of its allocating calls.
    pub struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter publishes no
    // other data, so relaxed ordering is enough.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the caller's obligations for `alloc` are passed through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator with
            // the same layout.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Allocation calls of one run of `price` after a first run has warmed the
/// plan cache and the worker's scratch.
fn warm_allocs(price: &dyn Fn() -> f64) -> u64 {
    let cold = price();
    let before = counting::CALLS.load(Ordering::Relaxed);
    let warm = price();
    let allocs = counting::CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(warm.to_bits(), cold.to_bits(), "a warm pricing moved a bit");
    allocs
}

#[test]
fn a_warm_pricing_allocates_a_pinned_number_of_times() {
    let params = OptionParams::paper_defaults();
    // Route, steps, allocation calls of one warm pricing on one thread.
    let pins = [
        ("bopm_put", 252usize, 39u64),
        ("topm_call", 252, 40),
        ("bsm_put", 252, 43),
        ("bopm_put", 4096, 337),
        ("topm_call", 4096, 389),
        ("bsm_put", 4096, 418),
    ];
    let mut got = Vec::new();
    for (route, steps, _) in pins {
        let allocs = amopt_parallel::run_with_threads(1, || match route {
            "bopm_put" => {
                let model = BopmModel::new(params, steps).unwrap();
                warm_allocs(&|| fast::price_american_put(&model))
            }
            "topm_call" => {
                let model = TopmModel::new(params, steps).unwrap();
                warm_allocs(&|| fast::price_american_call(&model))
            }
            _ => {
                let dividend_free = OptionParams { dividend_yield: 0.0, ..params };
                let model = BsmModel::new(dividend_free, steps).unwrap();
                let config = EngineConfig::default();
                warm_allocs(&|| bsm::fast::price_american_put(&model, &config))
            }
        });
        got.push((route, steps, allocs));
    }
    assert_eq!(got, pins, "warm allocation calls per pricing");
}
