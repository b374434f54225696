//! A warm kernel-power correlation allocates once: the output row it
//! returns.  Its table is kept by the `KernelPowers`, its transform buffer
//! by the `FftScratch`, and the output is sized once, so nothing else may
//! reach the allocator.  The count is the process's, so this binary holds
//! this one test (run it with `--test-threads=1`).

use amopt_fft::{FftScratch, KernelPowers};
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

#[test]
fn a_warm_correlation_allocates_only_its_output() {
    // A two-tap lattice kernel: a row a deep pricing's leaves correlate,
    // the benchmark's 4 096-cell probe, whose output is 3 072 cells, and
    // that row with a quarter of its cells stored and the rest exact zeros.
    let kernel = [0.49, 0.5];
    let powers = KernelPowers::new();
    let mut scratch = FftScratch::default();
    for (len, stored, h) in [(112usize, 112, 64u64), (4096, 4096, 1024), (4096, 1024, 1024)] {
        let x: Vec<f64> = (0..stored).map(|i| ((i * 7919) % 1000) as f64 / 1000.0).collect();
        // The first call builds the table and grows the scratch.
        let cold = powers.correlate(&x, len, &kernel, h, &mut scratch, 0);
        let before = counting::CALLS.load(Ordering::Relaxed);
        let warm = powers.correlate(&x, len, &kernel, h, &mut scratch, 0);
        let allocs = counting::CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(allocs, 1, "len {len}, h {h}: a warm correlation allocated {allocs} times");
        assert_eq!(warm.len(), len - h as usize);
        assert_eq!(warm.capacity(), warm.len(), "len {len}, h {h}: the output was not sized once");
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&warm), bits(&cold), "len {len}, h {h}");
    }
}
