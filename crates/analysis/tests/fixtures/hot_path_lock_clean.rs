//! Fixture: locks outside hot regions, a per-thread free list inside one, an
//! allowed once-per-batch lock, other names, and test code are all exempt.
//! Expected: no findings, no unused allows.

use std::cell::RefCell;
use std::sync::Mutex;

thread_local! {
    static FREE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

pub fn cold(m: &Mutex<u64>) -> u64 {
    *m.lock().unwrap()
}

pub fn with_scratch<R>(f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    // amopt-lint: hot-path
    let mut scratch = FREE.with_borrow_mut(Vec::pop).unwrap_or_default();
    let out = f(&mut scratch);
    FREE.with_borrow_mut(|free| free.push(scratch));
    out
}

pub fn publish(memo: &Mutex<Vec<f64>>, prices: &[f64]) {
    // amopt-lint: hot-path
    // amopt-lint: allow(hot-path-lock) -- one lock per batch, not per advance
    memo.lock().unwrap().extend_from_slice(prices);
}

// Other names take no lock: a binding, `try_lock`, another free function.
pub fn other_names(m: &Mutex<u64>) -> bool {
    // amopt-lint: hot-path
    let lock = is_free(m);
    lock && m.try_lock().is_ok()
}

fn is_free(m: &Mutex<u64>) -> bool {
    m.try_lock().is_ok()
}

#[cfg(test)]
mod tests {
    // amopt-lint: hot-path
    fn read(m: &std::sync::Mutex<u8>) -> u8 {
        *m.lock().unwrap()
    }
}
