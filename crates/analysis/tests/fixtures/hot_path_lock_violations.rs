//! Fixture: a process-wide scratch checkout, a memo probe and a ticket poll,
//! each taking a lock inside a hot-path region (the poll through the
//! `lock_unpoisoned` helper).  Expected: 4 `hot-path-lock` findings, no
//! marker errors.

use std::sync::Mutex;

pub struct Memo {
    shards: Vec<Mutex<Vec<f64>>>,
}

impl Memo {
    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, Vec<f64>> {
        self.shards[shard].lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn probe(&self, shard: usize) -> Option<f64> {
        // amopt-lint: hot-path
        self.lock(shard).first().copied()
    }
}

pub fn with_scratch<R>(pool: &Mutex<Vec<Vec<f64>>>, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    // amopt-lint: hot-path
    let mut scratch = pool.lock().unwrap().pop().unwrap_or_default();
    let out = f(&mut scratch);
    pool.lock().unwrap().push(scratch);
    out
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub fn try_take(slot: &Mutex<Option<f64>>) -> Option<f64> {
    // amopt-lint: hot-path
    lock_unpoisoned(slot).take()
}
