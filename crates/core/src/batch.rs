//! Batch pricing subsystem: one entry point for heterogeneous books of
//! options.
//!
//! The paper's `O(T log² T)` pricers make a *single* repricing cheap; at
//! portfolio scale the bottleneck moves to orchestration — callers
//! hand-picking model modules, allocating buffers per contract, and looping
//! sequentially.  This module owns that orchestration:
//!
//! * [`PricingRequest`] names any contract the workspace can price — model
//!   ([`ModelKind`]) × call/put × exercise [`Style`] × parameters × steps —
//!   in one plain-data value;
//! * [`BatchPricer::price_batch`] prices a request slice in parallel over
//!   the `amopt-parallel` fork-join pool; every routed pricer is one of the
//!   fast `O(T log² T)` trapezoid engines (American puts included, via the
//!   left-cone engine), which draw per-worker scratch (FFT buffers, staging
//!   rows) from `amopt-stencil`'s process-wide `WorkspacePool` — so the hot
//!   loop is allocation-light after warm-up;
//! * identical requests inside a batch are **deduplicated** (priced once,
//!   scattered to every duplicate), and results are **memoized** across
//!   batches in an LRU keyed on quantized parameters — a market tick that
//!   leaves most of the book unchanged reprices only what moved;
//! * the memo is **sharded** by key hash ([`DEFAULT_MEMO_SHARDS`] shards,
//!   one lock each): probes take only their shard's lock and the probe
//!   phase itself runs in parallel across shards, so the cache scales past
//!   one core instead of serialising every batch behind a single mutex;
//! * every request gets its own `Result`: one invalid contract never poisons
//!   the rest of the batch.
//!
//! A batch of one is *bitwise identical* to calling the underlying pricer
//! directly — the dispatcher adds routing, never arithmetic.
//!
//! Derived quantities route through the same machinery: [`greeks`] expresses
//! finite-difference bump ladders as batch requests and [`surface`] inverts
//! whole implied-volatility surfaces with one batch per bracketing round.
//!
//! ```
//! use amopt_core::batch::{BatchPricer, ModelKind, PricingRequest};
//! use amopt_core::{EngineConfig, OptionParams, OptionType};
//!
//! let pricer = BatchPricer::new(EngineConfig::default());
//! let base = OptionParams::paper_defaults();
//! let book: Vec<PricingRequest> = (0..8)
//!     .map(|i| OptionParams { strike: 100.0 + 5.0 * i as f64, ..base })
//!     .map(|p| PricingRequest::american(ModelKind::Bopm, OptionType::Call, p, 512))
//!     .collect();
//! let prices = pricer.price_batch(&book);
//! assert!(prices.iter().all(|p| p.is_ok()));
//! ```

pub mod greeks;
pub mod surface;

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::bermudan;
use crate::bopm::{self, BopmModel};
use crate::bsm::{self, BsmModel};
use crate::engine::EngineConfig;
use crate::error::{PricingError, Result};
use crate::params::{OptionParams, OptionType};
use crate::topm::{self, TopmModel};

/// Which discretisation family prices the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Binomial lattice (§2 of the paper).
    Bopm,
    /// Trinomial lattice (§3 / App. A).
    Topm,
    /// Black–Scholes–Merton explicit finite difference (§4); put only,
    /// dividend-free.
    Bsm,
}

/// Exercise rights of a batch request.
///
/// Extends the facade's two-valued [`ExerciseStyle`](crate::params::ExerciseStyle)
/// with the Bermudan schedule, which needs its exercise dates alongside.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Style {
    /// Exercisable only at expiry.
    European,
    /// Exercisable at any time up to expiry.
    American,
    /// Exercisable only at the given lattice steps (market steps in
    /// `(0, T]`; duplicates and ordering are normalised away).
    Bermudan(Vec<usize>),
}

impl Style {
    fn name(&self) -> &'static str {
        match self {
            Style::European => "European",
            Style::American => "American",
            Style::Bermudan(_) => "Bermudan",
        }
    }
}

/// One contract to price: the full model × type × style × parameters cross
/// product in a plain-data value.
///
/// Combinations without a pricer in this crate (Bermudan other than the BOPM
/// put, any call under the BSM grid) come back as
/// [`PricingError::Unsupported`] — per request, so they never poison a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingRequest {
    /// Discretisation family.
    pub model: ModelKind,
    /// Call or put.
    pub option_type: OptionType,
    /// Exercise rights.
    pub style: Style,
    /// Market/contract parameters.
    pub params: OptionParams,
    /// Lattice/grid time steps `T`.
    pub steps: usize,
}

impl PricingRequest {
    /// An American-exercise request.
    pub fn american(
        model: ModelKind,
        option_type: OptionType,
        params: OptionParams,
        steps: usize,
    ) -> Self {
        PricingRequest { model, option_type, style: Style::American, params, steps }
    }

    /// A European-exercise request.
    pub fn european(
        model: ModelKind,
        option_type: OptionType,
        params: OptionParams,
        steps: usize,
    ) -> Self {
        PricingRequest { model, option_type, style: Style::European, params, steps }
    }

    /// A Bermudan put under the binomial lattice (the one Bermudan pricer in
    /// the workspace), exercisable at `exercise_steps`.
    pub fn bermudan_put(params: OptionParams, steps: usize, exercise_steps: Vec<usize>) -> Self {
        PricingRequest {
            model: ModelKind::Bopm,
            option_type: OptionType::Put,
            style: Style::Bermudan(exercise_steps),
            params,
            steps,
        }
    }
}

/// Absolute quantisation grid for memo keys: parameters equal to within
/// `1e-9` share a cache entry.  At that spacing the price difference is far
/// below every pricer's own discretisation error, while honest parameter
/// changes (a strike ladder, a vol bump) always land on distinct keys.
const QUANT: f64 = 1e9;

/// Finer grid for the **volatility** field (cells of `1e-13`).
///
/// Volatility is the one dimension a root-finder sweeps: the implied-vol
/// surface driver ([`surface`]) accepts a probe only when its price residual
/// drops below `1e-10`, which at typical vegas requires resolving vols a few
/// `1e-12` apart.  Under the coarse `1e-9` grid those probes alias onto one
/// memo cell, so the cache would keep answering with a neighbouring probe's
/// price and the inversion could never converge.  `1e-13` keeps distinct
/// probes distinct while still folding float-representation noise (relative
/// `1e-16` on vols ≤ 5) onto one key.
const QUANT_VOL: f64 = 1e13;

/// A quantized parameter: grid cells for the magnitudes the grid can
/// represent exactly, raw bit identity for everything else.  The two
/// variants never compare equal, so a saturating cast can't silently
/// collide a huge spot with a moderate one (or NaN with a tiny rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Quantized {
    Grid(i64),
    Bits(u64),
}

fn quantize_on(x: f64, grid: f64) -> Quantized {
    let scaled = x * grid;
    // i64 holds ±9.2e18, so any |scaled| comfortably inside that range
    // round-trips through the cast without saturating.
    let cell = scaled.round();
    // amopt-lint: allow(float-eq) -- exact zeros: a nonzero value that rounds to cell 0 must not share exact 0.0's key
    if scaled.is_finite() && scaled.abs() < 9.0e18 && (cell != 0.0 || x == 0.0) {
        Quantized::Grid(cell as i64)
    } else {
        // Off-grid magnitudes (too large, or nonzero yet below half a cell,
        // where validity itself can differ: a subnormal spot is an error),
        // infinities, NaN: exact bit identity — no noise folding out there,
        // but no cross-request collisions either.
        Quantized::Bits(x.to_bits())
    }
}

fn quantize(x: f64) -> Quantized {
    quantize_on(x, QUANT)
}

/// Normalised identity of a request: model/type/style tag, steps, quantized
/// parameters, whether the exact parameters build a lattice, and the
/// sorted-deduped Bermudan schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    model: ModelKind,
    option_type: OptionType,
    style_tag: u8,
    steps: usize,
    quantized: [Quantized; 6],
    /// Whether the request's *exact* parameters build its model's lattice.
    /// Validity is decided on bits, not on the grid: a volatility at the
    /// stability edge prices while its neighbour one ulp below is an error,
    /// and both quantize to one cell.  Keying on the outcome keeps a valid
    /// contract's price from answering its invalid neighbour; errors are
    /// never memoized, so an invalid key always misses.
    builds: bool,
    /// Sorted, deduplicated exercise schedule; empty unless Bermudan.
    dates: Box<[usize]>,
}

/// Whether `req`'s model constructor accepts its exact parameters — the one
/// validity test the quantized fields of a [`MemoKey`] cannot see.
fn lattice_builds(req: &PricingRequest) -> bool {
    match req.model {
        ModelKind::Bopm => BopmModel::new(req.params, req.steps).is_ok(),
        ModelKind::Topm => TopmModel::new(req.params, req.steps).is_ok(),
        ModelKind::Bsm => BsmModel::new(req.params, req.steps).is_ok(),
    }
}

fn make_key(req: &PricingRequest) -> MemoKey {
    let (style_tag, dates) = match &req.style {
        Style::European => (0, Box::default()),
        Style::American => (1, Box::default()),
        Style::Bermudan(steps) => {
            let mut d = steps.clone();
            d.sort_unstable();
            d.dedup();
            (2, d.into_boxed_slice())
        }
    };
    let p = &req.params;
    MemoKey {
        model: req.model,
        option_type: req.option_type,
        style_tag,
        steps: req.steps,
        quantized: [
            quantize(p.spot),
            quantize(p.strike),
            quantize(p.rate),
            quantize_on(p.volatility, QUANT_VOL),
            quantize(p.dividend_yield),
            quantize(p.expiry),
        ],
        builds: lattice_builds(req),
        dates,
    }
}

/// Bounded price memo with least-recently-used eviction.
///
/// Intended for small capacities (hundreds of entries): eviction scans the
/// map for the stalest stamp, `O(capacity)`, which is noise next to a single
/// lattice pricing.
#[derive(Debug)]
struct LruMemo {
    map: HashMap<MemoKey, (u64, f64)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruMemo {
    fn new(capacity: usize) -> Self {
        LruMemo { map: HashMap::new(), capacity, clock: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// A probe that counts a miss: the caller prices what it did not find.
    fn get(&mut self, key: &MemoKey) -> Option<f64> {
        if self.capacity == 0 {
            return None;
        }
        let hit = self.lookup(key);
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// A hit counts and refreshes recency; a miss touches nothing.
    fn lookup(&mut self, key: &MemoKey) -> Option<f64> {
        let entry = self.map.get_mut(key)?;
        self.clock += 1;
        entry.0 = self.clock;
        self.hits += 1;
        Some(entry.1)
    }

    fn insert(&mut self, key: MemoKey, price: f64) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let stalest =
                self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone());
            if let Some(stalest) = stalest {
                self.map.remove(&stalest);
                self.evictions += 1;
            }
        }
        self.clock += 1;
        self.map.insert(key, (self.clock, price));
    }
}

/// Price memo sharded by key hash: each shard is an independent
/// [`LruMemo`] behind its own lock, so concurrent probes for keys in
/// different shards never contend and the eviction scan is bounded by the
/// *per-shard* capacity.
///
/// Shard selection hashes the full [`MemoKey`] with the standard library's
/// default (SipHash) hasher under fixed keys, so a key's shard is
/// deterministic for the lifetime of the process — a prerequisite for the
/// one-lock-per-shard-per-batch probe phase.
#[derive(Debug)]
struct ShardedMemo {
    shards: Box<[Mutex<LruMemo>]>,
    /// `false` when total capacity is 0: the probe and publish phases are
    /// skipped wholesale (no key hashing, no shard fan-out) — memo-less
    /// pricers like the serial greeks facades stay pure dispatch.
    enabled: bool,
}

impl ShardedMemo {
    /// `capacity` is the total across shards; each shard gets
    /// `capacity.div_ceil(shards)` entries, so the effective total rounds up
    /// to a shard multiple (`0` stays `0`: memo disabled).
    fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        ShardedMemo {
            shards: (0..shards).map(|_| Mutex::new(LruMemo::new(per_shard))).collect(),
            enabled: capacity > 0,
        }
    }

    fn shard_of(&self, key: &MemoKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, LruMemo> {
        self.shards[shard].lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Point-in-time memo counters, from [`BatchPricer::memo_stats`],
/// aggregated over every shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Probes answered from the memo.
    pub hits: u64,
    /// Probes that required a fresh pricing.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Effective total capacity, summed over shards (0 = memo disabled).
    pub capacity: usize,
    /// Number of independent memo shards.
    pub shards: usize,
}

/// Default memo capacity: big enough for a few books of distinct contracts,
/// small enough that the per-shard `O(capacity / shards)` eviction scan
/// stays invisible.
pub const DEFAULT_MEMO_CAPACITY: usize = 512;

/// Default shard count for the memo.
///
/// Eight shards keep lock contention negligible up to a few tens of worker
/// threads (probes for distinct keys collide on a lock with probability
/// `1/8`) while the per-batch probe fan-out (one task per shard) stays
/// cheap enough to be harmless on a single core.  Override with
/// [`BatchPricer::with_memo_config`].
pub const DEFAULT_MEMO_SHARDS: usize = 8;

/// Batched pricing engine: dedup → memo probe → parallel price → scatter.
///
/// Cheap to keep alive and share (`&BatchPricer` is `Sync`); the memo and
/// workspace pool amortise across successive [`price_batch`] calls, which is
/// where the subsystem earns its keep on repeated market ticks.
///
/// [`price_batch`]: BatchPricer::price_batch
#[derive(Debug)]
pub struct BatchPricer {
    cfg: EngineConfig,
    memo: ShardedMemo,
}

impl BatchPricer {
    /// A pricer with the default memo capacity and shard count.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_memo_capacity(cfg, DEFAULT_MEMO_CAPACITY)
    }

    /// A pricer whose memo holds roughly `capacity` prices across
    /// [`DEFAULT_MEMO_SHARDS`] shards (`0` disables memoization entirely;
    /// in-batch deduplication still applies).
    ///
    /// Capacity is split evenly across shards, rounding the per-shard share
    /// up, so the effective total is `shards * ceil(capacity / shards)`.
    /// Callers that need exact-capacity (or single-shard, globally-ordered
    /// LRU) semantics should use [`with_memo_config`] with `shards = 1`.
    ///
    /// [`with_memo_config`]: BatchPricer::with_memo_config
    pub fn with_memo_capacity(cfg: EngineConfig, capacity: usize) -> Self {
        Self::with_memo_config(cfg, capacity, DEFAULT_MEMO_SHARDS)
    }

    /// A pricer with explicit memo `capacity` (total, split across shards)
    /// and `shards` (clamped to at least 1).
    ///
    /// More shards reduce lock contention between concurrent probes but
    /// fragment the LRU: eviction order is maintained *per shard*, so a
    /// sharded memo may evict an entry that a single globally-ordered LRU of
    /// the same total capacity would have kept.  Prices are unaffected —
    /// eviction only ever causes recomputation, and every pricer is
    /// deterministic — so results are bitwise identical for any shard count.
    pub fn with_memo_config(cfg: EngineConfig, capacity: usize, shards: usize) -> Self {
        BatchPricer { cfg, memo: ShardedMemo::new(capacity, shards) }
    }

    /// The engine configuration every routed pricer runs under.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Current memo counters, aggregated over every shard.
    pub fn memo_stats(&self) -> MemoStats {
        let mut stats = MemoStats { shards: self.memo.shards.len(), ..MemoStats::default() };
        for shard in 0..self.memo.shards.len() {
            let memo = self.memo.lock(shard);
            stats.hits += memo.hits;
            stats.misses += memo.misses;
            stats.evictions += memo.evictions;
            stats.entries += memo.map.len();
            stats.capacity += memo.capacity;
        }
        stats
    }

    /// Whether the memo currently holds `request`'s key, without touching
    /// LRU recency or the hit/miss counters — an observability probe, not a
    /// lookup.  Always `false` when the memo is disabled.
    pub fn memo_peek(&self, request: &PricingRequest) -> bool {
        if !self.memo.enabled {
            return false;
        }
        let key = make_key(request);
        self.memo.lock(self.memo.shard_of(&key)).map.contains_key(&key)
    }

    /// `request`'s memoized price, if the memo holds its key.  A hit counts
    /// and refreshes LRU recency exactly as a [`price_batch`] probe does; a
    /// miss counts nothing, so the batch that later prices the request
    /// counts its one miss.  Always `None` when the memo is disabled.
    ///
    /// [`price_batch`]: BatchPricer::price_batch
    pub fn memo_lookup(&self, request: &PricingRequest) -> Option<f64> {
        // amopt-lint: hot-path
        if !self.memo.enabled {
            return None;
        }
        let key = make_key(request);
        self.memo.lock(self.memo.shard_of(&key)).lookup(&key)
    }

    /// Drops every memoized price (counters are kept).
    pub fn clear_memo(&self) {
        for shard in 0..self.memo.shards.len() {
            self.memo.lock(shard).map.clear();
        }
    }

    /// Prices a single request through the full batch machinery (dedup is
    /// trivial; the memo still applies).
    pub fn price_one(&self, request: &PricingRequest) -> Result<f64> {
        self.price_batch(std::slice::from_ref(request))
            .pop()
            .expect("one request in, one result out")
    }

    /// Prices every request, in parallel across *unique* requests, returning
    /// one `Result` per input slot (order-preserving).
    ///
    /// Requests that normalise to the same memo key are priced once and
    /// the result is scattered to every duplicate; memoized prices from
    /// earlier batches short-circuit pricing entirely.  Errors (invalid
    /// parameters, unstable discretisations, unsupported combinations) are
    /// confined to their own slots and never cached.
    pub fn price_batch(&self, requests: &[PricingRequest]) -> Vec<Result<f64>> {
        // amopt-lint: hot-path
        // amopt-lint: allow-scope(hot-path-alloc) -- dedup/scatter fan-out buffers are O(batch), amortised across the coalesced batch; per-step pricing work draws on pooled scratch
        // Phase 1 (serial): normalise and deduplicate.  `jobs` keeps the
        // first-occurrence request index alongside the normalised key.
        let mut unique: HashMap<MemoKey, usize> = HashMap::new();
        let mut jobs: Vec<(usize, MemoKey)> = Vec::new();
        let mut assignment = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let key = make_key(req);
            let slot = match unique.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(v) => {
                    let slot = jobs.len();
                    jobs.push((i, v.key().clone()));
                    v.insert(slot);
                    slot
                }
            };
            assignment.push(slot);
        }
        // Phase 2 (parallel): memo probe, sharded by key hash.  Jobs are
        // grouped by shard so each worker takes exactly one shard lock for
        // its whole group — shards never contend with each other, and the
        // groups themselves probe concurrently.  A disabled memo (capacity
        // 0, e.g. the serial greeks facades) skips the hashing and shard
        // fan-out entirely: every probe would be a guaranteed miss.
        let shard_of_job: Vec<usize> = if self.memo.enabled {
            jobs.iter().map(|(_, key)| self.memo.shard_of(key)).collect()
        } else {
            Vec::new()
        };
        let mut slot_results: Vec<Option<Result<f64>>> = vec![None; jobs.len()];
        if self.memo.enabled && jobs.len() <= self.memo.shards.len() {
            // Small batches (greeks ladders, a surface round's convergence
            // tail) probe serially: a lock per job costs less than grouping
            // into shards and forking over mostly-empty buckets.
            for (slot, (_, key)) in jobs.iter().enumerate() {
                slot_results[slot] = self.memo.lock(shard_of_job[slot]).get(key).map(Ok);
            }
        } else if self.memo.enabled {
            let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.memo.shards.len()];
            for (slot, &shard) in shard_of_job.iter().enumerate() {
                by_shard[shard].push(slot);
            }
            let probed: Vec<Vec<(usize, Option<f64>)>> =
                amopt_parallel::parallel_map_slice(&by_shard, 1, |shard, slots| {
                    if slots.is_empty() {
                        return Vec::new();
                    }
                    let mut memo = self.memo.lock(shard);
                    slots.iter().map(|&slot| (slot, memo.get(&jobs[slot].1))).collect()
                });
            for (slot, hit) in probed.into_iter().flatten() {
                slot_results[slot] = hit.map(Ok);
            }
        }
        // Phase 3 (parallel): price what the memo did not know.  Per-worker
        // scratch (FFT buffers, staging rows) lives in `amopt-stencil`'s
        // process-wide pool, which every trapezoid engine checks out of, so
        // this loop allocates only the rows the pricers actually keep.
        let todo: Vec<usize> = (0..jobs.len()).filter(|&s| slot_results[s].is_none()).collect();
        // One unique request per leaf task: a pricing is lattice-sized work.
        let computed = amopt_parallel::parallel_map(todo.len(), 1, |k| {
            let (req_idx, key) = &jobs[todo[k]];
            Some(self.route(&requests[*req_idx], &key.dates))
        });
        // Phase 4 (serial, one lock acquisition per touched shard): publish
        // fresh prices to the memo and the slots.  Errors are never cached;
        // a disabled memo publishes nothing; small batches insert directly
        // (a lock per fresh price) instead of grouping by shard.
        let group_publish = self.memo.enabled && jobs.len() > self.memo.shards.len();
        let mut publish: Vec<Vec<(usize, f64)>> =
            if group_publish { vec![Vec::new(); self.memo.shards.len()] } else { Vec::new() };
        for (slot, res) in todo.into_iter().zip(computed) {
            let res = res.expect("parallel_map fills every slot");
            if let Ok(price) = res {
                if group_publish {
                    publish[shard_of_job[slot]].push((slot, price));
                } else if self.memo.enabled {
                    self.memo.lock(shard_of_job[slot]).insert(jobs[slot].1.clone(), price);
                }
            }
            slot_results[slot] = Some(res);
        }
        for (shard, fresh) in publish.into_iter().enumerate() {
            if fresh.is_empty() {
                continue;
            }
            let mut memo = self.memo.lock(shard);
            for (slot, price) in fresh {
                memo.insert(jobs[slot].1.clone(), price);
            }
        }
        // Phase 5: scatter unique results back to request order.
        assignment
            .into_iter()
            .map(|slot| slot_results[slot].clone().expect("every slot resolved"))
            .collect()
    }

    /// Routes one request to its canonical pricer.  `dates` is the
    /// normalised Bermudan schedule from the request's key (unused
    /// otherwise).  Adds no arithmetic of its own: a batch of one is bitwise
    /// identical to the direct call.
    fn route(&self, req: &PricingRequest, dates: &[usize]) -> Result<f64> {
        // amopt-lint: hot-path
        let unsupported = || {
            Err(PricingError::Unsupported {
                what: format!(
                    "{:?} {:?} with {} exercise has no pricer in this workspace",
                    req.model,
                    req.option_type,
                    req.style.name()
                ),
            })
        };
        match req.model {
            ModelKind::Bopm => {
                let model = BopmModel::new(req.params, req.steps)?;
                match (&req.style, req.option_type) {
                    (Style::American, OptionType::Call) => {
                        Ok(bopm::fast::price_american_call(&model, &self.cfg))
                    }
                    (Style::American, OptionType::Put) => {
                        Ok(bopm::fast::price_american_put(&model, &self.cfg))
                    }
                    (Style::European, opt) => Ok(bopm::european::price_european_fft(&model, opt)),
                    (Style::Bermudan(_), OptionType::Put) => {
                        bermudan::price_bermudan_put_fft(&model, dates)
                    }
                    (Style::Bermudan(_), OptionType::Call) => unsupported(),
                }
            }
            ModelKind::Topm => {
                let model = TopmModel::new(req.params, req.steps)?;
                match (&req.style, req.option_type) {
                    (Style::American, OptionType::Call) => {
                        Ok(topm::fast::price_american_call(&model, &self.cfg))
                    }
                    (Style::American, OptionType::Put) => {
                        Ok(topm::fast::price_american_put(&model, &self.cfg))
                    }
                    (Style::European, opt) => Ok(topm::european::price_european_fft(&model, opt)),
                    (Style::Bermudan(_), _) => unsupported(),
                }
            }
            ModelKind::Bsm => match (&req.style, req.option_type) {
                (Style::American, OptionType::Put) => {
                    let model = BsmModel::new(req.params, req.steps)?;
                    Ok(bsm::fast::price_american_put(&model, &self.cfg))
                }
                (Style::European, OptionType::Put) => {
                    let model = BsmModel::new(req.params, req.steps)?;
                    Ok(bsm::fast::price_european_put_fft(&model))
                }
                (_, OptionType::Call) | (Style::Bermudan(_), _) => unsupported(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pricer() -> BatchPricer {
        BatchPricer::new(EngineConfig::default())
    }

    fn p() -> OptionParams {
        OptionParams::paper_defaults()
    }

    #[test]
    fn every_supported_route_matches_its_direct_pricer_bitwise() {
        let cfg = EngineConfig::default();
        let steps = 200;
        let zero_div = OptionParams { dividend_yield: 0.0, ..p() };
        let cases: Vec<(PricingRequest, f64)> = vec![
            (PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), steps), {
                let m = BopmModel::new(p(), steps).unwrap();
                bopm::fast::price_american_call(&m, &cfg)
            }),
            (PricingRequest::american(ModelKind::Bopm, OptionType::Put, p(), steps), {
                let m = BopmModel::new(p(), steps).unwrap();
                bopm::fast::price_american_put(&m, &cfg)
            }),
            (PricingRequest::european(ModelKind::Bopm, OptionType::Call, p(), steps), {
                let m = BopmModel::new(p(), steps).unwrap();
                bopm::european::price_european_fft(&m, OptionType::Call)
            }),
            (PricingRequest::european(ModelKind::Bopm, OptionType::Put, p(), steps), {
                let m = BopmModel::new(p(), steps).unwrap();
                bopm::european::price_european_fft(&m, OptionType::Put)
            }),
            (PricingRequest::bermudan_put(p(), steps, vec![50, 100, 200]), {
                let m = BopmModel::new(p(), steps).unwrap();
                bermudan::price_bermudan_put_fft(&m, &[50, 100, 200]).unwrap()
            }),
            (PricingRequest::american(ModelKind::Topm, OptionType::Call, p(), steps), {
                let m = TopmModel::new(p(), steps).unwrap();
                topm::fast::price_american_call(&m, &cfg)
            }),
            (PricingRequest::american(ModelKind::Topm, OptionType::Put, p(), steps), {
                let m = TopmModel::new(p(), steps).unwrap();
                topm::fast::price_american_put(&m, &cfg)
            }),
            (PricingRequest::european(ModelKind::Topm, OptionType::Call, p(), steps), {
                let m = TopmModel::new(p(), steps).unwrap();
                topm::european::price_european_fft(&m, OptionType::Call)
            }),
            (PricingRequest::american(ModelKind::Bsm, OptionType::Put, zero_div, steps), {
                let m = BsmModel::new(zero_div, steps).unwrap();
                bsm::fast::price_american_put(&m, &cfg)
            }),
            (PricingRequest::european(ModelKind::Bsm, OptionType::Put, zero_div, steps), {
                let m = BsmModel::new(zero_div, steps).unwrap();
                bsm::fast::price_european_put_fft(&m)
            }),
        ];
        let pricer = pricer();
        let (book, want): (Vec<_>, Vec<_>) = cases.into_iter().unzip();
        let got = pricer.price_batch(&book);
        for ((req, got), want) in book.iter().zip(&got).zip(&want) {
            let got = got.as_ref().unwrap_or_else(|e| panic!("{req:?}: {e}"));
            assert_eq!(got.to_bits(), want.to_bits(), "{req:?}: {got} vs {want}");
        }
    }

    #[test]
    fn unsupported_combinations_error_cleanly() {
        let pricer = pricer();
        let book = vec![
            PricingRequest {
                model: ModelKind::Bopm,
                option_type: OptionType::Call,
                style: Style::Bermudan(vec![10]),
                params: p(),
                steps: 64,
            },
            PricingRequest {
                model: ModelKind::Topm,
                option_type: OptionType::Put,
                style: Style::Bermudan(vec![10]),
                params: p(),
                steps: 64,
            },
            PricingRequest::american(ModelKind::Bsm, OptionType::Call, p(), 64),
            PricingRequest::european(ModelKind::Bsm, OptionType::Call, p(), 64),
        ];
        for res in pricer.price_batch(&book) {
            assert!(matches!(res, Err(PricingError::Unsupported { .. })), "{res:?}");
        }
    }

    #[test]
    fn invalid_request_does_not_poison_the_batch() {
        let pricer = pricer();
        let good = PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), 128);
        let bad_params = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { spot: -1.0, ..p() },
            128,
        );
        let bad_dates = PricingRequest::bermudan_put(p(), 128, vec![0]);
        let out = pricer.price_batch(&[good.clone(), bad_params, bad_dates, good.clone()]);
        assert!(matches!(out[1], Err(PricingError::InvalidParams { field: "spot", .. })));
        assert!(matches!(out[2], Err(PricingError::InvalidParams { .. })));
        let direct = {
            let m = BopmModel::new(p(), 128).unwrap();
            bopm::fast::price_american_call(&m, &EngineConfig::default())
        };
        for idx in [0, 3] {
            assert_eq!(out[idx].as_ref().unwrap().to_bits(), direct.to_bits());
        }
        // Errors are never memoized.
        assert_eq!(pricer.memo_stats().entries, 1);
    }

    #[test]
    fn duplicates_are_priced_once_and_memo_serves_repeat_batches() {
        let pricer = pricer();
        let req = PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), 256);
        let book = vec![req.clone(); 17];
        let first = pricer.price_batch(&book);
        assert!(first
            .iter()
            .all(|r| r.as_ref().unwrap().to_bits() == first[0].as_ref().unwrap().to_bits()));
        let stats = pricer.memo_stats();
        // 17 duplicates collapse to a single probe (miss) and a single entry.
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 0, 1));
        let second = pricer.price_batch(&book);
        assert_eq!(second[0].as_ref().unwrap().to_bits(), first[0].as_ref().unwrap().to_bits());
        let stats = pricer.memo_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn quantization_normalises_float_noise_and_bermudan_schedules() {
        let pricer = pricer();
        let a = PricingRequest::bermudan_put(p(), 128, vec![64, 128, 64]);
        let noisy = OptionParams { spot: p().spot + 1e-12, ..p() };
        let b = PricingRequest::bermudan_put(noisy, 128, vec![128, 64]);
        let out = pricer.price_batch(&[a, b]);
        // One unique job: same normalised schedule, params within the grid.
        assert_eq!(pricer.memo_stats().misses, 1);
        assert_eq!(out[0].as_ref().unwrap().to_bits(), out[1].as_ref().unwrap().to_bits());
    }

    #[test]
    fn the_stability_edge_never_shares_a_price_with_its_unstable_twin() {
        // The smallest volatility whose lattice builds, and the one ulp
        // below it: one grid cell, but only one of them prices.  The
        // closed-form floor is exact only up to rounding in the lattice
        // exponentials, so walk ulps from it to the edge.
        let steps = 64;
        let at = |volatility: f64| {
            PricingRequest::american(
                ModelKind::Bopm,
                OptionType::Put,
                OptionParams { volatility, ..p() },
                steps,
            )
        };
        let builds = |v: f64| BopmModel::new(at(v).params, steps).is_ok();
        let below = |v: f64| f64::from_bits(v.to_bits() - 1);
        let mut v = BopmModel::min_stable_volatility(&p(), steps);
        while !builds(v) {
            v = f64::from_bits(v.to_bits() + 1);
        }
        while builds(below(v)) {
            v = below(v);
        }
        assert_eq!(make_key(&at(v)).quantized, make_key(&at(below(v))).quantized);
        let pricer = pricer();
        // In one batch (dedup), then across batches (the memo).
        let out = pricer.price_batch(&[at(v), at(below(v))]);
        assert!(out[0].is_ok(), "{:?}", out[0]);
        assert!(matches!(out[1], Err(PricingError::UnstableDiscretisation { .. })), "{:?}", out[1]);
        let again = pricer.price_batch(&[at(below(v))]);
        assert!(matches!(again[0], Err(PricingError::UnstableDiscretisation { .. })));
        assert_eq!(pricer.memo_lookup(&at(below(v))), None);
    }

    #[test]
    fn memo_lookup_counts_only_hits_and_refreshes_recency() {
        // Single shard of two: the recency refresh decides which entry the
        // third price evicts.
        let pricer = BatchPricer::with_memo_config(EngineConfig::default(), 2, 1);
        let req = |steps| PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), steps);
        assert_eq!(pricer.memo_lookup(&req(100)), None);
        assert_eq!((pricer.memo_stats().hits, pricer.memo_stats().misses), (0, 0));
        let price = pricer.price_one(&req(100)).unwrap();
        pricer.price_one(&req(101)).unwrap();
        assert_eq!(pricer.memo_lookup(&req(100)).map(f64::to_bits), Some(price.to_bits()));
        pricer.price_one(&req(102)).unwrap(); // evicts 101, not the refreshed 100
        assert!(pricer.memo_lookup(&req(100)).is_some());
        assert_eq!(pricer.memo_lookup(&req(101)), None);
        let stats = pricer.memo_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 3, 1));
    }

    #[test]
    fn off_grid_magnitudes_never_collide() {
        // Both spots are valid but quantize past the grid's i64 range; they
        // must keep distinct keys (bit identity), not saturate onto one.
        let pricer = pricer();
        let big = |spot| {
            PricingRequest::american(
                ModelKind::Bopm,
                OptionType::Call,
                OptionParams { spot, ..p() },
                64,
            )
        };
        let out = pricer.price_batch(&[big(1e10), big(2e10)]);
        assert_eq!(pricer.memo_stats().misses, 2, "distinct spots must not deduplicate");
        let (a, b) = (out[0].as_ref().unwrap(), out[1].as_ref().unwrap());
        assert!((b - a).abs() > 1e9, "deep-ITM prices must differ by ~spot: {a} vs {b}");
        // NaN params key on bit identity too — and never reach the memo.
        let nan = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { rate: f64::NAN, ..p() },
            64,
        );
        let tiny = PricingRequest::american(
            ModelKind::Bopm,
            OptionType::Call,
            OptionParams { rate: 2e-10, ..p() },
            64,
        );
        let out = pricer.price_batch(&[nan, tiny]);
        assert!(matches!(out[0], Err(PricingError::InvalidParams { field: "rate", .. })));
        assert!(out[1].is_ok(), "valid tiny-rate request must not inherit the NaN error");
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        // Single shard: the test pins down *global* LRU ordering, which only
        // a one-shard memo guarantees (sharded eviction is per shard).
        let pricer = BatchPricer::with_memo_config(EngineConfig::default(), 2, 1);
        let req = |steps| PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), steps);
        pricer.price_batch(&[req(100)]);
        pricer.price_batch(&[req(101)]);
        pricer.price_batch(&[req(100)]); // refresh 100 → 101 is now stalest
        pricer.price_batch(&[req(102)]); // evicts 101
        let stats = pricer.memo_stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        pricer.price_batch(&[req(100)]);
        assert_eq!(pricer.memo_stats().hits, 2);
        pricer.price_batch(&[req(101)]); // miss: it was evicted
        assert_eq!(pricer.memo_stats().misses, 4);
    }

    #[test]
    fn memo_capacity_zero_disables_caching() {
        let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
        let req = PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), 64);
        pricer.price_batch(std::slice::from_ref(&req));
        pricer.price_batch(std::slice::from_ref(&req));
        let stats = pricer.memo_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries, stats.capacity), (0, 0, 0, 0));
    }

    #[test]
    fn sharded_memo_matches_single_shard_bitwise_and_splits_capacity() {
        // Same book through a single-shard and a many-shard pricer: prices
        // must be bitwise identical on the cold pass *and* on the warm
        // re-quote, and the aggregate hit/miss counters must agree.
        let book: Vec<PricingRequest> = (0..24)
            .map(|i| OptionParams { strike: 100.0 + 2.0 * i as f64, ..p() })
            .map(|params| PricingRequest::american(ModelKind::Bopm, OptionType::Call, params, 96))
            .collect();
        let single = BatchPricer::with_memo_config(EngineConfig::default(), 512, 1);
        let sharded = BatchPricer::with_memo_config(EngineConfig::default(), 512, 8);
        assert_eq!(single.memo_stats().shards, 1);
        assert_eq!(sharded.memo_stats().shards, 8);
        assert_eq!(sharded.memo_stats().capacity, 512); // 8 * ceil(512/8)
        for pass in 0..2 {
            let a = single.price_batch(&book);
            let b = sharded.price_batch(&book);
            for (x, y) in a.iter().zip(&b) {
                let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
                assert_eq!(x.to_bits(), y.to_bits(), "pass {pass}");
            }
        }
        let (s, m) = (single.memo_stats(), sharded.memo_stats());
        assert_eq!((s.hits, s.misses), (m.hits, m.misses));
        assert_eq!(m.misses, 24);
        assert_eq!(m.hits, 24);
        // The 24 distinct keys spread over more than one shard: entries
        // aggregate correctly while no single shard holds them all (the
        // probability of 24 SipHashed keys landing in one of 8 shards is
        // ~8^-23 — deterministic in practice since the hash keys are fixed).
        assert_eq!(m.entries, 24);
    }

    #[test]
    fn tiny_capacity_rounds_up_to_one_entry_per_shard() {
        let pricer = BatchPricer::with_memo_config(EngineConfig::default(), 2, 4);
        let stats = pricer.memo_stats();
        assert_eq!((stats.capacity, stats.shards), (4, 4)); // 4 * ceil(2/4)
    }

    #[test]
    fn price_one_matches_price_batch() {
        let pricer = pricer();
        let req = PricingRequest::european(ModelKind::Topm, OptionType::Put, p(), 150);
        let one = pricer.price_one(&req).unwrap();
        let batch = pricer.clear_and_price(&req);
        assert_eq!(one.to_bits(), batch.to_bits());
    }

    impl BatchPricer {
        /// Test helper: price after clearing the memo, so the comparison is
        /// against a fresh computation rather than a cache hit.
        fn clear_and_price(&self, req: &PricingRequest) -> f64 {
            self.clear_memo();
            self.price_batch(std::slice::from_ref(req))[0].clone().unwrap()
        }
    }

    #[test]
    fn heterogeneous_batch_prices_everything_in_one_call() {
        let pricer = pricer();
        let zero_div = OptionParams { dividend_yield: 0.0, ..p() };
        let book = vec![
            PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), 300),
            PricingRequest::american(ModelKind::Topm, OptionType::Call, p(), 200),
            PricingRequest::american(ModelKind::Bsm, OptionType::Put, zero_div, 400),
            PricingRequest::european(ModelKind::Bopm, OptionType::Put, p(), 300),
            PricingRequest::bermudan_put(p(), 300, vec![100, 200, 300]),
        ];
        let out = pricer.price_batch(&book);
        for (req, res) in book.iter().zip(&out) {
            let v = res.as_ref().unwrap_or_else(|e| panic!("{req:?}: {e}"));
            assert!(*v > 0.0 && v.is_finite(), "{req:?}: {v}");
        }
        // American ≥ European for the same BOPM put contract.
        let eu = out[3].as_ref().unwrap();
        let bermudan = out[4].as_ref().unwrap();
        assert!(bermudan >= eu, "Bermudan {bermudan} < European {eu}");
    }
}
