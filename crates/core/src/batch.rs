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
//!   left-cone engine), which draw scratch (FFT buffers, staging rows) from
//!   their own thread's free list (`amopt_stencil::with_scratch`, no lock)
//!   — so the hot loop is allocation-light after warm-up;
//! * the unique requests that share their kernels (the strikes of one
//!   expiry) are priced as one **kernel group**, whose members read one
//!   set of spectrum-multiplier tables, each built once for the group;
//! * identical requests inside a batch are **deduplicated** (priced once,
//!   scattered to every duplicate), and results are **memoized** across
//!   batches in an LRU keyed on quantized parameters — a market tick that
//!   leaves most of the book unchanged reprices only what moved;
//! * the memo is **sharded** by key hash (eight shards, one lock each):
//!   a probe or an insert takes only its own shard's lock, so concurrent
//!   batches contend only when their keys share a shard, and each shard's
//!   eviction scan stays bounded by its share of the capacity;
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

use crate::bopm::BopmModel;
use crate::engine::{with_powers, EngineConfig};
use crate::error::{PricingError, Result};
use crate::lattice::nodes::NodeTables;
use crate::lattice::{fast, linear, Lattice};
use crate::params::{OptionParams, OptionType};
use crate::topm::TopmModel;
use amopt_fft::KernelPowers;

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
        ModelKind::Bsm => Lattice::explicit_fd(req.params, req.steps).is_ok(),
    }
}

fn make_key(req: &PricingRequest) -> MemoKey {
    let (style_tag, dates) = match &req.style {
        Style::European => (0, Box::default()),
        Style::American => (1, Box::default()),
        Style::Bermudan(steps) => (2, linear::schedule(steps)),
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
/// deterministic for the lifetime of the process: a key is always probed
/// and published under the same shard's lock.
#[derive(Debug)]
struct ShardedMemo {
    shards: Box<[Mutex<LruMemo>]>,
    /// `false` when total capacity is 0: the probe and publish phases are
    /// skipped wholesale (no key hashing, no locking) — memo-less
    /// pricers like the serial greeks facades stay pure dispatch.
    enabled: bool,
}

impl ShardedMemo {
    /// `capacity` is the total across shards; each shard gets
    /// `capacity.div_ceil(shards)` entries, so the effective total rounds up
    /// to a shard multiple (`0` stays `0`: memo disabled).
    fn new(capacity: usize, shards: usize) -> Self {
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
const DEFAULT_MEMO_CAPACITY: usize = 512;

/// Shard count of every memo.
///
/// Eight shards keep lock contention negligible up to a few tens of worker
/// threads (probes for distinct keys collide on a lock with probability
/// `1/8`) and bound each shard's eviction scan at 64 entries of the default
/// capacity.  Eviction order is per shard, so a sharded memo may evict an
/// entry that one globally-ordered LRU of the same capacity would keep;
/// prices are unaffected (eviction only ever causes recomputation).
const MEMO_SHARDS: usize = 8;

/// Batched pricing engine: dedup → memo probe → parallel price → scatter.
///
/// Cheap to keep alive and share (`&BatchPricer` is `Sync`); the memo
/// amortises across successive [`price_batch`] calls, which is where the
/// subsystem earns its keep on repeated market ticks (the advance scratch is
/// per thread, and outlives any one pricer).
///
/// [`price_batch`]: BatchPricer::price_batch
#[derive(Debug)]
pub struct BatchPricer {
    memo: ShardedMemo,
}

impl BatchPricer {
    /// A pricer with the default memo capacity.  The [`EngineConfig`] is an
    /// empty marker the benchmark harness still passes; it is ignored.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_memo_capacity(cfg, DEFAULT_MEMO_CAPACITY)
    }

    /// A pricer whose memo holds roughly `capacity` prices across eight
    /// shards (`0` disables memoization entirely; in-batch deduplication
    /// still applies).
    ///
    /// Capacity is split evenly across shards, rounding the per-shard share
    /// up, so the effective total is `8 * ceil(capacity / 8)`.  Eviction is
    /// least-recently-used *within* each shard; prices are bitwise the same
    /// whatever the memo holds, since eviction only causes recomputation.
    /// The [`EngineConfig`] is ignored, as in [`BatchPricer::new`].
    pub fn with_memo_capacity(_: EngineConfig, capacity: usize) -> Self {
        BatchPricer { memo: ShardedMemo::new(capacity, MEMO_SHARDS) }
    }

    /// The empty [`EngineConfig`] marker, kept only because the benchmark
    /// harness reads it.
    pub fn engine_config(&self) -> &EngineConfig {
        &EngineConfig {}
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
        // amopt-lint: allow(hot-path-lock) -- one shard lock per submitted quote, not per advance
        self.memo.lock(self.memo.shard_of(&key)).lookup(&key)
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
    /// confined to their own slots and never cached, and a request whose
    /// model does not build is never deduplicated: its error names its own
    /// numbers.
    pub fn price_batch(&self, requests: &[PricingRequest]) -> Vec<Result<f64>> {
        // amopt-lint: hot-path
        // amopt-lint: allow-scope(hot-path-alloc) -- dedup/scatter fan-out buffers are O(batch), amortised across the coalesced batch; per-step pricing work draws on per-thread scratch
        // Phase 1 (serial): normalise and deduplicate.  `jobs` keeps the
        // first-occurrence request index alongside the normalised key.  A
        // request whose model does not build is a job of its own: requests
        // of one cell can fail with different numbers.
        let mut unique: HashMap<MemoKey, usize> = HashMap::new();
        let mut jobs: Vec<(usize, MemoKey)> = Vec::new();
        let mut assignment = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let key = make_key(req);
            let slot = match unique.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(v) if !v.key().builds => {
                    jobs.push((i, v.into_key()));
                    jobs.len() - 1
                }
                Entry::Vacant(v) => {
                    let slot = jobs.len();
                    jobs.push((i, v.key().clone()));
                    v.insert(slot);
                    slot
                }
            };
            assignment.push(slot);
        }
        // Phase 2 (serial): memo probe.  Each job probes its own shard,
        // under that shard's lock, in job order.  A disabled memo (capacity
        // 0, e.g. the serial greeks facades) hashes no key and so probes
        // nothing: every probe would be a guaranteed miss.
        let shard_of_job: Vec<usize> = if self.memo.enabled {
            jobs.iter().map(|(_, key)| self.memo.shard_of(key)).collect()
        } else {
            Vec::new()
        };
        let mut slot_results: Vec<Option<Result<f64>>> = vec![None; jobs.len()];
        for (slot, &shard) in shard_of_job.iter().enumerate() {
            // amopt-lint: allow(hot-path-lock) -- one shard lock per job per batch, not per advance
            slot_results[slot] = self.memo.lock(shard).get(&jobs[slot].1).map(Ok);
        }
        // Phase 3 (parallel): price what the memo did not know, one kernel
        // group at a time.  A group is the requests that agree on every
        // field their kernels depend on (the strikes of one expiry; puts and
        // calls alike), and its members share one set of multiplier tables,
        // which is dropped when the group's last member returns.  Groups fan
        // out, and so do the members of each, so a batch of one group still
        // fills the pool.  Scratch (FFT buffers, staging rows) lives on each
        // worker thread's own free list (`amopt_stencil::with_scratch`),
        // taken without a lock, so this loop allocates only the rows and
        // tables the pricers keep.
        let todo: Vec<usize> = (0..jobs.len()).filter(|&s| slot_results[s].is_none()).collect();
        let (order, starts) = kernel_groups(todo.iter().map(|&slot| &requests[jobs[slot].0]));
        // One group per leaf task, then one member per leaf task: a pricing
        // is lattice-sized work.
        let priced = amopt_parallel::parallel_map(starts.len() - 1, 1, |g| {
            let members = &order[starts[g]..starts[g + 1]];
            with_powers(|powers| {
                let nodes = NodeTables::new();
                amopt_parallel::parallel_map(members.len(), 1, |m| {
                    let (req_idx, key) = &jobs[todo[members[m]]];
                    Some(route(&requests[*req_idx], &key.dates, powers, &nodes))
                })
            })
        });
        let mut computed: Vec<Option<Result<f64>>> = vec![None; todo.len()];
        for (&k, res) in order.iter().zip(priced.into_iter().flatten()) {
            computed[k] = res;
        }
        // Phase 4 (serial): publish fresh prices to the slots and, each
        // under its shard's lock and in job order, to the memo.  Errors are
        // never cached; a disabled memo hashed no shard, so publishes nothing.
        for (slot, res) in todo.into_iter().zip(computed) {
            let res = res.expect("every group prices every member");
            if let (Ok(price), Some(&shard)) = (&res, shard_of_job.get(slot)) {
                // amopt-lint: allow(hot-path-lock) -- one shard lock per job per batch, not per advance
                self.memo.lock(shard).insert(jobs[slot].1.clone(), *price);
            }
            slot_results[slot] = Some(res);
        }
        // Phase 5: scatter unique results back to request order.
        assignment
            .into_iter()
            .map(|slot| slot_results[slot].clone().expect("every slot resolved"))
            .collect()
    }
}

/// Routes one request to its canonical pricer.  `dates` is the
/// normalised Bermudan schedule from the request's key (unused
/// otherwise), which the Bermudan pass prices without normalising it
/// again.  Adds no arithmetic of its own: a batch of one is bitwise
/// identical to the direct call.
fn route(
    req: &PricingRequest,
    dates: &[usize],
    powers: &KernelPowers,
    nodes: &NodeTables,
) -> Result<f64> {
    // amopt-lint: hot-path
    match req.model {
        ModelKind::Bopm => {
            let model = BopmModel::new(req.params, req.steps)?;
            match (&req.style, req.option_type) {
                (Style::Bermudan(_), OptionType::Put) => {
                    linear::bermudan_put_with(&model, dates, powers)
                }
                _ => route_lattice(&model, req, powers, nodes),
            }
        }
        ModelKind::Topm => {
            route_lattice(&TopmModel::new(req.params, req.steps)?, req, powers, nodes)
        }
        // The FD grid prices puts only: no call route may reach it.
        ModelKind::Bsm => match (&req.style, req.option_type) {
            (_, OptionType::Call) | (Style::Bermudan(_), _) => unsupported(req),
            _ => {
                let model = Lattice::explicit_fd(req.params, req.steps)?;
                route_lattice(&model, req, powers, nodes)
            }
        },
    }
}

/// The American and European routes of every lattice (the binomial
/// Bermudan put is routed before this, BSM calls and Bermudans are
/// refused before it).
fn route_lattice<const W: usize>(
    model: &Lattice<W>,
    req: &PricingRequest,
    powers: &KernelPowers,
    nodes: &NodeTables,
) -> Result<f64> {
    // amopt-lint: hot-path
    match (&req.style, req.option_type) {
        (Style::American, OptionType::Call) => {
            Ok(fast::call_samples(model, 1, powers, &nodes.table_for(model)).0)
        }
        (Style::American, OptionType::Put) => {
            Ok(fast::put_samples(model, 1, powers, &nodes.table_for(model)).0)
        }
        (Style::European, opt) => Ok(linear::price_with(model, opt, powers)),
        (Style::Bermudan(_), _) => unsupported(req),
    }
}

/// Orders requests by kernel group: the requests that agree on model, rate,
/// volatility, dividend yield, expiry (all bit for bit) and steps build the
/// same kernel, and the same mirror for a call.  Spot, strike, option type
/// and exercise schedule are left out.  Returns the requests' indices, each
/// group's members together and in request order, and the start of every
/// group in that order, then its length.
fn kernel_groups<'r>(
    requests: impl Iterator<Item = &'r PricingRequest>,
) -> (Vec<usize>, Vec<usize>) {
    let keys: Vec<(u8, [u64; 4], usize)> = requests
        .map(|req| {
            let p = &req.params;
            let fields = [p.rate, p.volatility, p.dividend_yield, p.expiry].map(f64::to_bits);
            (req.model as u8, fields, req.steps)
        })
        .collect();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&k| keys[k]); // stable: members stay in request order
    let mut starts: Vec<usize> =
        (0..order.len()).filter(|&i| i == 0 || keys[order[i]] != keys[order[i - 1]]).collect();
    starts.push(order.len());
    (order, starts)
}

/// The error of a request no pricer in this crate serves.
fn unsupported(req: &PricingRequest) -> Result<f64> {
    Err(PricingError::Unsupported {
        what: format!(
            "{:?} {:?} with {} exercise has no pricer in this workspace",
            req.model,
            req.option_type,
            req.style.name()
        ),
    })
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
        let steps = 200;
        let zero_div = OptionParams { dividend_yield: 0.0, ..p() };
        let cases: Vec<(PricingRequest, f64)> = vec![
            (PricingRequest::american(ModelKind::Bopm, OptionType::Call, p(), steps), {
                let m = BopmModel::new(p(), steps).unwrap();
                fast::price_american_call(&m)
            }),
            (PricingRequest::american(ModelKind::Bopm, OptionType::Put, p(), steps), {
                let m = BopmModel::new(p(), steps).unwrap();
                fast::price_american_put(&m)
            }),
            (PricingRequest::european(ModelKind::Bopm, OptionType::Call, p(), steps), {
                let m = BopmModel::new(p(), steps).unwrap();
                linear::price_european_fft(&m, OptionType::Call)
            }),
            (PricingRequest::european(ModelKind::Bopm, OptionType::Put, p(), steps), {
                let m = BopmModel::new(p(), steps).unwrap();
                linear::price_european_fft(&m, OptionType::Put)
            }),
            (PricingRequest::bermudan_put(p(), steps, vec![50, 100, 200]), {
                let m = BopmModel::new(p(), steps).unwrap();
                linear::price_bermudan_put_fft(&m, &[50, 100, 200]).unwrap()
            }),
            (PricingRequest::american(ModelKind::Topm, OptionType::Call, p(), steps), {
                let m = TopmModel::new(p(), steps).unwrap();
                fast::price_american_call(&m)
            }),
            (PricingRequest::american(ModelKind::Topm, OptionType::Put, p(), steps), {
                let m = TopmModel::new(p(), steps).unwrap();
                fast::price_american_put(&m)
            }),
            (PricingRequest::european(ModelKind::Topm, OptionType::Call, p(), steps), {
                let m = TopmModel::new(p(), steps).unwrap();
                linear::price_european_fft(&m, OptionType::Call)
            }),
            (PricingRequest::american(ModelKind::Bsm, OptionType::Put, zero_div, steps), {
                let m = Lattice::explicit_fd(zero_div, steps).unwrap();
                fast::price_american_put(&m)
            }),
            (PricingRequest::european(ModelKind::Bsm, OptionType::Put, zero_div, steps), {
                let m = Lattice::explicit_fd(zero_div, steps).unwrap();
                linear::price_european_fft(&m, OptionType::Put)
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
        let spot = |spot: f64| {
            PricingRequest::american(
                ModelKind::Bopm,
                OptionType::Call,
                OptionParams { spot, ..p() },
                128,
            )
        };
        let (bad_params, bad_twin) = (spot(-1.0), spot(-1.0 - 1e-12));
        assert_eq!(make_key(&bad_params), make_key(&bad_twin), "one memo cell");
        let bad_dates = PricingRequest::bermudan_put(p(), 128, vec![0]);
        let out = pricer.price_batch(&[
            good.clone(),
            bad_params,
            bad_dates,
            good.clone(),
            bad_twin.clone(),
        ]);
        assert!(matches!(out[1], Err(PricingError::InvalidParams { field: "spot", .. })));
        assert!(matches!(out[2], Err(PricingError::InvalidParams { .. })));
        // The twin shares the cell but not the job: its error names its spot.
        assert_ne!(out[4], out[1]);
        assert_eq!(out[4], pricer.price_one(&bad_twin));
        let direct = {
            let m = BopmModel::new(p(), 128).unwrap();
            fast::price_american_call(&m)
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
        let pricer = BatchPricer { memo: ShardedMemo::new(2, 1) };
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
        let pricer = BatchPricer { memo: ShardedMemo::new(2, 1) };
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
        // re-quote, and the aggregate counters must agree.  The book mixes
        // BOPM American calls, BOPM European puts and BSM puts, plus one
        // invalid contract that must be an error on both sides.
        let mut book: Vec<PricingRequest> = (0..8)
            .map(|i| OptionParams { strike: 100.0 + 2.0 * i as f64, ..p() })
            .flat_map(|params| {
                let dividend_free = OptionParams { dividend_yield: 0.0, ..params };
                [
                    PricingRequest::american(ModelKind::Bopm, OptionType::Call, params, 96),
                    PricingRequest::european(ModelKind::Bopm, OptionType::Put, params, 80),
                    PricingRequest::american(ModelKind::Bsm, OptionType::Put, dividend_free, 64),
                ]
            })
            .collect();
        let invalid = OptionParams { spot: -1.0, ..p() };
        book.insert(5, PricingRequest::american(ModelKind::Bopm, OptionType::Call, invalid, 96));
        let single = BatchPricer { memo: ShardedMemo::new(512, 1) };
        let sharded = BatchPricer { memo: ShardedMemo::new(512, 8) };
        assert_eq!(single.memo_stats().shards, 1);
        assert_eq!(sharded.memo_stats().shards, 8);
        assert_eq!(sharded.memo_stats().capacity, 512); // 8 * ceil(512/8)
        let bits = |r: &Result<f64>| r.as_ref().map(|v| v.to_bits()).map_err(|_| ());
        for pass in 0..2 {
            let a = single.price_batch(&book);
            let b = sharded.price_batch(&book);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(bits(x), bits(y), "pass {pass} slot {i}");
                assert_eq!(x.is_err(), i == 5, "pass {pass} slot {i}: {x:?}");
            }
        }
        let (s, m) = (single.memo_stats(), sharded.memo_stats());
        assert_eq!((s.hits, s.misses, s.entries), (m.hits, m.misses, m.entries));
        // 24 valid keys miss once, hit once and stay resident; the invalid
        // one misses on both passes, since errors are never memoized.
        assert_eq!((m.misses, m.hits, m.entries), (26, 24, 24));
    }

    #[test]
    fn one_batch_evicts_inside_every_shard_it_fills() {
        // 40 distinct contracts in one batch through 8 shards of 2: the
        // publish phase evicts within the batch, and a re-quote hits
        // exactly what survived.
        let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 16);
        let book: Vec<PricingRequest> = (0..40)
            .map(|i| OptionParams { strike: 80.0 + i as f64, ..p() })
            .map(|params| PricingRequest::american(ModelKind::Bopm, OptionType::Call, params, 32))
            .collect();
        let first = pricer.price_batch(&book);
        let cold = pricer.memo_stats();
        assert_eq!((cold.shards, cold.capacity), (8, 16));
        assert_eq!((cold.misses, cold.hits), (40, 0));
        assert_eq!(cold.entries as u64 + cold.evictions, 40);
        assert!(cold.entries <= 16, "{cold:?}");
        let second = pricer.price_batch(&book);
        let warm = pricer.memo_stats();
        assert_eq!(warm.hits, cold.entries as u64, "{warm:?}");
        assert_eq!(warm.misses, 40 + (40 - cold.entries as u64));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap().to_bits(), b.as_ref().unwrap().to_bits());
        }
    }

    #[test]
    fn tiny_capacity_rounds_up_to_one_entry_per_shard() {
        let pricer = BatchPricer { memo: ShardedMemo::new(2, 4) };
        let stats = pricer.memo_stats();
        assert_eq!((stats.capacity, stats.shards), (4, 4)); // 4 * ceil(2/4)
    }

    #[test]
    fn price_one_matches_price_batch() {
        let pricer = pricer();
        let req = PricingRequest::european(ModelKind::Topm, OptionType::Put, p(), 150);
        let one = pricer.price_one(&req).unwrap();
        // A memo-less pricer, so the batch is a fresh computation, not a hit.
        let fresh = BatchPricer::with_memo_capacity(*pricer.engine_config(), 0);
        let batch = fresh.price_batch(std::slice::from_ref(&req))[0].clone().unwrap();
        assert_eq!(one.to_bits(), batch.to_bits());
    }

    /// `req` priced by its direct entry point, with a set of tables of its
    /// own.
    fn direct(req: &PricingRequest) -> f64 {
        fn on<const W: usize>(m: &Lattice<W>, req: &PricingRequest) -> f64 {
            match (&req.style, req.option_type) {
                (Style::American, OptionType::Call) => fast::price_american_call(m),
                (Style::American, OptionType::Put) => fast::price_american_put(m),
                (Style::European, opt) => linear::price_european_fft(m, opt),
                (Style::Bermudan(_), _) => {
                    unreachable!("the binomial Bermudan put is priced above")
                }
            }
        }
        let (params, steps) = (req.params, req.steps);
        if let Style::Bermudan(dates) = &req.style {
            let model = BopmModel::new(params, steps).unwrap();
            return linear::price_bermudan_put_fft(&model, dates).unwrap();
        }
        match req.model {
            ModelKind::Bopm => on(&BopmModel::new(params, steps).unwrap(), req),
            ModelKind::Topm => on(&TopmModel::new(params, steps).unwrap(), req),
            ModelKind::Bsm => on(&Lattice::explicit_fd(params, steps).unwrap(), req),
        }
    }

    #[test]
    fn members_of_a_shared_set_keep_their_direct_bits_on_any_pool_width() {
        // Two expiries × eight strikes of one underlying: BOPM and TOPM puts
        // and their mirrored calls (a put and its call share every `(n, h)`
        // but not the kernel), calls at Y = 0 (the European pass), BSM
        // puts, and a European and a Bermudan put beside the BOPM puts.
        let base = OptionParams {
            spot: 100.0,
            strike: 100.0,
            rate: 0.03,
            volatility: 0.25,
            dividend_yield: 0.01,
            expiry: 0.5,
        };
        let mut book = Vec::new();
        for (expiry, steps) in [(0.5, 126), (1.0, 252)] {
            for k in 0..8 {
                let params = OptionParams { strike: 80.0 + 5.0 * k as f64, expiry, ..base };
                let dividend_free = OptionParams { dividend_yield: 0.0, ..params };
                for model in [ModelKind::Bopm, ModelKind::Topm] {
                    for opt in [OptionType::Put, OptionType::Call] {
                        book.push(PricingRequest::american(model, opt, params, steps));
                    }
                    book.push(PricingRequest::american(
                        model,
                        OptionType::Call,
                        dividend_free,
                        steps,
                    ));
                }
                book.push(PricingRequest::american(
                    ModelKind::Bsm,
                    OptionType::Put,
                    dividend_free,
                    steps,
                ));
            }
            let params = OptionParams { expiry, ..base };
            book.push(PricingRequest::european(ModelKind::Bopm, OptionType::Put, params, steps));
            book.push(PricingRequest::bermudan_put(params, steps, vec![steps / 3, steps / 2]));
        }
        // Per expiry: BOPM and TOPM at Y = 0.01 and at Y = 0, and the BSM grid.
        let (_, starts) = kernel_groups(book.iter());
        assert_eq!(starts.len() - 1, 10);
        let want: Vec<u64> = book.iter().map(|req| direct(req).to_bits()).collect();
        for threads in [1, 2, 3] {
            let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
            let got = amopt_parallel::run_with_threads(threads, || pricer.price_batch(&book));
            for ((req, got), want) in book.iter().zip(got).zip(&want) {
                let got = got.unwrap_or_else(|e| panic!("{req:?}: {e}"));
                assert_eq!(got.to_bits(), *want, "{threads} threads, {req:?}");
            }
        }
    }

    #[test]
    fn a_tree_group_reads_one_node_table_built_once() {
        // A put and a mirrored call of one expiry at two strikes, routed as
        // phase 3 routes a group's members: one node table between them,
        // their direct bits, and no more node `exp`s than the table has
        // levels, rounded up to whole blocks (the leaf locators probe on the
        // column-unbounded extension, outside the table).  Far from the
        // boundary's band a deep pricing reads almost none of them.
        use crate::lattice::nodes::NODE_BLOCK;
        let both = OptionParams { rate: 0.05, dividend_yield: 0.02, ..p() };
        for model in [ModelKind::Bopm, ModelKind::Topm] {
            for steps in [63usize, 504, 4096] {
                let (powers, nodes) = (KernelPowers::new(), NodeTables::new());
                for strike in [110.0, 150.0] {
                    for opt in [OptionType::Put, OptionType::Call] {
                        let params = OptionParams { strike, ..both };
                        let req = PricingRequest::american(model, opt, params, steps);
                        let got = route(&req, &[], &powers, &nodes).unwrap();
                        assert_eq!(got.to_bits(), direct(&req).to_bits(), "{req:?}");
                    }
                }
                let (tables, exps) = nodes.census();
                let ctx = format!("{model:?} T = {steps}: {exps} exps");
                assert_eq!(tables, 1, "{ctx}");
                assert!(exps <= (2 * steps + 1).div_ceil(NODE_BLOCK) * NODE_BLOCK, "{ctx}");
                if steps == 4096 {
                    assert!(4 * exps <= 2 * steps + 1, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn a_failing_member_leaves_its_group_alone() {
        // Four strikes of one expiry, one of them with no spot: one group,
        // whose one invalid member gets its error and nothing else.
        let at = |spot, strike| {
            let params = OptionParams { spot, strike, ..p() };
            PricingRequest::american(ModelKind::Bopm, OptionType::Put, params, 252)
        };
        let book = [at(127.62, 120.0), at(127.62, 130.0), at(0.0, 135.0), at(127.62, 140.0)];
        assert_eq!(kernel_groups(book.iter()).1, [0, 4]);
        for threads in [1, 2] {
            let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
            let out = amopt_parallel::run_with_threads(threads, || pricer.price_batch(&book));
            assert!(
                matches!(out[2], Err(PricingError::InvalidParams { field: "spot", .. })),
                "{:?}",
                out[2]
            );
            for i in [0, 1, 3] {
                let alone = pricer.price_one(&book[i]).unwrap();
                let got = out[i].as_ref().unwrap_or_else(|e| panic!("member {i}: {e}"));
                assert_eq!(got.to_bits(), alone.to_bits(), "member {i}, {threads} threads");
                assert_eq!(got.to_bits(), direct(&book[i]).to_bits(), "member {i}");
            }
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
