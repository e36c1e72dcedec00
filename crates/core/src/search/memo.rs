//! The cross-search subplan memo: DP-node results keyed by canonical
//! connected-subquery shape.
//!
//! PR 3's serving cache reuses work at whole-request granularity; this
//! module reuses it at *dag node* granularity.  Every memo-eligible DP
//! node (a connected subset — singleton access-path nodes included —
//! under a keep-best or multi-param policy) is
//! keyed by the [`lec_canon::SubplanForm`] of its induced subquery plus an
//! environment fingerprint (policy/coster parameters and plan shape).  A
//! hit hands back the node's complete candidate list — relabeled into the
//! current query's table numbering — together with a recorded
//! [`lec_cost::CostProbe`] log whose replay keeps the evaluation-cache
//! counters byte-identical to a memo-off search
//! ([`lec_cost::CostModel::replay_probes`]); the node's entire
//! combine/cost loop is skipped.  A miss runs the combine live (with
//! probe recording on) and populates the memo.
//!
//! Because the memo is shared across searches (one [`SubplanMemo`] lives
//! in `lec-service`'s `ConcurrentPlanServer` and is injected into every
//! search via [`super::SearchConfig::memo`]), different-shaped queries
//! that merely *overlap* — a 6-table chain sharing a 4-table subchain
//! with an 8-table chain, a weak-hit revalidation repeating yesterday's
//! subtrees — turn into partial hits instead of full DPs.  Within one
//! search it also deduplicates repeated subquery shapes across the dag.
//!
//! The memo never changes results, only work: eligibility mirrors the
//! serving cache's `Uncacheable` rules (top-c and randomized modes
//! bypass; so does any subset containing twin tables — equal exact
//! occurrence fingerprints — since a twin pair symmetric inside *some*
//! smaller subset would smuggle a label-dependent tie-break into the
//! record), and the byte-identity of memo-on to memo-off searches
//! — plans, cost bits, `evals`, `cache_hits`, `candidates`, `nodes` — is
//! property-tested in `tests/parallel_parity.rs` and enforced by the
//! `subplan_memo` bench guard.

use lec_cost::CostProbe;
use lec_plan::PlanNode;
use lec_prob::Distribution;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default cap on memoized DP nodes ([`SubplanMemo::with_capacity`]).
/// Records are small (a handful of entries and probes each); 16k of them
/// cover thousands of distinct subquery shapes before the per-shard LRU
/// starts evicting cold ones.
pub const DEFAULT_MEMO_CAPACITY: usize = 16 * 1024;

/// Lock shards.  Same reasoning as the eval cache: enough that a few
/// worker threads rarely collide, few enough to stay trivial.
const MEMO_SHARDS: usize = 32;

/// An entry's order property in canonical space: orders are equivalence
/// *classes* of columns (possibly equated through joins outside the
/// subquery), so a memoized entry stores the class id under the
/// subquery's canonical class numbering and the decoder rebinds it to the
/// current query's representative ([`lec_canon::SubplanForm::class_rep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoOrder {
    /// No useful ordering.
    None,
    /// Sorted on the order class with this canonical id.
    Class(u32),
}

/// One keep-best entry in canonical label space.
#[derive(Debug, Clone)]
pub struct MemoDpEntry {
    /// The plan, canonically labeled.
    pub plan: PlanNode,
    /// Cost under the recording policy's objective.
    pub cost: f64,
    /// Point-estimated output pages.
    pub pages: f64,
    /// Canonical order class.
    pub order: MemoOrder,
}

/// One multi-param entry in canonical label space.
#[derive(Debug, Clone)]
pub struct MemoDistEntry {
    /// The plan, canonically labeled.
    pub plan: PlanNode,
    /// Expected cost.
    pub cost: f64,
    /// Output-size distribution (label-free).
    pub pages: Distribution,
    /// Canonical order class.
    pub order: MemoOrder,
}

/// A memoized node's candidate list, tagged by the policy family that
/// produced it (a decode by the wrong family is treated as a miss).
#[derive(Debug, Clone)]
pub enum MemoEntries {
    /// Keep-best family ([`super::KeepBestPolicy`], any coster).
    Dp(Vec<MemoDpEntry>),
    /// Multi-param family ([`super::MultiParamPolicy`]).
    Dist {
        /// The candidate list.
        entries: Vec<MemoDistEntry>,
        /// This node's largest pre-rebucketing product support — folded
        /// back into the policy's diagnostic high-water mark on a hit so
        /// `SearchExtras::MultiParam` stays identical to a memo-off run.
        node_support: usize,
    },
}

/// Everything a memo hit needs to reproduce a node byte-identically: the
/// canonical candidate list, the node's candidate-counter delta, and the
/// probe log whose replay reproduces the combine's evaluation-cache
/// effects.
#[derive(Debug)]
pub struct MemoRecord {
    /// The node's candidates, canonically labeled.
    pub entries: MemoEntries,
    /// `SearchStats::candidates` generated by the node's combine.
    pub candidates: u64,
    /// The combine's candidate-level cache probes, in canonical table-set
    /// bits.
    pub probes: Vec<CostProbe>,
    /// Formula evaluations the node performed *outside* the memoized
    /// `*_for` path — today that is exactly the access-path costing of a
    /// singleton (depth-1) node, which never touches the evaluation
    /// cache.  A hit charges them back through
    /// [`lec_cost::CostModel::charge_evals`] so `SearchStats::evals`
    /// stays byte-identical to a memo-off run; composite (join) nodes
    /// record `0` because all of their evaluations flow through the
    /// probe log.
    pub unprobed_evals: u64,
    /// The node's [`super::LowerBound::pages_floor`] as computed by the
    /// recording (pruned) search, so a memo hit skips the bound recompute.
    /// The floor is label-independent (a product over the subquery's base
    /// sizes and internal selectivities) and the environment key already
    /// separates policy families, so a stored floor is always the value a
    /// recompute would produce.  `None` when the recording search ran
    /// without pruning; a pruned hit on such a record recomputes.
    pub bound_pages: Option<f64>,
}

/// Lifetime counters of one memo, exposed through
/// `ConcurrentPlanServer::metrics_json` and [`SubplanMemo::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoStats {
    /// Nodes served from the memo (combine skipped).
    pub hits: u64,
    /// Eligible nodes computed live (and inserted).
    pub misses: u64,
    /// Records evicted by the per-shard LRU policy.
    pub evictions: u64,
    /// Records currently stored.
    pub records: usize,
    /// Maximum records retained.
    pub capacity: usize,
}

/// One stored record plus its LRU clock value.
#[derive(Debug)]
struct MemoSlot {
    record: Arc<MemoRecord>,
    last_used: u64,
}

/// Shard maps share the eval cache's FxHash — multi-word keys are probed
/// on the engine's per-node path, where SipHash under the shard lock
/// would be the slowest thing in the critical section.
type ShardMap = HashMap<Box<[u64]>, MemoSlot, lec_cost::FxBuildHasher>;

/// One lock-striped shard: its record map plus its own LRU clock (a
/// per-shard clock keeps touches off any shared atomic; recency only ever
/// competes within a shard, where the clock is totally ordered anyway).
#[derive(Debug, Default)]
struct Shard {
    map: ShardMap,
    tick: u64,
}

/// The sharded cross-search subplan memo.  Shareable across searches and
/// threads (`Arc<SubplanMemo>` via [`super::SearchConfig::memo`]); the
/// parallel level-barrier drivers probe and populate it concurrently, like
/// the eval cache.
///
/// Capacity is apportioned evenly across the lock shards (minimum one
/// record per shard), and each shard evicts its own least-recently-used
/// record once full — so the memo tracks a shifting workload instead of
/// pinning whichever shapes arrived first, at the cost of the bound being
/// per-shard rather than exactly global.  Eviction can only cost speed,
/// never correctness: a re-miss recomputes and re-inserts.
#[derive(Debug)]
pub struct SubplanMemo {
    shards: Box<[Mutex<Shard>]>,
    shard_capacity: usize,
    capacity: usize,
    records: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SubplanMemo {
    fn default() -> Self {
        SubplanMemo::with_capacity(DEFAULT_MEMO_CAPACITY)
    }
}

impl SubplanMemo {
    /// An empty memo retaining roughly `capacity` node records under the
    /// default shard count, with per-shard LRU eviction once full.
    pub fn with_capacity(capacity: usize) -> Self {
        SubplanMemo::with_shards(capacity, MEMO_SHARDS)
    }

    /// An empty memo with an explicit lock-shard count (`shards >= 1`,
    /// clamped to `capacity` so the global bound `shards × per-shard
    /// slice` never exceeds the requested capacity).  `capacity / shards`
    /// records are retained per shard; tests use a single shard to make
    /// the LRU order deterministic.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        SubplanMemo {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity / shards,
            capacity,
            records: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &[u64]) -> MutexGuard<'_, Shard> {
        self.shards[lec_cost::shard_index(key, self.shards.len())]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Look up a node record; counts a hit or miss and touches the
    /// entry's LRU clock.
    pub fn lookup(&self, key: &[u64]) -> Option<Arc<MemoRecord>> {
        let mut shard = self.shard(key);
        let tick = shard.tick + 1;
        shard.tick = tick;
        let found = shard.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            Arc::clone(&slot.record)
        });
        drop(shard);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a node record, evicting the shard's least-recently-used
    /// record when the shard is at capacity (replacing an existing record
    /// for the same key touches it instead of evicting).
    pub fn insert(&self, key: Box<[u64]>, record: MemoRecord) {
        let mut shard = self.shard(&key);
        let tick = shard.tick + 1;
        shard.tick = tick;
        if !shard.map.contains_key(&key) {
            if shard.map.len() >= self.shard_capacity {
                lec_cost::evict_coldest(&mut shard.map, |slot| slot.last_used)
                    .expect("a full shard is non-empty");
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                self.records.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            MemoSlot {
                record: Arc::new(record),
                last_used: tick,
            },
        );
    }

    /// Lifetime counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            capacity: self.capacity,
        }
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.records.load(Ordering::Relaxed)
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Machine-readable counters for service metrics.
    pub fn stats_json(&self) -> serde_json::Value {
        let s = self.stats();
        serde_json::json!({
            "hits": s.hits,
            "misses": s.misses,
            "evictions": s.evictions,
            "records": s.records,
            "capacity": s.capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(candidates: u64) -> MemoRecord {
        MemoRecord {
            entries: MemoEntries::Dp(vec![MemoDpEntry {
                plan: PlanNode::SeqScan { table: 0 },
                cost: 1.0,
                pages: 10.0,
                order: MemoOrder::None,
            }]),
            candidates,
            probes: Vec::new(),
            unprobed_evals: 0,
            bound_pages: None,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let memo = SubplanMemo::with_capacity(8);
        let key: Box<[u64]> = vec![1, 2, 3].into_boxed_slice();
        assert!(memo.lookup(&key).is_none());
        memo.insert(key.clone(), record(7));
        let rec = memo.lookup(&key).expect("inserted");
        assert_eq!(rec.candidates, 7);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.records), (1, 1, 1));
        assert_eq!(s.evictions, 0);
        assert!(!memo.is_empty());
    }

    #[test]
    fn full_shards_evict_their_coldest_record() {
        // One shard makes the LRU order deterministic.
        let memo = SubplanMemo::with_shards(2, 1);
        memo.insert(vec![0u64].into_boxed_slice(), record(0));
        memo.insert(vec![1u64].into_boxed_slice(), record(1));
        // Touch key 0 so key 1 is the coldest.
        assert!(memo.lookup(&[0u64][..]).is_some());
        memo.insert(vec![2u64].into_boxed_slice(), record(2));
        assert_eq!(memo.len(), 2);
        assert!(memo.lookup(&[1u64][..]).is_none(), "coldest record evicted");
        assert!(memo.lookup(&[0u64][..]).is_some());
        assert!(memo.lookup(&[2u64][..]).is_some());
        assert_eq!(memo.stats().evictions, 1);
        // Replacing a retained key touches instead of evicting.
        memo.insert(vec![0u64].into_boxed_slice(), record(42));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.stats().evictions, 1);
        assert_eq!(memo.lookup(&[0u64][..]).unwrap().candidates, 42);
        // ... and is now the most recent: inserting once more evicts 2.
        memo.insert(vec![3u64].into_boxed_slice(), record(3));
        assert!(memo.lookup(&[2u64][..]).is_none());
        assert!(memo.lookup(&[0u64][..]).is_some());
    }

    #[test]
    fn lru_adapts_to_a_shifted_workload() {
        // A memo that keeps re-missing on a new hot set must converge to
        // holding it (the seed's shed-new-inserts policy pinned the old
        // set forever).
        let memo = SubplanMemo::with_shards(4, 1);
        for i in 0..4u64 {
            memo.insert(vec![i].into_boxed_slice(), record(i));
        }
        for i in 100..104u64 {
            memo.insert(vec![i].into_boxed_slice(), record(i));
        }
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.stats().evictions, 4);
        for i in 100..104u64 {
            assert!(memo.lookup(&[i][..]).is_some(), "new hot key {i} retained");
        }
    }
}
