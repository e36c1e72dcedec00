//! Parallel-engine parity: for every candidate policy and every mode
//! wrapper, a search fanned out across worker threads must return a
//! `SearchOutcome` **byte-identical** to the serial engine's — same plan,
//! same cost bits, same `evals`, `cache_hits`, `candidates` and `nodes` —
//! on randomized 3–6-table fixtures at 2, 4 and 8 threads.  Also pins the
//! failure mode: a coster that panics inside a worker (a "poisoned
//! shard") must surface as `OptError::WorkerPanicked`, not a deadlock or
//! an unwound caller, and must leave the model usable.

use lec_core::search::{PersistentPool, PhaseCoster, SearchConfig, WorkerPool};
use lec_core::{
    exhaustive_best_with, optimize_alg_b_with, optimize_alg_d_with, optimize_lec_bushy_with,
    optimize_lec_dynamic_with, optimize_lec_static_with, optimize_lsc_with, AlgDConfig, Objective,
    OptError, SearchOutcome,
};
use lec_cost::CostModel;
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{presets, MarkovChain};
use proptest::prelude::*;
use std::sync::Arc;

fn workload(seed: u64, n: usize) -> (lec_catalog::Catalog, Query) {
    let mut g = lec_catalog::CatalogGenerator::new(seed);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let mut wg = WorkloadGenerator::new(seed ^ 0xBEEF);
    let q = wg.gen_query(
        &cat,
        &ids,
        &QueryProfile {
            topology: Topology::Random,
            ..Default::default()
        },
    );
    (cat, q)
}

/// A parallel config with the size gates forced open, so even 3-table
/// fixtures exercise the fan-out machinery.
fn forced(threads: usize) -> SearchConfig {
    SearchConfig {
        threads,
        fanout_threshold: 1,
        ..Default::default()
    }
}

/// Assert two outcomes are byte-identical in everything the engine
/// promises determinism for (elapsed is wall-clock and excluded).
fn assert_identical(name: &str, threads: usize, serial: &SearchOutcome, parallel: &SearchOutcome) {
    assert_eq!(&serial.plan, &parallel.plan, "{name}@{threads}: plan drift");
    assert_eq!(
        serial.cost.to_bits(),
        parallel.cost.to_bits(),
        "{name}@{threads}: cost drift ({} vs {})",
        serial.cost,
        parallel.cost
    );
    assert_eq!(
        serial.stats.evals, parallel.stats.evals,
        "{name}@{threads}: evals drift"
    );
    assert_eq!(
        serial.stats.cache_hits, parallel.stats.cache_hits,
        "{name}@{threads}: cache_hits drift"
    );
    assert_eq!(
        serial.stats.candidates, parallel.stats.candidates,
        "{name}@{threads}: candidates drift"
    );
    assert_eq!(
        serial.stats.nodes, parallel.stats.nodes,
        "{name}@{threads}: nodes drift"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every policy, serial vs 2/4/8 threads, on randomized fixtures.
    /// Fresh models per run keep the eval cache (and so `evals` /
    /// `cache_hits`) comparable.
    #[test]
    fn parallel_search_is_byte_identical_for_every_policy(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();
        let serial_cfg = SearchConfig::serial();

        type Runner = dyn Fn(&CostModel<'_>, &SearchConfig) -> Result<SearchOutcome, OptError>;
        let memory2 = memory.clone();
        let memory3 = memory.clone();
        let memory4 = memory.clone();
        let memory5 = memory.clone();
        let memory6 = memory.clone();
        let memory7 = memory.clone();
        let chain2 = chain.clone();
        let runners: Vec<(&str, Box<Runner>)> = vec![
            ("lsc", Box::new(move |m, c| optimize_lsc_with(m, memory2.mean(), c))),
            ("alg_b", Box::new(move |m, c| optimize_alg_b_with(m, &memory3, 3, c))),
            ("alg_c", Box::new(move |m, c| optimize_lec_static_with(m, &memory4, c))),
            ("alg_c_dyn", Box::new(move |m, c| optimize_lec_dynamic_with(m, &memory5, &chain2, c))),
            ("alg_d", Box::new(move |m, c| optimize_alg_d_with(m, &memory6, &AlgDConfig::default(), c))),
            ("bushy", Box::new(move |m, c| optimize_lec_bushy_with(m, &memory7, c))),
            ("exhaustive", Box::new(move |m, c| exhaustive_best_with(m, &Objective::Expected(&memory), c))),
        ];

        for (name, run) in &runners {
            let serial_model = CostModel::new(&cat, &q);
            let serial = run(&serial_model, &serial_cfg).unwrap();
            for threads in [2usize, 4, 8] {
                let par_model = CostModel::new(&cat, &q);
                let parallel = run(&par_model, &forced(threads)).unwrap();
                assert_identical(name, threads, &serial, &parallel);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The subplan memo must be invisible in outcomes: for every
    /// memo-eligible policy, a memo-assisted search — cold or warm, serial
    /// or fanned out across 4 threads — returns a `SearchOutcome`
    /// byte-identical to the memo-free serial engine's (plan, cost bits,
    /// `evals`, `cache_hits`, `candidates`, `nodes`), and warm repeats
    /// actually hit.  Ineligible policies (top-c, exhaustive) ride along
    /// to pin that they bypass the memo unchanged.
    #[test]
    fn subplan_memo_searches_are_byte_identical(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        use lec_core::search::SubplanMemo;
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();

        type Runner = dyn Fn(&CostModel<'_>, &SearchConfig) -> Result<SearchOutcome, OptError>;
        let memory2 = memory.clone();
        let memory3 = memory.clone();
        let memory4 = memory.clone();
        let memory5 = memory.clone();
        let memory6 = memory.clone();
        let memory7 = memory.clone();
        let chain2 = chain.clone();
        // (name, runner, memo-eligible?)
        let runners: Vec<(&str, Box<Runner>, bool)> = vec![
            ("lsc", Box::new(move |m, c| optimize_lsc_with(m, memory2.mean(), c)), true),
            ("alg_c", Box::new(move |m, c| optimize_lec_static_with(m, &memory3, c)), true),
            ("alg_c_dyn", Box::new(move |m, c| optimize_lec_dynamic_with(m, &memory4, &chain2, c)), true),
            ("alg_d", Box::new(move |m, c| optimize_alg_d_with(m, &memory5, &AlgDConfig::default(), c)), true),
            ("bushy", Box::new(move |m, c| optimize_lec_bushy_with(m, &memory6, c)), true),
            ("alg_b", Box::new(move |m, c| optimize_alg_b_with(m, &memory7, 3, c)), false),
            ("exhaustive", Box::new(move |m, c| exhaustive_best_with(m, &Objective::Expected(&memory), c)), false),
        ];

        for (name, run, eligible) in &runners {
            let baseline_model = CostModel::new(&cat, &q);
            let baseline = run(&baseline_model, &SearchConfig::serial()).unwrap();

            let memo = Arc::new(SubplanMemo::default());
            // Pass 1 (cold, serial), pass 2 (warm, serial), pass 3 (warm,
            // forced 4-thread fan-out, same shared memo).
            let serial_memo = SearchConfig::serial().with_memo(Arc::clone(&memo));
            let par_memo = forced(4).with_memo(Arc::clone(&memo));
            for (pass, cfg) in [&serial_memo, &serial_memo, &par_memo].into_iter().enumerate() {
                let model = CostModel::new(&cat, &q);
                let out = run(&model, cfg).unwrap();
                assert_identical(&format!("{name}+memo(pass {pass})"), 1, &baseline, &out);
                if *eligible && pass > 0 {
                    prop_assert!(out.stats.memo_hits > 0,
                        "{}: warm pass {} must hit the memo", name, pass);
                }
                if !*eligible {
                    prop_assert_eq!(out.stats.memo_hits + out.stats.memo_misses, 0,
                        "{}: ineligible policy must bypass the memo", name);
                }
            }
            if *eligible {
                prop_assert!(!memo.is_empty(), "{}: eligible searches must populate", name);
            }
        }
    }

    /// One memo shared by searches under *different* memory beliefs (and
    /// different costers) must never cross-contaminate: the environment
    /// fingerprint keys them apart, and every answer stays byte-identical
    /// to its own memo-free baseline.
    #[test]
    fn shared_memo_isolates_different_environments(
        seed in 0u64..4000,
        n in 3usize..6,
        center in 80.0f64..2000.0,
    ) {
        use lec_core::search::SubplanMemo;
        let (cat, q) = workload(seed, n);
        let mem_a = presets::spread_family(center, 0.5, 4).unwrap();
        let mem_b = presets::spread_family(center * 1.7, 0.3, 5).unwrap();
        let memo = Arc::new(SubplanMemo::default());
        let cfg = SearchConfig::serial().with_memo(Arc::clone(&memo));
        // Interleave the two environments twice so each one's second pass
        // runs against a memo already full of the *other* environment.
        for _ in 0..2 {
            for memory in [&mem_a, &mem_b] {
                let base_model = CostModel::new(&cat, &q);
                let base = optimize_lec_static_with(&base_model, memory, &SearchConfig::serial()).unwrap();
                let model = CostModel::new(&cat, &q);
                let out = optimize_lec_static_with(&model, memory, &cfg).unwrap();
                assert_identical("alg_c+shared-memo", 1, &base, &out);

                let d_base_model = CostModel::new(&cat, &q);
                let d_base = optimize_alg_d_with(
                    &d_base_model, memory, &AlgDConfig::default(), &SearchConfig::serial()).unwrap();
                let d_model = CostModel::new(&cat, &q);
                let d_out = optimize_alg_d_with(&d_model, memory, &AlgDConfig::default(), &cfg).unwrap();
                assert_identical("alg_d+shared-memo", 1, &d_base, &d_out);
            }
        }
    }
}

/// Cross-query partial reuse: two overlapping chain windows share every
/// subchain of their 5-table intersection, so the second query's search
/// must hit exactly those nodes — and still be byte-identical to its
/// memo-free baseline.
#[test]
fn overlapping_queries_share_subplan_nodes() {
    use lec_core::search::SubplanMemo;
    use lec_plan::{ColumnRef, JoinPredicate, QueryTable};

    let mut cat = lec_catalog::Catalog::new();
    let ids: Vec<_> = (0..7)
        .map(|i| {
            cat.add_table(
                format!("W{i}"),
                lec_catalog::TableStats::new(
                    900 * (i as u64 + 1),
                    40_000 * (i as u64 + 2),
                    vec![
                        lec_catalog::ColumnStats::plain("a", 50 + i as u64),
                        lec_catalog::ColumnStats::plain("b", 90 + i as u64),
                    ],
                ),
            )
        })
        .collect();
    let chain_query = |lo: usize, hi: usize| Query {
        tables: ids[lo..hi].iter().map(|&t| QueryTable::bare(t)).collect(),
        joins: (0..hi - lo - 1)
            .map(|i| {
                JoinPredicate::exact(
                    ColumnRef::new(i, 1),
                    ColumnRef::new(i + 1, 0),
                    1e-5 * (lo + i + 1) as f64,
                )
            })
            .collect(),
        required_order: None,
    };
    let qa = chain_query(0, 6);
    let qb = chain_query(1, 7);
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    let memo = Arc::new(SubplanMemo::default());
    let cfg = SearchConfig::serial().with_memo(Arc::clone(&memo));

    let model_a = CostModel::new(&cat, &qa);
    let _ = optimize_lec_static_with(&model_a, &memory, &cfg).unwrap();

    let base_model = CostModel::new(&cat, &qb);
    let base = optimize_lec_static_with(&base_model, &memory, &SearchConfig::serial()).unwrap();
    let model_b = CostModel::new(&cat, &qb);
    let out = optimize_lec_static_with(&model_b, &memory, &cfg).unwrap();
    assert_identical("overlap", 1, &base, &out);
    // The 5-table intersection contributes 4+3+2+1 = 10 shared connected
    // subchains plus its 5 singleton access-path nodes; the 5 subchains
    // and 1 singleton touching the new endpoint are fresh.
    assert_eq!(
        out.stats.memo_hits, 15,
        "every shared subchain and singleton must hit"
    );
    assert_eq!(out.stats.memo_misses, 6, "every fresh node must miss");
}

/// Twin tables distinguished only *outside* a sub-subset: the body of
/// {hub, s1, s2, x} is asymmetric (x pins s1), but its child {hub, s1,
/// s2} is automorphic and tie-breaks by arrival order.  Memoizing the
/// root would carry that label-dependent choice across isomorphic
/// queries; the twin refusal keeps every such node out of the memo, so a
/// shared memo stays byte-identical across the relabeling.
#[test]
fn globally_distinguished_twins_stay_byte_identical_under_a_shared_memo() {
    use lec_core::search::SubplanMemo;
    use lec_plan::{ColumnRef, JoinPredicate, QueryTable};

    let mut cat = lec_catalog::Catalog::new();
    let hub = cat.add_table(
        "hub",
        lec_catalog::TableStats::new(
            50_000,
            2_500_000,
            vec![lec_catalog::ColumnStats::plain("a", 100)],
        ),
    );
    let spoke = || {
        lec_catalog::TableStats::new(
            1000,
            50_000,
            vec![lec_catalog::ColumnStats::plain("a", 100)],
        )
    };
    let s1 = cat.add_table("s1", spoke());
    let s2 = cat.add_table("s2", spoke());
    let x = cat.add_table(
        "x",
        lec_catalog::TableStats::new(
            7000,
            300_000,
            vec![lec_catalog::ColumnStats::plain("a", 100)],
        ),
    );
    let q = Query {
        tables: [hub, s1, s2, x].into_iter().map(QueryTable::bare).collect(),
        joins: vec![
            JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(1, 0), 1e-5),
            JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(2, 0), 1e-5),
            JoinPredicate::exact(ColumnRef::new(1, 0), ColumnRef::new(3, 0), 1e-4),
        ],
        required_order: None,
    };
    let q2 = q.relabel_tables(&[0, 2, 1, 3]); // swap the twins
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();

    let memo = Arc::new(SubplanMemo::default());
    let cfg = SearchConfig::serial().with_memo(Arc::clone(&memo));
    for query in [&q, &q2, &q, &q2] {
        let base_model = CostModel::new(&cat, query);
        let base = optimize_lec_static_with(&base_model, &memory, &SearchConfig::serial()).unwrap();
        let model = CostModel::new(&cat, query);
        let out = optimize_lec_static_with(&model, &memory, &cfg).unwrap();
        assert_identical("twin-fixture", 1, &base, &out);
        // Nodes containing both twins must never be served from the memo;
        // singleton nodes hold one table and are always eligible — the
        // twin spokes even share one singleton record (their occurrence
        // fingerprints are equal, and a one-member subset has no pair to
        // refuse), which is sound because a depth-1 node is a pure
        // function of that fingerprint.
        assert_eq!(
            out.stats.memo_hits + out.stats.memo_misses,
            8,
            "4 twin-free composite subsets + 4 singleton nodes"
        );
    }
}

/// The persistent cross-search pool must be invisible in outcomes: for
/// every policy, a search whose workers come from long-lived parked
/// threads is byte-identical to the serial driver at 2, 4 and 8 threads —
/// and one pool serves many searches (and many thread counts) in a row.
#[test]
fn persistent_pool_searches_are_byte_identical_to_serial() {
    let pool: Arc<dyn WorkerPool> = Arc::new(PersistentPool::new(8));
    let memory = presets::spread_family(600.0, 0.6, 4).unwrap();
    let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();
    for seed in [3u64, 17, 101] {
        let (cat, q) = workload(seed, 5);
        type Runner = dyn Fn(&CostModel<'_>, &SearchConfig) -> Result<SearchOutcome, OptError>;
        let runners: Vec<(&str, Box<Runner>)> = vec![
            ("alg_c", {
                let m = memory.clone();
                Box::new(move |model, c| optimize_lec_static_with(model, &m, c))
            }),
            ("alg_c_dyn", {
                let (m, ch) = (memory.clone(), chain.clone());
                Box::new(move |model, c| optimize_lec_dynamic_with(model, &m, &ch, c))
            }),
            ("alg_d", {
                let m = memory.clone();
                Box::new(move |model, c| optimize_alg_d_with(model, &m, &AlgDConfig::default(), c))
            }),
            ("bushy", {
                let m = memory.clone();
                Box::new(move |model, c| optimize_lec_bushy_with(model, &m, c))
            }),
        ];
        for (name, run) in &runners {
            let serial_model = CostModel::new(&cat, &q);
            let serial = run(&serial_model, &SearchConfig::serial()).unwrap();
            for threads in [2usize, 4, 8] {
                let cfg = SearchConfig {
                    pool: Some(Arc::clone(&pool)),
                    ..forced(threads)
                };
                let par_model = CostModel::new(&cat, &q);
                let parallel = run(&par_model, &cfg).unwrap();
                assert_identical(&format!("{name}+pool"), threads, &serial, &parallel);
            }
        }
    }
}

/// A panicking search through the persistent pool surfaces as
/// `WorkerPanicked` and leaves the pool healthy for the next search.
#[test]
fn persistent_pool_survives_a_poisoned_search() {
    use lec_core::search::{run_search_with, KeepBestPolicy, PlanShape};
    let pool: Arc<dyn WorkerPool> = Arc::new(PersistentPool::new(4));
    let (cat, q) = lec_core::fixtures::scaling_chain(5);
    let model = CostModel::new(&cat, &q);
    let cfg = SearchConfig {
        pool: Some(Arc::clone(&pool)),
        ..forced(4)
    };
    let mut policy = KeepBestPolicy::new(PoisonedCoster);
    let res = run_search_with(&model, PlanShape::LeftDeep, &mut policy, &cfg);
    assert!(matches!(res, Err(OptError::WorkerPanicked)), "got {res:?}");
    // The same pool then answers a healthy parallel search, byte-identical
    // to serial.
    let memory = presets::spread_family(400.0, 0.5, 4).unwrap();
    let healthy_model = CostModel::new(&cat, &q);
    let healthy = optimize_lec_static_with(&healthy_model, &memory, &cfg).unwrap();
    let serial_model = CostModel::new(&cat, &q);
    let serial = optimize_lec_static_with(&serial_model, &memory, &SearchConfig::serial()).unwrap();
    assert_identical("healthy-after-poison", 4, &serial, &healthy);
}

/// A coster that panics when it sees a composite join — always on a
/// worker thread once the fan-out is forced on.
#[derive(Debug, Clone)]
struct PoisonedCoster;

impl PhaseCoster for PoisonedCoster {
    fn join_cost(
        &self,
        _model: &CostModel<'_>,
        _ctx: &lec_core::search::JoinContext,
        _method: lec_plan::JoinMethod,
        _outer: f64,
        _inner: f64,
    ) -> f64 {
        panic!("poisoned shard: the coster blew up mid-combine")
    }

    fn sort_cost(
        &self,
        _model: &CostModel<'_>,
        _set: lec_plan::TableSet,
        _phase: usize,
        _pages: f64,
    ) -> f64 {
        panic!("poisoned shard: the coster blew up mid-sort")
    }
}

#[test]
fn panicking_coster_propagates_as_error_not_deadlock() {
    use lec_core::search::{run_search_with, KeepBestPolicy, PlanShape};
    let (cat, q) = lec_core::fixtures::scaling_chain(5);
    let model = CostModel::new(&cat, &q);
    for threads in [2usize, 4, 8] {
        let mut policy = KeepBestPolicy::new(PoisonedCoster);
        let res = run_search_with(&model, PlanShape::LeftDeep, &mut policy, &forced(threads));
        assert!(
            matches!(res, Err(OptError::WorkerPanicked)),
            "threads={threads}: expected WorkerPanicked, got {res:?}"
        );
    }
    // The shard mutexes recover from the poisoned compute: the same model
    // still answers a healthy search afterwards.
    let healthy = lec_core::optimize_lsc(&model, 400.0).unwrap();
    assert!(healthy.cost > 0.0);
}

#[test]
fn workaware_gate_keeps_sparse_chains_serial() {
    // An 8-table chain has C(8,4) = 70 subsets at its widest level but
    // only 5 connected ones — under the default threshold it must stay
    // serial; a 10-table star (C(9,4) = 126 connected mid-level subsets)
    // must fan out.
    let (_, chain) = lec_core::fixtures::scaling_chain(8);
    let (_, star) = lec_core::fixtures::scaling_star(10);
    let cfg = SearchConfig::with_threads(4);
    assert!(!cfg.fans_out(&chain), "sparse chain must stay serial");
    assert!(cfg.fans_out(&star), "wide star must fan out");
    assert!(!SearchConfig::serial().fans_out(&star));
}

#[test]
fn serial_config_takes_the_serial_path() {
    // threads = 1 must behave exactly like run_search: same result type,
    // no worker machinery (observable via WorkerPanicked never appearing
    // for a healthy policy, and identical outcomes).
    let (cat, q) = lec_core::fixtures::three_chain();
    let model = CostModel::new(&cat, &q);
    let memory = presets::spread_family(400.0, 0.6, 4).unwrap();
    let a = lec_core::optimize_lec_static(&model, &memory).unwrap();
    let model2 = CostModel::new(&cat, &q);
    let b = optimize_lec_static_with(&model2, &memory, &SearchConfig::serial()).unwrap();
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert!(SearchConfig::serial().effective_threads() == 1);
    assert!(SearchConfig::with_threads(7).effective_threads() == 7);
    assert!(SearchConfig::default().effective_threads() >= 1);
}

// ---------------------------------------------------------------------
// Bound-based pruning: answers, schedule independence, admissibility.
// ---------------------------------------------------------------------

/// Every subtree's table set in `plan` (composite and singleton alike).
fn subtree_sets(plan: &lec_plan::PlanNode, out: &mut Vec<lec_plan::TableSet>) {
    use lec_plan::PlanNode;
    match plan {
        PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => {}
        PlanNode::Sort { input, .. } => subtree_sets(input, out),
        PlanNode::Join { outer, inner, .. } => {
            subtree_sets(outer, out);
            subtree_sets(inner, out);
        }
    }
    out.push(plan.tables());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Branch-and-bound pruning must be invisible in answers: for every
    /// prune-eligible policy (and the streaming keep-all verifier), the
    /// pruned search returns the same plan and the same cost bits as the
    /// unpruned one — serially and fanned out.  Work counters may differ
    /// (that is the point of pruning); the answer may not.
    #[test]
    fn pruned_searches_return_byte_identical_answers(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();

        type Runner = dyn Fn(&CostModel<'_>, &SearchConfig) -> Result<SearchOutcome, OptError>;
        let memory2 = memory.clone();
        let memory3 = memory.clone();
        let memory4 = memory.clone();
        let memory5 = memory.clone();
        let memory6 = memory.clone();
        let runners: Vec<(&str, Box<Runner>)> = vec![
            ("lsc", Box::new(move |m, c| optimize_lsc_with(m, memory2.mean(), c))),
            ("alg_c", Box::new(move |m, c| optimize_lec_static_with(m, &memory3, c))),
            ("alg_c_dyn", Box::new(move |m, c| optimize_lec_dynamic_with(m, &memory4, &chain, c))),
            ("alg_d", Box::new(move |m, c| optimize_alg_d_with(m, &memory5, &AlgDConfig::default(), c))),
            ("bushy", Box::new(move |m, c| optimize_lec_bushy_with(m, &memory6, c))),
            ("exhaustive", Box::new(move |m, c| exhaustive_best_with(m, &Objective::Expected(&memory), c))),
        ];

        for (name, run) in &runners {
            let base_model = CostModel::new(&cat, &q);
            let base = run(&base_model, &SearchConfig::serial()).unwrap();
            let configs = [
                SearchConfig::serial().with_pruning(true),
                forced(2).with_pruning(true),
                forced(4).with_pruning(true),
            ];
            for (i, cfg) in configs.iter().enumerate() {
                let model = CostModel::new(&cat, &q);
                let out = run(&model, cfg).unwrap();
                prop_assert_eq!(&base.plan, &out.plan, "{} cfg {}: plan drift", name, i);
                prop_assert_eq!(
                    base.cost.to_bits(), out.cost.to_bits(),
                    "{} cfg {}: cost drift ({} vs {})", name, i, base.cost, out.cost
                );
            }
        }
    }

    /// A pruned search's counters are part of the determinism contract
    /// *between schedules*: pruned serial and pruned parallel agree on
    /// every counter — `pruned_subsets` included — because the incumbent
    /// only tightens at level barriers, never mid-level.
    #[test]
    fn pruned_stats_are_schedule_independent(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
    ) {
        let memory = presets::spread_family(center, 0.5, 4).unwrap();
        let (cat, q) = workload(seed, n);
        let serial_model = CostModel::new(&cat, &q);
        let serial = optimize_lec_static_with(
            &serial_model, &memory, &SearchConfig::serial().with_pruning(true),
        ).unwrap();
        for threads in [2usize, 4] {
            let model = CostModel::new(&cat, &q);
            let par = optimize_lec_static_with(
                &model, &memory, &forced(threads).with_pruning(true),
            ).unwrap();
            assert_identical("alg_c+pruning", threads, &serial, &par);
            prop_assert_eq!(
                serial.stats.pruned_subsets, par.stats.pruned_subsets,
                "pruned_subsets must be schedule-independent"
            );
            prop_assert_eq!(
                serial.stats.bound_evals, par.stats.bound_evals,
                "bound_evals must be schedule-independent (no memo installed)"
            );
            prop_assert_eq!(
                serial.stats.sharp_bound_evals, par.stats.sharp_bound_evals,
                "sharp_bound_evals must be schedule-independent"
            );
            prop_assert_eq!(
                serial.stats.cheap_bound_skips, par.stats.cheap_bound_skips,
                "cheap_bound_skips must be schedule-independent"
            );
        }
    }

    /// Tentpole admissibility, at the per-edge layer: every
    /// [`EdgeBound`]'s intermediate-size floor is at or below the
    /// *realized* output size of that base join under **every** memory
    /// bucket of the operand-size and selectivity distributions and both
    /// operand orders — the invariant that makes the sharp subset floor
    /// safe.  The tiered counters the sharp layer feeds are then pinned
    /// schedule-independent at 1, 2 and 4 threads.
    #[test]
    fn per_edge_size_bounds_are_admissible(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        use lec_core::search::{PlanShape, PruneState, StaticExpectationCoster};
        use lec_cost::formulas::MIN_PAGES;
        use lec_plan::TableSet;

        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let model = CostModel::new(&cat, &q);
        let bound = StaticExpectationCoster::new(&memory)
            .pruning_bound()
            .expect("alg_c is prune-eligible");
        let ps = PruneState::new(&model, PlanShape::LeftDeep, bound, vec![0.0; n]);

        for eb in ps.edge_bounds() {
            for order in [(eb.u, eb.v), (eb.v, eb.u)] {
                let (x, y) = order;
                let px = model.base_pages_dist(x);
                let py = model.base_pages_dist(y);
                let sel = model.join_selectivity_dist_sets(
                    TableSet::singleton(x),
                    TableSet::singleton(y),
                );
                for &pxv in px.support() {
                    for &pyv in py.support() {
                        for &sv in sel.support() {
                            let realized = (pxv * pyv * sv).max(MIN_PAGES);
                            prop_assert!(
                                eb.size_floor <= realized + 1e-9,
                                "edge ({},{}): size floor {} exceeds realized {} \
                                 (pages {}x{}, sel {})",
                                eb.u, eb.v, eb.size_floor, realized, pxv, pyv, sv
                            );
                        }
                    }
                }
            }
        }

        // The sharp layer's counters are schedule-independent.
        let serial_model = CostModel::new(&cat, &q);
        let serial = optimize_lec_static_with(
            &serial_model, &memory, &SearchConfig::serial().with_pruning(true),
        ).unwrap();
        for threads in [2usize, 4] {
            let par_model = CostModel::new(&cat, &q);
            let par = optimize_lec_static_with(
                &par_model, &memory, &forced(threads).with_pruning(true),
            ).unwrap();
            prop_assert_eq!(serial.stats.sharp_bound_evals, par.stats.sharp_bound_evals);
            prop_assert_eq!(serial.stats.cheap_bound_skips, par.stats.cheap_bound_skips);
            prop_assert_eq!(serial.stats.pruned_subsets, par.stats.pruned_subsets);
        }
    }

    /// Admissibility, checked against ground truth: every subtree of the
    /// plan a policy actually chose must survive its own bound —
    /// `subset_floor(S) <= cost` for every subtree set `S` of the chosen
    /// plan.  (A violation is exactly the failure that would make pruning
    /// discard the optimal plan.)
    #[test]
    fn bounds_are_admissible_on_the_chosen_plans(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        use lec_core::search::{
            DynamicExpectationCoster, PointCoster, PruneState, StaticExpectationCoster,
        };
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();
        let model = CostModel::new(&cat, &q);

        type Case = (
            &'static str,
            Option<Box<dyn lec_core::search::LowerBound>>,
            SearchOutcome,
        );
        let cases: Vec<Case> = vec![
            (
                "lsc",
                PointCoster { memory: memory.mean() }.pruning_bound(),
                optimize_lsc_with(&model, memory.mean(), &SearchConfig::serial()).unwrap(),
            ),
            (
                "alg_c",
                StaticExpectationCoster::new(&memory).pruning_bound(),
                optimize_lec_static_with(&model, &memory, &SearchConfig::serial()).unwrap(),
            ),
            (
                "alg_c_dyn",
                DynamicExpectationCoster::new(&memory, &chain, n).unwrap().pruning_bound(),
                optimize_lec_dynamic_with(&model, &memory, &chain, &SearchConfig::serial()).unwrap(),
            ),
        ];
        for (name, bound, outcome) in cases {
            // Zero access floors keep the state admissible a fortiori;
            // the size product and join floors are the load-bearing part.
            let ps = PruneState::new(
                &model,
                lec_core::search::PlanShape::LeftDeep,
                bound.expect("coster is prune-eligible"),
                vec![0.0; n],
            );
            let mut sets = Vec::new();
            subtree_sets(&outcome.plan, &mut sets);
            for set in sets {
                let pages = ps.bound().pages_floor(&model, set);
                let floor = ps.subset_floor(set, pages);
                prop_assert!(
                    floor <= outcome.cost + 1e-6,
                    "{}: subtree {:?} floor {} exceeds the chosen plan's cost {}",
                    name, set, floor, outcome.cost
                );
            }
        }
    }
}

/// The pruning fixtures actually prune — and whatever they discard, the
/// answer, the counters, and the schedule-independence contract all hold,
/// against both the unpruned search and across thread counts.
#[test]
fn pruning_fixtures_prune_without_changing_answers() {
    let memory = presets::spread_family(400.0, 0.5, 4).unwrap();
    for (cat, q) in [
        lec_core::fixtures::pruning_chain(9),
        lec_core::fixtures::pruning_star(10),
    ] {
        let base_model = CostModel::new(&cat, &q);
        let base = optimize_lec_static_with(&base_model, &memory, &SearchConfig::serial()).unwrap();
        let serial_model = CostModel::new(&cat, &q);
        let serial = optimize_lec_static_with(
            &serial_model,
            &memory,
            &SearchConfig::serial().with_pruning(true),
        )
        .unwrap();
        assert!(
            serial.stats.pruned_subsets > 0,
            "the fixture must actually trigger pruning"
        );
        assert_eq!(base.plan, serial.plan, "pruning changed the plan");
        assert_eq!(
            base.cost.to_bits(),
            serial.cost.to_bits(),
            "pruning changed the cost"
        );
        for threads in [2usize, 4] {
            let model = CostModel::new(&cat, &q);
            let par =
                optimize_lec_static_with(&model, &memory, &forced(threads).with_pruning(true))
                    .unwrap();
            assert_identical("pruning-fixture", threads, &serial, &par);
            assert_eq!(serial.stats.pruned_subsets, par.stats.pruned_subsets);
            assert_eq!(serial.stats.bound_evals, par.stats.bound_evals);
            assert_eq!(serial.stats.sharp_bound_evals, par.stats.sharp_bound_evals);
            assert_eq!(serial.stats.cheap_bound_skips, par.stats.cheap_bound_skips);
        }
    }
}
