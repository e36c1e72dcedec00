//! Cross-query subplan reuse: the dag-node-granularity cache in action.
//!
//! The serving layer's whole-request cache only helps when an *entire*
//! query is a renaming of one served before.  The subplan memo works a
//! level below: two different-shaped queries that merely overlap — here,
//! two 6-table chain windows sharing a 5-table subchain — reuse every DP
//! node their induced subqueries have in common, byte-identically.
//!
//! Run with `cargo run --release --example subplan_memo`.

use lec_core::search::SubplanMemo;
use lec_core::{Mode, Optimizer, SearchConfig};
use lec_plan::{ColumnRef, JoinPredicate, Query, QueryTable};
use lec_service::ConcurrentPlanServer;
use std::sync::Arc;

fn chain_window(ids: &[lec_catalog::TableId], lo: usize, len: usize) -> Query {
    Query {
        tables: ids[lo..lo + len]
            .iter()
            .map(|&t| QueryTable::bare(t))
            .collect(),
        joins: (0..len - 1)
            .map(|i| {
                JoinPredicate::exact(
                    ColumnRef::new(i, 1),
                    ColumnRef::new(i + 1, 0),
                    1e-5 * (lo + i + 1) as f64,
                )
            })
            .collect(),
        required_order: None,
    }
}

fn main() {
    // A 7-table chain catalog with strictly distinct statistics.
    let mut cat = lec_catalog::Catalog::new();
    let ids: Vec<_> = (0..7u64)
        .map(|i| {
            cat.add_table(
                format!("T{i}"),
                lec_catalog::TableStats::new(
                    900 * (i + 1),
                    40_000 * (i + 2),
                    vec![
                        lec_catalog::ColumnStats::plain("a", 50 + i),
                        lec_catalog::ColumnStats::plain("b", 90 + i),
                    ],
                ),
            )
        })
        .collect();
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();

    // Two different-shaped queries overlapping on tables 1..6.
    let qa = chain_window(&ids, 0, 6);
    let qb = chain_window(&ids, 1, 6);

    let memo = Arc::new(SubplanMemo::default());
    let assisted = Optimizer::new(&cat, memory.clone())
        .with_search_config(SearchConfig::serial())
        .with_subplan_memo(Arc::clone(&memo));
    let plain = Optimizer::new(&cat, memory.clone()).with_search_config(SearchConfig::serial());
    let mode = Mode::AlgorithmC;

    let first = assisted.optimize(&qa, &mode).unwrap();
    println!(
        "query A (tables 0-5): {} nodes, memo {} hits / {} misses",
        first.stats.nodes, first.stats.memo_hits, first.stats.memo_misses
    );

    let second = assisted.optimize(&qb, &mode).unwrap();
    println!(
        "query B (tables 1-6): {} nodes, memo {} hits / {} misses  \
         <- the shared 5-table subchain's {} subsets were not re-combined",
        second.stats.nodes,
        second.stats.memo_hits,
        second.stats.memo_misses,
        second.stats.memo_hits
    );
    assert!(
        second.stats.memo_hits > 0,
        "overlap must produce partial hits"
    );

    // Byte-identity: the memo changes work, never answers.
    let fresh = plain.optimize(&qb, &mode).unwrap();
    assert_eq!(fresh.plan, second.plan);
    assert_eq!(fresh.cost.to_bits(), second.cost.to_bits());
    assert_eq!(fresh.stats.evals, second.stats.evals);
    assert_eq!(fresh.stats.cache_hits, second.stats.cache_hits);
    println!(
        "byte-identical to a memo-free search: plan, cost bits, evals ({}), cache_hits ({})",
        second.stats.evals, second.stats.cache_hits
    );

    // The serving layer wires this up by default: a ConcurrentPlanServer's
    // searches share one memo, so even cold different-shaped requests
    // reuse nodes.
    let server = ConcurrentPlanServer::new(&cat, memory);
    let a = server.serve(&qa, &mode).unwrap();
    let b = server.serve(&qb, &mode).unwrap();
    println!(
        "ConcurrentPlanServer: A {:?} ({} memo misses), B {:?} ({} memo hits)",
        a.decision, a.stats.memo_misses, b.decision, b.stats.memo_hits
    );
    assert!(
        b.stats.memo_hits > 0,
        "the server's memo must carry across requests"
    );
    println!(
        "metrics: {}",
        serde_json::to_string_pretty(&server.metrics_json()["memo"]).unwrap()
    );
}
