//! The plan-cache guard: a 500-query skewed workload (repeats and
//! table-renamed copies of a 24-shape pool) served through `ConcurrentPlanServer`
//! versus fresh per-request optimization.
//!
//! Three jobs:
//!
//! 1. **Correctness**: every warm-cache response must be byte-identical
//!    (plan, cost bits, table numbering) to a fresh `Optimizer::optimize`
//!    of the same request — the run *fails* otherwise.
//! 2. **Regression guard**: the warm pass over the repeat workload must
//!    beat the fresh pass on wall time (cache hits skip the whole DP, so
//!    losing here means the canonicalizer or cache got pathologically
//!    slow) — enforced on every host, single-core included.
//! 3. **Record**: hit rate, per-decision latencies and the speedup land
//!    in `BENCH_plan_cache.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use lec_core::{Mode, Optimizer};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::{CacheDecision, ConcurrentPlanServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

const STREAM_LEN: usize = 500;
const POOL_SIZE: usize = 24;

fn random_perm(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// The 500-request skewed stream over a pool of base shapes: shape `i`
/// drawn with weight `1/(i+1)`, every occurrence randomly table-renamed.
fn build_stream(catalog: &lec_catalog::Catalog) -> Vec<Query> {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let mut wg = WorkloadGenerator::new(0x5EED);
    let pool: Vec<Query> = (0..POOL_SIZE)
        .map(|i| {
            let n = 4 + (i % 4); // 4..=7 tables
            let ids = g.pick_tables(catalog, n);
            let topology = [Topology::Chain, Topology::Star, Topology::Random][i % 3];
            wg.gen_query(
                catalog,
                &ids,
                &QueryProfile {
                    topology,
                    ..Default::default()
                },
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let weights: Vec<f64> = (0..pool.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    (0..STREAM_LEN)
        .map(|_| {
            let mut pick = rng.gen::<f64>() * total;
            let mut idx = pool.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    idx = i;
                    break;
                }
                pick -= w;
            }
            let q = &pool[idx];
            q.relabel_tables(&random_perm(&mut rng, q.n_tables()))
        })
        .collect()
}

fn bench_plan_cache(c: &mut Criterion) {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let catalog = g.generate(18);
    let stream = build_stream(&catalog);
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let mode = Mode::AlgorithmC;

    // Fresh baseline: every request optimized from scratch (no cache, no
    // pool reuse across requests beyond the optimizer's own config).
    let fresh = Optimizer::new(&catalog, memory.clone());
    let t0 = Instant::now();
    let fresh_results: Vec<_> = stream
        .iter()
        .map(|q| fresh.optimize(q, &mode).expect("fresh optimize"))
        .collect();
    let fresh_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Cold pass: a new server sees the stream once (recomputes per
    // distinct shape, hits on repeats), then the warm pass replays it.
    let server = ConcurrentPlanServer::new(&catalog, memory.clone());
    let t0 = Instant::now();
    for q in &stream {
        black_box(server.serve(q, &mode).expect("cold serve"));
    }
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cold_stats = server.cache_stats();

    let mut served_us: Vec<f64> = Vec::with_capacity(STREAM_LEN);
    let t0 = Instant::now();
    let warm_responses: Vec<_> = stream
        .iter()
        .map(|q| {
            let r = server.serve(q, &mode).expect("warm serve");
            served_us.push(r.stats.elapsed.as_secs_f64() * 1e6);
            r
        })
        .collect();
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Correctness: every warm response byte-identical to the fresh run.
    let mut all_served = true;
    for (i, (resp, fresh_r)) in warm_responses.iter().zip(&fresh_results).enumerate() {
        assert_eq!(
            resp.plan, fresh_r.plan,
            "request {i}: warm-cache plan differs from fresh optimization"
        );
        assert_eq!(
            resp.cost.to_bits(),
            fresh_r.cost.to_bits(),
            "request {i}: warm-cache cost bits differ from fresh optimization"
        );
        all_served &= resp.decision == CacheDecision::Served;
    }
    assert!(
        all_served,
        "every warm-pass request repeats a cached shape and must be served"
    );

    // Regression guard: the warm repeat workload must be faster than the
    // fresh workload.  Serving is a canonicalization plus a hash lookup —
    // two orders of magnitude under a DP — so 2x headroom is generous.
    assert!(
        warm_ms < fresh_ms / 2.0,
        "plan-cache regression: warm pass {warm_ms:.1}ms not faster than \
         half the fresh pass {fresh_ms:.1}ms"
    );

    served_us.sort_by(f64::total_cmp);
    let stats = server.cache_stats();
    let hit_rate = stats.hit_rate();
    println!(
        "plan-cache guard  fresh {fresh_ms:.1}ms, cold {cold_ms:.1}ms, warm {warm_ms:.1}ms \
         ({:.1}x vs fresh), hit rate {:.1}%, served p50 {:.0}us p99 {:.0}us",
        fresh_ms / warm_ms,
        hit_rate * 100.0,
        served_us[STREAM_LEN / 2],
        served_us[STREAM_LEN * 99 / 100],
    );

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_plan_cache.json");
    std::fs::write(
        out,
        serde_json::to_string_pretty(&json!({
            "bench": "plan_cache",
            "schema_version": lec_bench::BENCH_SCHEMA_VERSION,
            "host_cores": lec_bench::host_cores() as u64,
            "claim": "a warm canonical-shape cache serves a 500-query skewed repeat workload \
                      faster than per-request optimization, with every answer byte-identical \
                      (plan, cost bits, relabeled table ids) to a fresh run",
            "workload": {
                "requests": STREAM_LEN,
                "base_shapes": POOL_SIZE,
                "skew": "weight 1/(i+1) per shape, uniformly random table renaming per request",
                "tables_per_query": "4..=7",
                "mode": "AlgorithmC",
                "memory_buckets": 4,
            },
            "fresh_ms": fresh_ms,
            "cold_pass_ms": cold_ms,
            "warm_pass_ms": warm_ms,
            "speedup_warm_vs_fresh": fresh_ms / warm_ms,
            "cold_pass": {
                "hit_rate": cold_stats.hit_rate(),
                "served": cold_stats.served,
                "revalidated": cold_stats.revalidated,
                "recomputed": cold_stats.recomputed,
            },
            "lifetime_hit_rate": hit_rate,
            "served_latency_us": {
                "p50": served_us[STREAM_LEN / 2],
                "p90": served_us[STREAM_LEN * 9 / 10],
                "p99": served_us[STREAM_LEN * 99 / 100],
            },
            "cache_entries": server.cache_len(),
            "byte_identical_to_fresh": true,
        }))
        .unwrap(),
    )
    .expect("write BENCH_plan_cache.json");

    // Criterion timing groups so `cargo bench` history tracks both paths
    // on one hot shape.
    let hot = &stream[0];
    let mut group = c.benchmark_group("plan_cache");
    group.sample_size(20);
    group.bench_function("serve_warm", |b| {
        b.iter(|| black_box(server.serve(black_box(hot), &mode).unwrap().cost))
    });
    group.bench_function("optimize_fresh", |b| {
        b.iter(|| black_box(fresh.optimize(black_box(hot), &mode).unwrap().cost))
    });
    group.finish();
}

criterion_group!(benches, bench_plan_cache);
criterion_main!(benches);
