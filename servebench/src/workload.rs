//! The three workloads: their fixed settings, the seeded request streams,
//! and the oracle every served plan is checked against.

use lec_catalog::{Catalog, CatalogGenerator, TableId};
use lec_core::lsc::PointEstimate;
use lec_core::{AlgDConfig, Mode, Optimizer};
use lec_plan::{PlanNode, Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A small warmed working set: the hit path alone.
    WarmHits,
    /// Never-seen 8–12-table queries: the DP engine and eval cache.
    ColdSearch,
    /// A working set larger than the plan cache: hits, misses and evictions.
    ChurnMixed,
}

const TOPOLOGIES: [Topology; 3] = [Topology::Chain, Topology::Star, Topology::Random];

/// The query population is fixed: one catalog, one set of base shapes per
/// workload, and one sequence of never-repeating cold queries.  The seed
/// drives the traffic over it — which shape each request draws and how its
/// tables are renamed — so runs with different seeds differ in what is
/// asked and how, while the work a run can do stays comparable.
const CATALOG_SEED: u64 = 31;
const SHAPES_SEED: u64 = 0x5EED_5AAE;
const COLD_SEED: u64 = 0xC01D_5EA2;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmHits,
        Workload::ColdSearch,
        Workload::ChurnMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHits => "warm_hits",
            Workload::ColdSearch => "cold_search",
            Workload::ChurnMixed => "churn_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients, each waiting for its plan before sending on.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdSearch => 1,
            Workload::WarmHits | Workload::ChurnMixed => 2,
        }
    }

    /// Base shapes the skewed stream draws from (none: every request is new).
    fn base_shapes(self) -> usize {
        match self {
            Workload::WarmHits => 24,
            Workload::ColdSearch => 0,
            Workload::ChurnMixed => 3000,
        }
    }

    /// The memory belief the server optimizes under.
    pub fn memory(self) -> Distribution {
        let buckets = match self {
            Workload::ColdSearch => 16,
            Workload::WarmHits | Workload::ChurnMixed => 4,
        };
        lec_prob::presets::spread_family(500.0, 0.6, buckets).expect("valid memory family")
    }

    /// Whether the plan cache is filled with every base shape before the
    /// measured phase.
    pub fn warmed(self) -> bool {
        self == Workload::WarmHits
    }
}

/// Everything a workload's requests are drawn from.
pub struct Inputs {
    pub workload: Workload,
    pub catalog: Catalog,
    pub memory: Distribution,
    /// Base shapes in skew order: shape `i` is drawn with weight `1/(i+1)`.
    pub shapes: Vec<Query>,
    /// Running sums of the shape weights, for inverse-CDF draws.
    cum_weights: Vec<f64>,
    seed: u64,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let catalog = CatalogGenerator::new(CATALOG_SEED).generate(24);
        let mut g = CatalogGenerator::new(SHAPES_SEED ^ workload as u64);
        let mut wg = WorkloadGenerator::new(SHAPES_SEED);
        let shapes: Vec<Query> = (0..workload.base_shapes())
            .map(|i| {
                let ids = g.pick_tables(&catalog, 4 + i % 4);
                let profile = QueryProfile {
                    topology: TOPOLOGIES[i % 3],
                    ..Default::default()
                };
                wg.gen_query(&catalog, &ids, &profile)
            })
            .collect();
        let cum_weights = (0..shapes.len())
            .scan(0.0, |acc, i| {
                *acc += 1.0 / (i as f64 + 1.0);
                Some(*acc)
            })
            .collect();
        Inputs {
            workload,
            memory: workload.memory(),
            catalog,
            shapes,
            cum_weights,
            seed,
        }
    }

    /// The request stream of client `stream` (streams are independent and
    /// each is a pure function of the seed and its index).
    pub fn stream(&self, stream: u64) -> RequestStream<'_> {
        let mix = (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        RequestStream {
            inputs: self,
            rng: StdRng::seed_from_u64(self.seed ^ mix),
            stream,
            issued: 0,
        }
    }

    fn draw_shape(&self, rng: &mut StdRng) -> usize {
        let total = *self.cum_weights.last().expect("at least one base shape");
        let pick = rng.gen::<f64>() * total;
        self.cum_weights
            .partition_point(|&c| c <= pick)
            .min(self.shapes.len() - 1)
    }

    /// Cold query `i` of stream `stream`: 8–12 tables with 3-bucket
    /// uncertain selectivities.  Size, join graph and mode cycle through
    /// all 30 combinations, so a run's mix of search costs does not hang
    /// on a few draws; everything else is drawn afresh for every query.
    fn cold_query(&self, stream: u64, i: u64) -> (Query, Mode) {
        let mut rng = StdRng::seed_from_u64(COLD_SEED ^ (stream << 40) ^ i);
        let n = 8 + (i / 2 % 5) as usize;
        let ids: Vec<TableId> = random_perm(&mut rng, self.catalog.len())[..n]
            .iter()
            .map(|&k| TableId(k as u32))
            .collect();
        let profile = QueryProfile {
            topology: TOPOLOGIES[(i / 10 % 3) as usize],
            sel_buckets: 3,
            ..Default::default()
        };
        let query = WorkloadGenerator::new(rng.gen()).gen_query(&self.catalog, &ids, &profile);
        let mode = if i % 2 == 0 {
            Mode::AlgorithmC
        } else {
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            }
        };
        (query, mode)
    }
}

/// One generated request.
pub struct Request {
    pub query: Query,
    pub mode: Mode,
    /// The base shape and the renaming applied to it; `None` for a query
    /// that is new in every respect.
    pub renamed: Option<(usize, Vec<usize>)>,
}

/// A deterministic, endless request stream.
pub struct RequestStream<'a> {
    inputs: &'a Inputs,
    rng: StdRng,
    stream: u64,
    issued: u64,
}

impl RequestStream<'_> {
    pub fn next_request(&mut self) -> Request {
        let inputs = self.inputs;
        let i = self.issued;
        self.issued += 1;
        if inputs.shapes.is_empty() {
            let (query, mode) = inputs.cold_query(self.stream, i);
            let perm = random_perm(&mut self.rng, query.n_tables());
            return Request {
                query: query.relabel_tables(&perm),
                mode,
                renamed: None,
            };
        }
        let shape = inputs.draw_shape(&mut self.rng);
        let base = &inputs.shapes[shape];
        let perm = random_perm(&mut self.rng, base.n_tables());
        Request {
            query: base.relabel_tables(&perm),
            mode: Mode::AlgorithmC,
            renamed: Some((shape, perm)),
        }
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn random_perm(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// The right answer to one request: a fresh, memo-free
/// `Optimizer::optimize`, plus its expected cost relative to the
/// LSC(mean) plan.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub plan: PlanNode,
    pub cost_bits: u64,
    /// `ln(EC(plan) / EC(LSC(mean) plan))`.
    pub log_ratio_vs_lsc: f64,
}

impl Oracle {
    pub fn compute(optimizer: &Optimizer, query: &Query, mode: &Mode) -> Oracle {
        let out = optimizer.optimize(query, mode).expect("oracle optimize");
        let lsc = optimizer
            .optimize(query, &Mode::Lsc(PointEstimate::Mean))
            .expect("LSC optimize");
        let ratio = optimizer.expected_cost_of(query, &out.plan)
            / optimizer.expected_cost_of(query, &lsc.plan);
        Oracle {
            plan: out.plan,
            cost_bits: out.cost.to_bits(),
            log_ratio_vs_lsc: ratio.ln(),
        }
    }

    /// Whether a served answer is byte-identical to this one.
    pub fn matches(&self, plan: &PlanNode, cost: f64) -> bool {
        *plan == self.plan && cost.to_bits() == self.cost_bits
    }
}

/// One oracle per base shape, computed across `threads` threads.
pub fn shape_oracles(inputs: &Inputs, threads: usize) -> Vec<Oracle> {
    let optimizer = Optimizer::new(&inputs.catalog, inputs.memory.clone());
    par_map(&inputs.shapes, threads, |q| {
        Oracle::compute(&optimizer, q, &Mode::AlgorithmC)
    })
}

/// `items.map(f)` in order, split into contiguous chunks across threads.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = items.len().div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(inputs: &Inputs, stream: u64, n: usize) -> Vec<(Query, &'static str)> {
        let mut s = inputs.stream(stream);
        (0..n)
            .map(|_| {
                let r = s.next_request();
                (r.query, r.mode.name())
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_request_stream() {
        for w in Workload::ALL {
            let a = Inputs::new(w, 7);
            let b = Inputs::new(w, 7);
            assert_eq!(a.catalog, b.catalog, "{}", w.name());
            assert_eq!(a.shapes, b.shapes, "{}", w.name());
            assert_eq!(take(&a, 0, 40), take(&b, 0, 40), "{}", w.name());
        }
    }

    #[test]
    fn seeds_and_streams_differ() {
        for w in Workload::ALL {
            let a = Inputs::new(w, 7);
            let b = Inputs::new(w, 8);
            assert_ne!(take(&a, 0, 20), take(&b, 0, 20), "{}", w.name());
            assert_ne!(take(&a, 0, 20), take(&a, 1, 20), "{}", w.name());
        }
    }

    #[test]
    fn requests_follow_the_workload_spec() {
        let warm = Inputs::new(Workload::WarmHits, 3);
        assert_eq!(warm.shapes.len(), 24);
        for (q, mode) in take(&warm, 0, 200) {
            assert!((4..=7).contains(&q.n_tables()));
            assert_eq!(mode, "AlgC");
            assert_eq!(q.validate(&warm.catalog), Ok(()));
        }
        let cold = Inputs::new(Workload::ColdSearch, 3);
        let reqs = take(&cold, 0, 20);
        for (i, (q, mode)) in reqs.iter().enumerate() {
            assert!((8..=12).contains(&q.n_tables()));
            assert!(q.has_uncertain_selectivities());
            assert_eq!(*mode, if i % 2 == 0 { "AlgC" } else { "AlgD" });
            assert_eq!(q.validate(&cold.catalog), Ok(()));
        }
        for (i, (q, _)) in reqs.iter().enumerate() {
            assert!(
                reqs[..i].iter().all(|(p, _)| p != q),
                "cold request repeats"
            );
        }
        assert_eq!(Inputs::new(Workload::ChurnMixed, 3).shapes.len(), 3000);
    }

    #[test]
    fn skewed_draws_favour_early_shapes() {
        let inputs = Inputs::new(Workload::ChurnMixed, 11);
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..20_000).map(|_| inputs.draw_shape(&mut rng)).collect();
        let count = |k: usize| draws.iter().filter(|&&d| d == k).count() as f64;
        // Weight 1/(i+1): shape 0 is drawn about twice as often as shape 1.
        let ratio = count(0) / count(1);
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
        assert!(draws.iter().all(|&d| d < 3000));
    }

    #[test]
    fn renamed_oracle_matches_a_fresh_search_of_the_renamed_query() {
        let inputs = Inputs::new(Workload::WarmHits, 5);
        let optimizer = Optimizer::new(&inputs.catalog, inputs.memory.clone());
        let oracles = shape_oracles(&inputs, 2);
        let mut stream = inputs.stream(0);
        for _ in 0..30 {
            let req = stream.next_request();
            let (shape, perm) = req.renamed.expect("warm requests are renamed shapes");
            let fresh = optimizer.optimize(&req.query, &req.mode).unwrap();
            let expected = &oracles[shape];
            assert!(Oracle {
                plan: expected.plan.relabel_tables(&perm),
                ..expected.clone()
            }
            .matches(&fresh.plan, fresh.cost));
        }
    }
}
