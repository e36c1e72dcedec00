//! The traced run's per-layer view.
//!
//! Two sources, both read from the benchmark's own code:
//!
//! * the daemon's existing request telemetry (`Telemetry::ring()` stage
//!   spans, counters), read after a traced wire phase; and
//! * a probe that calls each layer's public functions on the workload's
//!   own requests and times every call: `protocol` decode/encode,
//!   `canonical_form`, in-process `serve`, `PlanNode::relabel_tables`, and a
//!   fresh memo-free `Optimizer::optimize` whose `SearchStats` give the
//!   engine and cost-model counters.
//!
//! Every timed call is kept as a span `(name, start, end, parent, request)`
//! and the whole set is written out when the run ends.

use crate::drive::{build_server, Phase};
use crate::stats::median;
use crate::workload::{random_perm, Inputs};
use lec_canon::canonical_form;
use lec_core::{Optimizer, SearchStats};
use lec_service::{CacheDecision, ConcurrentPlanServer};
use lec_serviced::protocol::{self, Reader, Writer};
use lec_telemetry::{Stage, Telemetry, TraceRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The probe's request stream index (clients use `0..clients`).
const PROBE_STREAM: u64 = 1000;

/// One recorded span; times are nanoseconds from the log's base.
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    base: Instant,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new(base: Instant) -> SpanLog {
        SpanLog {
            base,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span; returns its result and duration in ns.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        let (s, e) = (self.ns(t), self.ns(end));
        self.push(name, s, e, Some(parent), request);
        (r, e - s)
    }

    /// One JSON object per line, in recording order.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Stage self time summed over the traced wire requests.
pub struct StageTimes {
    /// Requests whose daemon trace was retained and matched a client
    /// round trip.
    pub requests: u64,
    /// Per [`STAGES`] entry: total self time (ns) and requests entering it.
    pub total_ns: [u64; 6],
    pub entered: [u64; 6],
    /// Sum of those requests' client-side round trips (ns).
    pub wall_ns: u64,
}

pub const STAGES: [Stage; 6] = [
    Stage::Decode,
    Stage::Admission,
    Stage::CacheProbe,
    Stage::CoalesceWait,
    Stage::Search,
    Stage::Flush,
];

/// Match the daemon's retained traces to the client round trips and record
/// both as spans.  Stage spans never nest, so a stage's self time is its
/// span's duration.  Daemon stage offsets are on the daemon's clock (its
/// epoch is the start of frame decode), placed inside the round trip.
pub fn stage_times(phase: &Phase, spans: &mut SpanLog) -> StageTimes {
    let trips: HashMap<u64, (u64, u64)> = phase
        .round_trips
        .iter()
        .map(|&(id, at, ns)| (id, (at, ns)))
        .collect();
    let offset = spans.ns(phase.started);
    let mut t = StageTimes {
        requests: 0,
        total_ns: [0; 6],
        entered: [0; 6],
        wall_ns: 0,
    };
    let mut records: Vec<&TraceRecord> = phase.ring.iter().collect();
    records.sort_by_key(|r| r.request_id);
    for rec in records {
        let Some(&(at, ns)) = trips.get(&rec.request_id) else {
            continue;
        };
        t.requests += 1;
        t.wall_ns += ns;
        let root = spans.push(
            "wire.round_trip",
            offset + at,
            offset + at + ns,
            None,
            rec.request_id,
        );
        for s in &rec.spans {
            let k = STAGES
                .iter()
                .position(|&st| st == s.stage)
                .expect("known stage");
            t.total_ns[k] += s.dur_ns;
            t.entered[k] += 1;
            spans.push(
                stage_span_name(s.stage),
                offset + at + s.start_ns,
                offset + at + s.start_ns + s.dur_ns,
                Some(root),
                rec.request_id,
            );
        }
    }
    t
}

fn stage_span_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Decode => "daemon.decode",
        Stage::Admission => "daemon.admission",
        Stage::CacheProbe => "daemon.cache_probe",
        Stage::CoalesceWait => "daemon.coalesce_wait",
        Stage::Search => "daemon.search",
        Stage::Flush => "daemon.flush",
    }
}

/// Per-call timings and counters from calling each layer directly.
pub struct Probe {
    pub requests: u64,
    pub decode_ns: Vec<u64>,
    pub encode_ns: Vec<u64>,
    pub canon_ns: Vec<u64>,
    pub canon_refusals: u64,
    pub relabel_ns: Vec<u64>,
    pub frame_bytes: u64,
    /// In-process `serve` on the traced server, in the state the wire
    /// phase left it: the wire tax's denominator.
    pub inproc_ns: Vec<u64>,
    /// In-process `serve` calls answered from the plan cache, and those
    /// that ran a search.
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    /// Fresh memo-free searches: wall time and summed work counters.
    pub optimize_ns: Vec<u64>,
    pub fresh: SearchStats,
    /// Searches run by the probe's own server, and its engine telemetry.
    pub probe_searches: u64,
    pub engine: Arc<Telemetry>,
}

/// Call each layer on the workload's own requests until `max_requests`
/// are done or `budget` runs out (at least one request).
///
/// `traced` is the server the traced wire phase ran on.  A second server,
/// configured the same way but starting empty, supplies cache-miss and
/// cache-hit samples on every workload: each request is served there as
/// drawn and then once more under a fresh renaming, which is always a hit.
pub fn probe(
    inputs: &Inputs,
    traced: &ConcurrentPlanServer<'_>,
    spans: &mut SpanLog,
    max_requests: u64,
    budget: Duration,
) -> Probe {
    let engine = Arc::new(Telemetry::on());
    let probe_server = build_server(inputs, Some(Arc::clone(&engine)));
    let fresh = Optimizer::new(&inputs.catalog, inputs.memory.clone()).with_pruning(true);
    let mut p = Probe {
        requests: 0,
        decode_ns: Vec::new(),
        encode_ns: Vec::new(),
        canon_ns: Vec::new(),
        canon_refusals: 0,
        relabel_ns: Vec::new(),
        frame_bytes: 0,
        inproc_ns: Vec::new(),
        hit_ns: Vec::new(),
        miss_ns: Vec::new(),
        optimize_ns: Vec::new(),
        fresh: SearchStats::default(),
        probe_searches: 0,
        engine,
    };
    let mut stream = inputs.stream(PROBE_STREAM);
    let mut rng = StdRng::seed_from_u64(PROBE_STREAM);
    let mut searched_shapes = HashSet::new();
    let stop = Instant::now() + budget;
    while p.requests < max_requests && (p.requests == 0 || Instant::now() < stop) {
        let req = stream.next_request();
        let id = p.requests;
        p.requests += 1;
        let root_start = spans.ns(Instant::now());
        let root = spans.push("probe.request", root_start, root_start, None, id);

        let mut w = Writer::new();
        w.u64(id);
        protocol::encode_mode(&mut w, &req.mode);
        protocol::encode_query(&mut w, &req.query);
        let body = w.into_bytes();
        let (decoded, ns) = spans.time("serviced.decode", root, id, || {
            let mut r = Reader::new(&body);
            r.u64()?;
            let mode = protocol::decode_mode(&mut r)?;
            let query = protocol::decode_query(&mut r)?;
            r.finish()?;
            Ok::<_, protocol::DecodeError>((mode, query))
        });
        let (_, query) = decoded.expect("the probe's own frame decodes");
        assert_eq!(query, req.query, "decode round-trips the query");
        p.decode_ns.push(ns);

        let (form, ns) = spans.time("canon.canonical_form", root, id, || {
            canonical_form(&inputs.catalog, &req.query)
        });
        p.canon_ns.push(ns);

        let (resp, ns) = spans.time("service.serve", root, id, || {
            traced
                .serve(&req.query, &req.mode)
                .expect("in-process serve")
        });
        p.inproc_ns.push(ns);
        p.classify(resp.decision, ns);

        match &form {
            Ok(form) => {
                let (_, ns) = spans.time("plan.relabel", root, id, || {
                    resp.plan.relabel_tables(&form.perm)
                });
                p.relabel_ns.push(ns);
            }
            Err(_) => p.canon_refusals += 1,
        }

        let (reply, ns) = spans.time("serviced.encode", root, id, || {
            let mut w = Writer::new();
            w.u64(id);
            protocol::encode_response(&mut w, &resp);
            w.into_bytes()
        });
        p.encode_ns.push(ns);
        // Both frames carry a 4-byte length and a 1-byte opcode.
        p.frame_bytes += (body.len() + reply.len() + 10) as u64;

        let renamed = req
            .query
            .relabel_tables(&random_perm(&mut rng, req.query.n_tables()));
        for q in [&req.query, &renamed] {
            let (resp, ns) = spans.time("service.serve.probe_server", root, id, || {
                probe_server.serve(q, &req.mode).expect("probe serve")
            });
            p.classify(resp.decision, ns);
        }

        let shape = req.renamed.as_ref().map(|(s, _)| *s);
        if shape.is_none_or(|s| searched_shapes.insert(s)) {
            let (out, ns) = spans.time("core.optimize", root, id, || {
                fresh
                    .optimize(&req.query, &req.mode)
                    .expect("fresh optimize")
            });
            p.optimize_ns.push(ns);
            p.fresh.absorb(&out.stats);
        }
        let end = spans.ns(Instant::now());
        spans.spans[root].end_ns = end;
    }
    let c = probe_server.cache_stats();
    p.probe_searches = c.recomputed + c.revalidated + c.uncacheable;
    p
}

impl Probe {
    fn classify(&mut self, decision: CacheDecision, ns: u64) {
        match decision {
            CacheDecision::Served => self.hit_ns.push(ns),
            _ => self.miss_ns.push(ns),
        }
    }
}

/// Median of a sample, `None` when empty.
pub fn p50(xs: &[u64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    (!v.is_empty()).then(|| median(&mut v))
}
