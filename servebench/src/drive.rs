//! The serving stack under test and the closed-loop clients that drive it.
//!
//! One stack is a `ConcurrentPlanServer` configured like
//! `ConcurrentPlanServer::new` (persistent pool, shared subplan memo,
//! default cache capacity) plus branch-and-bound pruning, fronted by a
//! `lec-serviced` `Daemon` on a Unix socket.

use crate::stats::Tally;
use crate::workload::{Inputs, Oracle};
use lec_core::search::{MemoStats, PersistentPool, SubplanMemo, WorkerPool};
use lec_core::{Mode, Optimizer};
use lec_plan::{PlanNode, Query};
use lec_service::{CacheStats, ConcurrentPlanServer, DEFAULT_CACHE_CAPACITY};
use lec_serviced::transport::UnixAcceptor;
use lec_serviced::{Client, ClientError, Daemon, DaemonConfig};
use lec_telemetry::{Telemetry, TraceRecord};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server every workload is served by.
pub fn build_server<'c>(
    inputs: &'c Inputs,
    telemetry: Option<Arc<Telemetry>>,
) -> ConcurrentPlanServer<'c> {
    let pool: Arc<dyn WorkerPool> = Arc::new(PersistentPool::for_host());
    let optimizer = Optimizer::new(&inputs.catalog, inputs.memory.clone())
        .with_worker_pool(pool)
        .with_subplan_memo(Arc::new(SubplanMemo::default()))
        .with_pruning(true);
    let server = ConcurrentPlanServer::with_optimizer(optimizer, DEFAULT_CACHE_CAPACITY);
    match telemetry {
        Some(t) => server.with_telemetry(t),
        None => server,
    }
}

/// A request answered during a phase whose oracle is computed afterwards.
pub struct Deferred {
    pub query: Query,
    pub mode: Mode,
    pub plan: PlanNode,
    pub cost: f64,
}

/// One client's record of a phase.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    deferred: Vec<Deferred>,
    /// `(request id, start offset from the phase start, round trip)` in ns.
    round_trips: Vec<(u64, u64, u64)>,
    /// Answers completed in each second of the phase.
    windows: Vec<u64>,
    broken: Option<String>,
}

/// What one measured phase produced.
pub struct Phase {
    /// Seconds from building the server until every client's first ping
    /// was answered.
    pub setup_s: f64,
    /// When the first request was sent, and the seconds from then until
    /// the last answer.
    pub started: Instant,
    pub wall_s: f64,
    pub tally: Tally,
    pub deferred: Vec<Deferred>,
    /// `(request id, start ns, round-trip ns)`; filled only when traced.
    pub round_trips: Vec<(u64, u64, u64)>,
    /// Answers completed in each second of the phase, over all clients.
    pub windows: Vec<u64>,
    /// Transport or protocol failures (the daemon stopped answering).
    pub broken: Vec<String>,
    pub rss_mb: f64,
    /// Cache counters accumulated during the phase.
    pub cache: CacheStats,
    /// Subplan-memo counters accumulated during the phase.
    pub memo: MemoStats,
    /// Daemon counters at the end of the phase.
    pub daemon_requests: u64,
    pub daemon_shed: u64,
    pub gate_high_water: usize,
    /// Finished traces retained by the telemetry ring (traced phases only).
    pub ring: Vec<TraceRecord>,
}

/// How a phase is run.
pub struct PhaseSpec<'a> {
    pub inputs: &'a Inputs,
    /// Per-base-shape oracles (empty when every request is new).
    pub oracles: &'a [Oracle],
    /// Measured duration; zero sets the stack up and tears it down.
    pub duration: Duration,
    pub telemetry: Option<Arc<Telemetry>>,
}

/// A fresh abstract-namespace socket address: nothing is created in the
/// file system, so there is nothing to clean up.
fn socket_addr() -> SocketAddr {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = format!("servebench-{}-{n}", std::process::id());
    SocketAddr::from_abstract_name(name).expect("abstract socket name fits")
}

/// Set the stack up, drive it with closed-loop clients for the phase's
/// duration, tear it down, and hand the (drained) server to `after`.
pub fn run_phase<R>(
    spec: &PhaseSpec<'_>,
    after: impl FnOnce(&ConcurrentPlanServer<'_>) -> R,
) -> (Phase, R) {
    let inputs = spec.inputs;
    let clients = inputs.workload.clients();
    let traced = spec.telemetry.is_some();
    let addr = socket_addr();

    let t0 = Instant::now();
    let server = build_server(inputs, spec.telemetry.clone());
    let listener = UnixListener::bind_addr(&addr).expect("bind the daemon socket");
    let acceptor = UnixAcceptor::new(listener).expect("non-blocking acceptor");
    let daemon = Daemon::new(&server, DaemonConfig::default());

    let (logs, setup_s, cache_before, memo_before, started, wall_s, rss_mb) =
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| daemon.run(&acceptor));
            let mut conns: Vec<Client> = (0..clients)
                .map(|k| {
                    let stream = UnixStream::connect_addr(&addr).expect("connect to the daemon");
                    let mut client = Client::new(Box::new(stream), k as u64);
                    client.ping().expect("daemon answers ping");
                    client
                })
                .collect();
            let setup_s = t0.elapsed().as_secs_f64();

            // The warm-up is the workload's own traffic (one cold search per
            // base shape, the work cold_search measures), so it runs off the
            // set-up clock.
            if inputs.workload.warmed() && !spec.duration.is_zero() {
                for shape in &inputs.shapes {
                    server
                        .serve(shape, &Mode::AlgorithmC)
                        .expect("warm-up serve");
                }
            }
            let cache_before = server.cache_stats();
            let memo_before = memo_stats(&server);

            let start = Instant::now();
            let deadline = start + spec.duration;
            let logs: Vec<ClientLog> = std::thread::scope(|inner| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(k, client)| {
                        inner.spawn(move || drive_client(spec, k, client, start, deadline, traced))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let wall_s = start.elapsed().as_secs_f64();
            let rss_mb = rss_mb();
            drop(conns);
            daemon.initiate_drain();
            let report = runner.join().expect("daemon thread panicked");
            assert_eq!(
                report.forced_aborts, 0,
                "drain had to force connections closed"
            );
            (
                logs,
                setup_s,
                cache_before,
                memo_before,
                start,
                wall_s,
                rss_mb,
            )
        });

    let mut phase = Phase {
        setup_s,
        started,
        wall_s,
        tally: Tally::default(),
        deferred: Vec::new(),
        round_trips: Vec::new(),
        windows: Vec::new(),
        broken: Vec::new(),
        rss_mb,
        cache: cache_delta(&cache_before, &server.cache_stats()),
        memo: memo_delta(&memo_before, &memo_stats(&server)),
        daemon_requests: daemon.metrics().requests_ok() + daemon.metrics().requests_err(),
        daemon_shed: daemon.metrics().shed_requests(),
        gate_high_water: daemon.gate().high_water(),
        ring: spec
            .telemetry
            .as_ref()
            .map(|t| t.ring().records())
            .unwrap_or_default(),
    };
    for log in logs {
        phase.tally.merge(log.tally);
        phase.deferred.extend(log.deferred);
        phase.round_trips.extend(log.round_trips);
        if phase.windows.len() < log.windows.len() {
            phase.windows.resize(log.windows.len(), 0);
        }
        for (w, n) in phase.windows.iter_mut().zip(&log.windows) {
            *w += n;
        }
        phase.broken.extend(log.broken);
    }
    let r = after(&server);
    (phase, r)
}

/// One closed-loop client: send, wait for the plan, check it, repeat.
fn drive_client(
    spec: &PhaseSpec<'_>,
    k: usize,
    client: &mut Client,
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog {
        tally: Tally::with_buffer(k as u64),
        ..ClientLog::default()
    };
    let mut stream = spec.inputs.stream(k as u64);
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let req = stream.next_request();
        let id = ((k as u64) << 40) | seq;
        seq += 1;
        let sent = Instant::now();
        let result = client.optimize_once(id, &req.mode, &req.query);
        let ns = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if traced {
            let at = u64::try_from((sent - start).as_nanos()).unwrap_or(u64::MAX);
            log.round_trips.push((id, at, ns));
        }
        if result.is_ok() {
            let second = (sent + Duration::from_nanos(ns) - start).as_secs() as usize;
            if log.windows.len() <= second {
                log.windows.resize(second + 1, 0);
            }
            log.windows[second] += 1;
        }
        match result {
            Ok(resp) => match &req.renamed {
                Some((shape, perm)) => {
                    let oracle = &spec.oracles[*shape];
                    let correct = resp.cost.to_bits() == oracle.cost_bits
                        && resp.plan == oracle.plan.relabel_tables(perm);
                    log.tally.answered(ns, correct, oracle.log_ratio_vs_lsc);
                }
                None => {
                    log.tally.answered(ns, true, 0.0);
                    log.deferred.push(Deferred {
                        query: req.query,
                        mode: req.mode,
                        plan: resp.plan,
                        cost: resp.cost,
                    });
                }
            },
            Err(ClientError::Server(_)) => log.tally.refused(),
            Err(e) => {
                log.tally.refused();
                log.broken = Some(format!("client {k}: {e:?}"));
                break;
            }
        }
    }
    log
}

/// Check the answers whose oracle was deferred, off the clock: a fresh
/// search per request, spread over `threads` threads.
pub fn check_deferred(inputs: &Inputs, phase: &mut Phase, threads: usize) {
    let optimizer = Optimizer::new(&inputs.catalog, inputs.memory.clone());
    let verdicts = crate::workload::par_map(&phase.deferred, threads, |d| {
        let oracle = Oracle::compute(&optimizer, &d.query, &d.mode);
        (oracle.matches(&d.plan, d.cost), oracle.log_ratio_vs_lsc)
    });
    for (correct, log_ratio) in verdicts {
        phase.tally.log_ratio_sum += log_ratio;
        if !correct {
            phase.tally.demote();
        }
    }
}

fn memo_stats(server: &ConcurrentPlanServer<'_>) -> MemoStats {
    server.subplan_memo().map(|m| m.stats()).unwrap_or_default()
}

fn memo_delta(a: &MemoStats, b: &MemoStats) -> MemoStats {
    MemoStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        evictions: b.evictions - a.evictions,
        ..*b
    }
}

fn cache_delta(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        lookups: b.lookups - a.lookups,
        served: b.served - a.served,
        coalesced_followers: b.coalesced_followers - a.coalesced_followers,
        coalesced_leaders: b.coalesced_leaders - a.coalesced_leaders,
        revalidated: b.revalidated - a.revalidated,
        recomputed: b.recomputed - a.recomputed,
        uncacheable: b.uncacheable - a.uncacheable,
        refused_too_many_tables: b.refused_too_many_tables - a.refused_too_many_tables,
        refused_too_many_permutations: b.refused_too_many_permutations
            - a.refused_too_many_permutations,
        refused_twin_tables: b.refused_twin_tables - a.refused_twin_tables,
        insertions: b.insertions - a.insertions,
        evictions: b.evictions - a.evictions,
    }
}

/// Resident set size of this process, in MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
