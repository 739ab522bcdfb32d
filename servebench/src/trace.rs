//! The traced run: the same seed, `.egb` and request sequences as the
//! untraced run, replayed in-process with every call into a layer's
//! public functions timed.
//!
//! Each request goes first to the shipped server (client latency), then
//! through `Session::handle_line` of an in-process `Session` over a
//! `Shared` built with the served configuration, which must answer
//! byte-identically to the server. Sub-layer calls (`plan_statement`,
//! the focal selection, `QueryEngine::execute` and `Response::encode` on
//! a probe engine, `run_batch_exec`, `DeltaGraph::compact`,
//! `DirtyIndex::build`, `update_batch_on`, `ViewRegistry::save`,
//! `ContinuousEngine::apply_update`, `merge_tables`) are re-run on the
//! exact inputs of that request and timed on their own. Spans stay in
//! memory until the run ends.

use crate::check;
use crate::drive::{self, Workload, CHURN_READS_PER_WRITE, READ_SHARE};
use crate::inputs::{self, Inputs, AGGREGATES};
use crate::net::{query_line, Conn};
use crate::proc::{self, ServerProc};
use crate::report::{percentile, Metric, Outcome};
use ego_continuous::{ContinuousEngine, CountVector, MatchList};
use egocensus::census::{run_batch_exec, Algorithm, CensusSpec, ExecConfig, FocalNodes, PtConfig};
use egocensus::dynamic::{update_batch_on, DeltaGraph, DirtyIndex};
use egocensus::graph::{Graph, NodeId};
use egocensus::matcher::{find_matches_with_stats, MatchStats, MatcherKind};
use egocensus::query::optimizer::{optimize, PassContext};
use egocensus::query::{
    plan_statement, Catalog, CensusCache, QueryEngine, ShardSpec, StatsBasis, ViewRegistry,
};
use egocensus::server::{Request, Response, ServerConfig, Session, Shared, TableData};
use egocensus::shard::merge_tables;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Span durations and counts, by name, kept in memory.
#[derive(Default)]
struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    fn add(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn p50(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| percentile(v, 50.0))
    }

    fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn mean(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// The served configuration in-process: a real `Session` over a
/// `Shared` built as `egocensus serve` builds one for this graph.
struct Served {
    shared: Shared,
    session: Session,
}

impl Served {
    fn new(graph: Arc<Graph>, egb: &Path, exec_threads: usize) -> Served {
        let config = ServerConfig {
            exec_threads,
            stats_path: Some(egocensus::query::GraphStats::sidecar_path(egb)),
            views_path: Some(ViewRegistry::sidecar_path(egb)),
            ..ServerConfig::default()
        };
        let shared = Shared::new(graph, Arc::new(Catalog::with_builtins()), &config);
        let session = Session::new(&shared);
        Served { shared, session }
    }

    /// `Session::handle_line`, which must answer with a table.
    fn must(&mut self, req: &Request) -> Result<String, String> {
        let out = self.session.handle_line(&req.encode());
        match Response::decode(&out) {
            Ok(Response::Table(_)) => Ok(out),
            _ => Err(format!("{req:?}: in-process session answered {out}")),
        }
    }
}

/// The server's census-cache capacity, in entries.
const CENSUS_CACHE_ENTRIES: usize = 256;

/// A second engine over the served graph, `ANALYZE` snapshot and views,
/// with a census cache of its own that executes every statement the
/// session executed. Re-running a request's `QueryEngine::execute` on it
/// repeats the census work the session's execution did, without
/// touching the served state.
struct Probe {
    engine: QueryEngine<'static>,
    cache: Arc<CensusCache>,
    generation: u64,
}

impl Probe {
    fn new(shared: &Shared) -> Probe {
        let cache = Arc::new(CensusCache::new(CENSUS_CACHE_ENTRIES));
        Probe {
            engine: Probe::engine(shared, &cache),
            cache,
            generation: shared.generation(),
        }
    }

    fn engine(shared: &Shared, cache: &Arc<CensusCache>) -> QueryEngine<'static> {
        let mut e = check::engine(shared.current_graph());
        e.set_threads(shared.exec_threads);
        e.set_algorithm(shared.algorithm);
        e.set_census_cache(cache.clone());
        e.set_stats_slot(shared.graph_stats.clone());
        e.set_views(shared.views.clone());
        e
    }

    /// Move to the served graph after a write.
    fn follow(&mut self, shared: &Shared) {
        if shared.generation() != self.generation {
            self.engine = Probe::engine(shared, &self.cache);
            self.generation = shared.generation();
        }
    }
}

/// Workers queried directly, leg by leg (`routed` only).
struct Legs {
    procs: Vec<ServerProc>,
    conns: Vec<Conn>,
}

impl Legs {
    fn start(egb: &Path) -> Result<Legs, String> {
        let mut procs = Vec::new();
        let mut conns = Vec::new();
        for _ in 0..2 {
            let p = ServerProc::spawn(egb, &["--views", "off", "--exec-threads", "1"])?;
            let mut c = Conn::connect(p.addr).map_err(|e| e.to_string())?;
            c.must(&Request::Analyze)?;
            for (pat, k) in AGGREGATES {
                c.must(&Request::Query {
                    sql: inputs::warm_sql(pat, k),
                    shard: None,
                })?;
            }
            procs.push(p);
            conns.push(c);
        }
        Ok(Legs { procs, conns })
    }

    /// Send shard `j/2` of `sql` to worker `j`, both at once; returns
    /// each leg's table and latency.
    fn scatter(&mut self, sql: &str) -> Result<Vec<(TableData, Duration)>, String> {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(j, c)| {
                    let line = Request::Query {
                        sql: sql.to_string(),
                        shard: Some(ShardSpec::new(j as u32, 2).expect("shard")),
                    }
                    .encode();
                    s.spawn(move || match c.timed(&line) {
                        Ok((_, Response::Table(td), d)) => Ok((td, d)),
                        Ok((raw, _, _)) => Err(format!("leg answered {raw}")),
                        Err(e) => Err(e.to_string()),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn stop(self) {
        drop(self.conns);
        for p in self.procs {
            p.stop();
        }
    }
}

/// The traced run's state: spans, counters and the probes' fixtures.
struct Tracer<'a> {
    w: Workload,
    spans: Spans,
    failures: Vec<String>,
    catalog: &'a Catalog,
    global: &'a [Arc<MatchList>],
    served: Served,
    probe: Probe,
    /// A continuous engine holding the session's subscription, so
    /// `apply_update` can be timed apart from the served update path.
    shadow: ContinuousEngine,
    exec: ExecConfig,
    /// A cache-free engine for the focal selection alone.
    focal_engine: QueryEngine<'static>,
    legs: Option<Legs>,
    /// Census algorithms the traversing reads executed under.
    algorithms: BTreeMap<String, u64>,
    reads: u64,
    /// Reads the session executed (result-cache misses).
    executed: u64,
    /// View hits of the session's own reads (the probe's are left out).
    view_hits: u64,
    client_total: Duration,
    handle_total: Duration,
}

impl Tracer<'_> {
    /// `Session::handle_line` on `line`, timed; also returns the view
    /// hits and result-cache misses it caused.
    fn handle(&mut self, line: &str) -> (String, Duration, u64, u64) {
        let shared = &self.served.shared;
        let (views0, misses0) = (shared.views.stats().hits, shared.cache.stats().misses);
        let (out, d) = timed(|| self.served.session.handle_line(line));
        let shared = &self.served.shared;
        let views = shared.views.stats().hits - views0;
        let misses = shared.cache.stats().misses - misses0;
        (out, d, views, misses)
    }

    /// One read: through the server, then the in-process session, then
    /// the probes.
    fn read(&mut self, sql: &str, start: usize, conn: &mut Conn) -> Result<(), String> {
        let line = query_line(sql);
        let (raw, _, client) = conn.timed(&line).map_err(|e| e.to_string())?;
        let (resp, handle, views, misses) = self.handle(&line);
        if resp != raw {
            self.failures
                .push(format!("in-process session and server disagree on `{sql}`"));
        }
        self.spans.add("server.handle_us", us(handle));
        self.spans
            .add("server.transport_us", us(client.saturating_sub(handle)));
        self.client_total += client;
        self.handle_total += handle;
        self.view_hits += views;
        self.reads += 1;
        let (_, d) = timed(|| plan_statement(sql));
        self.spans.add("query.plan_us", us(d));
        let (_, d) = timed(|| self.focal_engine.execute(&inputs::focal_sql(start)));
        self.spans.add("query.focal_select_us", us(d));
        let ran = misses > 0;
        let focal: Vec<NodeId> = (start..start + inputs::WINDOW)
            .map(|i| NodeId(i as u32))
            .collect();
        if ran {
            self.executed += 1;
            // The session's execution, repeated on the probe: the same
            // statement over the same graph and cache contents.
            self.probe.follow(&self.served.shared);
            let forced = self.served.shared.algorithm;
            let algorithm = executed_algorithm(&self.probe, forced, sql, &focal)?;
            let (table, d) = timed(|| self.probe.engine.execute(sql));
            self.spans.add("query.execute_us", us(d));
            let table = table.map_err(|e| e.to_string())?;
            let (encoded, d) = timed(|| Response::table(&table).encode());
            self.spans.add("server.encode_us", us(d));
            if encoded != resp {
                self.failures.push(format!(
                    "probe execution differs from the session on `{sql}`"
                ));
            }
            // The census proper, on the request's specs and window, with
            // the match lists already computed: only where the served
            // request traversed (a miss in every cache tier and no view).
            if matches!(self.w, Workload::ColdCensus | Workload::Routed) {
                *self.algorithms.entry(format!("{algorithm:?}")).or_default() += 1;
                self.census(&focal, algorithm)?;
            }
        }
        if let Some(legs) = self.legs.as_mut() {
            let parts = legs.scatter(sql)?;
            let slow = parts.iter().map(|p| p.1).max().unwrap_or_default();
            let mean = parts.iter().map(|p| ms(p.1)).sum::<f64>() / parts.len() as f64;
            self.spans.add("shard.leg_ms", ms(slow));
            self.spans.add(
                "shard.leg_skew",
                if mean > 0.0 { ms(slow) / mean } else { 1.0 },
            );
            self.spans
                .add("shard.route_overhead_ms", ms(client.saturating_sub(slow)));
            let tables: Vec<TableData> = parts.into_iter().map(|p| p.0).collect();
            let (merged, d) = timed(|| merge_tables(&tables));
            self.spans.add("shard.merge_us", us(d));
            if Response::Table(merged?).encode() != raw {
                self.failures.push(format!(
                    "merged legs differ from the routed answer to `{sql}`"
                ));
            }
        }
        Ok(())
    }

    /// `run_batch_exec` on the read's three specs over `focal`, with the
    /// global match lists provided.
    fn census(&mut self, focal: &[NodeId], algorithm: Algorithm) -> Result<(), String> {
        let specs: Vec<CensusSpec<'_>> = AGGREGATES
            .iter()
            .map(|(p, k)| {
                CensusSpec::single(self.catalog.get(p).expect("built-in"), *k)
                    .with_focal(FocalNodes::Set(focal.to_vec()))
            })
            .collect();
        let provided: Vec<Option<Arc<MatchList>>> =
            self.global.iter().map(|m| Some(m.clone())).collect();
        let g = self.served.shared.current_graph();
        let (batch, d) = timed(|| {
            run_batch_exec(
                &g,
                &specs,
                algorithm,
                &PtConfig::default(),
                &self.exec,
                &provided,
            )
        });
        let batch = batch.map_err(|e| e.to_string())?;
        self.spans.add("census.run_us", us(d));
        self.spans
            .add("census.edges", batch.stats.edges_traversed as f64);
        self.spans
            .add("census.nodes", batch.stats.nodes_expanded as f64);
        Ok(())
    }
}

/// The census algorithm the optimizer picks when the statement executes
/// over `focal` on the probe (what `QueryEngine::execute` runs on a
/// census miss).
fn executed_algorithm(
    probe: &Probe,
    forced: Algorithm,
    sql: &str,
    focal: &[NodeId],
) -> Result<Algorithm, String> {
    let e = &probe.engine;
    let stats = e.graph_stats().ok_or("no ANALYZE snapshot in the probe")?;
    let plan = plan_statement(sql).map_err(|e| e.to_string())?;
    let mut ctx = PassContext {
        graph: e.graph(),
        catalog: e.catalog(),
        stats: &stats,
        stats_basis: StatsBasis::Analyzed,
        fingerprint: e.graph().fingerprint(),
        cache: Some(&probe.cache),
        views: None,
        focal: Some(focal),
        shard: None,
        forced,
        counters: None,
        fired: 0,
    };
    let plan = optimize(plan, &mut ctx).map_err(|e| e.to_string())?;
    Ok(plan
        .census()
        .and_then(|c| c.choice.as_ref())
        .map_or(forced, |c| c.algorithm))
}

/// Run one workload traced.
pub fn run(w: Workload, inputs: &Inputs, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let steal0 = proc::cpu_jiffies();
    let mut spans = Spans::default();
    let mut attempted = 0u64;

    // ---- graph and matcher layers, timed on their own ----
    let egb = drive::fresh_graph(work, "served", inputs)?;
    for _ in 0..5 {
        let (g, d) = timed(|| egocensus::graph::io::load_path(&egb));
        g.map_err(|e| e.to_string())?;
        spans.add("graph.open_ms", ms(d));
    }
    let graph = Arc::new(egocensus::graph::io::load_path(&egb).map_err(|e| e.to_string())?);
    let catalog = Catalog::with_builtins();
    let mut global: Vec<Arc<MatchList>> = Vec::new();
    for (p, _) in AGGREGATES {
        let pattern = catalog.get(p).expect("built-in pattern");
        let mut stats = MatchStats::default();
        let (m, d) = timed(|| {
            find_matches_with_stats(&graph, pattern, MatcherKind::CandidateNeighbors, &mut stats)
        });
        spans.add(matcher_span(p), ms(d));
        global.push(Arc::new(m));
    }

    // ---- the served process and the same configuration in-process ----
    let env = drive::setup(w, inputs, &egb)?;
    let drive::Env {
        server,
        mut conn,
        sub,
    } = env;
    let local_egb = drive::fresh_graph(work, "in-process", inputs)?;
    let exec_threads = if w == Workload::Routed { 1 } else { 0 };
    let mut served = Served::new(graph.clone(), &local_egb, exec_threads);
    let mut probe = Probe::new(&served.shared);
    let shadow = replay_setup(w, inputs, &mut served, &mut probe)?;
    let legs = match w {
        Workload::Routed => Some(Legs::start(&drive::fresh_graph(work, "legs", inputs)?)?),
        _ => None,
    };

    let cache0 = served.shared.cache.stats();
    let census0 = served.shared.census.stats();
    let mut tr = Tracer {
        w,
        spans,
        failures: Vec::new(),
        catalog: &catalog,
        global: &global,
        exec: ExecConfig::with_threads(exec_threads),
        served,
        probe,
        shadow,
        focal_engine: check::engine(graph.clone()),
        legs,
        algorithms: BTreeMap::new(),
        reads: 0,
        executed: 0,
        view_hits: 0,
        client_total: Duration::ZERO,
        handle_total: Duration::ZERO,
    };

    let t0 = Instant::now();
    let total = Duration::from_secs_f64(seconds);
    let read_deadline = match w {
        Workload::Churn => t0,
        _ => t0 + total.mul_f64(READ_SHARE),
    };
    let mut next = 0usize;
    let mut hot_i = [0usize, 0usize];
    let served0 = conn.stats()?;

    // ---- reads ----
    while Instant::now() < read_deadline {
        attempted += 1;
        let (sql, start) = match w {
            Workload::HotRead => {
                // Alternate the two connections' sequences, in order.
                let c = (attempted % 2) as usize;
                let r = &inputs.hot[c][hot_i[c]];
                hot_i[c] += 1;
                (r.sql.clone(), r.start)
            }
            _ => {
                let a = inputs.fresh[next % inputs.fresh.len()];
                next += 1;
                (inputs::read_sql(a), a)
            }
        };
        if let Err(e) = tr.read(&sql, start, &mut conn) {
            tr.failures.push(e);
        }
    }

    let served1 = conn.stats()?;
    let setops_calls: i64 = [
        "setops_merge_calls",
        "setops_gallop_calls",
        "setops_bitset_calls",
    ]
    .iter()
    .map(|n| crate::net::delta(&served0, &served1, n))
    .sum();

    // ---- writes (churn: writes and reads together) ----
    let reads_per_write = if w == Workload::Churn {
        CHURN_READS_PER_WRITE
    } else {
        0
    };
    let mut writes = 0u64;
    let mut i = 0usize;
    'outer: while Instant::now() < t0 + total {
        for insert in [true, false] {
            let script = &inputs.scripts[i % inputs.scripts.len()];
            let text = if insert {
                script.insert_text()
            } else {
                script.delete_text()
            };
            attempted += 1;
            let line = Request::Update {
                mutations: text.clone(),
            }
            .encode();
            let (raw, resp, client) = match conn.timed(&line) {
                Ok(r) => r,
                Err(e) => {
                    tr.failures.push(format!("update: {e}"));
                    break 'outer;
                }
            };
            if resp.is_error() {
                tr.failures.push(format!("update answered {resp:?}"));
                break 'outer;
            }
            // The inputs the server's update path sees, captured before
            // the in-process session applies the script.
            let before = tr.served.shared.current_graph();
            let pinned = tr.served.shared.views.snapshot();
            let (ack, handle, _, _) = tr.handle(&line);
            if ack != raw {
                tr.failures
                    .push(format!("in-process session acked {ack}, the server {raw}"));
            }
            tr.client_total += client;
            tr.handle_total += handle;
            writes += 1;
            trace_write(&mut tr, &before, &pinned, script, insert)?;
            let frames = tr.served.session.drain_notifications();
            if frames.len() != 1 {
                tr.failures.push(format!(
                    "in-process session pushed {} frames for one write",
                    frames.len()
                ));
            }
            for _ in 0..reads_per_write {
                attempted += 1;
                let a = inputs.fresh[next % inputs.fresh.len()];
                next += 1;
                let sql = inputs::read_sql(a);
                if let Err(e) = tr.read(&sql, a, &mut conn) {
                    tr.failures.push(e);
                }
            }
        }
        i += 1;
    }
    let wall = t0.elapsed();

    let cache1 = tr.served.shared.cache.stats();
    let census1 = tr.served.shared.census.stats();
    drop(sub);
    drop(conn);
    server.stop();
    if let Some(l) = tr.legs.take() {
        l.stop();
    }
    let Tracer {
        spans,
        failures,
        reads,
        executed,
        view_hits,
        client_total,
        handle_total,
        algorithms,
        ..
    } = tr;
    let steal = proc::steal_pct(steal0, proc::cpu_jiffies());

    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let reads_f = reads.max(1) as f64;
    let writes_f = writes.max(1) as f64;
    let mut metrics = vec![
        Metric::new(
            "server.handle_us_p50",
            spans.p50("server.handle_us"),
            "us",
            reads as usize,
        ),
        Metric::new(
            "server.transport_us_p50",
            spans.p50("server.transport_us"),
            "us",
            reads as usize,
        ),
        Metric::new(
            "server.encode_us_p50",
            spans.p50("server.encode_us"),
            "us",
            executed as usize,
        ),
        Metric::new(
            "server.result_cache_hit_ratio",
            ratio(cache1.hits - cache0.hits, cache1.misses - cache0.misses),
            "ratio",
            reads as usize,
        ),
        Metric::new(
            "server.result_cache_evictions",
            (cache1.evictions - cache0.evictions) as f64,
            "count",
            reads as usize,
        ),
        Metric::new(
            "query.plan_us_p50",
            spans.p50("query.plan_us"),
            "us",
            reads as usize,
        ),
        Metric::new(
            "query.execute_us_p50",
            spans.p50("query.execute_us"),
            "us",
            executed as usize,
        ),
        Metric::new(
            "query.focal_select_us_p50",
            spans.p50("query.focal_select_us"),
            "us",
            reads as usize,
        ),
        Metric::new(
            "query.census_count_hit_ratio",
            ratio(
                census1.count_hits - census0.count_hits,
                census1.count_misses - census0.count_misses,
            ),
            "ratio",
            executed as usize,
        ),
        Metric::new(
            "query.census_match_hit_ratio",
            ratio(
                census1.match_hits - census0.match_hits,
                census1.match_misses - census0.match_misses,
            ),
            "ratio",
            executed as usize,
        ),
        Metric::new(
            "query.view_hit_ratio",
            if executed == 0 {
                0.0
            } else {
                view_hits as f64 / (3 * executed) as f64
            },
            "ratio",
            executed as usize,
        ),
        Metric::new(
            "query.view_save_ms_p50",
            spans.p50("query.view_save_ms"),
            "ms",
            writes as usize,
        ),
        Metric::new(
            "census.run_us_p50",
            spans.p50("census.run_us"),
            "us",
            count(&spans, "census.run_us"),
        ),
        Metric::new(
            "census.edges_traversed_per_req",
            spans.mean("census.edges"),
            "count",
            count(&spans, "census.edges"),
        ),
        Metric::new(
            "census.nodes_expanded_per_req",
            spans.mean("census.nodes"),
            "count",
            count(&spans, "census.nodes"),
        ),
    ];
    for (p, _) in AGGREGATES {
        let name = matcher_span(p);
        metrics.push(Metric::new(name, spans.p50(name), "ms", 1));
    }
    metrics.extend([
        Metric::new("graph.open_ms", spans.p50("graph.open_ms"), "ms", 5),
        Metric::new(
            "graph.setops_calls_per_req",
            setops_calls as f64 / reads_f,
            "count",
            reads as usize,
        ),
        Metric::new(
            "dynamic.compact_ms_p50",
            spans.p50("dynamic.compact_ms"),
            "ms",
            writes as usize,
        ),
        Metric::new(
            "dynamic.dirty_ms_p50",
            spans.p50("dynamic.dirty_ms"),
            "ms",
            writes as usize,
        ),
        Metric::new(
            "dynamic.refresh_ms_p50",
            spans.p50("dynamic.refresh_ms"),
            "ms",
            count(&spans, "dynamic.refresh_ms"),
        ),
        Metric::new(
            "dynamic.dirty_focal_per_write",
            spans.sum("dynamic.dirty_focal") / writes_f,
            "count",
            writes as usize,
        ),
        Metric::new(
            "dynamic.match_survivors_per_write",
            spans.sum("dynamic.match_survivors") / writes_f,
            "count",
            writes as usize,
        ),
        Metric::new(
            "continuous.apply_ms_p50",
            spans.p50("continuous.apply_ms"),
            "ms",
            writes as usize,
        ),
        Metric::new(
            "continuous.rows_pushed_per_write",
            spans.sum("continuous.rows") / writes_f,
            "count",
            writes as usize,
        ),
        Metric::new(
            "shard.leg_ms_p50",
            spans.p50("shard.leg_ms"),
            "ms",
            count(&spans, "shard.leg_ms"),
        ),
        Metric::new(
            "shard.leg_skew",
            spans.p50("shard.leg_skew"),
            "ratio",
            count(&spans, "shard.leg_skew"),
        ),
        Metric::new(
            "shard.merge_us_p50",
            spans.p50("shard.merge_us"),
            "us",
            count(&spans, "shard.merge_us"),
        ),
        Metric::new(
            "shard.route_overhead_ms_p50",
            spans.p50("shard.route_overhead_ms"),
            "ms",
            count(&spans, "shard.route_overhead_ms"),
        ),
        Metric::new(
            "trace.coverage",
            if client_total.is_zero() {
                0.0
            } else {
                handle_total.as_secs_f64() / client_total.as_secs_f64()
            },
            "ratio",
            (reads + writes) as usize,
        ),
        Metric::new(
            "trace.overhead_pct",
            if client_total.is_zero() {
                0.0
            } else {
                100.0 * (wall.as_secs_f64() / client_total.as_secs_f64() - 1.0)
            },
            "%",
            (reads + writes) as usize,
        ),
        Metric::new("env.steal_pct", steal, "%", 1),
    ]);
    for f in failures.iter().take(20) {
        eprintln!("servebench: failed: {f}");
    }
    let failed = failures.len() as u64;
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        env: vec![
            ("measured_s", format!("{:.3}", wall.as_secs_f64())),
            ("reads", reads.to_string()),
            ("writes", writes.to_string()),
            ("census_algorithms", format!("{algorithms:?}")),
        ],
    })
}

fn count(spans: &Spans, name: &str) -> usize {
    spans.samples.get(name).map_or(0, Vec::len)
}

fn matcher_span(pattern: &str) -> &'static str {
    match pattern {
        "clq3_unlb" => "matcher.global_matches_ms.clq3_unlb",
        "clq3" => "matcher.global_matches_ms.clq3",
        _ => "matcher.global_matches_ms.sqr",
    }
}

/// The workload's set-up on the in-process session, in the server's
/// order; the probe executes the same statements. Returns the shadow
/// continuous engine holding the session's subscription.
fn replay_setup(
    w: Workload,
    inputs: &Inputs,
    served: &mut Served,
    probe: &mut Probe,
) -> Result<ContinuousEngine, String> {
    served.must(&Request::Analyze)?;
    let mut reads: Vec<String> = AGGREGATES
        .iter()
        .map(|(p, k)| inputs::warm_sql(p, *k))
        .collect();
    if w == Workload::HotRead {
        reads.extend(inputs.pool.iter().map(|&a| inputs::read_sql(a)));
    }
    for sql in reads {
        probe.engine.execute(&sql).map_err(|e| e.to_string())?;
        served.must(&Request::Query { sql, shard: None })?;
    }
    if w == Workload::Churn {
        for (p, k) in AGGREGATES {
            served.must(&Request::Materialize {
                sql: inputs::materialize_sql(p, k),
                shard: None,
            })?;
        }
    }
    let sql = format!("SUBSCRIBE {}", inputs::read_sql(inputs.sub_start));
    served.must(&Request::Subscribe {
        sql: sql.clone(),
        shard: None,
    })?;
    let spec = probe
        .engine
        .compile_subscription(&sql)
        .map_err(|e| e.to_string())?;
    let shared = &served.shared;
    let shadow = ContinuousEngine::new();
    shadow
        .subscribe(
            &shared.current_graph(),
            spec,
            shared.generation(),
            shared.algorithm,
            &PtConfig::default(),
            &ExecConfig::with_threads(shared.exec_threads),
        )
        .map_err(|e| e.to_string())?;
    Ok(shadow)
}

/// Re-run the pieces of one applied write on the inputs the server's
/// update path had, timing each.
fn trace_write(
    tr: &mut Tracer<'_>,
    before: &Arc<Graph>,
    pinned: &[Arc<egocensus::query::ViewEntry>],
    script: &inputs::Script,
    insert: bool,
) -> Result<(), String> {
    let shared = &tr.served.shared;
    let spans = &mut tr.spans;
    let mut delta = DeltaGraph::new(before.clone());
    for &(a, b) in &script.edges {
        let r = if insert {
            delta.insert_edge(NodeId(a), NodeId(b))
        } else {
            delta.delete_edge(NodeId(a), NodeId(b))
        };
        r.map_err(|e| e.to_string())?;
    }
    let (new_graph, d) = timed(|| delta.compact());
    spans.add("dynamic.compact_ms", ms(d));
    let (_, d) = timed(|| DirtyIndex::build(&delta, shared.census.max_count_radius()));
    spans.add("dynamic.dirty_ms", ms(d));
    if !pinned.is_empty() {
        let specs: Vec<CensusSpec<'_>> = pinned
            .iter()
            .map(|e| {
                let focal: Vec<NodeId> = e.counts.iter_focal().map(|(n, _)| n).collect();
                let mut s = CensusSpec::single(&e.pattern, e.k).with_focal(FocalNodes::Set(focal));
                if let Some(sp) = &e.subpattern {
                    s = s.with_subpattern(sp);
                }
                s
            })
            .collect();
        let previous: Vec<CountVector> = pinned.iter().map(|e| (*e.counts).clone()).collect();
        let previous_matches: Vec<Option<Arc<MatchList>>> =
            pinned.iter().map(|e| e.matches.clone()).collect();
        let (outcome, d) = timed(|| {
            update_batch_on(
                &delta,
                &new_graph,
                &specs,
                &previous,
                &previous_matches,
                shared.algorithm,
                &PtConfig::default(),
                &tr.exec,
            )
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        spans.add("dynamic.refresh_ms", ms(d));
        spans.add("dynamic.dirty_focal", outcome.stats.dirty_focal as f64);
        spans.add(
            "dynamic.match_survivors",
            outcome.match_stats.survivors as f64,
        );
        if let Some(path) = &shared.views_path {
            let copy = path.with_extension("views.trace");
            let fp = shared.fingerprint();
            let (r, d) = timed(|| shared.views.save(&copy, fp));
            r.map_err(|e| e.to_string())?;
            spans.add("query.view_save_ms", ms(d));
        }
    }
    let (notes, d) = timed(|| {
        tr.shadow.apply_update(
            &delta,
            &new_graph,
            shared.generation(),
            shared.algorithm,
            &PtConfig::default(),
            &tr.exec,
        )
    });
    let notes = notes.map_err(|e| e.to_string())?;
    spans.add("continuous.apply_ms", ms(d));
    spans.add(
        "continuous.rows",
        notes.iter().map(|n| n.rows.len()).sum::<usize>() as f64,
    );
    Ok(())
}
