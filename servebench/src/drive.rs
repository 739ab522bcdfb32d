//! The untraced run: spawn the shipped server, set it up, drive it from
//! this process with at most two connections in a closed loop, check the
//! outputs, and report the end-to-end metrics.

use crate::check::{self, FullTable};
use crate::inputs::{self, HotClass, Inputs, AGGREGATES};
use crate::net::{delta, fnv, query_line, Conn};
use crate::proc::ServerProc;
use crate::report::{median, percentile, Metric, Outcome};
use egocensus::query::{ShardSpec, Value};
use egocensus::server::{Request, Response};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdCensus,
    HotRead,
    Churn,
    Routed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdCensus,
        Workload::HotRead,
        Workload::Churn,
        Workload::Routed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCensus => "cold-census",
            Workload::HotRead => "hot-read",
            Workload::Churn => "churn",
            Workload::Routed => "routed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Extra `serve` flags.
    pub fn serve_args(self) -> &'static [&'static str] {
        match self {
            Workload::Routed => &["--workers", "2", "--exec-threads", "1"],
            _ => &[],
        }
    }
}

/// Server starts per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Share of `--seconds` the non-churn workloads spend on reads; the rest
/// is the write phase that every workload reports write latency from.
pub const READ_SHARE: f64 = 0.75;
/// Equal time slices of a measured phase. Each rate and percentile is
/// the median of its per-slice values, so a burst of host CPU steal
/// moves one slice rather than the run.
pub const SLICES: usize = 5;
/// Fresh-window reads between two of `churn`'s writes.
pub const CHURN_READS_PER_WRITE: usize = 8;
/// Reads re-executed in-process per run, by exact statement.
const SAMPLED_READS: usize = 6;
/// Reads after an insert that `churn` re-checks against a recompute of
/// the mutated graph (reads at the start graph are all checked).
const SAMPLED_MUTATED_READS: usize = 24;

/// A freshly written `.egb` with no sidecars, in its own directory.
pub fn fresh_graph(work: &Path, tag: &str, inputs: &Inputs) -> Result<PathBuf, String> {
    let dir = work.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("graph.egb");
    egocensus::graph::io::save_path(&inputs.graph, &path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// A set-up server: the client connection and the subscriber.
pub struct Env {
    pub server: ServerProc,
    pub conn: Conn,
    pub sub: Conn,
}

impl Env {
    pub fn stop(self) {
        drop(self.conn);
        drop(self.sub);
        self.server.stop();
    }
}

/// Start the server on `egb` and bring it to where the measured phase
/// can begin: listening, `ANALYZE`, one warm query per aggregate, and
/// the workload's own state (hot pool, views, subscription).
pub fn setup(w: Workload, inputs: &Inputs, egb: &Path) -> Result<Env, String> {
    let server = ServerProc::spawn(egb, w.serve_args())?;
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    conn.must(&Request::Analyze)?;
    for (p, k) in AGGREGATES {
        conn.must(&query(&inputs::warm_sql(p, k)))?;
    }
    match w {
        Workload::HotRead => {
            for &a in &inputs.pool {
                conn.must(&query(&inputs::read_sql(a)))?;
            }
        }
        Workload::Churn => {
            for (p, k) in AGGREGATES {
                conn.must(&Request::Materialize {
                    sql: inputs::materialize_sql(p, k),
                    shard: None,
                })?;
            }
        }
        Workload::ColdCensus | Workload::Routed => {}
    }
    let mut sub = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    sub.must(&Request::Subscribe {
        sql: format!("SUBSCRIBE {}", inputs::read_sql(inputs.sub_start)),
        shard: None,
    })?;
    Ok(Env { server, conn, sub })
}

fn query(sql: &str) -> Request {
    Request::Query {
        sql: sql.to_string(),
        shard: None,
    }
}

/// One completed read.
struct Read {
    start: usize,
    sql: String,
    class: Option<HotClass>,
    latency: Duration,
    done: Instant,
    hash: u64,
    /// Index of the script whose inserts were live when the read ran
    /// (`None` = the start graph).
    state: Option<usize>,
}

/// One acknowledged write.
struct Write {
    generation: u64,
    acked: Instant,
    latency: Duration,
    script: usize,
    insert: bool,
}

/// One received notify frame.
struct Frame {
    generation: u64,
    at: Instant,
    rows: Vec<Vec<Value>>,
}

#[derive(Default)]
struct Log {
    reads: Vec<Read>,
    writes: Vec<Write>,
    failures: Vec<String>,
    attempted: u64,
}

impl Log {
    fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("servebench: failed: {what}");
        }
        self.failures.push(what);
    }
}

/// Send one read and log it.
fn read_once(
    conn: &mut Conn,
    log: &mut Log,
    start: usize,
    sql: String,
    class: Option<HotClass>,
    state: Option<usize>,
) {
    log.attempted += 1;
    match conn.timed(&query_line(&sql)) {
        Ok((raw, Response::Table(_), latency)) => log.reads.push(Read {
            start,
            sql,
            class,
            latency,
            done: Instant::now(),
            hash: fnv(raw.as_bytes()),
            state,
        }),
        Ok((raw, _, _)) => log.fail(format!("read `{sql}`: {raw}")),
        Err(e) => log.fail(format!("read `{sql}`: {e}")),
    }
}

/// One `hot-read` connection: its sequence, in order, until `deadline`.
fn hot_loop(conn: &mut Conn, seq: &[inputs::HotReq], deadline: Instant) -> Log {
    let mut log = Log::default();
    for r in seq {
        if Instant::now() >= deadline {
            break;
        }
        read_once(conn, &mut log, r.start, r.sql.clone(), Some(r.class), None);
    }
    log
}

/// Apply script `i` (insert or delete) and log the ack.
fn write_once(conn: &mut Conn, log: &mut Log, inputs: &Inputs, i: usize, insert: bool) -> bool {
    let script = &inputs.scripts[i % inputs.scripts.len()];
    let text = if insert {
        script.insert_text()
    } else {
        script.delete_text()
    };
    log.attempted += 1;
    let line = Request::Update { mutations: text }.encode();
    match conn.timed(&line) {
        Ok((_, Response::Table(t), latency)) => {
            let acked = Instant::now();
            let expected = script.edges.len() as i64;
            let moved = t.stat(if insert {
                "edges_inserted"
            } else {
                "edges_deleted"
            });
            match (t.stat("generation"), moved) {
                (Some(g), Some(m)) if m == expected => {
                    log.writes.push(Write {
                        generation: g as u64,
                        acked,
                        latency,
                        script: i % inputs.scripts.len(),
                        insert,
                    });
                    true
                }
                _ => {
                    log.fail(format!("update ack {t:?}"));
                    false
                }
            }
        }
        Ok((raw, _, _)) => {
            log.fail(format!("update: {raw}"));
            false
        }
        Err(e) => {
            log.fail(format!("update: {e}"));
            false
        }
    }
}

/// Read notify frames until `stop` is set and `want(frames)` holds, or a
/// grace period after `stop` runs out.
fn subscriber(mut sub: Conn, stop: Arc<AtomicBool>, want: Arc<Mutex<u64>>) -> (Conn, Vec<Frame>) {
    let _ = sub.set_read_timeout(Duration::from_millis(50));
    let mut frames = Vec::new();
    let mut stopped_at: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            let t = *stopped_at.get_or_insert_with(Instant::now);
            let want = *want.lock().unwrap();
            if frames.len() as u64 >= want || t.elapsed() > Duration::from_secs(5) {
                break;
            }
        }
        match sub.recv() {
            Ok(line) => {
                let at = Instant::now();
                if let Ok(Response::Notify(f)) = Response::decode(&line) {
                    frames.push(Frame {
                        generation: f.generation,
                        at,
                        rows: f.rows,
                    });
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    let _ = sub.set_read_timeout(crate::net::REQUEST_TIMEOUT);
    (sub, frames)
}

/// Alternate insert and delete of the scripts until `deadline`, with
/// `reads` fresh-window reads after each write, always ending on the
/// start graph.
fn write_phase(
    conn: &mut Conn,
    log: &mut Log,
    inputs: &Inputs,
    reads: usize,
    next_fresh: &mut usize,
    deadline: Instant,
) {
    let mut i = 0;
    while Instant::now() < deadline {
        if !write_once(conn, log, inputs, i, true) {
            return;
        }
        for _ in 0..reads {
            let a = inputs.fresh[*next_fresh % inputs.fresh.len()];
            *next_fresh += 1;
            let state = Some(i % inputs.scripts.len());
            read_once(conn, log, a, inputs::read_sql(a), None, state);
        }
        if !write_once(conn, log, inputs, i, false) {
            return;
        }
        for _ in 0..reads {
            let a = inputs.fresh[*next_fresh % inputs.fresh.len()];
            *next_fresh += 1;
            read_once(conn, log, a, inputs::read_sql(a), None, None);
        }
        i += 1;
    }
}

/// Run one workload untraced.
pub fn run(w: Workload, inputs: &Inputs, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let steal0 = crate::proc::cpu_jiffies();
    let mut setup_times = Vec::new();
    let mut env = None;
    for rep in 0..SETUP_REPS {
        let egb = fresh_graph(work, &format!("start{rep}"), inputs)?;
        let t = Instant::now();
        let e = setup(w, inputs, &egb)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            e.stop();
        } else {
            env = Some(e);
        }
    }
    let Env {
        server,
        mut conn,
        sub,
    } = env.expect("at least one set-up");

    let mut log = Log::default();
    let before = conn.stats()?;
    let stop = Arc::new(AtomicBool::new(false));
    let want = Arc::new(Mutex::new(u64::MAX));
    // The subscriber drains frames from the start of the write phase;
    // before that `hot-read` sends its second connection's reads on it.
    let subscribe = |sub: Conn| {
        let (stop, want) = (stop.clone(), want.clone());
        std::thread::spawn(move || subscriber(sub, stop, want))
    };

    let total = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut next_fresh = 0usize;
    let read_phase;
    let mid;
    let sub_thread;
    match w {
        Workload::ColdCensus | Workload::Routed => {
            let deadline = t0 + total.mul_f64(READ_SHARE);
            while Instant::now() < deadline {
                // ~19.5k distinct windows; a run that used them all would
                // repeat and fail the zero-hit self-check below.
                let a = inputs.fresh[next_fresh % inputs.fresh.len()];
                next_fresh += 1;
                read_once(&mut conn, &mut log, a, inputs::read_sql(a), None, None);
            }
            read_phase = t0.elapsed();
            mid = conn.stats()?;
            sub_thread = subscribe(sub);
            write_phase(&mut conn, &mut log, inputs, 0, &mut next_fresh, t0 + total);
        }
        Workload::HotRead => {
            let deadline = t0 + total.mul_f64(READ_SHARE);
            let mut second = sub;
            let logs: Vec<Log> = std::thread::scope(|s| {
                let first = s.spawn(|| hot_loop(&mut conn, &inputs.hot[0], deadline));
                let other = s.spawn(|| hot_loop(&mut second, &inputs.hot[1], deadline));
                vec![first.join().unwrap(), other.join().unwrap()]
            });
            read_phase = t0.elapsed();
            for l in logs {
                log.attempted += l.attempted;
                log.reads.extend(l.reads);
                log.failures.extend(l.failures);
            }
            mid = conn.stats()?;
            sub_thread = subscribe(second);
            write_phase(&mut conn, &mut log, inputs, 0, &mut next_fresh, t0 + total);
        }
        Workload::Churn => {
            sub_thread = subscribe(sub);
            write_phase(
                &mut conn,
                &mut log,
                inputs,
                CHURN_READS_PER_WRITE,
                &mut next_fresh,
                t0 + total,
            );
            read_phase = t0.elapsed();
            mid = before.clone();
        }
    }
    let elapsed = t0.elapsed();
    *want.lock().unwrap() = log.writes.len() as u64;
    stop.store(true, Ordering::SeqCst);
    let (sub, frames) = sub_thread.join().expect("subscriber thread");
    let after = conn.stats()?;
    let peak_rss_mb = server.peak_rss_mb();
    drop(sub);
    drop(conn);
    server.stop();
    let steal = crate::proc::steal_pct(steal0, crate::proc::cpu_jiffies());

    // ---- output checks (outside the measured phase) ----
    let mut mechanism = Vec::new();
    let reads_n = log.reads.len() as i64;
    let writes_n = log.writes.len() as i64;
    match w {
        Workload::ColdCensus | Workload::Routed => {
            let empty = if w == Workload::Routed {
                empty_leg_hits(inputs, &log.reads)
            } else {
                0
            };
            for (name, want) in [
                ("cache_hits", 0),
                ("census_count_hits", empty),
                ("view_hits", 0),
            ] {
                let d = delta(&before, &mid, name);
                if d != want {
                    mechanism.push(format!(
                        "{name} moved by {d} (planned {want}) on never-repeated windows"
                    ));
                }
            }
            if w == Workload::Routed {
                let scattered = delta(&before, &mid, "router_scattered_queries");
                let legs = delta(&before, &mid, "latency_query_count");
                if scattered != reads_n || legs != 2 * reads_n {
                    mechanism.push(format!(
                        "{reads_n} routed reads gave {scattered} scatters and {legs} worker legs"
                    ));
                }
            }
        }
        Workload::HotRead => {
            let repeats = log
                .reads
                .iter()
                .filter(|r| r.class == Some(HotClass::Repeat))
                .count() as i64;
            let limits = reads_n - repeats;
            let hits = delta(&before, &mid, "cache_hits");
            let counts = delta(&before, &mid, "census_count_hits");
            let views = delta(&before, &mid, "view_hits");
            if hits != repeats || counts != 3 * limits || views != 0 {
                mechanism.push(format!(
                    "planned {repeats} result-cache and {} count-cache hits, saw {hits}, \
                     {counts} (and {views} view hits)",
                    3 * limits
                ));
            }
        }
        Workload::Churn => {
            let refreshes = delta(&before, &after, "view_refreshes");
            let views = delta(&before, &after, "view_hits");
            if refreshes != 3 * writes_n || views != 3 * reads_n {
                mechanism.push(format!(
                    "{writes_n} writes and {reads_n} reads gave {refreshes} view refreshes \
                     and {views} view hits"
                ));
            }
        }
    }
    let notes = delta(&mid, &after, "continuous_notifications");
    let want_notes = if w == Workload::Routed { 2 } else { 1 } * writes_n;
    if notes != want_notes || frames.len() as i64 != writes_n {
        mechanism.push(format!(
            "{writes_n} writes gave {notes} server notifications and {} frames",
            frames.len()
        ));
    }

    let verify_t = Instant::now();
    let reference = FullTable::new(&inputs.graph)?;
    verify(inputs, reference, &mut log, &frames)?;
    let verify_s = verify_t.elapsed().as_secs_f64();

    // ---- metrics: each the median of its per-slice values ----
    let read_span = (t0, t0 + read_phase);
    let write_span = match w {
        Workload::Churn => (t0, t0 + elapsed),
        _ => (t0 + read_phase, t0 + elapsed),
    };
    let read_ms: Vec<(Instant, f64)> = log
        .reads
        .iter()
        .map(|r| (r.done, r.latency.as_secs_f64() * 1e3))
        .collect();
    let write_ms: Vec<(Instant, f64)> = log
        .writes
        .iter()
        .map(|r| (r.acked, r.latency.as_secs_f64() * 1e3))
        .collect();
    let lag_ms: Vec<(Instant, f64)> = log
        .writes
        .iter()
        .filter_map(|wr| {
            frames
                .iter()
                .find(|f| f.generation == wr.generation)
                .map(|f| {
                    let lag = if f.at >= wr.acked {
                        (f.at - wr.acked).as_secs_f64() * 1e3
                    } else {
                        -(wr.acked - f.at).as_secs_f64() * 1e3
                    };
                    (wr.acked, lag)
                })
        })
        .collect();
    let mut completed = read_ms.clone();
    if w == Workload::Churn {
        completed.extend(&write_ms);
    }
    let rate = |v: &[f64], secs: f64| Some(v.len() as f64 / secs);
    let p50 = |v: &[f64], _: f64| (!v.is_empty()).then(|| percentile(v, 50.0));
    let p90 = |v: &[f64], _: f64| (!v.is_empty()).then(|| percentile(v, 90.0));
    let metrics = vec![
        Metric::new(
            "throughput_rps",
            sliced(&completed, read_span, rate),
            "1/s",
            completed.len(),
        ),
        Metric::new(
            "latency_p50_ms",
            sliced(&read_ms, read_span, p50),
            "ms",
            read_ms.len(),
        ),
        Metric::new(
            "latency_p90_ms",
            sliced(&read_ms, read_span, p90),
            "ms",
            read_ms.len(),
        ),
        Metric::new("setup_s", median(&setup_times), "s", setup_times.len()),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
        Metric::new(
            "write_latency_p50_ms",
            sliced(&write_ms, write_span, p50),
            "ms",
            write_ms.len(),
        ),
        Metric::new(
            "write_latency_p90_ms",
            sliced(&write_ms, write_span, p90),
            "ms",
            write_ms.len(),
        ),
        Metric::new(
            "notify_lag_p50_ms",
            sliced(&lag_ms, write_span, p50),
            "ms",
            lag_ms.len(),
        ),
    ];
    let failed = log.failures.len() as u64;
    for m in &mechanism {
        eprintln!("servebench: mechanism check failed: {m}");
    }
    Ok(Outcome {
        correct: failed == 0 && mechanism.is_empty(),
        attempted: log.attempted.max(1),
        failed,
        metrics,
        env: vec![
            ("measured_s", format!("{:.3}", elapsed.as_secs_f64())),
            ("reads", log.reads.len().to_string()),
            ("writes", log.writes.len().to_string()),
            ("frames", frames.len().to_string()),
            ("env.steal_pct", format!("{steal:.2}")),
            (
                "setup_total_s",
                format!("{:.3}", setup_times.iter().sum::<f64>()),
            ),
            ("verify_s", format!("{verify_s:.3}")),
        ],
    })
}

/// Split `span` into `SLICES` equal slices, put each timed value in the
/// slice holding its instant, apply `f(values, slice seconds)` to each
/// slice and return the median of the results (`None`s left out).
fn sliced(
    events: &[(Instant, f64)],
    span: (Instant, Instant),
    f: impl Fn(&[f64], f64) -> Option<f64>,
) -> f64 {
    let width = (span.1 - span.0).as_secs_f64() / SLICES as f64;
    let mut slices = vec![Vec::new(); SLICES];
    for &(at, v) in events {
        let i = (at.saturating_duration_since(span.0).as_secs_f64() / width) as usize;
        slices[i.min(SLICES - 1)].push(v);
    }
    let per: Vec<f64> = slices.iter().filter_map(|v| f(v, width)).collect();
    median(&per)
}

/// The engine over the graph with script `i`'s inserts, built once.
fn mutated_engine<'m>(
    engines: &'m mut std::collections::HashMap<usize, egocensus::query::QueryEngine<'static>>,
    inputs: &Inputs,
    i: usize,
) -> Result<&'m egocensus::query::QueryEngine<'static>, String> {
    if let std::collections::hash_map::Entry::Vacant(slot) = engines.entry(i) {
        let g = check::inserted(&inputs.graph, &inputs.scripts[i])?;
        slot.insert(check::caching_engine(g));
    }
    Ok(&engines[&i])
}

/// Census count-cache hits a routed run must show. Shards are contiguous
/// node-ID ranges, so a window usually lies inside one worker's range and
/// the other worker's leg has an empty focal set, whose three count
/// vectors the worker has cached since set-up: the warm queries (`ID < 1`)
/// leave worker 1's leg empty and the subscription (the last `W` IDs)
/// worker 0's.
fn empty_leg_hits(inputs: &Inputs, reads: &[Read]) -> i64 {
    let n = inputs.graph.num_nodes();
    let mut empty = 0;
    for j in 0..2u32 {
        let range = ShardSpec::new(j, 2).expect("shard").range(n);
        empty += reads
            .iter()
            .filter(|r| r.start + inputs::WINDOW <= range.start || r.start >= range.end)
            .count() as i64;
    }
    3 * empty
}

/// Compare every logged response with its reference; a mismatch is a
/// failed operation.
fn verify(
    inputs: &Inputs,
    mut reference: FullTable,
    log: &mut Log,
    frames: &[Frame],
) -> Result<(), String> {
    let mut bad = Vec::new();
    // Every read at the start graph: a slice of the full reference table.
    for r in &log.reads {
        if r.state.is_none() && r.hash != reference.window_hash(r.start) {
            bad.push(format!("read `{}` differs from the reference", r.sql));
        }
    }
    // A seeded sample, re-executed by exact statement, pins the slicing.
    let mut rng = inputs::Rng::new(inputs.seed ^ 0xC4EC);
    let at_start: Vec<&Read> = log.reads.iter().filter(|r| r.state.is_none()).collect();
    for _ in 0..SAMPLED_READS.min(at_start.len()) {
        let r = at_start[rng.below(at_start.len())];
        let expected = check::encoded(&reference.engine, &r.sql)?;
        if expected != reference.window_response(r.start) {
            bad.push(format!(
                "in-process `{}` disagrees with the reference table",
                r.sql
            ));
        }
    }
    // Reads while a script's inserts were live: a seeded sample against
    // a recompute on that graph.
    let mut engines = std::collections::HashMap::new();
    let mutated: Vec<&Read> = log.reads.iter().filter(|r| r.state.is_some()).collect();
    for _ in 0..SAMPLED_MUTATED_READS.min(mutated.len()) {
        let r = mutated[rng.below(mutated.len())];
        let i = r.state.unwrap();
        let expected = check::encoded(mutated_engine(&mut engines, inputs, i)?, &r.sql)?;
        if fnv(expected.as_bytes()) != r.hash {
            bad.push(format!(
                "read `{}` after script {i} differs from a recompute",
                r.sql
            ));
        }
    }
    // Every frame: the diff of two recomputes of the subscribed window.
    let a = inputs.sub_start;
    let columns = reference.aggregate_columns();
    let base = reference.window_counts(a);
    let mut moved = std::collections::HashMap::new();
    for wr in &log.writes {
        let Some(f) = frames.iter().find(|f| f.generation == wr.generation) else {
            bad.push(format!("no frame for generation {}", wr.generation));
            continue;
        };
        if let std::collections::hash_map::Entry::Vacant(slot) = moved.entry(wr.script) {
            let engine = mutated_engine(&mut engines, inputs, wr.script)?;
            slot.insert(check::window_counts(engine, a)?);
        }
        let after = &moved[&wr.script];
        let expected = if wr.insert {
            check::frame_rows(a, &columns, &base, after)
        } else {
            check::frame_rows(a, &columns, after, &base)
        };
        if f.rows != expected {
            bad.push(format!(
                "frame for generation {} differs from the diff of two recomputes",
                wr.generation
            ));
        }
    }
    for b in bad {
        log.fail(b);
    }
    Ok(())
}
