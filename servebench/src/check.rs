//! Reference answers computed in-process with `QueryEngine::execute`, and
//! the comparisons the workloads make against them.

use crate::inputs::{self, Script, WINDOW};
use egocensus::dynamic::DeltaGraph;
use egocensus::graph::{Graph, NodeId};
use egocensus::query::{Catalog, CensusCache, QueryEngine, Table, Value};
use egocensus::server::Response;
use std::collections::HashMap;
use std::sync::Arc;

/// A cache-free engine over `graph` with the built-in patterns and the
/// served `RND()` seed and thread count.
pub fn engine(graph: Arc<Graph>) -> QueryEngine<'static> {
    let mut e = QueryEngine::shared(graph);
    e.set_catalog(Catalog::with_builtins());
    e.set_seed(SERVED_SEED);
    e.set_threads(0);
    e
}

/// `egocensus serve`'s default `--seed`.
pub const SERVED_SEED: u64 = 0xC0FFEE;

/// An engine over one graph that keeps its global match lists between
/// statements, so several windows of one mutated graph pay for one
/// enumeration.
pub fn caching_engine(graph: Arc<Graph>) -> QueryEngine<'static> {
    let mut e = engine(graph);
    e.set_census_cache(Arc::new(CensusCache::new(16)));
    e
}

/// `sql` on `engine`, encoded exactly as the server encodes a table.
pub fn encoded(engine: &QueryEngine<'static>, sql: &str) -> Result<String, String> {
    let t = engine.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    Ok(Response::table(&t).encode())
}

/// The read shape evaluated over every node of one graph: any window's
/// response is a slice of it.
pub struct FullTable {
    /// The engine that computed it, for re-executing sampled statements.
    pub engine: QueryEngine<'static>,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    hashes: HashMap<usize, u64>,
}

impl FullTable {
    pub fn new(graph: &Arc<Graph>) -> Result<FullTable, String> {
        let engine = caching_engine(graph.clone());
        let t = engine
            .execute(&inputs::full_sql())
            .map_err(|e| e.to_string())?;
        let rows = t.rows().to_vec();
        for (i, r) in rows.iter().enumerate() {
            if r.first() != Some(&Value::Int(i as i64)) {
                return Err("reference rows are not in node order".into());
            }
        }
        Ok(FullTable {
            engine,
            columns: t.columns().to_vec(),
            rows,
            hashes: HashMap::new(),
        })
    }

    /// The encoded response to the read over `[a, a + W)`.
    pub fn window_response(&self, a: usize) -> String {
        let mut t = Table::new(self.columns.clone());
        for r in &self.rows[a..a + WINDOW] {
            t.push_row(r.clone());
        }
        Response::table(&t).encode()
    }

    /// FNV hash of [`FullTable::window_response`], memoized.
    pub fn window_hash(&mut self, a: usize) -> u64 {
        if let Some(&h) = self.hashes.get(&a) {
            return h;
        }
        let h = crate::net::fnv(self.window_response(a).as_bytes());
        self.hashes.insert(a, h);
        h
    }

    /// Per-aggregate counts of the window (for frame diffs).
    pub fn window_counts(&self, a: usize) -> Vec<Vec<u64>> {
        counts_of_rows(&self.rows[a..a + WINDOW])
    }

    pub fn aggregate_columns(&self) -> Vec<String> {
        self.columns[1..].to_vec()
    }
}

fn counts_of_rows(rows: &[Vec<Value>]) -> Vec<Vec<u64>> {
    (1..=inputs::AGGREGATES.len())
        .map(|c| {
            rows.iter()
                .map(|r| r[c].as_int().unwrap_or(-1) as u64)
                .collect()
        })
        .collect()
}

/// The graph after `script`'s inserts.
pub fn inserted(base: &Arc<Graph>, script: &Script) -> Result<Arc<Graph>, String> {
    let mut d = DeltaGraph::new(base.clone());
    for &(a, b) in &script.edges {
        d.insert_edge(NodeId(a), NodeId(b))
            .map_err(|e| e.to_string())?;
    }
    Ok(Arc::new(d.compact()))
}

/// Window counts of the read over `[a, a + W)`.
pub fn window_counts(engine: &QueryEngine<'static>, a: usize) -> Result<Vec<Vec<u64>>, String> {
    let t = engine
        .execute(&inputs::read_sql(a))
        .map_err(|e| e.to_string())?;
    Ok(counts_of_rows(t.rows()))
}

/// The notify rows a subscriber over `[a, a + W)` must receive when the
/// counts move from `old` to `new`: the diff of two recomputes, as
/// `[focal, column, old, new]` rows, focal-ascending then column order.
pub fn frame_rows(
    a: usize,
    columns: &[String],
    old: &[Vec<u64>],
    new: &[Vec<u64>],
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for i in 0..WINDOW {
        for (c, column) in columns.iter().enumerate() {
            let (o, n) = (old[c][i], new[c][i]);
            if o != n {
                rows.push(vec![
                    Value::Int((a + i) as i64),
                    Value::Str(column.clone()),
                    Value::Int(o as i64),
                    Value::Int(n as i64),
                ]);
            }
        }
    }
    rows
}
