//! Seeded inputs: the graph, the one request shape, and every workload's
//! request sequence. The same seed always yields the same inputs; the
//! untraced and the traced run build them through these functions.

use egocensus::datagen;
use egocensus::graph::{Graph, NodeId};
use std::sync::Arc;

/// Nodes of the Barabási–Albert graph.
pub const NODES: usize = 20_000;
/// Edges each new BA node attaches with (~5 · NODES edges in all).
pub const BA_M: usize = 5;
/// Node labels, assigned uniformly at random.
pub const LABELS: u16 = 4;
/// Focal nodes per read: every read asks for `W` consecutive node IDs.
pub const WINDOW: usize = 512;
/// The three aggregates of the request shape: (pattern, radius).
pub const AGGREGATES: [(&str, u32); 3] = [("clq3_unlb", 2), ("clq3", 2), ("sqr", 1)];
/// Distinct windows `hot-read` draws from. Each holds three census
/// count entries, so the pool (plus the warm-up entries) stays inside
/// the server's 256-entry census count cache.
pub const HOT_POOL: usize = 40;
/// Distinct insert scripts `churn` cycles through.
pub const SCRIPT_POOL: usize = 8;
/// Edges per update script.
pub const SCRIPT_EDGES: usize = 1;

/// SplitMix64: a tiny deterministic generator, so the inputs depend on
/// the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0DE5_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The read statement over window `[a, a + W)`.
pub fn read_sql(a: usize) -> String {
    format!(
        "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 2)), COUNTP(clq3, SUBGRAPH(ID, 2)), \
         COUNTP(sqr, SUBGRAPH(ID, 1)) FROM nodes WHERE ID >= {a} AND ID < {}",
        a + WINDOW
    )
}

/// The read statement with a `LIMIT` that keeps every row of the window
/// (`limit >= W`): a distinct statement with the same census work.
pub fn limit_sql(a: usize, limit: usize) -> String {
    debug_assert!(limit >= WINDOW);
    format!("{} LIMIT {limit}", read_sql(a))
}

/// The read shape over every node (the reference table).
pub fn full_sql() -> String {
    "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 2)), COUNTP(clq3, SUBGRAPH(ID, 2)), \
     COUNTP(sqr, SUBGRAPH(ID, 1)) FROM nodes"
        .to_string()
}

/// The read's focal selection alone.
pub fn focal_sql(a: usize) -> String {
    format!(
        "SELECT ID FROM nodes WHERE ID >= {a} AND ID < {}",
        a + WINDOW
    )
}

/// One warm-up statement per aggregate: computes the global match list
/// at set-up so reads find it cached.
pub fn warm_sql(pattern: &str, k: u32) -> String {
    format!("SELECT ID, COUNTP({pattern}, SUBGRAPH(ID, {k})) FROM nodes WHERE ID < 1")
}

pub fn materialize_sql(pattern: &str, k: u32) -> String {
    format!("MATERIALIZE {pattern} RADIUS {k} MATCHES")
}

/// Seed of the Barabási–Albert structure. The sum of squared degrees,
/// which sets the cost of a radius-2 census, swings by about ±10% between
/// BA graphs of this size, so the structure is fixed and `--seed` varies
/// the labels and every request sequence instead.
pub const STRUCTURE_SEED: u64 = 20_000;

/// The Barabási–Albert graph with labels drawn from `seed`.
pub fn graph(seed: u64) -> Graph {
    let g = datagen::barabasi_albert(NODES, BA_M, &mut datagen::rng(STRUCTURE_SEED));
    datagen::assign_random_labels(&g, LABELS, &mut datagen::rng(seed))
}

/// The class of a `hot-read` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotClass {
    /// An exact repeat of a warmed statement: a result-cache hit.
    Repeat,
    /// A warmed window with a `LIMIT` never sent before: a result-cache
    /// miss served from the census count cache.
    Limit,
}

#[derive(Clone, Debug)]
pub struct HotReq {
    pub class: HotClass,
    pub start: usize,
    pub sql: String,
}

/// An update script: `SCRIPT_EDGES` absent edges, inserted by one
/// `update` and deleted by the next, so the graph returns to its start.
#[derive(Clone, Debug)]
pub struct Script {
    pub edges: Vec<(u32, u32)>,
}

impl Script {
    pub fn insert_text(&self) -> String {
        self.text("INSERT")
    }

    pub fn delete_text(&self) -> String {
        self.text("DELETE")
    }

    fn text(&self, verb: &str) -> String {
        self.edges
            .iter()
            .map(|(a, b)| format!("{verb} EDGE ({a}, {b})"))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Everything a run sends, derived from the seed.
pub struct Inputs {
    pub seed: u64,
    pub graph: Arc<Graph>,
    /// Window starts in never-repeating order (`cold-census`, `routed`,
    /// and `churn` reads).
    pub fresh: Vec<usize>,
    /// `hot-read`'s warmed windows.
    pub pool: Vec<usize>,
    /// `hot-read`'s per-connection sequences.
    pub hot: [Vec<HotReq>; 2],
    /// The subscribed window's start (the last `W` node IDs).
    pub sub_start: usize,
    /// Update scripts, cycled in order.
    pub scripts: Vec<Script>,
}

/// Requests per `hot-read` connection sequence (far more than a run
/// can send).
const HOT_SEQ: usize = 40_000;

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let graph = Arc::new(graph(seed));
        let mut rng = Rng::new(seed);
        let mut fresh: Vec<usize> = (0..=NODES - WINDOW).collect();
        rng.shuffle(&mut fresh);
        let mut pool_rng = Rng::new(seed ^ 0x9001);
        let pool: Vec<usize> = (0..HOT_POOL)
            .map(|_| pool_rng.below(NODES - WINDOW + 1))
            .collect();
        let hot = [0usize, 1].map(|c| hot_sequence(seed, c, &pool));
        let sub_start = NODES - WINDOW;
        let scripts = scripts(&graph, sub_start, seed);
        Inputs {
            seed,
            graph,
            fresh,
            pool,
            hot,
            sub_start,
            scripts,
        }
    }
}

/// Connection `c`'s `hot-read` sequence: every block of five holds three
/// repeats and two never-sent `LIMIT`s, so the 60/40 shares hold exactly
/// over any prefix a run completes, give or take one block.
fn hot_sequence(seed: u64, c: usize, pool: &[usize]) -> Vec<HotReq> {
    let mut rng = Rng::new(seed ^ (0x407 + c as u64));
    let mut out = Vec::with_capacity(HOT_SEQ);
    let mut limits = 0usize;
    while out.len() < HOT_SEQ {
        let mut block = [
            HotClass::Repeat,
            HotClass::Repeat,
            HotClass::Repeat,
            HotClass::Limit,
            HotClass::Limit,
        ];
        rng.shuffle(&mut block);
        for class in block {
            let start = pool[rng.below(pool.len())];
            let sql = match class {
                HotClass::Repeat => read_sql(start),
                HotClass::Limit => {
                    // Interleaved across the two connections, so no
                    // `LIMIT` value is ever sent twice.
                    let limit = WINDOW + 1 + 2 * limits + c;
                    limits += 1;
                    limit_sql(start, limit)
                }
            };
            out.push(HotReq { class, start, sql });
        }
    }
    out
}

/// Localized update scripts inside the subscribed window: each edge joins
/// two window nodes that share a neighbor but are not adjacent (so the
/// insert closes a triangle and the subscribed counts move), picking the
/// pairs whose two-hop balls are smallest (so the dirty region stays
/// small). Endpoints are disjoint across all scripts, so every insert is
/// of an absent edge.
fn scripts(g: &Graph, sub_start: usize, seed: u64) -> Vec<Script> {
    let in_window = |n: NodeId| (n.0 as usize) >= sub_start;
    let ball = |n: NodeId| -> usize { g.neighbors(n).iter().map(|&m| g.degree(m)).sum() };
    let mut candidates: Vec<(usize, u32, u32)> = Vec::new();
    for v in (sub_start..NODES).map(|i| NodeId(i as u32)) {
        for &c in g.neighbors(v) {
            for &u in g.neighbors(c) {
                if u.0 > v.0 && in_window(u) && !g.has_undirected_edge(u, v) {
                    candidates.push((ball(u) + ball(v), v.0, u.0));
                }
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup_by_key(|c| (c.1, c.2));
    let mut used = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for (_, a, b) in candidates {
        if edges.len() == SCRIPT_POOL * SCRIPT_EDGES {
            break;
        }
        if used.contains(&a) || used.contains(&b) {
            continue;
        }
        used.insert(a);
        used.insert(b);
        edges.push((a, b));
    }
    assert_eq!(
        edges.len(),
        SCRIPT_POOL * SCRIPT_EDGES,
        "the subscribed window holds too few localized edge candidates"
    );
    Rng::new(seed ^ 0xED6E).shuffle(&mut edges);
    edges
        .chunks(SCRIPT_EDGES)
        .map(|c| Script { edges: c.to_vec() })
        .collect()
}
