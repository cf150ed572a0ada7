//! Max-flow / min-cut with early termination, plus minimum vertex cuts.
//!
//! The FlowMap family of mappers decides *"is there a K-feasible cut?"* by
//! computing a maximum flow in a node-split network and stopping as soon as
//! the flow exceeds `K` — the exact value of a larger flow is never needed.
//! [`FlowNetwork`] is a general Dinic implementation with that early exit,
//! and [`min_vertex_cut`] wraps the standard node-splitting construction.
//! The mappers run their own unit-capacity kernel straight on the
//! expanded circuit (`turbosyn::expand`); this module is the reference
//! its tests compare against.

use crate::Digraph;

const INF: u32 = u32::MAX / 2;

#[derive(Debug, Clone)]
struct Arc {
    to: u32,
    cap: u32,
    /// Index of the reverse arc in `arcs`.
    rev: u32,
}

/// A flow network over nodes `0..n` supporting early-terminated max-flow.
///
/// # Example
///
/// ```
/// use turbosyn_graph::maxflow::FlowNetwork;
///
/// let mut net = FlowNetwork::new(4);
/// net.add_arc(0, 1, 1);
/// net.add_arc(0, 2, 1);
/// net.add_arc(1, 3, 1);
/// net.add_arc(2, 3, 1);
/// assert_eq!(net.max_flow(0, 3, 10), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    adj: Vec<Vec<u32>>,
    arcs: Vec<Arc>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl FlowNetwork {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            arcs: Vec::new(),
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.level.push(-1);
        self.iter.push(0);
        self.adj.len() - 1
    }

    /// Adds a directed arc with the given capacity (and an implicit
    /// zero-capacity reverse arc).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u32) {
        assert!(
            from < self.adj.len() && to < self.adj.len(),
            "arc endpoint out of range"
        );
        let a = self.arcs.len() as u32;
        self.arcs.push(Arc {
            to: to as u32,
            cap,
            rev: a + 1,
        });
        self.arcs.push(Arc {
            to: from as u32,
            cap: 0,
            rev: a,
        });
        self.adj[from].push(a);
        self.adj[to].push(a + 1);
    }

    /// Computes the maximum flow from `s` to `t`, stopping early once the
    /// flow exceeds `limit`. The return value is `min(true max flow,
    /// some value > limit)` — i.e. a result `<= limit` is the exact max
    /// flow, while a result `> limit` only certifies that the max flow
    /// exceeds `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize, limit: u32) -> u32 {
        assert!(
            s < self.adj.len() && t < self.adj.len(),
            "terminal out of range"
        );
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0u32;
        while flow <= limit {
            if !self.bfs(s, t) {
                break;
            }
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, INF);
                if f == 0 {
                    break;
                }
                flow += f;
                if flow > limit {
                    return flow;
                }
            }
        }
        flow
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut q = std::collections::VecDeque::new();
        self.level[s] = 0;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for &ai in &self.adj[v] {
                let a = &self.arcs[ai as usize];
                let to = a.to as usize;
                if a.cap > 0 && self.level[to] < 0 {
                    self.level[to] = self.level[v] + 1;
                    q.push_back(to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, up_to: u32) -> u32 {
        if v == t {
            return up_to;
        }
        while self.iter[v] < self.adj[v].len() {
            let ai = self.adj[v][self.iter[v]] as usize;
            let (to, cap) = (self.arcs[ai].to as usize, self.arcs[ai].cap);
            if cap > 0 && self.level[v] < self.level[to] {
                let d = self.dfs(to, t, up_to.min(cap));
                if d > 0 {
                    self.arcs[ai].cap -= d;
                    let rev = self.arcs[ai].rev as usize;
                    self.arcs[rev].cap += d;
                    return d;
                }
            }
            self.iter[v] += 1;
        }
        0
    }

    /// After [`FlowNetwork::max_flow`] returned a value `<= limit` (a true
    /// max flow), returns the source side of a minimum cut: `side[v]` is
    /// true iff `v` is reachable from `s` in the residual network.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut side = vec![false; self.adj.len()];
        let mut q = std::collections::VecDeque::new();
        side[s] = true;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for &ai in &self.adj[v] {
                let a = &self.arcs[ai as usize];
                let to = a.to as usize;
                if a.cap > 0 && !side[to] {
                    side[to] = true;
                    q.push_back(to);
                }
            }
        }
        side
    }
}

/// Result of [`min_vertex_cut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VertexCut {
    /// A cut within the limit was found; the payload lists the cut
    /// vertices (each had finite capacity, and removing them disconnects
    /// the sources from the sinks).
    Cut(Vec<usize>),
    /// Every vertex cut is larger than the limit.
    ExceedsLimit,
}

/// Computes a minimum **vertex** cut separating `sources` from `sinks` in
/// `g`, where vertex `v` may be cut at cost `cap[v]` (`u32::MAX` means
/// uncuttable). Stops early and returns [`VertexCut::ExceedsLimit`] when
/// every cut costs more than `limit`.
///
/// Uses the standard node-splitting reduction: each vertex `v` becomes
/// `v_in -> v_out` with capacity `cap[v]`; edges of `g` get infinite
/// capacity. Source vertices feed from a super-source at infinite capacity
/// (their own capacity is ignored), and sink vertices feed a super-sink.
///
/// # Panics
///
/// Panics if `cap.len() != g.node_count()`, if `sources` or `sinks` is
/// empty, or if some vertex is both source and sink.
pub fn min_vertex_cut(
    g: &Digraph,
    sources: &[usize],
    sinks: &[usize],
    cap: &[u32],
    limit: u32,
) -> VertexCut {
    assert_eq!(cap.len(), g.node_count(), "capacity table size mismatch");
    assert!(!sources.is_empty(), "no sources");
    assert!(!sinks.is_empty(), "no sinks");
    let n = g.node_count();
    let mut is_source = vec![false; n];
    for &s in sources {
        is_source[s] = true;
    }
    let mut is_sink = vec![false; n];
    for &t in sinks {
        assert!(!is_source[t], "vertex {t} is both source and sink");
        is_sink[t] = true;
    }

    // Layout: v_in = 2v, v_out = 2v+1, super-source = 2n, super-sink = 2n+1.
    let mut net = FlowNetwork::new(2 * n + 2);
    let (ss, tt) = (2 * n, 2 * n + 1);
    for v in 0..n {
        let c = if is_source[v] || is_sink[v] {
            INF
        } else {
            cap[v].min(INF)
        };
        net.add_arc(2 * v, 2 * v + 1, c);
    }
    for e in g.edges() {
        net.add_arc(2 * e.from + 1, 2 * e.to, INF);
    }
    for &s in sources {
        net.add_arc(ss, 2 * s, INF);
    }
    for &t in sinks {
        net.add_arc(2 * t + 1, tt, INF);
    }

    let flow = net.max_flow(ss, tt, limit);
    if flow > limit {
        return VertexCut::ExceedsLimit;
    }
    let side = net.min_cut_source_side(ss);
    let cut: Vec<usize> = (0..n)
        .filter(|&v| side[2 * v] && !side[2 * v + 1])
        .collect();
    debug_assert!(cut.iter().map(|&v| cap[v] as u64).sum::<u64>() == flow as u64);
    VertexCut::Cut(cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_max_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(0, 2, 2);
        net.add_arc(1, 3, 2);
        net.add_arc(2, 3, 3);
        net.add_arc(1, 2, 5);
        assert_eq!(net.max_flow(0, 3, 100), 5);
    }

    #[test]
    fn early_exit_over_limit() {
        let mut net = FlowNetwork::new(2);
        for _ in 0..10 {
            net.add_arc(0, 1, 1);
        }
        let f = net.max_flow(0, 1, 3);
        assert!(f > 3, "flow {f} should exceed the limit");
    }

    #[test]
    fn min_cut_side_is_consistent() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 3, 5);
        net.add_arc(2, 3, 5);
        assert_eq!(net.max_flow(0, 3, 10), 2);
        let side = net.min_cut_source_side(0);
        assert!(side[0]);
        assert!(!side[3]);
    }

    #[test]
    fn vertex_cut_diamond() {
        // s -> a -> t and s -> b -> t: min vertex cut is {a, b} (cost 2).
        let mut g = Digraph::new(4);
        g.add_edge(0, 1, 0);
        g.add_edge(0, 2, 0);
        g.add_edge(1, 3, 0);
        g.add_edge(2, 3, 0);
        match min_vertex_cut(&g, &[0], &[3], &[1; 4], 5) {
            VertexCut::Cut(mut cut) => {
                cut.sort_unstable();
                assert_eq!(cut, vec![1, 2]);
            }
            VertexCut::ExceedsLimit => panic!("cut expected"),
        }
    }

    #[test]
    fn vertex_cut_bottleneck() {
        // s -> a -> b -> t with parallel wide paths s -> a and b -> t:
        // the single vertex between them is the cut.
        let mut g = Digraph::new(5);
        g.add_edge(0, 1, 0);
        g.add_edge(0, 2, 0);
        g.add_edge(1, 3, 0);
        g.add_edge(2, 3, 0);
        g.add_edge(3, 4, 0);
        match min_vertex_cut(&g, &[0], &[4], &[1; 5], 5) {
            VertexCut::Cut(cut) => assert_eq!(cut, vec![3]),
            VertexCut::ExceedsLimit => panic!("cut expected"),
        }
    }

    #[test]
    fn vertex_cut_respects_limit() {
        // K+1 disjoint paths => every cut has size K+1 > K.
        let k = 3;
        let mut g = Digraph::new(2 + (k + 1));
        for i in 0..=k {
            let mid = 2 + i;
            g.add_edge(0, mid, 0);
            g.add_edge(mid, 1, 0);
        }
        assert_eq!(
            min_vertex_cut(&g, &[0], &[1], &vec![1; 2 + (k + 1)], k as u32),
            VertexCut::ExceedsLimit
        );
    }

    #[test]
    fn uncuttable_vertices_are_respected() {
        // Two paths; one middle vertex is uncuttable, so the cut must take
        // the other one plus go around — forcing cost from the cuttable side.
        let mut g = Digraph::new(4);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 3, 0);
        g.add_edge(0, 2, 0);
        g.add_edge(2, 3, 0);
        let caps = [1, u32::MAX, 1, 1];
        // Vertex 1 cannot be cut; there is no finite cut of the 0->1->3 path
        // except... vertex 1 is the only interior on that path, so no cut
        // within any limit exists.
        assert_eq!(
            min_vertex_cut(&g, &[0], &[3], &caps, 100),
            VertexCut::ExceedsLimit
        );
    }

    #[test]
    fn multi_source_multi_sink() {
        // Sources {0,1} funnel through vertex 2 to sinks {3,4}.
        let mut g = Digraph::new(5);
        g.add_edge(0, 2, 0);
        g.add_edge(1, 2, 0);
        g.add_edge(2, 3, 0);
        g.add_edge(2, 4, 0);
        match min_vertex_cut(&g, &[0, 1], &[3, 4], &[1; 5], 5) {
            VertexCut::Cut(cut) => assert_eq!(cut, vec![2]),
            VertexCut::ExceedsLimit => panic!("cut expected"),
        }
    }

    #[test]
    fn deep_chain_recursion_is_bounded() {
        // A 10k-node chain; Dinic's DFS recursion depth equals path length,
        // so this guards against stack overflow regressions.
        let n = 10_000;
        let mut net = FlowNetwork::new(n);
        for v in 0..n - 1 {
            net.add_arc(v, v + 1, 1);
        }
        assert_eq!(net.max_flow(0, n - 1, 5), 1);
    }
}
