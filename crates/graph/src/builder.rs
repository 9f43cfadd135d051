//! Incremental construction of [`CsrGraph`]s from raw edge lists.

use crate::{CsrGraph, Edge, VertexId};

/// A deduplicating builder for [`CsrGraph`].
///
/// The builder accepts edges in any order and endpoint orientation, drops
/// self-loops and duplicate edges, and tracks the highest vertex id seen so
/// the resulting graph has a dense vertex space `0..n`.
///
/// # Example
///
/// ```
/// use tlp_graph::GraphBuilder;
///
/// let g = GraphBuilder::new()
///     .add_edge(1, 0)
///     .add_edge(0, 1) // duplicate, dropped
///     .add_edge(2, 2) // self-loop, dropped
///     .build();
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.num_vertices(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    min_vertices: usize,
    dropped_self_loops: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-declares that the graph has at least `n` vertices, so isolated
    /// trailing vertices survive even if no edge mentions them.
    pub fn reserve_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds one undirected edge; self-loops are counted and dropped.
    #[must_use]
    pub fn add_edge(mut self, a: VertexId, b: VertexId) -> Self {
        self.push_edge(a, b);
        self
    }

    /// Adds one undirected edge through a mutable reference (loop-friendly).
    pub fn push_edge(&mut self, a: VertexId, b: VertexId) {
        if a == b {
            self.dropped_self_loops += 1;
            // The vertex still exists even though its loop is dropped.
            self.min_vertices = self.min_vertices.max(a as usize + 1);
            return;
        }
        self.edges.push(Edge::new(a, b));
    }

    /// Adds every edge from an iterator of endpoint pairs.
    #[must_use]
    pub fn add_edges<I>(mut self, iter: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (a, b) in iter {
            self.push_edge(a, b);
        }
        self
    }

    /// Number of self-loops dropped so far.
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Number of (not yet deduplicated) edges currently buffered.
    pub fn buffered_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph: deduplicates edges and builds the CSR arrays.
    ///
    /// The edges are put in canonical order by a counting sort on their
    /// source, then a sort and dedup of each source's targets, which is
    /// linear in the edges but for each bucket's own sort.
    pub fn build(self) -> CsrGraph {
        let mut edges = self.edges;
        let num_vertices = edges
            .iter()
            .map(|e| e.target() as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);
        sort_by_source(&mut edges, num_vertices);
        CsrGraph::from_canonical_edges(num_vertices, edges)
    }

    /// The global-sort build that [`build`](Self::build) replaced, kept as
    /// its oracle.
    #[cfg(test)]
    fn build_by_sort(self) -> CsrGraph {
        let mut edges = self.edges;
        // Same order as `Edge`'s derived `Ord`, compared as one word.
        edges.sort_unstable_by_key(|e| u64::from(e.source()) << 32 | u64::from(e.target()));
        edges.dedup();
        let num_vertices = edges
            .iter()
            .map(|e| e.target() as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);
        CsrGraph::from_canonical_edges(num_vertices, edges)
    }
}

/// Rewrites `edges` (every endpoint `< num_vertices`) in ascending order
/// without duplicates.
fn sort_by_source(edges: &mut Vec<Edge>, num_vertices: usize) {
    // `end[u]` counts the edges of sources `< u`, the start of `u`'s
    // bucket; the scatter then leaves it at the bucket's end.
    let mut end = vec![0usize; num_vertices + 1];
    for e in edges.iter() {
        end[e.source() as usize + 1] += 1;
    }
    for u in 1..end.len() {
        end[u] += end[u - 1];
    }
    let mut targets = vec![0 as VertexId; edges.len()];
    for e in edges.iter() {
        let at = &mut end[e.source() as usize];
        targets[*at] = e.target();
        *at += 1;
    }
    edges.clear();
    let mut start = 0;
    for (u, &end) in end[..num_vertices].iter().enumerate() {
        let bucket = &mut targets[start..end];
        bucket.sort_unstable();
        let mut last = None;
        for &v in bucket.iter() {
            if last != Some(v) {
                edges.push(Edge::new(u as VertexId, v));
                last = Some(v);
            }
        }
        start = end;
    }
}

impl FromIterator<(VertexId, VertexId)> for GraphBuilder {
    fn from_iter<T: IntoIterator<Item = (VertexId, VertexId)>>(iter: T) -> Self {
        GraphBuilder::new().add_edges(iter)
    }
}

impl Extend<(VertexId, VertexId)> for GraphBuilder {
    fn extend<T: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: T) {
        for (a, b) in iter {
            self.push_edge(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_in_both_orientations_collapse() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 0), (0, 1), (2, 1)])
            .build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loops_are_dropped_and_counted() {
        let mut b = GraphBuilder::new();
        b.push_edge(0, 0);
        b.push_edge(0, 1);
        b.push_edge(1, 1);
        assert_eq!(b.dropped_self_loops(), 2);
        assert_eq!(b.buffered_edges(), 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut b: GraphBuilder = [(0, 1), (1, 2)].into_iter().collect();
        b.extend([(2, 3)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn reserve_vertices_keeps_isolated_tail() {
        let g = GraphBuilder::new().reserve_vertices(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    /// Pushes the same edges into two builders and checks that the
    /// bucketed build equals the sort-based oracle.
    fn assert_matches_oracle(pairs: &[(VertexId, VertexId)], reserve: usize) {
        let builder = GraphBuilder::new()
            .reserve_vertices(reserve)
            .add_edges(pairs.iter().copied());
        assert_eq!(builder.clone().build(), builder.build_by_sort());
    }

    #[test]
    fn bucketed_build_matches_the_sort_oracle() {
        use crate::generators::{
            barabasi_albert, chung_lu, erdos_renyi, genealogy, power_law_community, rmat,
            RmatProbabilities,
        };
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let families = [
            barabasi_albert(500, 4, 1),
            chung_lu(600, 3_000, 2.1, 2),
            power_law_community(500, 2_500, 2.1, 10, 0.2, 3),
            erdos_renyi(400, 1_600, 4),
            genealogy(500, 1_500, 5),
            rmat(9, 2_000, RmatProbabilities::default(), 6),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        for g in &families {
            // Every edge in a random orientation, some twice, shuffled.
            let mut pairs: Vec<_> = g
                .edges()
                .iter()
                .flat_map(|e| {
                    let (u, v) = e.endpoints();
                    let twice = rng.gen_bool(0.3);
                    [(u, v), (v, u)].into_iter().take(1 + usize::from(twice))
                })
                .collect();
            pairs.shuffle(&mut rng);
            assert_matches_oracle(&pairs, 0);
            let rebuilt = GraphBuilder::new()
                .reserve_vertices(g.num_vertices())
                .add_edges(pairs)
                .build();
            assert_eq!(&rebuilt, g);
        }
        // Random multigraphs: duplicates, both orientations, self-loops,
        // and reserved vertices past the last endpoint.
        for trial in 0..40usize {
            let n = rng.gen_range(1..60u32);
            let pairs: Vec<_> = (0..rng.gen_range(0..300))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            assert_matches_oracle(&pairs, trial % 3 * 40);
        }
    }

    #[test]
    fn edge_ids_are_dense_and_sorted_canonical() {
        let g = GraphBuilder::new()
            .add_edges([(3, 2), (0, 1), (2, 0)])
            .build();
        // Edges are canonicalized and sorted, so EdgeIds follow (0,1),(0,2),(2,3).
        assert_eq!(g.edge(0).endpoints(), (0, 1));
        assert_eq!(g.edge(1).endpoints(), (0, 2));
        assert_eq!(g.edge(2).endpoints(), (2, 3));
    }
}
