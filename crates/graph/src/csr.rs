//! Compressed-sparse-row representation of an undirected simple graph.

use crate::{Edge, EdgeId, EdgeTable, GraphError, GraphView, VertexId};

/// An immutable undirected simple graph in compressed-sparse-row form.
///
/// Every undirected edge is stored once in a canonical edge table (indexed by
/// [`EdgeId`]) and twice in the adjacency array (once per direction), with
/// both directions carrying the same `EdgeId`. This makes `EdgeId`-indexed
/// partition assignments and residual-edge bookkeeping cheap.
///
/// Construct via [`crate::GraphBuilder`], [`crate::io`], or a generator in
/// [`crate::generators`].
///
/// # Example
///
/// ```
/// use tlp_graph::GraphBuilder;
///
/// let g = GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).build();
/// let mut neighbors: Vec<_> = g.neighbors(0).to_vec();
/// neighbors.sort_unstable();
/// assert_eq!(neighbors, vec![1, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` is the adjacency range of vertex `v`.
    ///
    /// Stored as `u64` so [`CsrGraph::view`] can lend this array directly as
    /// a [`GraphView`] offsets section, byte-compatible with the `.tlpg` v2
    /// on-disk layout.
    offsets: Vec<u64>,
    /// Neighbor endpoint for each directed arc.
    adj_vertex: Vec<VertexId>,
    /// Undirected edge id for each directed arc (parallel to `adj_vertex`).
    adj_edge: Vec<EdgeId>,
    /// Canonical edge table indexed by `EdgeId`.
    edges: Vec<Edge>,
}

impl CsrGraph {
    /// Builds a CSR graph from a deduplicated, loop-free canonical edge list.
    ///
    /// This is the low-level constructor used by [`crate::GraphBuilder`];
    /// `edges` must already be simple (no duplicates, no self-loops), and
    /// every endpoint must be `< num_vertices`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or a self-loop is present.
    /// Duplicate detection is the builder's job and is only debug-asserted
    /// here.
    pub(crate) fn from_canonical_edges(num_vertices: usize, edges: Vec<Edge>) -> Self {
        // One per-vertex array: first each vertex's degree, then the arc
        // position its next neighbour goes to.
        let mut cursor = vec![0usize; num_vertices];
        for e in &edges {
            assert!(
                (e.target() as usize) < num_vertices,
                "edge {e:?} endpoint out of range (num_vertices = {num_vertices})"
            );
            assert!(!e.is_self_loop(), "self-loop {e:?} passed to CsrGraph");
            cursor[e.source() as usize] += 1;
            cursor[e.target() as usize] += 1;
        }

        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0u64);
        let mut acc = 0usize;
        for c in &mut cursor {
            let degree = *c;
            *c = acc;
            acc += degree;
            offsets.push(acc as u64);
        }

        let mut adj_vertex = vec![0 as VertexId; acc];
        let mut adj_edge = vec![0 as EdgeId; acc];
        for (id, e) in edges.iter().enumerate() {
            let id = id as EdgeId;
            let (u, v) = e.endpoints();
            let cu = &mut cursor[u as usize];
            adj_vertex[*cu] = v;
            adj_edge[*cu] = id;
            *cu += 1;
            let cv = &mut cursor[v as usize];
            adj_vertex[*cv] = u;
            adj_edge[*cv] = id;
            *cv += 1;
        }

        CsrGraph {
            offsets,
            adj_vertex,
            adj_edge,
            edges,
        }
    }

    /// Builds a CSR graph from an edge list that is already in canonical
    /// form: sorted ascending, deduplicated, loop-free, endpoints `< n`.
    ///
    /// This is the zero-copy ingestion path for trusted on-disk formats
    /// (`tlp-store` binary blocks): unlike [`crate::GraphBuilder`] it never
    /// re-sorts, so reconstruction from a canonical dump is `O(n + m)` and
    /// bit-identical to the graph the dump was written from.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invalid`] if the list is out of order, contains
    /// a duplicate or self-loop, or mentions an endpoint `>= num_vertices`.
    pub fn from_sorted_canonical_edges(
        num_vertices: usize,
        edges: Vec<Edge>,
    ) -> Result<Self, GraphError> {
        check_sorted_canonical(num_vertices, &edges)?;
        Ok(CsrGraph::from_canonical_edges(num_vertices, edges))
    }

    /// Assembles a CSR graph from its four arrays as [`CsrGraph::view`]
    /// lends them (the `.tlpg` v2 sections), checking them in one
    /// sequential pass instead of rebuilding the adjacency.
    ///
    /// `edges` must pass [`from_sorted_canonical_edges`]'s checks; then each
    /// vertex's neighbours must be strictly ascending, each arc `(x, w, e)`
    /// must satisfy `edges[e] == Edge::new(x, w)`, and there must be `2m`
    /// arcs. Each edge can then appear at most once in each endpoint's list,
    /// so `2m` arcs mean exactly once in both, and ascending order makes the
    /// arrays equal, bit for bit, to those the builder would produce.
    ///
    /// [`from_sorted_canonical_edges`]: Self::from_sorted_canonical_edges
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invalid`] naming the first violated condition.
    pub fn from_csr_arrays(
        offsets: Vec<u64>,
        adj_vertex: Vec<VertexId>,
        adj_edge: Vec<EdgeId>,
        edges: Vec<Edge>,
    ) -> Result<Self, GraphError> {
        // Shape: offsets start at 0, never decrease and end at 2m arcs.
        GraphView::from_sections(&offsets, &adj_vertex, &adj_edge, EdgeTable::Structs(&edges))?;
        let num_vertices = offsets.len() - 1;
        if VertexId::try_from(num_vertices).is_err() {
            return Err(GraphError::Invalid(format!(
                "{num_vertices} vertices exceed the vertex id range"
            )));
        }
        check_sorted_canonical(num_vertices, &edges)?;
        for (x, range) in offsets.windows(2).enumerate() {
            let x = x as VertexId;
            let range = range[0] as usize..range[1] as usize;
            let mut prev = None;
            for (&w, &e) in adj_vertex[range.clone()].iter().zip(&adj_edge[range]) {
                if prev.is_some_and(|p| p >= w) {
                    return Err(GraphError::Invalid(format!(
                        "neighbours of vertex {x} not strictly ascending at {w}"
                    )));
                }
                if edges.get(e as usize) != Some(&Edge::new(x, w)) {
                    return Err(GraphError::Invalid(format!(
                        "arc ({x}, {w}) names edge {e}, which does not join them"
                    )));
                }
                prev = Some(w);
            }
        }
        Ok(CsrGraph {
            offsets,
            adj_vertex,
            adj_edge,
            edges,
        })
    }

    /// Number of vertices `n = |V|`, including isolated ones.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The neighbors of `v` as a slice (one entry per incident edge).
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adj_vertex[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates over `(neighbor, edge_id)` pairs incident to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let v = v as usize;
        let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
        self.adj_vertex[range.clone()]
            .iter()
            .copied()
            .zip(self.adj_edge[range].iter().copied())
    }

    /// The canonical [`Edge`] for an [`EdgeId`].
    ///
    /// # Panics
    ///
    /// Panics if `e >= num_edges`.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    /// All canonical edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Average degree `2m / n`, or `0.0` for a vertex-free graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Whether vertices `a` and `b` are adjacent.
    ///
    /// Neighbor slices are sorted ascending by construction, so this
    /// binary-searches the lower-degree endpoint's slice:
    /// `O(log min_degree)` instead of the former linear scan.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.view().has_edge(a, b)
    }

    /// Looks up the [`EdgeId`] connecting `a` and `b`, if any, in
    /// `O(log min_degree)` via binary search of the sorted neighbor slice.
    pub fn edge_id(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        self.view().edge_id(a, b)
    }

    /// A borrowed [`GraphView`] over this graph's CSR arrays.
    ///
    /// Construction is O(1) — the view borrows the existing sections.
    #[inline]
    pub fn view(&self) -> GraphView<'_> {
        GraphView::from_sections_trusted(
            &self.offsets,
            &self.adj_vertex,
            &self.adj_edge,
            EdgeTable::Structs(&self.edges),
        )
    }
}

/// Checks that `edges` is strictly ascending, loop-free and has every
/// endpoint `< num_vertices`.
fn check_sorted_canonical(num_vertices: usize, edges: &[Edge]) -> Result<(), GraphError> {
    for (i, e) in edges.iter().enumerate() {
        if e.is_self_loop() {
            return Err(GraphError::Invalid(format!("self-loop {e:?} at index {i}")));
        }
        if e.target() as usize >= num_vertices {
            return Err(GraphError::Invalid(format!(
                "edge {e:?} endpoint out of range (num_vertices = {num_vertices})"
            )));
        }
        if i > 0 && edges[i - 1] >= *e {
            return Err(GraphError::Invalid(format!(
                "edge list not strictly sorted at index {i}: {:?} then {e:?}",
                edges[i - 1]
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> crate::CsrGraph {
        // 0-1, 1-2, 2-0, 2-3
        GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .add_edge(2, 3)
            .build()
    }

    #[test]
    fn counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_empty());
    }

    #[test]
    fn degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle_plus_tail();
        for v in g.vertices() {
            for &w in g.neighbors(v) {
                assert!(g.neighbors(w).contains(&v), "{w} missing backlink to {v}");
            }
        }
    }

    #[test]
    fn incident_edge_ids_match_edge_table() {
        let g = triangle_plus_tail();
        for v in g.vertices() {
            for (w, id) in g.incident(v) {
                let e = g.edge(id);
                assert!(e.contains(v) && e.contains(w));
                assert_eq!(e.other(v), w);
            }
        }
    }

    #[test]
    fn each_edge_id_appears_twice_in_adjacency() {
        let g = triangle_plus_tail();
        let mut count = vec![0usize; g.num_edges()];
        for v in g.vertices() {
            for (_, id) in g.incident(v) {
                count[id as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 2));
    }

    #[test]
    fn has_edge_and_edge_id() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        let id = g.edge_id(2, 3).expect("edge 2-3 exists");
        assert_eq!(g.edge(id).endpoints(), (2, 3));
        assert_eq!(g.edge_id(0, 3), None);
    }

    #[test]
    fn average_degree() {
        let g = triangle_plus_tail();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn from_sorted_canonical_edges_round_trips_builder_output() {
        let g = triangle_plus_tail();
        let rebuilt =
            crate::CsrGraph::from_sorted_canonical_edges(g.num_vertices(), g.edges().to_vec())
                .unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn from_sorted_canonical_edges_rejects_bad_input() {
        use crate::Edge;
        let sorted_dup = vec![Edge::new(0, 1), Edge::new(0, 1)];
        assert!(crate::CsrGraph::from_sorted_canonical_edges(2, sorted_dup).is_err());
        let unsorted = vec![Edge::new(1, 2), Edge::new(0, 1)];
        assert!(crate::CsrGraph::from_sorted_canonical_edges(3, unsorted).is_err());
        let loop_edge = vec![Edge::new(1, 1)];
        assert!(crate::CsrGraph::from_sorted_canonical_edges(2, loop_edge).is_err());
        let out_of_range = vec![Edge::new(0, 9)];
        assert!(crate::CsrGraph::from_sorted_canonical_edges(2, out_of_range).is_err());
    }

    #[test]
    fn from_csr_arrays_round_trips_builder_output() {
        let g = triangle_plus_tail();
        let rebuilt = crate::CsrGraph::from_csr_arrays(
            g.offsets.clone(),
            g.adj_vertex.clone(),
            g.adj_edge.clone(),
            g.edges.clone(),
        )
        .unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn from_csr_arrays_rejects_inconsistent_adjacency() {
        let g = triangle_plus_tail();
        let check = |edit: &dyn Fn(&mut crate::CsrGraph)| {
            let mut bad = g.clone();
            edit(&mut bad);
            crate::CsrGraph::from_csr_arrays(bad.offsets, bad.adj_vertex, bad.adj_edge, bad.edges)
        };
        // Vertex 2's neighbours [0, 1, 3] out of order, ids kept in step.
        assert!(check(&|b| {
            b.adj_vertex.swap(4, 5);
            b.adj_edge.swap(4, 5);
        })
        .is_err());
        // An arc naming the wrong edge.
        assert!(check(&|b| b.adj_edge.swap(0, 1)).is_err());
        // An arc naming an edge id past the table.
        assert!(check(&|b| b.adj_edge[0] = 99).is_err());
        // One edge listed twice at vertex 0, missing its other endpoint.
        assert!(check(&|b| {
            b.adj_vertex[1] = b.adj_vertex[0];
            b.adj_edge[1] = b.adj_edge[0];
        })
        .is_err());
        // Offsets that do not cover 2m arcs.
        assert!(check(&|b| *b.offsets.last_mut().unwrap() -= 1).is_err());
        // An unsorted edge table, adjacency left alone.
        assert!(check(&|b| b.edges.swap(0, 1)).is_err());
    }

    #[test]
    fn isolated_vertices_are_retained() {
        let g = GraphBuilder::new()
            .reserve_vertices(10)
            .add_edge(0, 1)
            .build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
        assert!(g.neighbors(9).is_empty());
    }
}
