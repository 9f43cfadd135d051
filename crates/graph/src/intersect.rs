//! Neighborhood intersections and the per-edge triangle-support index.
//!
//! Stage I of TLP scores a frontier candidate `u` against a member `w` by
//! `|N(u) ∩ N(w)| / |N(w)|` over the *input* graph. `u` and `w` are
//! adjacent, so the numerator is the number of triangles through the edge
//! `(u, w)` — its *support* — which never changes during a run.
//! [`edge_support`] computes every edge's support in one pass, after which
//! each closeness term is an O(1) lookup.
//!
//! [`sorted_intersection_size`] is the direct definition over sorted CSR
//! adjacency slices: the reference the support index is tested against and
//! the primitive behind one-off closeness evaluations.

use crate::{EdgeId, GraphView, VertexId};

/// Size of the intersection of two sorted, duplicate-free slices, by
/// linear two-pointer merge (`O(|a| + |b|)`).
///
/// # Example
///
/// ```
/// use tlp_graph::intersect::sorted_intersection_size;
///
/// assert_eq!(sorted_intersection_size(&[1, 3, 5, 9], &[2, 3, 4, 5]), 2);
/// assert_eq!(sorted_intersection_size(&[], &[1]), 0);
/// ```
pub fn sorted_intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// The triangle support of every edge: `support[e]` is the number of
/// triangles containing edge `e = (u, w)`, i.e. `|N(u) ∩ N(w)|`.
///
/// Uses the degree-ordered forward algorithm. Vertices are ranked by
/// `(degree, id)` and every edge is kept once, as a forward arc from its
/// lower-ranked endpoint. A triangle's lowest-ranked vertex `u` reaches
/// both other corners `v` and `w` by forward arcs, and `v -> w` is a
/// forward arc too, so each triangle is found exactly once: mark `u`'s
/// forward arcs by their edge ids, then probe every forward arc of each
/// forward neighbor `v`. Each hit adds 1 to all three edges. The cost is
/// `O(m^1.5)` in the worst case and far less on power-law graphs, where
/// hubs keep only their few arcs to even higher-ranked vertices.
///
/// # Example
///
/// ```
/// use tlp_graph::intersect::{edge_support, sorted_intersection_size};
/// use tlp_graph::GraphBuilder;
///
/// // Triangle 0-1-2 plus the pendant edge 2-3.
/// let g = GraphBuilder::new()
///     .add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
///     .build();
/// let support = edge_support(&g);
/// for u in g.vertices() {
///     for (w, e) in g.incident(u) {
///         let common = sorted_intersection_size(g.neighbors(u), g.neighbors(w));
///         assert_eq!(support[e as usize] as usize, common);
///     }
/// }
/// ```
pub fn edge_support<'a>(graph: impl Into<GraphView<'a>>) -> Vec<u32> {
    let graph = graph.into();
    let n = graph.num_vertices();
    let precedes = |a: VertexId, b: VertexId| (graph.degree(a), a) < (graph.degree(b), b);

    // Forward arcs `(neighbor, edge id)` of vertex `u` live at
    // `arcs[offsets[u]..offsets[u + 1]]`.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut arcs: Vec<(VertexId, EdgeId)> = Vec::with_capacity(graph.num_edges());
    offsets.push(0);
    for u in graph.vertices() {
        arcs.extend(graph.incident(u).filter(|&(w, _)| precedes(u, w)));
        offsets.push(arcs.len());
    }
    let forward = |u: VertexId| &arcs[offsets[u as usize]..offsets[u as usize + 1]];

    let mut support = vec![0u32; graph.num_edges()];
    // `mark[w]` holds the id of edge `(u, w)` while `u`'s arcs are marked.
    let mut mark = vec![EdgeId::MAX; n];
    for u in graph.vertices() {
        let out = forward(u);
        for &(w, e) in out {
            mark[w as usize] = e;
        }
        for &(v, e_uv) in out {
            for &(w, e_vw) in forward(v) {
                let e_uw = mark[w as usize];
                if e_uw != EdgeId::MAX {
                    support[e_uv as usize] += 1;
                    support[e_vw as usize] += 1;
                    support[e_uw as usize] += 1;
                }
            }
        }
        for &(w, _) in out {
            mark[w as usize] = EdgeId::MAX;
        }
    }
    support
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn naive(a: &[VertexId], b: &[VertexId]) -> usize {
        a.iter().filter(|x| b.contains(x)).count()
    }

    #[test]
    fn intersection_matches_naive_on_basic_cases() {
        let cases: &[(&[VertexId], &[VertexId])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 2, 3], &[4, 5, 6]),
            (&[1, 5, 7], &[5]),
            (&[0, 2, 4, 6, 8], &[1, 2, 3, 4, 5]),
        ];
        for &(a, b) in cases {
            assert_eq!(sorted_intersection_size(a, b), naive(a, b));
            assert_eq!(sorted_intersection_size(b, a), naive(a, b));
        }
    }

    #[test]
    fn complete_graph_k4_supports_two_everywhere() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .build();
        assert_eq!(edge_support(&g), vec![2; 6]);
    }

    #[test]
    fn star_has_no_support() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
            .build();
        assert_eq!(edge_support(&g), vec![0; 4]);
    }

    #[test]
    fn triangle_with_pendant_edge() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        let support = edge_support(&g);
        let of = |a, b| support[g.edge_id(a, b).expect("edge exists") as usize];
        assert_eq!([of(0, 1), of(1, 2), of(0, 2), of(2, 3)], [1, 1, 1, 0]);
    }

    #[test]
    fn empty_graph_has_empty_support() {
        let g = GraphBuilder::new().build();
        assert!(edge_support(&g).is_empty());
    }
}
