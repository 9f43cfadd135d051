//! Source-agnostic edge access: the [`EdgeSource`] trait.
//!
//! Every partitioning algorithm in the workspace consumes one of two access
//! patterns:
//!
//! * **random access** — the whole graph materialized as a
//!   [`CsrGraph`](crate::CsrGraph)
//!   (TLP and the other expansion/multilevel algorithms), or
//! * **pass-oriented streaming** — one or more sequential sweeps over the
//!   edge sequence with a bounded buffer (the streaming baselines and the
//!   streamed metrics accumulator).
//!
//! `EdgeSource` is the common handle over both. [`CsrSource`] lends an
//! in-memory graph (random access is free, a streaming pass walks the
//! edge table in natural `EdgeId` order in budget-bounded chunks); the
//! on-disk sources in `tlp-store` read a `.tlpg` file or a text edge list
//! sequentially with a bounded buffer on every pass, reporting
//! [`supports_random_access`](EdgeSource::supports_random_access)
//! `false` when a strict memory budget forbids materialization. The
//! pipeline layer in `tlp-core` dispatches on that capability instead of
//! each binary hard-coding which algorithm can read which input.
//!
//! Passes are **replayable and deterministic**: every call to
//! [`stream_pass`](EdgeSource::stream_pass) delivers the same edges in the
//! same arrival order, which is what lets a two-pass metrics computation
//! pair its second sweep with the assignments recorded in the first.

use crate::view::EdgeTable;
use crate::{Edge, GraphError, GraphView};
use std::error::Error as StdError;
use std::fmt;

/// Error from an [`EdgeSource`] operation.
#[derive(Debug)]
pub enum SourceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The source's bytes or framing are invalid.
    Corrupt(String),
    /// Random access was requested from a source whose memory budget
    /// forbids materializing the graph.
    NeedsRandomAccess {
        /// Description of the refusing source (see [`EdgeSource::describe`]).
        source: String,
    },
    /// The source cannot provide a piece of metadata a consumer requires
    /// (e.g. final degrees for DBH from a one-pass text stream).
    MissingMeta {
        /// What was missing ("num_vertices", "degrees", ...).
        what: &'static str,
        /// Description of the source.
        source: String,
    },
    /// Any other error from a backing store, boxed to avoid a dependency
    /// cycle (`tlp-store` errors travel through this variant).
    Other(Box<dyn StdError + Send + Sync>),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Io(e) => write!(f, "i/o error: {e}"),
            SourceError::Corrupt(message) => write!(f, "corrupt edge source: {message}"),
            SourceError::NeedsRandomAccess { source } => {
                write!(f, "source {source} is streaming-only (no random access)")
            }
            SourceError::MissingMeta { what, source } => {
                write!(f, "source {source} cannot provide {what}")
            }
            SourceError::Other(e) => write!(f, "{e}"),
        }
    }
}

impl StdError for SourceError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SourceError::Io(e) => Some(e),
            SourceError::Other(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> Self {
        SourceError::Io(e)
    }
}

/// A failed edge-list parse: I/O failures stay [`SourceError::Io`], a
/// malformed line or an overflowing vertex count travels as the
/// [`GraphError`] itself through [`SourceError::Other`].
impl From<GraphError> for SourceError {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::Io(io) => SourceError::Io(io),
            other => SourceError::Other(Box::new(other)),
        }
    }
}

/// What one completed streaming pass observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// Number of edges delivered.
    pub edges: usize,
    /// Largest chunk handed to the sink — bounded by the source's budget.
    pub peak_buffer: usize,
}

/// A source of a graph's edges, consumable by random access or by
/// replayable sequential passes.
///
/// Implementations must make repeated [`stream_pass`](Self::stream_pass)
/// calls deliver the identical edge sequence (same edges, same arrival
/// order) — consumers rely on this to correlate per-edge state across
/// passes.
pub trait EdgeSource {
    /// Human-readable description of the source (for error messages).
    fn describe(&self) -> String;

    /// Number of vertices, when known before streaming.
    fn num_vertices_hint(&self) -> Option<usize>;

    /// Number of edges, when known before streaming.
    fn num_edges_hint(&self) -> Option<usize>;

    /// Exact final degrees, when the source has them up front (required by
    /// degree-based streaming consumers like DBH).
    fn degrees_hint(&self) -> Option<Vec<u32>>;

    /// Whether [`random_access`](Self::random_access) can succeed.
    fn supports_random_access(&self) -> bool;

    /// Materializes (or returns the already-materialized) graph as a
    /// borrowed [`GraphView`].
    ///
    /// The view borrows from the source, which keeps the backing memory
    /// alive until the next `&mut self` call; sources backed by a `.tlpg`
    /// v2 arena lend the arena directly with no CSR rebuild, while v1 and
    /// text sources decode once, cache an owned graph, and lend that.
    ///
    /// # Errors
    ///
    /// [`SourceError::NeedsRandomAccess`] when the source's memory budget
    /// forbids materialization; otherwise any error from reading the
    /// backing store.
    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError>;

    /// Runs one sequential pass, handing every edge chunk to `sink`.
    ///
    /// # Errors
    ///
    /// Any error from reading the backing store.
    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError>;
}

/// Chunk length [`CsrSource::new`] uses for streaming passes. Chunking an
/// in-memory slice costs nothing and keeps sink call patterns comparable
/// to the disk sources.
const CSR_PASS_CHUNK: usize = 1 << 16;

/// A shared borrow of any CSR-backed graph as an [`EdgeSource`]: random
/// access is free, streaming passes walk the edge table in natural
/// `EdgeId` order in chunks of at most the source's budget.
///
/// `EdgeSource` consumers take `&mut dyn EdgeSource`, but experiment grids
/// share one immutable graph across worker threads; this wrapper gives
/// each cell its own source handle over the shared graph — whether that
/// is an owned [`CsrGraph`](crate::CsrGraph) or a `.tlpg` v2 arena's
/// [`GraphView`]. [`with_budget`](Self::with_budget) bounds the chunks to
/// a `--stream-budget`, so a streaming algorithm's reported peak buffer
/// honors the same bound as on the disk sources.
#[derive(Debug)]
pub struct CsrSource<'a> {
    graph: GraphView<'a>,
    budget: usize,
}

impl<'a> CsrSource<'a> {
    /// Wraps a shared graph reference or view; passes deliver chunks of
    /// up to 65 536 edges.
    pub fn new(graph: impl Into<GraphView<'a>>) -> Self {
        Self::with_budget(graph, CSR_PASS_CHUNK)
    }

    /// Wraps a shared graph reference or view with a per-pass chunk budget
    /// in edges (clamped to at least 1).
    pub fn with_budget(graph: impl Into<GraphView<'a>>, budget: usize) -> Self {
        CsrSource {
            graph: graph.into(),
            budget: budget.max(1),
        }
    }
}

impl EdgeSource for CsrSource<'_> {
    fn describe(&self) -> String {
        format!(
            "csr({} vertices, {} edges)",
            self.graph.num_vertices(),
            self.graph.num_edges()
        )
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        Some(self.graph.num_vertices())
    }

    fn num_edges_hint(&self) -> Option<usize> {
        Some(self.graph.num_edges())
    }

    fn degrees_hint(&self) -> Option<Vec<u32>> {
        Some(
            self.graph
                .vertices()
                .map(|v| self.graph.degree(v) as u32)
                .collect(),
        )
    }

    fn supports_random_access(&self) -> bool {
        true
    }

    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
        Ok(self.graph)
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let graph = self.graph;
        let mut peak = 0usize;
        match graph.edge_table() {
            // The CSR backing already holds canonical edge structs: lend
            // slices of it directly, no copies.
            EdgeTable::Structs(edges) => {
                for chunk in edges.chunks(self.budget) {
                    peak = peak.max(chunk.len());
                    sink(chunk);
                }
            }
            // The arena backing stores raw endpoint words; assemble bounded
            // chunks of `Edge` structs so sinks see the same call pattern.
            EdgeTable::Pairs(_) => {
                let mut buffer = Vec::with_capacity(self.budget.min(graph.num_edges()));
                for edge in graph.edge_iter() {
                    buffer.push(edge);
                    if buffer.len() == self.budget {
                        peak = peak.max(buffer.len());
                        sink(&buffer);
                        buffer.clear();
                    }
                }
                if !buffer.is_empty() {
                    peak = peak.max(buffer.len());
                    sink(&buffer);
                }
            }
        }
        Ok(PassStats {
            edges: graph.num_edges(),
            peak_buffer: peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, GraphBuilder};

    fn graph() -> CsrGraph {
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
            .build()
    }

    #[test]
    fn csr_source_is_a_random_access_source() {
        let g = graph();
        let mut source = CsrSource::new(&g);
        assert!(source.supports_random_access());
        assert_eq!(source.num_vertices_hint(), Some(4));
        assert_eq!(source.num_edges_hint(), Some(5));
        let degrees = source.degrees_hint().unwrap();
        for v in g.vertices() {
            assert_eq!(degrees[v as usize] as usize, g.degree(v));
        }
        let view = source.random_access().unwrap();
        assert_eq!(view.edge_iter().collect::<Vec<_>>(), g.edges().to_vec());
    }

    #[test]
    fn csr_pass_replays_natural_order_within_budget() {
        let g = graph();
        let expected = g.edges().to_vec();
        for budget in [0usize, 1, 2, 3, usize::MAX] {
            let mut source = CsrSource::with_budget(&g, budget);
            for _ in 0..2 {
                let mut seen = Vec::new();
                let stats = source
                    .stream_pass(&mut |chunk| seen.extend_from_slice(chunk))
                    .unwrap();
                assert_eq!(seen, expected);
                assert_eq!(stats.edges, expected.len());
                assert!(stats.peak_buffer <= budget.clamp(1, expected.len()));
            }
        }
    }

    #[test]
    fn source_error_display_is_informative() {
        let e = SourceError::NeedsRandomAccess {
            source: "tlpg:x".into(),
        };
        assert!(e.to_string().contains("streaming-only"));
        let e = SourceError::MissingMeta {
            what: "degrees",
            source: "text:y".into(),
        };
        assert!(e.to_string().contains("degrees"));
    }
}
