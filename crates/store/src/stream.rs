//! Out-of-core edge streaming: the [`EdgeStream`] trait and its sources.
//!
//! A stream delivers a graph's edges in bounded-size chunks: consumers see
//! at most `budget` edges in memory at a time, which is what lets the
//! streaming partitioners run over graphs larger than RAM. Three sources
//! cover the repo's ingestion paths:
//!
//! * [`CsrEdgeStream`] — an in-memory [`CsrGraph`](tlp_graph::CsrGraph)
//!   (or any [`GraphView`]), optionally in a custom
//!   arrival order (how the materialized partitioners are now plumbed);
//! * [`BinaryEdgeStream`] — the `.tlpg` edge section, read chunk by chunk
//!   straight off disk with checksum verification at the end;
//! * [`TextEdgeStream`] — a SNAP-style text edge list, parsed and interned
//!   on the fly (vertex state is O(n); edge state is O(budget)).

use crate::faults::FaultFile;
use crate::format::{SectionHasher, CHUNK_EDGES};
use crate::reader::{decode_edge, StoreReader};
use crate::StoreError;
use std::io::BufReader;
use std::path::Path;
use tlp_graph::io::EdgeListReader;
use tlp_graph::{Edge, EdgeId, GraphError, GraphView};

/// What a stream source knows about the graph before the edges arrive.
#[derive(Clone, Debug, Default)]
pub struct StreamMeta {
    /// Number of vertices, when known up front (CSR and binary sources).
    pub num_vertices: Option<usize>,
    /// Number of edges, when known up front.
    pub num_edges: Option<usize>,
    /// Exact final degrees, when the source has them (CSR and binary
    /// sources; degree-based consumers like DBH require these).
    pub degrees: Option<Vec<u32>>,
}

/// Chunked, budget-bounded edge iteration.
///
/// `next_chunk` clears `buf` and fills it with up to [`EdgeStream::budget`]
/// edges; returning `Ok(0)` signals exhaustion. A budget of `usize::MAX`
/// degenerates to the materialized path (one chunk holding every edge).
pub trait EdgeStream {
    /// Metadata the source knows before streaming.
    fn meta(&self) -> &StreamMeta;

    /// The buffer budget in edges (maximum chunk length).
    fn budget(&self) -> usize;

    /// Fills `buf` with the next chunk. `Ok(0)` = end of stream.
    ///
    /// # Errors
    ///
    /// Source-specific [`StoreError`]s (I/O, checksum, parse).
    fn next_chunk(&mut self, buf: &mut Vec<Edge>) -> Result<usize, StoreError>;
}

/// Drives a stream to completion, invoking `consume` per chunk. Returns
/// `(edges_seen, peak_buffer)` — the peak is what the `--stream-budget`
/// bound promises to cap.
///
/// # Errors
///
/// Propagates the first error from the stream or the consumer.
pub fn for_each_chunk<S, F>(stream: &mut S, mut consume: F) -> Result<(usize, usize), StoreError>
where
    S: EdgeStream + ?Sized,
    F: FnMut(&[Edge]) -> Result<(), StoreError>,
{
    let mut buf = Vec::new();
    let mut seen = 0usize;
    let mut peak = 0usize;
    loop {
        let got = stream.next_chunk(&mut buf)?;
        if got == 0 {
            return Ok((seen, peak));
        }
        peak = peak.max(buf.len());
        seen += got;
        tlp_obs::counter("store.chunk", 1);
        tlp_obs::counter("store.chunk_edges", got as u64);
        consume(&buf)?;
    }
}

/// Streams an in-memory graph's edges, optionally in a custom order.
#[derive(Debug)]
pub struct CsrEdgeStream<'a> {
    graph: GraphView<'a>,
    /// Arrival order as edge ids; `None` = natural (`EdgeId`) order.
    order: Option<Vec<EdgeId>>,
    pos: usize,
    budget: usize,
    meta: StreamMeta,
}

impl<'a> CsrEdgeStream<'a> {
    /// Natural (`EdgeId`) order.
    pub fn new(graph: impl Into<GraphView<'a>>, budget: usize) -> Self {
        Self::build(graph.into(), None, budget)
    }

    /// Custom arrival order (each id must be `< num_edges`; ids may repeat
    /// or be omitted — the stream replays exactly what it is given).
    pub fn with_order(graph: impl Into<GraphView<'a>>, order: Vec<EdgeId>, budget: usize) -> Self {
        Self::build(graph.into(), Some(order), budget)
    }

    fn build(graph: GraphView<'a>, order: Option<Vec<EdgeId>>, budget: usize) -> Self {
        let degrees = graph
            .vertices()
            .map(|v| graph.degree(v) as u32)
            .collect::<Vec<_>>();
        let num_edges = order.as_ref().map_or(graph.num_edges(), Vec::len);
        CsrEdgeStream {
            graph,
            order,
            pos: 0,
            budget: budget.max(1),
            meta: StreamMeta {
                num_vertices: Some(graph.num_vertices()),
                num_edges: Some(num_edges),
                degrees: Some(degrees),
            },
        }
    }
}

impl EdgeStream for CsrEdgeStream<'_> {
    fn meta(&self) -> &StreamMeta {
        &self.meta
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn next_chunk(&mut self, buf: &mut Vec<Edge>) -> Result<usize, StoreError> {
        buf.clear();
        let total = self.meta.num_edges.expect("csr stream knows its length");
        let take = self.budget.min(total - self.pos);
        match &self.order {
            None => {
                for id in self.pos..self.pos + take {
                    buf.push(self.graph.edge(id as EdgeId));
                }
            }
            Some(order) => {
                for &id in &order[self.pos..self.pos + take] {
                    buf.push(self.graph.edge(id));
                }
            }
        }
        self.pos += take;
        Ok(take)
    }
}

/// Streams the edge section of a `.tlpg` file straight off disk.
///
/// Edges are validated (canonical form, endpoint bounds, global order) as
/// they are decoded; the section checksum is verified once the last chunk
/// has been read, so a flipped byte surfaces as a typed error before the
/// stream reports completion.
#[derive(Debug)]
pub struct BinaryEdgeStream {
    reader: BufReader<FaultFile>,
    remaining: usize,
    num_vertices: usize,
    prev: Option<Edge>,
    checksum: SectionHasher,
    declared_checksum: u64,
    checksum_verified: bool,
    budget: usize,
    meta: StreamMeta,
    io_buf: Vec<u8>,
}

impl BinaryEdgeStream {
    /// Opens `path` and positions the stream at its edge section.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from validating the header/framing.
    pub fn open(path: &Path, budget: usize) -> Result<Self, StoreError> {
        let store = StoreReader::open(path)?;
        Self::from_reader(&store, budget)
    }

    /// Builds a stream from an already opened [`StoreReader`].
    ///
    /// # Errors
    ///
    /// [`StoreError`] from reading the degree section or reopening the file.
    pub fn from_reader(store: &StoreReader, budget: usize) -> Result<Self, StoreError> {
        let degrees = store.read_degrees()?;
        let header = store.header();
        let reader = store.reader_at(store.edges_payload_pos())?;
        let budget = budget.max(1);
        Ok(BinaryEdgeStream {
            reader,
            remaining: header.num_edges as usize,
            num_vertices: header.num_vertices as usize,
            prev: None,
            checksum: store.section_hasher(),
            declared_checksum: store.edges_checksum(),
            checksum_verified: false,
            budget,
            meta: StreamMeta {
                num_vertices: Some(header.num_vertices as usize),
                num_edges: Some(header.num_edges as usize),
                degrees: Some(degrees),
            },
            io_buf: vec![0u8; 8 * budget.min(CHUNK_EDGES)],
        })
    }
}

impl EdgeStream for BinaryEdgeStream {
    fn meta(&self) -> &StreamMeta {
        &self.meta
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn next_chunk(&mut self, buf: &mut Vec<Edge>) -> Result<usize, StoreError> {
        buf.clear();
        if self.remaining == 0 {
            if !self.checksum_verified {
                self.checksum_verified = true;
                let actual = self.checksum.value();
                if actual != self.declared_checksum {
                    return Err(StoreError::ChecksumMismatch {
                        section: "edges",
                        expected: self.declared_checksum,
                        actual,
                    });
                }
            }
            return Ok(0);
        }
        let mut take = self.budget.min(self.remaining);
        while take > 0 {
            let batch = take.min(self.io_buf.len() / 8);
            let bytes = &mut self.io_buf[..8 * batch];
            crate::format::read_exact_or_truncated(&mut self.reader, bytes, "edge block")?;
            self.checksum.update(bytes);
            for pair in bytes.chunks_exact(8) {
                let u = u32::from_le_bytes(pair[0..4].try_into().expect("4 bytes"));
                let v = u32::from_le_bytes(pair[4..8].try_into().expect("4 bytes"));
                let edge = decode_edge(u, v, self.num_vertices, self.prev)?;
                self.prev = Some(edge);
                buf.push(edge);
            }
            self.remaining -= batch;
            take -= batch;
        }
        // The last chunk is already decoded into `buf`; verify the section
        // checksum now so corruption surfaces before that chunk is reported.
        if self.remaining == 0 {
            self.checksum_verified = true;
            let actual = self.checksum.value();
            if actual != self.declared_checksum {
                return Err(StoreError::ChecksumMismatch {
                    section: "edges",
                    expected: self.declared_checksum,
                    actual,
                });
            }
        }
        Ok(buf.len())
    }
}

/// Streams a SNAP-style text edge list, interning raw ids on the fly.
///
/// Parses with [`tlp_graph::io::EdgeListReader`], the parser behind
/// [`tlp_graph::io::read_edge_list`], so vertex ids, tolerance (comments,
/// extra columns) and errors match it; self-loops are dropped after both
/// endpoints are interned. Duplicate edges are **not** dropped, which a
/// one-pass bounded-memory stream cannot detect; callers needing exact
/// parity with the materialized parse should convert to the binary format
/// first (`tlp-convert`), which canonicalizes once. A malformed line
/// surfaces as [`StoreError::Graph`], a read failure (invalid UTF-8
/// included) as [`StoreError::Io`].
#[derive(Debug)]
pub struct TextEdgeStream {
    edges: EdgeListReader<FaultFile>,
    budget: usize,
    meta: StreamMeta,
}

impl TextEdgeStream {
    /// Opens a text edge list for streaming.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be opened.
    pub fn open(path: &Path, budget: usize) -> Result<Self, StoreError> {
        let file = FaultFile::open(path).map_err(StoreError::Io)?;
        Ok(TextEdgeStream {
            edges: EdgeListReader::new(file),
            budget: budget.max(1),
            meta: StreamMeta::default(),
        })
    }

    /// Number of distinct vertices interned so far.
    pub fn vertices_seen(&self) -> usize {
        self.edges.num_vertices()
    }
}

impl EdgeStream for TextEdgeStream {
    fn meta(&self) -> &StreamMeta {
        &self.meta
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn next_chunk(&mut self, buf: &mut Vec<Edge>) -> Result<usize, StoreError> {
        buf.clear();
        while buf.len() < self.budget {
            match self.edges.next_edge() {
                Ok(Some((a, b))) if a != b => buf.push(Edge::new(a, b)),
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(GraphError::Io(e)) => return Err(StoreError::Io(e)),
                Err(e) => return Err(StoreError::Graph(e)),
            }
        }
        Ok(buf.len())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use tlp_graph::{CsrGraph, GraphBuilder};

    fn graph() -> CsrGraph {
        GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
            .build()
    }

    #[test]
    fn csr_stream_respects_budget_and_covers_all_edges() {
        let g = graph();
        for budget in [1usize, 2, 3, usize::MAX] {
            let mut stream = CsrEdgeStream::new(&g, budget);
            let mut all = Vec::new();
            let (seen, peak) = for_each_chunk(&mut stream, |chunk| {
                all.extend_from_slice(chunk);
                Ok(())
            })
            .unwrap();
            assert_eq!(seen, g.num_edges());
            assert!(peak <= budget.min(g.num_edges()).max(1));
            assert_eq!(all, g.edges().to_vec());
        }
    }

    #[test]
    fn csr_stream_with_order_replays_the_order() {
        let g = graph();
        let order: Vec<EdgeId> = vec![4, 0, 2];
        let mut stream = CsrEdgeStream::with_order(&g, order.clone(), 2);
        let mut all = Vec::new();
        for_each_chunk(&mut stream, |chunk| {
            all.extend_from_slice(chunk);
            Ok(())
        })
        .unwrap();
        let expected: Vec<Edge> = order.iter().map(|&id| g.edge(id)).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn csr_stream_meta_has_exact_degrees() {
        let g = graph();
        let stream = CsrEdgeStream::new(&g, 64);
        let degrees = stream.meta().degrees.as_ref().unwrap().clone();
        for v in g.vertices() {
            assert_eq!(degrees[v as usize] as usize, g.degree(v));
        }
    }

    #[test]
    fn text_stream_parses_and_interns() {
        let dir = std::env::temp_dir().join(format!("tlp-store-ts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "# header\n10 20\n20 30\n5 5\n30 10 999\n").unwrap();

        let mut stream = TextEdgeStream::open(&path, 2).unwrap();
        let mut all = Vec::new();
        let (seen, peak) = for_each_chunk(&mut stream, |chunk| {
            all.extend_from_slice(chunk);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 3); // self-loop dropped
        assert!(peak <= 2);
        // The loop's vertex is interned, as the materialized parse does.
        assert_eq!(stream.vertices_seen(), 4);
        // 10 -> 0, 20 -> 1, 30 -> 2, 5 -> 3 (first-seen interning).
        assert_eq!(all, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_stream_reports_parse_errors_with_line() {
        let dir = std::env::temp_dir().join(format!("tlp-store-tp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "1 2\nnot numbers\n").unwrap();
        let mut stream = TextEdgeStream::open(&path, 16).unwrap();
        let mut buf = Vec::new();
        let err = stream.next_chunk(&mut buf).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Graph(GraphError::Parse { line: 2, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
