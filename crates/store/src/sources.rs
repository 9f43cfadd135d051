//! Disk-backed [`EdgeSource`] implementations: a `.tlpg` binary graph
//! file and a SNAP-style text edge list.
//!
//! These are what lets the unified pipeline run any streaming algorithm
//! out-of-core: every pass is one sequential read of the file that hands
//! the sink chunks of at most `budget` edges, while random access (for
//! CSR-only algorithms) either materializes the graph once and caches it,
//! or — in strict streaming mode — refuses with
//! [`SourceError::NeedsRandomAccess`] so capability violations surface as
//! typed errors instead of silent memory blow-ups. In-memory graphs use
//! [`tlp_graph::CsrSource`].

use crate::faults::FaultFile;
use crate::format::{read_exact_or_truncated, CHUNK_EDGES};
use crate::loaded::LoadedGraph;
use crate::reader::{decode_edge, StoreReader};
use crate::StoreError;
use std::path::{Path, PathBuf};
use tlp_graph::io::EdgeListReader;
use tlp_graph::{CsrGraph, Edge, EdgeSource, GraphView, PassStats, SourceError};

impl From<StoreError> for SourceError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => SourceError::Io(io),
            other => SourceError::Other(Box::new(other)),
        }
    }
}

/// Hands one chunk of a disk pass to `sink`, folding it into `stats`.
fn deliver(chunk: &[Edge], stats: &mut PassStats, sink: &mut dyn FnMut(&[Edge])) {
    stats.edges += chunk.len();
    stats.peak_buffer = stats.peak_buffer.max(chunk.len());
    tlp_obs::counter("store.chunk", 1);
    tlp_obs::counter("store.chunk_edges", chunk.len() as u64);
    sink(chunk);
}

/// A `.tlpg` binary graph file as an [`EdgeSource`].
///
/// [`open`](Self::open) validates the header and framing and reads the
/// degrees once. Each streaming pass re-opens the file, checks the header
/// is unchanged, and reads the edge section straight off disk in chunks,
/// so the canonical edge order replays identically. Edges are validated
/// (canonical form, endpoint bounds, global order) as they are decoded,
/// and the section checksum is verified on every pass before its last
/// chunk is reported, so a flipped byte surfaces as a typed error before
/// the pass completes. Random access opens the file as a [`LoadedGraph`]
/// once and caches it — a v2 file is held as a zero-copy arena whose view
/// borrows the file bytes directly, a v1 file is decoded into an owned
/// CSR — unless the source was opened
/// [`strict_streaming`](Self::strict_streaming), in which case random
/// access is refused and only bounded-memory passes are allowed.
#[derive(Debug)]
pub struct BinaryFileSource {
    store: StoreReader,
    budget: usize,
    degrees: Vec<u32>,
    strict: bool,
    cached: Option<LoadedGraph>,
}

impl BinaryFileSource {
    /// Opens the file, reading header and degree metadata (but no edges).
    /// Passes deliver chunks of at most `budget` edges (clamped to at
    /// least 1).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from validating the file.
    pub fn open(path: &Path, budget: usize) -> Result<Self, StoreError> {
        let store = StoreReader::open(path)?;
        let degrees = store.read_degrees()?;
        Ok(BinaryFileSource {
            store,
            budget: budget.max(1),
            degrees,
            strict: false,
            cached: None,
        })
    }

    /// Toggles strict streaming: when `true`, random access is refused so
    /// peak edge memory stays `O(budget)`.
    pub fn strict_streaming(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }
}

impl EdgeSource for BinaryFileSource {
    fn describe(&self) -> String {
        format!("tlpg:{}", self.store.path().display())
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        Some(self.store.header().num_vertices as usize)
    }

    fn num_edges_hint(&self) -> Option<usize> {
        Some(self.store.header().num_edges as usize)
    }

    fn degrees_hint(&self) -> Option<Vec<u32>> {
        Some(self.degrees.clone())
    }

    fn supports_random_access(&self) -> bool {
        !self.strict
    }

    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
        if self.strict {
            return Err(SourceError::NeedsRandomAccess {
                source: self.describe(),
            });
        }
        if self.cached.is_none() {
            self.cached = Some(LoadedGraph::open(self.store.path())?);
        }
        Ok(self
            .cached
            .as_ref()
            .expect("graph cached by the branch above")
            .view())
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let store = &self.store;
        let mut reader = store.edges_reader()?;
        let num_vertices = store.header().num_vertices as usize;
        let mut remaining = store.header().num_edges as usize;
        let edges_at = store.edges_at();
        let mut checksum = store.section_hasher();
        let mut io_buf = vec![0u8; 8 * self.budget.min(CHUNK_EDGES)];
        let mut chunk = Vec::new();
        let mut prev: Option<Edge> = None;
        let mut stats = PassStats {
            edges: 0,
            peak_buffer: 0,
        };
        loop {
            chunk.clear();
            let mut take = self.budget.min(remaining);
            while take > 0 {
                let batch = take.min(io_buf.len() / 8);
                let bytes = &mut io_buf[..8 * batch];
                read_exact_or_truncated(&mut reader, bytes, "edge block")?;
                checksum.update(bytes);
                for pair in bytes.chunks_exact(8) {
                    let u = u32::from_le_bytes(pair[0..4].try_into().expect("4 bytes"));
                    let v = u32::from_le_bytes(pair[4..8].try_into().expect("4 bytes"));
                    let edge = decode_edge(u, v, num_vertices, prev)?;
                    prev = Some(edge);
                    chunk.push(edge);
                }
                remaining -= batch;
                take -= batch;
            }
            let last = remaining == 0;
            if last {
                // The last chunk is already decoded into `chunk`; verify the
                // section checksum now so corruption surfaces before that
                // chunk is reported.
                store.check(&edges_at.frame, checksum.value(), "edges")?;
            }
            if !chunk.is_empty() {
                deliver(&chunk, &mut stats, sink);
            }
            if last {
                return Ok(stats);
            }
        }
    }
}

/// A SNAP-style text edge list as an [`EdgeSource`].
///
/// Passes parse the file on the fly with
/// [`tlp_graph::io::EdgeListReader`], the parser behind
/// [`tlp_graph::io::read_edge_list`], so vertex ids (first-seen interning),
/// tolerance (comments, extra columns) and errors match it. Self-loops are
/// dropped after both endpoints are interned; duplicate edges are **not**
/// removed, which a one-pass bounded-memory stream cannot detect. Callers
/// needing exact parity with the materialized parse should convert to the
/// binary format first (`tlp-convert`), which canonicalizes once.
/// Vertex/edge counts are unknown up front, so consumers that need them
/// must either materialize (random access parses through the canonical
/// deduplicating reader, which numbers vertices identically) or fail with
/// [`SourceError::MissingMeta`].
///
/// On both paths a read failure (invalid UTF-8 included) is
/// [`SourceError::Io`], and a malformed line is [`SourceError::Other`]
/// carrying the [`tlp_graph::GraphError::Parse`] with its line number.
#[derive(Debug)]
pub struct TextFileSource {
    path: PathBuf,
    budget: usize,
    cached: Option<CsrGraph>,
}

impl TextFileSource {
    /// Wraps a text edge-list path; the file is opened lazily per pass.
    /// Passes deliver chunks of at most `budget` edges (clamped to at
    /// least 1).
    pub fn new(path: &Path, budget: usize) -> Self {
        TextFileSource {
            path: path.to_path_buf(),
            budget: budget.max(1),
            cached: None,
        }
    }
}

impl EdgeSource for TextFileSource {
    fn describe(&self) -> String {
        format!("text:{}", self.path.display())
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        None
    }

    fn num_edges_hint(&self) -> Option<usize> {
        None
    }

    fn degrees_hint(&self) -> Option<Vec<u32>> {
        None
    }

    fn supports_random_access(&self) -> bool {
        true
    }

    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
        if self.cached.is_none() {
            let loaded = tlp_graph::io::read_edge_list_file(&self.path)?;
            self.cached = Some(loaded.graph);
        }
        Ok(self
            .cached
            .as_ref()
            .expect("graph cached by the branch above")
            .view())
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let mut edges = EdgeListReader::new(FaultFile::open(&self.path)?);
        let mut chunk = Vec::new();
        let mut stats = PassStats {
            edges: 0,
            peak_buffer: 0,
        };
        let mut exhausted = false;
        while !exhausted {
            chunk.clear();
            while chunk.len() < self.budget {
                match edges.next_edge()? {
                    Some((a, b)) if a != b => chunk.push(Edge::new(a, b)),
                    Some(_) => {}
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            if !chunk.is_empty() {
                deliver(&chunk, &mut stats, sink);
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_graph, WriteOptions};
    use std::io::Write as _;
    use tlp_graph::generators::chung_lu;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-sources-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn binary_source_streams_the_canonical_order_and_materializes() {
        let g = chung_lu(400, 1600, 2.2, 5);
        let dir = temp_dir("bin");
        let path = dir.join("g.tlpg");
        write_graph(&path, &g, &WriteOptions::default()).expect("write graph");

        let mut source = BinaryFileSource::open(&path, 64).expect("open");
        assert_eq!(source.num_vertices_hint(), Some(g.num_vertices()));
        assert_eq!(source.num_edges_hint(), Some(g.num_edges()));

        let mut seen = Vec::new();
        let stats = source
            .stream_pass(&mut |chunk| seen.extend_from_slice(chunk))
            .expect("pass");
        assert_eq!(seen, g.edges().to_vec());
        assert_eq!(stats.edges, g.num_edges());
        assert!(stats.peak_buffer <= 64);

        // Second pass replays identically.
        let mut again = Vec::new();
        source
            .stream_pass(&mut |chunk| again.extend_from_slice(chunk))
            .expect("pass 2");
        assert_eq!(again, seen);

        assert!(source.supports_random_access());
        let view = source.random_access().expect("materialize");
        assert_eq!(view.edge_iter().collect::<Vec<_>>(), g.edges().to_vec());
        assert_eq!(view.num_vertices(), g.num_vertices());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_streaming_refuses_random_access() {
        let g = chung_lu(100, 400, 2.2, 9);
        let dir = temp_dir("strict");
        let path = dir.join("g.tlpg");
        write_graph(&path, &g, &WriteOptions::default()).expect("write graph");

        let mut source = BinaryFileSource::open(&path, 32)
            .expect("open")
            .strict_streaming(true);
        assert!(!source.supports_random_access());
        let err = source.random_access().expect_err("must refuse");
        assert!(matches!(err, SourceError::NeedsRandomAccess { .. }));
        // Streaming still works.
        let stats = source.stream_pass(&mut |_| {}).expect("pass");
        assert_eq!(stats.edges, g.num_edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_source_streams_and_materializes() {
        let dir = temp_dir("text");
        let path = dir.join("g.txt");
        {
            let mut f = std::fs::File::create(&path).expect("create");
            writeln!(f, "# comment").expect("write");
            for (u, v) in [(10, 20), (20, 30), (30, 10), (10, 40)] {
                writeln!(f, "{u}\t{v}").expect("write");
            }
        }
        let mut source = TextFileSource::new(&path, 2);
        assert_eq!(source.num_vertices_hint(), None);
        let mut count = 0usize;
        let stats = source
            .stream_pass(&mut |chunk| count += chunk.len())
            .expect("pass");
        assert_eq!(count, 4);
        assert!(stats.peak_buffer <= 2);
        let graph = source.random_access().expect("materialize");
        assert_eq!(graph.num_edges(), 4);
        assert_eq!(graph.num_vertices(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_source_interns_and_drops_self_loops() {
        let dir = temp_dir("intern");
        let path = dir.join("g.txt");
        std::fs::write(&path, "# header\n10 20\n20 30\n5 5\n30 10 999\n").expect("write");
        let mut source = TextFileSource::new(&path, 2);
        let mut all = Vec::new();
        let stats = source
            .stream_pass(&mut |chunk| all.extend_from_slice(chunk))
            .expect("pass");
        assert_eq!(stats.edges, 3); // self-loop dropped
        assert!(stats.peak_buffer <= 2);
        // 10 -> 0, 20 -> 1, 30 -> 2, 5 -> 3 (first-seen interning): the
        // loop's vertex is interned, as the materialized parse does.
        assert_eq!(all, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]);
        assert_eq!(source.random_access().expect("ra").num_vertices(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
