//! Disk-backed [`EdgeSource`] implementations over the [`EdgeStream`]
//! family, plus a budgeted wrapper for in-memory graphs.
//!
//! These adapters are what lets the unified pipeline run any streaming
//! algorithm out-of-core: a `.tlpg` file or text edge list becomes an
//! `EdgeSource` whose passes are bounded-memory [`BinaryEdgeStream`] /
//! [`TextEdgeStream`] sweeps, while random access (for CSR-only
//! algorithms) either materializes the graph once and caches it, or — in
//! strict streaming mode — refuses with
//! [`SourceError::NeedsRandomAccess`] so capability violations surface as
//! typed errors instead of silent memory blow-ups.

use crate::loaded::LoadedGraph;
use crate::stream::{for_each_chunk, BinaryEdgeStream, CsrEdgeStream, EdgeStream, TextEdgeStream};
use crate::StoreError;
use std::path::{Path, PathBuf};
use tlp_graph::{CsrGraph, Edge, EdgeSource, GraphView, PassStats, SourceError};

impl From<StoreError> for SourceError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => SourceError::Io(io),
            other => SourceError::Other(Box::new(other)),
        }
    }
}

fn run_pass<S: EdgeStream + ?Sized>(
    stream: &mut S,
    sink: &mut dyn FnMut(&[Edge]),
) -> Result<PassStats, SourceError> {
    let (edges, peak_buffer) = for_each_chunk(stream, |chunk| {
        sink(chunk);
        Ok(())
    })?;
    Ok(PassStats { edges, peak_buffer })
}

/// A `.tlpg` binary graph file as an [`EdgeSource`].
///
/// Streaming passes re-open a fresh [`BinaryEdgeStream`] each time, so the
/// canonical edge order replays identically (checksums verified per pass).
/// Random access opens the file as a [`LoadedGraph`] once and caches it —
/// a v2 file is held as a zero-copy arena whose view borrows the file
/// bytes directly, a v1 file is decoded into an owned CSR — unless the
/// source was opened [`strict_streaming`](Self::strict_streaming), in
/// which case random access is refused and only bounded-memory passes are
/// allowed.
#[derive(Debug)]
pub struct BinaryFileSource {
    path: PathBuf,
    budget: usize,
    num_vertices: usize,
    num_edges: usize,
    degrees: Vec<u32>,
    strict: bool,
    cached: Option<LoadedGraph>,
}

impl BinaryFileSource {
    /// Opens the file, reading header and degree metadata (but no edges).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from validating the file.
    pub fn open(path: &Path, budget: usize) -> Result<Self, StoreError> {
        let stream = BinaryEdgeStream::open(path, budget)?;
        let meta = stream.meta();
        let num_vertices = meta.num_vertices.unwrap_or(0);
        let num_edges = meta.num_edges.unwrap_or(0);
        let degrees = meta.degrees.clone().unwrap_or_default();
        Ok(BinaryFileSource {
            path: path.to_path_buf(),
            budget,
            num_vertices,
            num_edges,
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
        format!("tlpg:{}", self.path.display())
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        Some(self.num_vertices)
    }

    fn num_edges_hint(&self) -> Option<usize> {
        Some(self.num_edges)
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
            self.cached = Some(LoadedGraph::open(&self.path)?);
        }
        Ok(self
            .cached
            .as_ref()
            .expect("graph cached by the branch above")
            .view())
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let mut stream = BinaryEdgeStream::open(&self.path, self.budget)?;
        run_pass(&mut stream, sink)
    }
}

/// A SNAP-style text edge list as an [`EdgeSource`].
///
/// Passes parse the file on the fly via [`TextEdgeStream`] (first-seen
/// vertex interning, self-loops dropped; duplicate edges are **not**
/// removed, matching the raw stream semantics). Vertex/edge counts are
/// unknown up front, so consumers that need them must either materialize
/// (random access parses through the canonical deduplicating reader, which
/// numbers vertices identically) or fail with [`SourceError::MissingMeta`].
#[derive(Debug)]
pub struct TextFileSource {
    path: PathBuf,
    budget: usize,
    cached: Option<CsrGraph>,
}

impl TextFileSource {
    /// Wraps a text edge-list path; the file is opened lazily per pass.
    pub fn new(path: &Path, budget: usize) -> Self {
        TextFileSource {
            path: path.to_path_buf(),
            budget,
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
            let loaded = tlp_graph::io::read_edge_list_file(&self.path)
                .map_err(|e| SourceError::Corrupt(e.to_string()))?;
            self.cached = Some(loaded.graph);
        }
        Ok(self
            .cached
            .as_ref()
            .expect("graph cached by the branch above")
            .view())
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let mut stream = TextEdgeStream::open(&self.path, self.budget)?;
        run_pass(&mut stream, sink)
    }
}

/// An in-memory graph exposed with budget-bounded passes.
///
/// Random access is free (the graph is already resident), but streaming
/// passes go through [`CsrEdgeStream`] with the given budget, so chunk
/// sizes — and therefore a streaming algorithm's reported peak buffer —
/// honor the same `--stream-budget` bound as the disk sources.
#[derive(Debug)]
pub struct BudgetedCsrSource<'a> {
    graph: GraphView<'a>,
    budget: usize,
}

impl<'a> BudgetedCsrSource<'a> {
    /// Wraps a shared graph (or view) with a per-pass chunk budget.
    pub fn new(graph: impl Into<GraphView<'a>>, budget: usize) -> Self {
        BudgetedCsrSource {
            graph: graph.into(),
            budget,
        }
    }
}

impl EdgeSource for BudgetedCsrSource<'_> {
    fn describe(&self) -> String {
        format!(
            "csr({} vertices, {} edges, budget {})",
            self.graph.num_vertices(),
            self.graph.num_edges(),
            self.budget
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
        let mut stream = CsrEdgeStream::new(self.graph, self.budget);
        run_pass(&mut stream, sink)
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
    fn budgeted_csr_source_bounds_chunks() {
        let g = chung_lu(200, 900, 2.2, 3);
        let mut source = BudgetedCsrSource::new(&g, 17);
        let mut seen = Vec::new();
        let stats = source
            .stream_pass(&mut |chunk| seen.extend_from_slice(chunk))
            .expect("pass");
        assert_eq!(seen, g.edges().to_vec());
        assert!(stats.peak_buffer <= 17);
        let view = source.random_access().expect("ra");
        assert_eq!(view.edge_iter().collect::<Vec<_>>(), g.edges().to_vec());
    }
}
