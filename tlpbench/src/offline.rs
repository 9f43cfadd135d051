//! The offline path: text parse and `.tlpg` write (set-up), then open,
//! registry run, metrics and partition store (partitioning).
//!
//! Every call into a layer's public function sits inside a span named
//! after the layer, so a traced run attributes its time; with no observer
//! installed the spans cost one thread-local read.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tlp_core::{AlgoConfig, AlgorithmRegistry, PartitionMetrics, RunArtifact};
use tlp_graph::{CsrSource, EdgeSource};
use tlp_obs::span;
use tlp_store::{
    write_graph, write_partition_store, BinaryFileSource, FormatVersion, LoadedGraph, SourceStamp,
    WriteOptions,
};

use crate::workload::Params;

/// One set-up pass: parse the text edge list, write it as `.tlpg` v2.
#[derive(Clone, Copy, Debug)]
pub struct SetupRep {
    /// Seconds in `read_edge_list_file`.
    pub parse_s: f64,
    /// Seconds in `write_graph`.
    pub write_s: f64,
    /// Vertices of the parsed graph.
    pub vertices: usize,
    /// Edges of the parsed graph.
    pub edges: usize,
}

/// Parses `text` and writes it to `tlpg` the way `tlp-convert` does.
///
/// # Errors
///
/// Parse or write failures.
pub fn setup_rep(text: &Path, tlpg: &Path) -> Result<SetupRep, String> {
    let start = Instant::now();
    let loaded = {
        let _span = span("graph.parse");
        tlp_graph::io::read_edge_list_file(text).map_err(|e| format!("parse: {e}"))?
    };
    let parse_s = start.elapsed().as_secs_f64();
    let (vertices, edges) = (loaded.graph.num_vertices(), loaded.graph.num_edges());
    let start = Instant::now();
    {
        let _span = span("store.write_graph");
        let options = WriteOptions {
            original_ids: Some(loaded.original_ids),
            source: SourceStamp::of_file(text).ok(),
            version: FormatVersion::V2,
        };
        write_graph(tlpg, &loaded.graph, &options).map_err(|e| format!("write_graph: {e}"))?;
    }
    Ok(SetupRep {
        parse_s,
        write_s: start.elapsed().as_secs_f64(),
        vertices,
        edges,
    })
}

/// One partitioning pass, from `LoadedGraph::open` to a committed
/// partition store.
#[derive(Clone, Debug)]
pub struct PartitionRep {
    /// Seconds from open to committed store.
    pub seconds: f64,
    /// The registry run's result.
    pub artifact: RunArtifact,
    /// `PartitionMetrics::compute` on the result.
    pub metrics: PartitionMetrics,
}

/// Opens `tlpg`, runs the workload's algorithm through the registry
/// (streamed off disk under the workload's edge budget, or over the
/// opened CSR), computes the metrics and writes the partition store.
///
/// # Errors
///
/// Any layer's failure.
pub fn partition_rep(
    params: &Params,
    registry: &AlgorithmRegistry,
    seed: u64,
    tlpg: &Path,
    store: &Path,
) -> Result<PartitionRep, String> {
    let start = Instant::now();
    let graph = {
        let _span = span("store.open");
        LoadedGraph::open(tlpg).map_err(|e| format!("open: {e}"))?
    };
    let view = graph.view();
    let config = AlgoConfig {
        seed,
        threads: 1,
        trials: 1,
        ..AlgoConfig::default()
    };
    let artifact = {
        let _span = span("pipeline.run");
        let run = if params.streamed {
            let mut source = BinaryFileSource::open(tlpg, params.stream_budget)
                .map_err(|e| format!("stream open: {e}"))?
                .strict_streaming(true);
            registry.run(params.algorithm, &config, &mut source, params.partitions)
        } else {
            registry.run(
                params.algorithm,
                &config,
                &mut CsrSource::new(view),
                params.partitions,
            )
        };
        run.map_err(|e| format!("{}: {e}", params.algorithm))?
    };
    let metrics = {
        let _span = span("core.metrics");
        PartitionMetrics::compute(view, &artifact.partition)
    };
    {
        let _span = span("store.write_partition");
        write_partition_store(store, view, &artifact.partition)
            .map_err(|e| format!("write_partition_store: {e}"))?;
    }
    Ok(PartitionRep {
        seconds: start.elapsed().as_secs_f64(),
        artifact,
        metrics,
    })
}

/// One drained strict-streaming pass over `tlpg` at `budget` edges, with
/// no placement: returns `(milliseconds, chunks delivered)`.
///
/// # Errors
///
/// Open or read failures.
pub fn stream_pass(tlpg: &Path, budget: usize) -> Result<(f64, u64), String> {
    let _span = span("store.stream_pass");
    let start = Instant::now();
    let mut source = BinaryFileSource::open(tlpg, budget)
        .map_err(|e| format!("stream open: {e}"))?
        .strict_streaming(true);
    let mut chunks = 0u64;
    source
        .stream_pass(&mut |edges| {
            chunks += 1;
            black_box(edges);
        })
        .map_err(|e| format!("stream pass: {e}"))?;
    Ok((start.elapsed().as_secs_f64() * 1e3, chunks))
}
