//! The streaming baselines as pipeline [`Algorithm`]s.
//!
//! [`StreamingBaseline`] adapts the [`StreamingPlacer`] state machines
//! (Random, DBH, Greedy, HDRF) to the unified `tlp-core` pipeline: it
//! consumes any [`EdgeSource`] in two bounded-memory passes — pass 1
//! places every edge in arrival order, pass 2 replays the stream through
//! the canonical [`StreamedMetrics`] accumulator — and emits a
//! [`RunArtifact`] whose metrics are bit-identical to
//! [`PartitionMetrics::compute`] on the materialized graph (pinned by the
//! conformance tests). Because arrival order over every canonical-order
//! source equals `EdgeId` order, the streamed assignments double as an
//! [`EdgePartition`], and streamed runs agree bit-for-bit with the
//! materialized partitioners driven in natural order.

use crate::streaming::{DbhState, GreedyState, HdrfState, RandomState, StreamingPlacer};
use tlp_core::{
    AlgoConfig, Algorithm, Capability, EdgePartition, PartitionId, PipelineError, RunArtifact,
    StreamedMetrics,
};
use tlp_graph::{EdgeSource, SourceError};

/// The canonical HDRF balance weight used across the workspace.
pub const HDRF_LAMBDA: f64 = 1.1;

/// Which streaming heuristic a [`StreamingBaseline`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamingKind {
    /// Stateless hash of the arrival index.
    Random,
    /// Degree-based hashing (needs final degrees up front).
    Dbh,
    /// PowerGraph greedy placement.
    Greedy,
    /// High-degree replicated first, `λ = 1.1`.
    Hdrf,
}

impl StreamingKind {
    /// Display label matching the materialized partitioner's `name()`.
    pub fn label(self) -> &'static str {
        match self {
            StreamingKind::Random => "Random",
            StreamingKind::Dbh => "DBH",
            StreamingKind::Greedy => "Greedy",
            StreamingKind::Hdrf => "HDRF",
        }
    }
}

/// A streaming baseline as a pipeline [`Algorithm`]
/// (capability [`Capability::Streaming`]).
pub struct StreamingBaseline {
    kind: StreamingKind,
    seed: u64,
}

impl StreamingBaseline {
    /// Builds the given heuristic from the unified config.
    pub fn new(kind: StreamingKind, config: &AlgoConfig) -> Self {
        StreamingBaseline {
            kind,
            seed: config.seed,
        }
    }
}

/// Number of vertices, from the hint or by materializing.
fn resolve_num_vertices(source: &mut dyn EdgeSource) -> Result<usize, PipelineError> {
    if let Some(n) = source.num_vertices_hint() {
        return Ok(n);
    }
    if !source.supports_random_access() {
        return Err(PipelineError::Source(SourceError::MissingMeta {
            what: "num_vertices",
            source: source.describe(),
        }));
    }
    Ok(source.random_access()?.num_vertices())
}

/// Final degrees, from the hint or by materializing.
fn resolve_degrees(source: &mut dyn EdgeSource) -> Result<Vec<u32>, PipelineError> {
    if let Some(degrees) = source.degrees_hint() {
        return Ok(degrees);
    }
    if !source.supports_random_access() {
        return Err(PipelineError::Source(SourceError::MissingMeta {
            what: "degrees",
            source: source.describe(),
        }));
    }
    let graph = source.random_access()?;
    Ok(graph.vertices().map(|v| graph.degree(v) as u32).collect())
}

impl Algorithm for StreamingBaseline {
    fn label(&self) -> &str {
        self.kind.label()
    }

    fn capability(&self) -> Capability {
        Capability::Streaming
    }

    fn run(
        &self,
        source: &mut dyn EdgeSource,
        num_partitions: usize,
    ) -> Result<RunArtifact, PipelineError> {
        let _run = tlp_core::run_span(self.kind.label(), num_partitions);
        let _trial = tlp_core::trial_span(0, Some(self.seed));
        let num_vertices = resolve_num_vertices(source)?;
        let mut placer: Box<dyn StreamingPlacer> = match self.kind {
            StreamingKind::Random => Box::new(RandomState::new(num_partitions, self.seed)?),
            StreamingKind::Dbh => {
                let degrees = resolve_degrees(source)?;
                Box::new(DbhState::new(degrees, num_partitions, self.seed)?)
            }
            StreamingKind::Greedy => Box::new(GreedyState::new(num_vertices, num_partitions)?),
            StreamingKind::Hdrf => {
                Box::new(HdrfState::new(num_vertices, num_partitions, HDRF_LAMBDA)?)
            }
        };

        // Pass 1: place every edge in arrival order, recording assignments
        // and the replica/load sides of the metrics.
        let mut metrics = StreamedMetrics::new(num_vertices, num_partitions);
        let mut assignments: Vec<PartitionId> = Vec::new();
        let start = std::time::Instant::now();
        let stats = {
            let _pass = tlp_obs::span("pass");
            source.stream_pass(&mut |chunk| {
                tlp_obs::counter("stream.chunk", 1);
                tlp_obs::counter("stream.edges", chunk.len() as u64);
                for e in chunk {
                    let q = placer.place(e.source(), e.target());
                    metrics.observe_assignment(e.source(), e.target(), q);
                    assignments.push(q);
                }
            })?
        };
        let seconds = start.elapsed().as_secs_f64();

        // Pass 2: replay the (deterministic) stream to count external
        // incidences against the final replica sets.
        let mut index = 0usize;
        {
            let _pass = tlp_obs::span("pass");
            source.stream_pass(&mut |chunk| {
                tlp_obs::counter("stream.chunk", 1);
                tlp_obs::counter("stream.edges", chunk.len() as u64);
                for e in chunk {
                    if let Some(&q) = assignments.get(index) {
                        metrics.observe_external(e.source(), e.target(), q);
                    }
                    index += 1;
                }
            })?;
        }
        if index != assignments.len() {
            return Err(PipelineError::Source(SourceError::Corrupt(format!(
                "stream replay mismatch: pass 1 delivered {} edges, pass 2 delivered {index}",
                assignments.len()
            ))));
        }

        tlp_obs::counter("run.edges", assignments.len() as u64);
        let partition = EdgePartition::new(num_partitions, assignments)?;
        let metrics = metrics.finish();
        let mut artifact = RunArtifact::new(self.kind.label(), partition, metrics, seconds);
        artifact.peak_stream_buffer = Some(stats.peak_buffer);
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbhPartitioner, EdgeOrder, GreedyPartitioner, HdrfPartitioner, RandomPartitioner};
    use tlp_core::{EdgePartitioner, PartitionMetrics};
    use tlp_graph::generators::chung_lu;
    use tlp_graph::{CsrSource, Edge, GraphView, PassStats};

    fn materialized(kind: StreamingKind, seed: u64) -> Box<dyn EdgePartitioner> {
        match kind {
            StreamingKind::Random => Box::new(RandomPartitioner::new(seed)),
            StreamingKind::Dbh => Box::new(DbhPartitioner::new(seed)),
            StreamingKind::Greedy => Box::new(GreedyPartitioner::new(EdgeOrder::Natural)),
            StreamingKind::Hdrf => Box::new(
                HdrfPartitioner::new(EdgeOrder::Natural, HDRF_LAMBDA).expect("valid lambda"),
            ),
        }
    }

    #[test]
    fn streamed_artifacts_match_materialized_partitioners_bit_for_bit() {
        let g = chung_lu(600, 2400, 2.2, 17);
        for kind in [
            StreamingKind::Random,
            StreamingKind::Dbh,
            StreamingKind::Greedy,
            StreamingKind::Hdrf,
        ] {
            let config = AlgoConfig::seeded(23);
            let algo = StreamingBaseline::new(kind, &config);
            let artifact = algo.run(&mut CsrSource::new(&g), 8).expect("run");
            let direct = materialized(kind, 23).partition(&g, 8).expect("direct");
            assert_eq!(artifact.partition, direct, "{kind:?} assignment drifted");
            assert_eq!(
                artifact.metrics,
                PartitionMetrics::compute(&g, &direct),
                "{kind:?} streamed metrics drifted from the canonical computation"
            );
            assert!(artifact.peak_stream_buffer.is_some());
        }
    }

    /// A streaming-only source that knows nothing up front, like a strict
    /// one-pass edge stream.
    struct NoMetaSource;

    impl EdgeSource for NoMetaSource {
        fn describe(&self) -> String {
            "no-meta".into()
        }
        fn num_vertices_hint(&self) -> Option<usize> {
            Some(2)
        }
        fn num_edges_hint(&self) -> Option<usize> {
            None
        }
        fn degrees_hint(&self) -> Option<Vec<u32>> {
            None
        }
        fn supports_random_access(&self) -> bool {
            false
        }
        fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
            unreachable!("random access is not supported")
        }
        fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
            sink(&[Edge::new(0, 1)]);
            Ok(PassStats {
                edges: 1,
                peak_buffer: 1,
            })
        }
    }

    #[test]
    fn dbh_without_degrees_is_a_typed_missing_meta_error() {
        let algo = StreamingBaseline::new(StreamingKind::Dbh, &AlgoConfig::seeded(1));
        let err = algo
            .run(&mut NoMetaSource, 2)
            .expect_err("DBH needs degrees");
        assert!(matches!(
            err,
            PipelineError::Source(SourceError::MissingMeta {
                what: "degrees",
                ..
            })
        ));
        let hdrf = StreamingBaseline::new(StreamingKind::Hdrf, &AlgoConfig::seeded(1));
        assert!(hdrf.run(&mut NoMetaSource, 2).is_ok());
    }
}
