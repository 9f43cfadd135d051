//! On-disk partition stores: per-partition edge segments plus a manifest
//! from which every headline metric is recomputable.
//!
//! A store directory holds one segment file per partition (the edges that
//! partition owns, in canonical order) and a `MANIFEST.tlp` describing the
//! segments together with the replica/ownership summary (`Σ_k |V(P_k)|`
//! and the covered-vertex count). Replication factor and balance are
//! recomputable **from the manifest alone**; loading the segments
//! reconstructs the exact `(graph, assignment)` pair, so the full
//! [`PartitionMetrics`] — including the paper's Claim 1 modularity — round
//! trips bit-identically.
//!
//! The manifest is a versioned, line-oriented text format parsed by this
//! module (the vendored `serde_json` is serialize-only, so JSON is not an
//! option for data we must read back).
//!
//! # Crash safety
//!
//! Stores are written transactionally: every segment file is staged through
//! a temp file and atomically renamed into place, and the manifest — the
//! *commit record* — is written last, the same way. A crash at any point
//! therefore leaves either a committed store (manifest present, all
//! segments it names present and checksummed) or an uncommitted directory
//! with no manifest. [`PartitionStoreReader::open`] detects the latter
//! (segment data present, manifest missing or unreadable), renames the
//! whole directory aside to `<dir>.quarantine[.N]`, and reports
//! [`StoreError::TornStore`] — a torn store is never parsed as data and
//! never silently shadows a later rewrite.

use crate::atomic::atomic_write;
use crate::format::Checksum;
use crate::StoreError;
use std::io::Write;
use std::path::{Path, PathBuf};
use tlp_core::{EdgePartition, PartitionId, PartitionMetrics, ReplicaSets, StreamedMetrics};
use tlp_graph::{CsrGraph, Edge, GraphView};

/// Name of the manifest file inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST.tlp";
/// First line of a valid manifest.
const MANIFEST_HEADER: &str = "tlp-partition-store v1";
/// Magic prefix of a segment file.
const SEGMENT_MAGIC: [u8; 8] = *b"TLPSEG\x00\x01";
/// Segment header: magic, partition id, reserved word, record count.
const SEGMENT_HEADER_LEN: usize = 24;

/// One per-partition edge segment as recorded in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The partition this segment holds.
    pub partition: PartitionId,
    /// File name inside the store directory.
    pub file: String,
    /// Number of edges in the segment.
    pub edges: usize,
    /// FNV-1a 64 checksum of the segment's edge payload.
    pub checksum: u64,
}

/// The parsed replica/ownership manifest of a partition store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionManifest {
    /// Number of partitions `p`.
    pub num_partitions: usize,
    /// Number of vertices of the partitioned graph (including isolated).
    pub num_vertices: usize,
    /// Number of edges of the partitioned graph.
    pub num_edges: usize,
    /// Vertices incident to at least one edge (the RF denominator).
    pub covered_vertices: usize,
    /// `Σ_k |V(P_k)|` (the RF numerator).
    pub total_replicas: usize,
    /// One entry per partition, ordered by partition id.
    pub segments: Vec<SegmentEntry>,
}

impl PartitionManifest {
    /// Replication factor recomputed purely from the manifest, delegating
    /// to the canonical [`PartitionMetrics::replication_factor_of`] — the
    /// exact expression the live run uses, so the value is bit-identical.
    pub fn replication_factor(&self) -> f64 {
        PartitionMetrics::replication_factor_of(self.total_replicas, self.covered_vertices)
    }

    /// Load balance recomputed purely from the manifest, delegating to the
    /// canonical [`PartitionMetrics::balance_of`] (max segment size over
    /// ideal `m / p`).
    pub fn balance(&self) -> f64 {
        let max_edges = self.segments.iter().map(|s| s.edges).max().unwrap_or(0);
        PartitionMetrics::balance_of(max_edges, self.num_edges, self.num_partitions)
    }

    /// Renders the manifest in its on-disk format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        out.push_str(&format!("partitions {}\n", self.num_partitions));
        out.push_str(&format!("vertices {}\n", self.num_vertices));
        out.push_str(&format!("edges {}\n", self.num_edges));
        out.push_str(&format!("covered {}\n", self.covered_vertices));
        out.push_str(&format!("replicas {}\n", self.total_replicas));
        for s in &self.segments {
            out.push_str(&format!(
                "segment {} {} {} {:016x}\n",
                s.partition, s.file, s.edges, s.checksum
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parses a manifest from its on-disk text.
    ///
    /// # Errors
    ///
    /// [`StoreError::Manifest`] naming the offending line, or
    /// [`StoreError::Truncated`] if the `end` sentinel is missing.
    pub fn parse(text: &str) -> Result<PartitionManifest, StoreError> {
        let bad = |line: usize, message: String| StoreError::Manifest { line, message };
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));

        let (line, header) = lines
            .next()
            .ok_or(StoreError::Truncated { what: "manifest" })?;
        if header.trim() != MANIFEST_HEADER {
            return Err(bad(line, format!("expected {MANIFEST_HEADER:?}")));
        }

        let mut fields: [Option<usize>; 5] = [None; 5];
        const NAMES: [&str; 5] = ["partitions", "vertices", "edges", "covered", "replicas"];
        let mut segments: Vec<SegmentEntry> = Vec::new();
        let mut ended = false;

        for (line, raw) in lines {
            let tokens: Vec<&str> = raw.split_whitespace().collect();
            match tokens.as_slice() {
                [] => continue,
                ["end"] => {
                    ended = true;
                    break;
                }
                [name, value] if NAMES.contains(name) => {
                    let idx = NAMES.iter().position(|n| n == name).expect("checked");
                    let parsed: usize = value
                        .parse()
                        .map_err(|_| bad(line, format!("{name} is not an integer: {value:?}")))?;
                    if fields[idx].replace(parsed).is_some() {
                        return Err(bad(line, format!("duplicate {name} line")));
                    }
                }
                ["segment", k, file, edges, checksum] => {
                    let partition: PartitionId = k
                        .parse()
                        .map_err(|_| bad(line, format!("bad partition id {k:?}")))?;
                    let edges: usize = edges
                        .parse()
                        .map_err(|_| bad(line, format!("bad edge count {edges:?}")))?;
                    let checksum = u64::from_str_radix(checksum, 16)
                        .map_err(|_| bad(line, format!("bad checksum {checksum:?}")))?;
                    if partition as usize != segments.len() {
                        return Err(bad(
                            line,
                            format!(
                                "segment {partition} out of order (expected {})",
                                segments.len()
                            ),
                        ));
                    }
                    segments.push(SegmentEntry {
                        partition,
                        file: (*file).to_string(),
                        edges,
                        checksum,
                    });
                }
                _ => return Err(bad(line, format!("unrecognized line {raw:?}"))),
            }
        }
        if !ended {
            return Err(StoreError::Truncated { what: "manifest" });
        }
        let [partitions, vertices, edges, covered, replicas] = fields;
        let require =
            |name: &str, v: Option<usize>| v.ok_or_else(|| bad(0, format!("missing {name} line")));
        let manifest = PartitionManifest {
            num_partitions: require("partitions", partitions)?,
            num_vertices: require("vertices", vertices)?,
            num_edges: require("edges", edges)?,
            covered_vertices: require("covered", covered)?,
            total_replicas: require("replicas", replicas)?,
            segments,
        };
        if manifest.segments.len() != manifest.num_partitions {
            return Err(bad(
                0,
                format!(
                    "manifest declares {} partitions but lists {} segments",
                    manifest.num_partitions,
                    manifest.segments.len()
                ),
            ));
        }
        let listed: usize = manifest.segments.iter().map(|s| s.edges).sum();
        if listed != manifest.num_edges {
            return Err(bad(
                0,
                format!(
                    "segment edge counts sum to {listed}, manifest declares {}",
                    manifest.num_edges
                ),
            ));
        }
        Ok(manifest)
    }
}

/// Writes `partition` of `graph` as an on-disk partition store in `dir`.
///
/// One segment file per partition plus `MANIFEST.tlp`. Every file is
/// written atomically (temp + fsync + rename), and the manifest is written
/// last as the commit record: a crash mid-write leaves an uncommitted
/// directory that [`PartitionStoreReader::open`] quarantines instead of
/// parsing. Returns the written manifest.
///
/// # Errors
///
/// [`StoreError::Corrupt`] if the partition does not cover the graph,
/// [`StoreError::Io`] on write failures.
pub fn write_partition_store<'a>(
    dir: &Path,
    graph: impl Into<GraphView<'a>>,
    partition: &EdgePartition,
) -> Result<PartitionManifest, StoreError> {
    let graph = graph.into();
    if partition.num_edges() != graph.num_edges() {
        return Err(StoreError::Corrupt(format!(
            "partition covers {} edges but graph has {}",
            partition.num_edges(),
            graph.num_edges()
        )));
    }
    std::fs::create_dir_all(dir).map_err(StoreError::Io)?;
    // A rewrite must not look committed while its segments are being
    // replaced: retract the commit record first.
    match std::fs::remove_file(dir.join(MANIFEST_NAME)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(StoreError::Io(e)),
    }
    let metrics = PartitionMetrics::compute(graph, partition);
    let p = partition.num_partitions();

    let mut segments = Vec::with_capacity(p);
    for k in 0..p {
        let file = format!("part-{k:05}.seg");
        let seg_path = dir.join(&file);
        let edge_count = metrics.edge_counts[k];
        let mut checksum = Checksum::new();

        atomic_write(&seg_path, |out| {
            out.write_all(&SEGMENT_MAGIC).map_err(StoreError::Io)?;
            out.write_all(&(k as u32).to_le_bytes())
                .map_err(StoreError::Io)?;
            out.write_all(&0u32.to_le_bytes()).map_err(StoreError::Io)?;
            out.write_all(&(edge_count as u64).to_le_bytes())
                .map_err(StoreError::Io)?;

            let mut written = 0usize;
            for (eid, edge) in graph.edge_iter().enumerate() {
                if partition.partition_of(eid as u32) as usize != k {
                    continue;
                }
                let mut pair = [0u8; 8];
                pair[0..4].copy_from_slice(&edge.source().to_le_bytes());
                pair[4..8].copy_from_slice(&edge.target().to_le_bytes());
                checksum.update(&pair);
                out.write_all(&pair).map_err(StoreError::Io)?;
                written += 1;
            }
            debug_assert_eq!(written, edge_count);
            out.write_all(&checksum.value().to_le_bytes())
                .map_err(StoreError::Io)
        })?;

        segments.push(SegmentEntry {
            partition: k as PartitionId,
            file,
            edges: edge_count,
            checksum: checksum.value(),
        });
    }

    let manifest = PartitionManifest {
        num_partitions: p,
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
        covered_vertices: metrics.covered_vertices,
        total_replicas: metrics.total_replicas,
        segments,
    };
    // Commit record: only after this rename is the store readable.
    atomic_write(&dir.join(MANIFEST_NAME), |out| {
        out.write_all(manifest.render().as_bytes())
            .map_err(StoreError::Io)
    })?;
    Ok(manifest)
}

/// True if `dir` holds partition-store content (segments or in-flight temp
/// files) without necessarily having a manifest.
fn has_store_content(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().any(|entry| {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        name.starts_with("part-") || name.ends_with(".tmp")
    })
}

/// Renames `dir` aside to `<dir>.quarantine` (or `.quarantine.N` if taken).
fn quarantine_dir(dir: &Path) -> Result<PathBuf, StoreError> {
    let base = {
        let mut name = dir.file_name().unwrap_or_default().to_os_string();
        name.push(".quarantine");
        dir.with_file_name(name)
    };
    let mut target = base.clone();
    let mut n = 0u32;
    while target.exists() {
        n += 1;
        if n > 1000 {
            return Err(StoreError::Corrupt(format!(
                "too many quarantined stores next to {}",
                dir.display()
            )));
        }
        let mut name = base.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{n}"));
        target = base.with_file_name(name);
    }
    std::fs::rename(dir, &target).map_err(StoreError::Io)?;
    Ok(target)
}

/// Reader over an on-disk partition store.
#[derive(Debug)]
pub struct PartitionStoreReader {
    dir: PathBuf,
    manifest: PartitionManifest,
}

impl PartitionStoreReader {
    /// Opens a store directory and parses its manifest.
    ///
    /// A directory holding segment data but no readable commit record (the
    /// writer crashed before or while writing `MANIFEST.tlp`) is a *torn
    /// store*: it is renamed aside to `<dir>.quarantine[.N]` and reported
    /// as [`StoreError::TornStore`], never parsed as data.
    ///
    /// # Errors
    ///
    /// [`StoreError::TornStore`] for an uncommitted/corrupt store (after
    /// quarantining it), [`StoreError::Io`] if the directory itself is
    /// missing or unreadable.
    pub fn open(dir: &Path) -> Result<PartitionStoreReader, StoreError> {
        let manifest = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
            Ok(text) => match PartitionManifest::parse(&text) {
                Ok(manifest) => manifest,
                Err(cause) => return Err(Self::quarantine(dir, cause)),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && has_store_content(dir) => {
                return Err(Self::quarantine(
                    dir,
                    StoreError::Manifest {
                        line: 0,
                        message: "commit record MANIFEST.tlp is missing".into(),
                    },
                ));
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        Ok(PartitionStoreReader {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// Quarantines a torn store and wraps `cause` in the typed error.
    fn quarantine(dir: &Path, cause: StoreError) -> StoreError {
        match quarantine_dir(dir) {
            Ok(quarantined) => StoreError::TornStore {
                quarantined,
                cause: Box::new(cause),
            },
            Err(rename_err) => rename_err,
        }
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &PartitionManifest {
        &self.manifest
    }

    /// Loads every segment and reconstructs the exact `(graph, assignment)`
    /// pair the store was written from, in one k-way merge over the
    /// segments (each already in canonical order).
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s for missing/corrupt segments;
    /// [`StoreError::Corrupt`] for a segment out of canonical order, an
    /// invalid or duplicated edge, or segments whose replica summary
    /// differs from the manifest's (an edge was lost).
    pub fn load(&self) -> Result<(CsrGraph, EdgePartition), StoreError> {
        let n = self.manifest.num_vertices;
        let mut merge = SegmentMerge::read(self)?;
        let mut edges: Vec<Edge> = Vec::with_capacity(self.manifest.num_edges);
        let mut assignment: Vec<PartitionId> = Vec::with_capacity(self.manifest.num_edges);
        let mut replicas = ReplicaSets::new(n, self.manifest.num_partitions);
        for _ in 0..self.manifest.num_edges {
            let (u, v, k) = merge.pop(n)?;
            replicas.insert(u, k);
            replicas.insert(v, k);
            edges.push(Edge::new(u, v));
            assignment.push(k as PartitionId);
        }
        let (covered, total) = replicas.rows().fold((0, 0), |(covered, total), row| {
            let len: usize = row.iter().map(|w| w.count_ones() as usize).sum();
            (covered + usize::from(len > 0), total + len)
        });
        self.check_replica_summary(covered, total)?;
        let graph = CsrGraph::from_sorted_canonical_edges(n, edges)?;
        let partition = EdgePartition::new(self.manifest.num_partitions, assignment)
            .map_err(|e| StoreError::Corrupt(format!("invalid stored assignment: {e}")))?;
        Ok((graph, partition))
    }

    /// Loads only the edge assignment, validated against an existing
    /// `graph` instead of rebuilding a CSR from the segments: the graph's
    /// edges are walked in id order, and each must be the head of exactly
    /// one segment, whose id it takes. Every segment must be used up.
    ///
    /// This is the zero-copy companion of [`PartitionStoreReader::load`]:
    /// a service holding a `.tlpg` v2 arena can pair it with the store's
    /// assignment without ever materializing a second copy of the graph.
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s for missing/corrupt segments, and
    /// [`StoreError::Corrupt`] when the stored edge set differs from
    /// `graph`'s (the store and the graph file do not belong together) or
    /// a segment is out of canonical order.
    pub fn load_assignment<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
    ) -> Result<EdgePartition, StoreError> {
        let graph = graph.into();
        let mut merge = SegmentMerge::read(self)?;
        let mut assignment: Vec<PartitionId> = Vec::with_capacity(graph.num_edges());
        for (eid, edge) in graph.edge_iter().enumerate() {
            let word = record_word(edge);
            // Branch-free: count the heads equal to the edge, remember one.
            let (mut hits, mut at) = (0u32, 0usize);
            for (k, &head) in merge.heads.iter().enumerate() {
                let hit = head == word;
                hits += u32::from(hit);
                at = if hit { k } else { at };
            }
            if hits != 1 {
                return Err(StoreError::Corrupt(format!(
                    "edge {eid} {:?} of the graph heads {hits} segments, not 1 — the store \
                     misses or repeats it, or does not belong to the graph",
                    edge.endpoints()
                )));
            }
            merge.advance(at)?;
            assignment.push(at as PartitionId);
        }
        if let Some(k) = (0..merge.heads.len()).find(|&k| !merge.exhausted(k)) {
            return Err(StoreError::Corrupt(format!(
                "segment {} holds edge {:?}, which the graph does not have",
                self.manifest.segments[k].file,
                record_endpoints(merge.heads[k])
            )));
        }
        EdgePartition::new(self.manifest.num_partitions, assignment)
            .map_err(|e| StoreError::Corrupt(format!("invalid stored assignment: {e}")))
    }

    /// Recomputes the full quality metrics (RF, balance, per-partition
    /// Claim 1 modularity, replica counts) from the stored segments. The
    /// result is bit-identical to [`PartitionMetrics::compute`] on the live
    /// run that wrote the store.
    ///
    /// No graph is built: the segments are merged once in canonical order,
    /// with every check [`PartitionStoreReader::load`] makes, into a
    /// [`StreamedMetrics`] pass, then replayed segment by segment for its
    /// external incidences.
    ///
    /// # Errors
    ///
    /// The errors of [`PartitionStoreReader::load`].
    pub fn recompute_metrics(&self) -> Result<PartitionMetrics, StoreError> {
        let (n, p) = (self.manifest.num_vertices, self.manifest.num_partitions);
        // The partition count check `load` makes through `EdgePartition`.
        EdgePartition::new(p, Vec::new())
            .map_err(|e| StoreError::Corrupt(format!("invalid stored assignment: {e}")))?;
        let mut merge = SegmentMerge::read(self)?;
        let mut metrics = StreamedMetrics::new(n, p);
        for _ in 0..self.manifest.num_edges {
            let (u, v, k) = merge.pop(n)?;
            metrics.observe_assignment(u, v, k as PartitionId);
        }
        for (k, entry) in self.manifest.segments.iter().enumerate() {
            for i in 0..entry.edges {
                let (u, v) = record_endpoints(merge.record(k, i));
                metrics.observe_external(u, v, k as PartitionId);
            }
        }
        let metrics = metrics.finish();
        self.check_replica_summary(metrics.covered_vertices, metrics.total_replicas)?;
        Ok(metrics)
    }

    /// Checks the segments' replica summary against the manifest's; a
    /// difference means an edge was lost.
    fn check_replica_summary(&self, covered: usize, total: usize) -> Result<(), StoreError> {
        if (covered, total) != (self.manifest.covered_vertices, self.manifest.total_replicas) {
            return Err(StoreError::Corrupt(format!(
                "segments cover {covered} vertices with {total} replicas, manifest records {} \
                 and {}",
                self.manifest.covered_vertices, self.manifest.total_replicas
            )));
        }
        Ok(())
    }

    /// Reads and checksums one segment file, returning its bytes: the
    /// header, then `entry.edges` records from [`SEGMENT_HEADER_LEN`] on,
    /// then the checksum.
    fn read_segment(&self, entry: &SegmentEntry) -> Result<Vec<u8>, StoreError> {
        let bytes = std::fs::read(self.dir.join(&entry.file)).map_err(StoreError::Io)?;
        let expected_len = SEGMENT_HEADER_LEN + 8 * entry.edges + 8;
        if bytes.len() < SEGMENT_HEADER_LEN {
            return Err(StoreError::Truncated {
                what: "segment header",
            });
        }
        if bytes[0..8] != SEGMENT_MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[0..8]);
            return Err(StoreError::BadMagic { found });
        }
        let partition = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if partition != entry.partition {
            return Err(StoreError::Corrupt(format!(
                "segment file {} labels itself partition {partition}, manifest says {}",
                entry.file, entry.partition
            )));
        }
        let count = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
        if count != entry.edges {
            return Err(StoreError::Corrupt(format!(
                "segment {} holds {count} edges, manifest says {}",
                entry.file, entry.edges
            )));
        }
        if bytes.len() != expected_len {
            return Err(StoreError::Truncated {
                what: "segment payload",
            });
        }
        let payload = &bytes[SEGMENT_HEADER_LEN..expected_len - 8];
        let declared = u64::from_le_bytes(bytes[expected_len - 8..].try_into().expect("8 bytes"));
        let actual = Checksum::of(payload);
        if declared != actual {
            return Err(StoreError::ChecksumMismatch {
                section: "segment",
                expected: declared,
                actual,
            });
        }
        Ok(bytes)
    }
}

/// Head of a segment whose records are all consumed. It reads as the
/// record `(u32::MAX, u32::MAX)`, which is never a valid edge.
const EXHAUSTED: u64 = u64::MAX;

/// An edge as a segment record: the little-endian `[u, v]` pair read as
/// one `u64`, also the layout of a `.tlpg` v2 edge-table pair.
fn record_word(edge: Edge) -> u64 {
    u64::from(edge.source()) | u64::from(edge.target()) << 32
}

/// The `(u, v)` endpoints of a record.
fn record_endpoints(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// The k-way merge behind both loaders: every segment read and
/// checksummed, kept as raw bytes, with one head record per segment.
/// Records are compared as words; `rotate_left(32)` is the canonical
/// `(u, v)` sort key.
struct SegmentMerge<'a> {
    segments: &'a [SegmentEntry],
    files: Vec<Vec<u8>>,
    /// Index of each segment's head record.
    cursors: Vec<usize>,
    /// Each segment's head record, or [`EXHAUSTED`].
    heads: Vec<u64>,
    /// The record [`pop`](Self::pop) took last, and its segment.
    last: Option<(u64, usize)>,
}

impl<'a> SegmentMerge<'a> {
    fn read(reader: &'a PartitionStoreReader) -> Result<Self, StoreError> {
        let segments = &reader.manifest.segments[..];
        let files = segments.iter().map(|entry| reader.read_segment(entry));
        let mut merge = SegmentMerge {
            segments,
            files: files.collect::<Result<_, _>>()?,
            cursors: vec![0; segments.len()],
            heads: vec![],
            last: None,
        };
        merge.heads = (0..segments.len()).map(|k| merge.record(k, 0)).collect();
        Ok(merge)
    }

    /// Record `i` of segment `k`, or [`EXHAUSTED`] past its end.
    fn record(&self, k: usize, i: usize) -> u64 {
        let at = SEGMENT_HEADER_LEN + 8 * i;
        if i < self.segments[k].edges {
            u64::from_le_bytes(self.files[k][at..at + 8].try_into().expect("8 bytes"))
        } else {
            EXHAUSTED
        }
    }

    fn exhausted(&self, k: usize) -> bool {
        self.cursors[k] == self.segments[k].edges
    }

    /// The segment whose head sorts first (lowest id on ties).
    fn min_head(&self) -> usize {
        let keys = self.heads.iter().map(|head| head.rotate_left(32));
        keys.enumerate()
            .min_by_key(|&(_, key)| key)
            .map_or(0, |(k, _)| k)
    }

    /// Takes the record that sorts first across all segments, with its
    /// segment, checking it as a stored edge: canonical, loop-free, both
    /// endpoints `< num_vertices`, and not the record taken before it.
    fn pop(&mut self, num_vertices: usize) -> Result<(u32, u32, usize), StoreError> {
        let k = self.min_head();
        let word = self.heads[k];
        let (u, v) = record_endpoints(word);
        if u >= v || v as usize >= num_vertices {
            return Err(StoreError::Corrupt(format!(
                "segment {} contains invalid edge ({u}, {v})",
                self.segments[k].file
            )));
        }
        if let Some((_, j)) = self.last.filter(|&(last, _)| last == word) {
            return Err(StoreError::Corrupt(format!(
                "edge ({u}, {v}) appears in partitions {j} and {k}"
            )));
        }
        self.advance(k)?;
        self.last = Some((word, k));
        Ok((u, v, k))
    }

    /// Consumes segment `k`'s head, checking that the record after it
    /// sorts strictly later (the segment invariant).
    fn advance(&mut self, k: usize) -> Result<(), StoreError> {
        let consumed = self.heads[k];
        self.cursors[k] += 1;
        self.heads[k] = self.record(k, self.cursors[k]);
        if !self.exhausted(k) && self.heads[k].rotate_left(32) <= consumed.rotate_left(32) {
            return Err(StoreError::Corrupt(format!(
                "segment {} is not in canonical order: edge {:?} follows {:?}",
                self.segments[k].file,
                record_endpoints(self.heads[k]),
                record_endpoints(consumed)
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use tlp_graph::GraphBuilder;

    fn graph_and_partition() -> (CsrGraph, EdgePartition) {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
            .build();
        let part = EdgePartition::new(2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        (g, part)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-pstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The sort-based loader the k-way merge replaced, kept as an oracle:
    /// every segment's `(edge, partition)` pairs, sorted, duplicates
    /// rejected.
    fn oracle_labeled(
        reader: &PartitionStoreReader,
    ) -> Result<Vec<(Edge, PartitionId)>, StoreError> {
        let mut labeled = Vec::new();
        for entry in &reader.manifest.segments {
            let bytes = reader.read_segment(entry)?;
            for pair in bytes[SEGMENT_HEADER_LEN..bytes.len() - 8].chunks_exact(8) {
                let (u, v) = record_endpoints(u64::from_le_bytes(pair.try_into().unwrap()));
                if u >= v || v as usize >= reader.manifest.num_vertices {
                    return Err(StoreError::Corrupt(format!("invalid edge ({u}, {v})")));
                }
                labeled.push((Edge::new(u, v), entry.partition));
            }
        }
        labeled.sort_unstable();
        if labeled.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            return Err(StoreError::Corrupt("duplicate edge".into()));
        }
        Ok(labeled)
    }

    fn oracle_load(reader: &PartitionStoreReader) -> (CsrGraph, EdgePartition) {
        let (edges, assignment): (Vec<Edge>, Vec<PartitionId>) =
            oracle_labeled(reader).unwrap().into_iter().unzip();
        let graph =
            CsrGraph::from_sorted_canonical_edges(reader.manifest.num_vertices, edges).unwrap();
        let partition = EdgePartition::new(reader.manifest.num_partitions, assignment).unwrap();
        (graph, partition)
    }

    fn oracle_load_assignment(reader: &PartitionStoreReader, graph: &CsrGraph) -> EdgePartition {
        let labeled = oracle_labeled(reader).unwrap();
        assert!(labeled
            .iter()
            .map(|&(e, _)| e)
            .eq(graph.edges().iter().copied()));
        let assignment = labeled.into_iter().map(|(_, pid)| pid).collect();
        EdgePartition::new(reader.manifest.num_partitions, assignment).unwrap()
    }

    #[test]
    fn merge_loaders_match_the_sort_based_oracle() {
        for (seed, p) in [1usize, 3, 16, 65, 130].into_iter().enumerate() {
            let g = tlp_graph::generators::chung_lu(300, 1200, 2.2, seed as u64 + 40);
            // A multiplicative scatter; at p = 130 some segments stay empty.
            let assignment = (0..g.num_edges() as u64)
                .map(|e| ((e.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % p as u64) as PartitionId)
                .collect();
            let part = EdgePartition::new(p, assignment).unwrap();
            let dir = temp_dir(&format!("oracle{p}"));
            write_partition_store(&dir, &g, &part).unwrap();
            let reader = PartitionStoreReader::open(&dir).unwrap();

            let (g1, part1) = reader.load().unwrap();
            assert_eq!((&g1, &part1), (&g, &part), "p = {p}");
            let (g0, part0) = oracle_load(&reader);
            assert_eq!((g1, part1), (g0, part0), "p = {p}");
            assert_eq!(
                reader.load_assignment(&g).unwrap(),
                oracle_load_assignment(&reader, &g),
                "p = {p}"
            );
            assert_eq!(
                reader.recompute_metrics().unwrap(),
                PartitionMetrics::compute(&g, &part),
                "p = {p}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Rewrites every segment of the store in `dir` to hold `records`,
    /// with valid headers and checksums, and the manifest's edge counts to
    /// match; its replica summary (covered, replicas) is left as written.
    fn rewrite_segments(dir: &Path, records: &[Vec<(u32, u32)>]) {
        let text = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        let mut manifest = PartitionManifest::parse(&text).unwrap();
        for (k, (entry, records)) in manifest.segments.iter_mut().zip(records).enumerate() {
            let mut payload = Vec::new();
            for &(u, v) in records {
                payload.extend_from_slice(&u.to_le_bytes());
                payload.extend_from_slice(&v.to_le_bytes());
            }
            let mut bytes = SEGMENT_MAGIC.to_vec();
            bytes.extend_from_slice(&(k as u32).to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&Checksum::of(&payload).to_le_bytes());
            std::fs::write(dir.join(&entry.file), bytes).unwrap();
            entry.edges = records.len();
            entry.checksum = Checksum::of(&payload);
        }
        manifest.num_edges = records.iter().map(Vec::len).sum();
        std::fs::write(dir.join(MANIFEST_NAME), manifest.render()).unwrap();
    }

    #[test]
    fn wrong_edge_sets_are_typed_corruption_for_both_loaders() {
        // Triangle 0-1-2 in partition 0; 2-3, triangle 3-4-5 and the
        // pendant edge 5-6 in partition 1.
        let g = GraphBuilder::new()
            .add_edges([
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
            ])
            .build();
        let part = EdgePartition::new(2, vec![0, 0, 0, 1, 1, 1, 1, 1]).unwrap();
        let n = g.num_vertices() as u32;
        let written: Vec<Vec<(u32, u32)>> = (0..2)
            .map(|k| {
                g.edges()
                    .iter()
                    .zip(part.assignments())
                    .filter(|&(_, &q)| q == k)
                    .map(|(e, _)| e.endpoints())
                    .collect()
            })
            .collect();
        // Each case edits the per-segment records; `n` is the vertex count.
        type Corruption = fn(&mut [Vec<(u32, u32)>], u32);
        let cases: [(&str, Corruption); 5] = [
            ("one edge in two segments", |s, _| s[1].insert(0, (0, 1))),
            // Vertex 6 loses its only edge, so `load` sees the manifest's
            // covered count disagree; `load_assignment` sees the graph.
            ("one edge dropped", |s, _| {
                s[1].pop();
            }),
            ("two records swapped", |s, _| s[1].swap(1, 2)),
            ("a duplicate record", |s, _| s[1].insert(1, (2, 3))),
            ("an endpoint out of range", |s, n| {
                *s[1].last_mut().unwrap() = (5, n)
            }),
        ];
        for (name, corrupt) in cases {
            let dir = temp_dir("wrongset");
            write_partition_store(&dir, &g, &part).unwrap();
            let mut records = written.clone();
            corrupt(&mut records, n);
            rewrite_segments(&dir, &records);
            let reader = PartitionStoreReader::open(&dir).unwrap();
            let loaded = reader.load();
            assert!(
                matches!(loaded, Err(StoreError::Corrupt(_))),
                "{name}: load gave {loaded:?}"
            );
            let assigned = reader.load_assignment(&g);
            assert!(
                matches!(assigned, Err(StoreError::Corrupt(_))),
                "{name}: load_assignment gave {assigned:?}"
            );
            let recomputed = reader.recompute_metrics();
            assert!(
                matches!(recomputed, Err(StoreError::Corrupt(_))),
                "{name}: recompute_metrics gave {recomputed:?}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn write_load_roundtrip_is_exact() {
        let (g, part) = graph_and_partition();
        let dir = temp_dir("rt");
        let manifest = write_partition_store(&dir, &g, &part).unwrap();
        assert_eq!(manifest.num_partitions, 2);

        let reader = PartitionStoreReader::open(&dir).unwrap();
        assert_eq!(reader.manifest(), &manifest);
        let (g2, part2) = reader.load().unwrap();
        assert_eq!(g, g2);
        assert_eq!(part, part2);

        let live = PartitionMetrics::compute(&g, &part);
        assert_eq!(reader.recompute_metrics().unwrap(), live);
        assert_eq!(manifest.replication_factor(), live.replication_factor);
        assert_eq!(manifest.balance(), live.balance);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_text_roundtrip() {
        let (g, part) = graph_and_partition();
        let dir = temp_dir("mt");
        let manifest = write_partition_store(&dir, &g, &part).unwrap();
        let reparsed = PartitionManifest::parse(&manifest.render()).unwrap();
        assert_eq!(manifest, reparsed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_malformed_input() {
        assert!(matches!(
            PartitionManifest::parse("not a manifest\n"),
            Err(StoreError::Manifest { line: 1, .. })
        ));
        // Missing `end` sentinel = truncated.
        let text = "tlp-partition-store v1\npartitions 1\nvertices 2\nedges 1\ncovered 2\nreplicas 2\nsegment 0 part-00000.seg 1 0000000000000000\n";
        assert!(matches!(
            PartitionManifest::parse(text),
            Err(StoreError::Truncated { .. })
        ));
        // Garbage line.
        let text = "tlp-partition-store v1\nwat 3 4\nend\n";
        assert!(matches!(
            PartitionManifest::parse(text),
            Err(StoreError::Manifest { line: 2, .. })
        ));
    }

    #[test]
    fn segment_corruption_is_typed() {
        let (g, part) = graph_and_partition();
        let dir = temp_dir("sc");
        write_partition_store(&dir, &g, &part).unwrap();

        // Flip one payload byte in segment 0.
        let seg = dir.join("part-00000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[25] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let reader = PartitionStoreReader::open(&dir).unwrap();
        let err = reader.load().unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_)
            ),
            "unexpected error {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_segment_is_typed() {
        let (g, part) = graph_and_partition();
        let dir = temp_dir("ts");
        write_partition_store(&dir, &g, &part).unwrap();
        let seg = dir.join("part-00001.seg");
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 9]).unwrap();
        let reader = PartitionStoreReader::open(&dir).unwrap();
        assert!(matches!(
            reader.load().unwrap_err(),
            StoreError::Truncated { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
