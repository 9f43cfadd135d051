//! The correctness gate: checks on what the program produced. A run whose
//! gate fails is reported as incorrect and exits non-zero.

use std::path::Path;
use tlp_core::{EdgePartition, PartitionMetrics};
use tlp_graph::GraphView;
use tlp_serve::Response;
use tlp_store::{read_wal, PartitionStoreReader, WAL_NAME};

/// Offline gate: the stored partition covers every edge of `graph` exactly
/// once with the run's own assignment, and the RF and balance recomputed
/// from the store equal the run's metrics bit for bit.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn check_offline(
    graph: GraphView<'_>,
    store: &Path,
    partition: &EdgePartition,
    metrics: &PartitionMetrics,
) -> Result<(), String> {
    if partition.num_edges() != graph.num_edges() {
        return Err(format!(
            "assignment covers {} edges, the graph has {}",
            partition.num_edges(),
            graph.num_edges()
        ));
    }
    let reader = PartitionStoreReader::open(store).map_err(|e| format!("store: {e}"))?;
    // `load_assignment` requires each edge of the graph in exactly one
    // segment, so equality here means every edge was assigned exactly once
    // and landed where the run put it.
    let stored = reader
        .load_assignment(graph)
        .map_err(|e| format!("stored assignment: {e}"))?;
    if stored.assignments() != partition.assignments() {
        let first = stored
            .assignments()
            .iter()
            .zip(partition.assignments())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!(
            "edge {first} is in partition {} in the store but {} in the run",
            stored.assignments()[first],
            partition.assignments()[first]
        ));
    }
    let recomputed = reader
        .recompute_metrics()
        .map_err(|e| format!("recomputing metrics: {e}"))?;
    for (what, stored, live) in [
        (
            "RF",
            recomputed.replication_factor,
            metrics.replication_factor,
        ),
        ("balance", recomputed.balance, metrics.balance),
    ] {
        if stored.to_bits() != live.to_bits() {
            return Err(format!(
                "{what} from the store is {stored}, the run said {live}"
            ));
        }
    }
    Ok(())
}

/// Replica sets of every vertex under a partition, as bitmasks. Online
/// placements only add replicas, so every later lookup must return a
/// superset of these.
#[derive(Clone, Debug)]
pub struct ReplicaMasks {
    masks: Vec<u64>,
    num_partitions: usize,
}

impl ReplicaMasks {
    /// Precomputes the masks of `partition` over `graph`.
    ///
    /// # Errors
    ///
    /// When the partition count exceeds the 64 a mask can hold.
    pub fn of(graph: GraphView<'_>, partition: &EdgePartition) -> Result<ReplicaMasks, String> {
        let num_partitions = partition.num_partitions();
        if num_partitions > 64 {
            return Err(format!("{num_partitions} partitions exceed a 64-bit mask"));
        }
        let mut masks = vec![0u64; graph.num_vertices()];
        for (eid, edge) in graph.edge_iter().enumerate() {
            let bit = 1u64 << partition.partition_of(eid as u32);
            let (u, v) = edge.endpoints();
            masks[u as usize] |= bit;
            masks[v as usize] |= bit;
        }
        Ok(ReplicaMasks {
            masks,
            num_partitions,
        })
    }

    /// Checks one `VertexLookup` reply for `vertex`: replicas sorted, in
    /// range, a superset of the precomputed set, and the master among them.
    ///
    /// # Errors
    ///
    /// A description of what is wrong with the reply.
    pub fn check_lookup(&self, vertex: u32, reply: &Response) -> Result<(), String> {
        let Response::VertexInfo { master, replicas } = reply else {
            return Err(format!("lookup of {vertex} answered {reply:?}"));
        };
        let expected = self.masks.get(vertex as usize).copied().unwrap_or(0);
        if replicas.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("replicas of {vertex} not sorted: {replicas:?}"));
        }
        let mut got = 0u64;
        for &pid in replicas {
            if pid as usize >= self.num_partitions {
                return Err(format!("replica {pid} of {vertex} is out of range"));
            }
            got |= 1 << pid;
        }
        if expected & !got != 0 {
            return Err(format!(
                "replicas of {vertex} are {replicas:?}, missing partitions of mask {:#x}",
                expected & !got
            ));
        }
        match master {
            Some(m) if *m < 64 && got & (1u64 << m) != 0 => Ok(()),
            None if got == 0 => Ok(()),
            _ => Err(format!(
                "master {master:?} of {vertex} is not among its replicas {replicas:?}"
            )),
        }
    }
}

/// Serve gate, after the final `Flush`: the store reopens with an empty
/// WAL and holds the base edges plus every fresh placement.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn check_flushed_store(dir: &Path, base_edges: usize, fresh: u64) -> Result<(), String> {
    let wal = read_wal(&dir.join(WAL_NAME)).map_err(|e| format!("wal: {e}"))?;
    if !wal.records.is_empty() {
        return Err(format!(
            "{} WAL records left after the final flush",
            wal.records.len()
        ));
    }
    let reader = PartitionStoreReader::open(dir).map_err(|e| format!("reopen: {e}"))?;
    let stored = reader.manifest().num_edges;
    if stored as u64 != base_edges as u64 + fresh {
        return Err(format!(
            "flushed store holds {stored} edges, expected {base_edges} + {fresh} placed"
        ));
    }
    Ok(())
}
