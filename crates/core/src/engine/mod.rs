//! The reusable local-expansion engine behind TLP, TLP_R, the single-stage
//! ablations, and the NE baseline (Algorithm 1 of the paper, generalized
//! over the vertex-selection policy).
//!
//! One partition is grown per round. The engine maintains:
//!
//! * a [`ResidualGraph`](tlp_graph::ResidualGraph) of not-yet-allocated
//!   edges (rounds consume edges);
//! * the member set of the current partition (stamped per round);
//! * the frontier `N(P_k)`: non-members with at least one residual edge
//!   into the partition, each carrying
//!   - `e_in`: residual edges into the partition (Stage II input), and
//!   - `mu1`: the running maximum of Eq. 7's closeness term (Stage I
//!     input), updated incrementally as members join;
//! * exact integer counts of internal and external edges (the modularity).
//!
//! What distinguishes the algorithms built on top is only *which frontier
//! vertex joins next* and *when edges are allocated*; both live in the
//! [`SelectionPolicy`] a caller passes to [`run`]:
//!
//! * [`StagedPolicy`] over a [`StageSwitch`] gives the TLP family
//!   (two-stage, TLP_R, single-stage ablations) with lazy admission;
//! * an eager-admission policy keyed on residual degree gives NE
//!   (implemented as `NePolicy` in the `tlp-baselines` crate).
//!
//! # Selection strategies
//!
//! Three implementations of "pick the optimal frontier vertex" exist for
//! the staged policies, chosen by [`SelectionStrategy`]; all compute the
//! identical argmax (ties included) and thus identical partitions:
//!
//! * **LinearScan** — scan the whole frontier per step, exactly as written
//!   in Algorithm 1 (`O(|N(P_k)|)` per step).
//! * **IndexedHeap** — a lazy max-heap over the Stage I key, plus one lazy
//!   min-heap on `e_ext` per `e_in` value for Stage II. The latter is sound
//!   because a frontier candidate's residual degree never changes while it
//!   waits (its edges are only consumed when it joins), so `e_in` grows
//!   monotonically, `e_ext = residual_degree - e_in` shrinks monotonically,
//!   and the Stage II objective is increasing in `e_in` / decreasing in
//!   `e_ext` — the bucket minimum is the only candidate of its `e_in` class
//!   that can win.
//! * **Incremental** — the same heaps, fed by dirty-marking: candidate
//!   state changes between two selections only mark the vertex, and every
//!   pending mark is flushed as one current-state entry at selection time.
//!   A hub touched by `d` edge events costs one heap entry instead of `d`
//!   stale ones. The pop-time validation is unchanged, so stale entries
//!   from earlier flushes are discarded exactly as under `IndexedHeap`.
//!
//! Independent of the strategy, Stage I scores (`mu1`) are maintained
//! incrementally by `Workspace::refresh_mu1`: when a member is admitted,
//! only frontier vertices adjacent to it are rescored. Each closeness term
//! `|N(u) ∩ N(w)| / |N(w)|` is `support(e) / deg(w)` for the edge
//! `e = (u, w)`, where the triangle support of every edge is computed once
//! per run by [`edge_support`](tlp_graph::intersect::edge_support) (lazy
//! admission only). The lookup yields the same integer as the
//! intersection, so every strategy still sees the exact Eq. 7 scores.
//!
//! All ties are broken by explicit deterministic keys, so results are
//! reproducible across runs and platforms under any strategy.
//!
//! [`SelectionStrategy`]: crate::SelectionStrategy

mod frontier;
mod policy;
mod round;
mod workspace;

pub use policy::{
    AdmissionMode, EdgeRatioSwitch, GrowthState, ModularitySwitch, Selection, SelectionPolicy,
    StageSwitch, StagedPolicy,
};
pub use round::{run, run_with_checkpoints, CheckpointSink};
pub use workspace::Workspace;

use crate::checkpoint::EngineCheckpoint;
use crate::config::TlpConfig;
use crate::partition::EdgePartition;
use crate::trace::Trace;
use crate::PartitionError;
use tlp_graph::GraphView;

/// Convenience: runs the staged (TLP-family) policy under `switch` with the
/// configured selection strategy.
pub(crate) fn run_staged<'g, S: StageSwitch>(
    graph: impl Into<GraphView<'g>>,
    num_partitions: usize,
    config: &TlpConfig,
    switch: S,
) -> Result<(EdgePartition, Option<Trace>), PartitionError> {
    let mut policy = StagedPolicy::new(switch, config.selection_strategy_value());
    run(graph, num_partitions, config, &mut policy)
}

/// [`run_staged`] with kill-and-resume support (see
/// [`run_with_checkpoints`]).
pub(crate) fn run_staged_with_checkpoints<'g, S: StageSwitch>(
    graph: impl Into<GraphView<'g>>,
    num_partitions: usize,
    config: &TlpConfig,
    switch: S,
    resume: Option<&EngineCheckpoint>,
    sink: Option<CheckpointSink<'_>>,
) -> Result<(EdgePartition, Option<Trace>), PartitionError> {
    let mut policy = StagedPolicy::new(switch, config.selection_strategy_value());
    run_with_checkpoints(graph, num_partitions, config, &mut policy, resume, sink)
}
