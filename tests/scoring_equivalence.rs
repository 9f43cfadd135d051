//! Scan-vs-incremental differential suite.
//!
//! The engine's fast paths — the lazy-heap selectors, the dirty-marking
//! `Incremental` strategy, and Stage I scores read from the static
//! per-edge triangle-support index — are all claimed to be
//! *value-neutral*: they must change cost only, never a selection. These
//! tests pin that claim by running the reference `LinearScan` strategy
//! (Algorithm 1 as written, with from-scratch frontier scans) against both
//! indexed strategies across every generator family, both reseed policies,
//! and p ∈ {4, 8, 32}, asserting bit-identical assignments; the support
//! index is additionally checked edge by edge against the intersection
//! oracle.

use tlp::core::{
    EdgePartition, EdgePartitioner, ReseedPolicy, SelectionStrategy, TlpConfig,
    TwoStageLocalPartitioner,
};
use tlp::graph::generators::{
    barabasi_albert, chung_lu, erdos_renyi, genealogy, power_law_community, rmat, RmatProbabilities,
};
use tlp::graph::intersect::{edge_support, sorted_intersection_size};
use tlp::graph::CsrGraph;

/// One representative per generator family, small enough that the full
/// strategy × reseed × p matrix stays fast.
fn generator_zoo() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("chung_lu", chung_lu(300, 1500, 2.1, 5)),
        ("erdos_renyi", erdos_renyi(200, 600, 6)),
        ("genealogy", genealogy(400, 650, 7)),
        ("barabasi_albert", barabasi_albert(250, 3, 8)),
        ("rmat", rmat(8, 900, RmatProbabilities::default(), 9)),
        (
            "power_law_community",
            power_law_community(300, 1200, 2.1, 6, 0.25, 10),
        ),
    ]
}

fn run_with(
    graph: &CsrGraph,
    p: usize,
    seed: u64,
    reseed: ReseedPolicy,
    strategy: SelectionStrategy,
) -> EdgePartition {
    let config = TlpConfig::new()
        .seed(seed)
        .reseed_policy(reseed)
        .selection_strategy(strategy);
    TwoStageLocalPartitioner::new(config)
        .partition(graph, p)
        .expect("partitioning failed")
}

/// The full differential matrix: every generator family, both reseed
/// policies, p ∈ {4, 8, 32}, both indexed strategies against the scan.
#[test]
fn indexed_strategies_are_bit_identical_to_scan() {
    for (name, graph) in generator_zoo() {
        for reseed in [ReseedPolicy::Reseed, ReseedPolicy::Break] {
            for p in [4, 8, 32] {
                for seed in [0u64, 1] {
                    let scan = run_with(&graph, p, seed, reseed, SelectionStrategy::LinearScan);
                    for strategy in [
                        SelectionStrategy::IndexedHeap,
                        SelectionStrategy::Incremental,
                    ] {
                        let fast = run_with(&graph, p, seed, reseed, strategy);
                        assert_eq!(
                            scan, fast,
                            "{name}: {strategy:?} diverged from LinearScan \
                             (reseed {reseed:?}, p={p}, seed={seed})"
                        );
                    }
                }
            }
        }
    }
}

/// The support index equals `|N(u) ∩ N(w)|` — the numerator of every
/// Stage I closeness term — on every edge of every generator family.
#[test]
fn edge_support_matches_the_intersection_oracle() {
    for (name, graph) in generator_zoo() {
        let support = edge_support(&graph);
        assert_eq!(support.len(), graph.num_edges(), "{name}");
        for u in graph.vertices() {
            for (w, e) in graph.incident(u) {
                let expected = sorted_intersection_size(graph.neighbors(u), graph.neighbors(w));
                assert_eq!(
                    support[e as usize] as usize, expected,
                    "{name}: edge {e} = ({u}, {w})"
                );
            }
        }
    }
}

/// The per-round trace counters must show Stage I scoring work on a
/// non-trivial graph — and the counters must be identical across
/// strategies (scoring is shared engine state, independent of how the
/// argmax is located).
#[test]
fn trace_counters_show_pruned_and_cached_work() {
    let graph = chung_lu(400, 2400, 2.1, 4);
    let mut per_strategy = Vec::new();
    for strategy in [
        SelectionStrategy::LinearScan,
        SelectionStrategy::IndexedHeap,
        SelectionStrategy::Incremental,
    ] {
        let config = TlpConfig::new().seed(2).selection_strategy(strategy);
        let (_, trace) = TwoStageLocalPartitioner::new(config)
            .partition_with_trace(&graph, 4)
            .expect("partitioning failed");
        let rounds = trace.round_scoring().to_vec();
        assert!(!rounds.is_empty(), "no per-round scoring recorded");
        let rescored: u64 = rounds.iter().map(|r| r.rescored).sum();
        assert!(rescored > 0, "{strategy:?}: no terms were ever computed");
        per_strategy.push(rounds);
    }
    assert_eq!(per_strategy[0], per_strategy[1]);
    assert_eq!(per_strategy[0], per_strategy[2]);
}
