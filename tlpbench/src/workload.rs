//! The three workloads and their run procedures.
//!
//! The two offline workloads run the offline user path on their own
//! input: parse and convert (set-up), then partition into a store. The
//! serving workload partitions its store once, untimed, when its input is
//! generated; a run opens that store in the server (set-up) and drives a
//! closed-loop mixed load against it.

use std::path::{Path, PathBuf};
use std::time::Duration;

use tlp_core::PartitionMetrics;
use tlp_graph::generators::chung_lu;
use tlp_obs::{span, span_with, Event, Field};
use tlp_serve::{Request, Response, ServeClient, ServeStats};
use tlp_store::{LoadedGraph, PartitionStoreReader};

use crate::gate::{check_flushed_store, check_offline, ReplicaMasks};
use crate::measure::{
    dir_bytes, file_bytes, interquartile_mean, median, peak_rss_mib, percentile_us,
};
use crate::offline::{partition_rep, setup_rep, stream_pass, PartitionRep, SetupRep};
use crate::report::{Outcome, PER_LAYER};
use crate::serve::{
    copy_store, load_gate_errors, open_and_bind, open_service, replay_direct, run_load,
    LoadOutcome, Session, CACHE_CAPACITY, MIN_SAMPLES,
};
use crate::trace::Trace;

/// Fewest set-up passes (offline) or server opens (serving) in one run;
/// set-up time is their median.
const SETUP_REPS: usize = 7;
/// Set-up repeats until it has taken this many seconds in all, so that a
/// quick set-up is sampled over a stretch of the host's load, not one
/// moment of it.
const SETUP_MIN_S: f64 = 3.0;
/// Most set-up passes or server opens in one run.
const MAX_SETUP_REPS: usize = 64;
/// Most partitioning passes in one run.
const MAX_PARTITION_REPS: usize = 64;
/// Most requests the direct `handle` pass replays.
const DIRECT_REPLAY_CAP: u64 = 50_000;
/// Power-law exponent of the generated graphs.
const GAMMA: f64 = 2.2;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-trial, single-thread TLP at p = 32 on 400k-edge graphs.
    TlpPowerlaw,
    /// Out-of-core HDRF at p = 16 on a 2M-edge graph.
    HdrfStream,
    /// Mixed serving on a 1M-edge, p = 16 HDRF store.
    ServeMixed,
}

/// Which user path a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Set-up, then time-budgeted partitioning passes.
    Offline,
    /// Server opens, then a time-budgeted closed-loop load.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TlpPowerlaw,
        Workload::HdrfStream,
        Workload::ServeMixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TlpPowerlaw => "tlp-powerlaw",
            Workload::HdrfStream => "hdrf-stream",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The user path the workload runs.
    pub fn kind(self) -> Kind {
        match self {
            Workload::TlpPowerlaw | Workload::HdrfStream => Kind::Offline,
            Workload::ServeMixed => Kind::Serve,
        }
    }

    /// The workload's full-size parameters.
    pub fn params(self) -> Params {
        match self {
            Workload::TlpPowerlaw => Params {
                workload: self,
                vertices: 120_000,
                edges: 400_000,
                graphs: 3,
                algorithm: "tlp",
                partitions: 32,
                streamed: false,
                stream_budget: 16_384,
            },
            Workload::HdrfStream => Params {
                workload: self,
                vertices: 400_000,
                edges: 2_000_000,
                graphs: 1,
                algorithm: "hdrf",
                partitions: 16,
                streamed: true,
                stream_budget: 16_384,
            },
            Workload::ServeMixed => Params {
                workload: self,
                vertices: 250_000,
                edges: 1_000_000,
                graphs: 1,
                algorithm: "hdrf",
                partitions: 16,
                streamed: true,
                stream_budget: 16_384,
            },
        }
    }
}

/// Inputs and knobs of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Which workload these are.
    pub workload: Workload,
    /// Vertices of the generated Chung–Lu graph.
    pub vertices: usize,
    /// Edges drawn for the generated graph.
    pub edges: usize,
    /// Graphs drawn from the seed. TLP's work depends on the graph's
    /// structure (over ten seeds, one graph in five took 25% longer), so
    /// its workload cycles its passes over three graphs; HDRF's work is
    /// linear in the edges and needs one.
    pub graphs: usize,
    /// Registry name of the partitioner.
    pub algorithm: &'static str,
    /// Partition count.
    pub partitions: usize,
    /// Stream edges off the `.tlpg` file instead of the opened CSR.
    pub streamed: bool,
    /// Edge budget of streamed passes.
    pub stream_budget: usize,
}

impl Params {
    /// The same workload with `1/factor` of the vertices and edges, for
    /// quick self-tests.
    pub fn downsized(self, factor: usize) -> Params {
        Params {
            vertices: self.vertices / factor,
            edges: self.edges / factor,
            stream_budget: (self.stream_budget / factor).max(64),
            ..self
        }
    }
}

/// File layout of one run's working directory. The serving workload
/// serves graph 0's store.
struct Paths {
    text: Vec<PathBuf>,
    tlpg: Vec<PathBuf>,
    store: Vec<PathBuf>,
    serve: PathBuf,
    direct: PathBuf,
}

impl Paths {
    fn under(work: &Path, graphs: usize) -> Paths {
        Paths {
            text: (0..graphs).map(|g| input_path(work, g)).collect(),
            tlpg: (0..graphs)
                .map(|g| work.join(format!("graph-{g}.tlpg")))
                .collect(),
            store: (0..graphs)
                .map(|g| work.join(format!("store-{g}")))
                .collect(),
            serve: work.join("serve-store"),
            direct: work.join("direct-store"),
        }
    }
}

/// Where [`generate`] writes graph `g` of a workload's input inside `work`.
pub fn input_path(work: &Path, g: usize) -> PathBuf {
    work.join(format!("graph-{g}.txt"))
}

/// Generates the workload's input from `seed` in `work`: γ = 2.2 Chung–Lu
/// graphs written as text edge lists to [`input_path`] (graph 0 is drawn
/// with `seed` itself, graph `g` with `seed` mixed with `g`, so nearby
/// seeds share no graph). For the serving workload it also converts graph
/// 0 and partitions it into the store that runs serve, and checks that
/// store with the offline gate.
///
/// # Errors
///
/// Write failures, and a served store that fails the offline gate.
pub fn generate(params: &Params, seed: u64, work: &Path) -> Result<(), String> {
    for g in 0..params.graphs {
        let graph_seed = seed ^ (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let graph = chung_lu(params.vertices, params.edges, GAMMA, graph_seed);
        let path = input_path(work, g);
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        tlp_graph::io::write_edge_list(&graph, &mut out)
            .map_err(|e| format!("writing input: {e}"))?;
        std::io::Write::flush(&mut out).map_err(|e| format!("writing input: {e}"))?;
        drop(out);
        crate::serve::sync_path(&path)?;
    }
    if params.workload.kind() == Kind::Serve {
        let paths = Paths::under(work, 1);
        setup_rep(&paths.text[0], &paths.tlpg[0])?;
        let registry = tlp_pipeline::builtin_registry();
        let rep = partition_rep(params, &registry, seed, &paths.tlpg[0], &paths.store[0])?;
        check_pass(&rep, &paths.tlpg[0], &paths.store[0])
            .map_err(|e| format!("correctness gate FAILED on the served store: {e}"))?;
    }
    Ok(())
}

/// The offline gate on one partitioning pass: the metrics the benchmark
/// computed equal the run's, and the store holds the run's assignment with
/// the run's RF and balance.
fn check_pass(rep: &PartitionRep, tlpg: &Path, store: &Path) -> Result<(), String> {
    let _span = span("gate");
    if rep.metrics != rep.artifact.metrics {
        return Err("PartitionMetrics::compute disagrees with the run's metrics".into());
    }
    let graph = LoadedGraph::open(tlpg).map_err(|e| format!("open: {e}"))?;
    check_offline(
        graph.view(),
        store,
        &rep.artifact.partition,
        &rep.artifact.metrics,
    )
}

/// True while set-up should repeat, after `secs` seconds in `reps` passes.
fn more_setup(reps: usize, secs: f64) -> bool {
    reps < MAX_SETUP_REPS && (reps < SETUP_REPS || secs < SETUP_MIN_S)
}

/// Parses every input graph and writes it as `.tlpg`, cycling over the
/// graphs, until each had a pass and [`more_setup`] is satisfied.
fn setup_phase(params: &Params, paths: &Paths) -> Result<Vec<SetupRep>, String> {
    let mut setups: Vec<SetupRep> = Vec::new();
    let mut secs = 0.0;
    while setups.len() < params.graphs || more_setup(setups.len(), secs) {
        let g = setups.len() % params.graphs;
        let rep = setup_rep(&paths.text[g], &paths.tlpg[g])?;
        secs += rep.parse_s + rep.write_s;
        setups.push(rep);
    }
    Ok(setups)
}

/// The partitioning passes of one run.
#[derive(Default)]
struct PartitionPhase {
    /// Seconds of each pass, open to committed store.
    secs: Vec<f64>,
    /// `RunArtifact.seconds` of each pass's registry run.
    run_secs: Vec<f64>,
    /// RF and balance of each graph, from its first pass.
    quality: Vec<(f64, f64)>,
    /// `RunArtifact.peak_stream_buffer` of the last pass.
    peak_buffer_edges: usize,
    gate_errors: Vec<String>,
}

/// Runs partitioning passes, cycling over the workload's graphs, until
/// every graph had one and `budget_s` has elapsed. Each graph's first pass
/// goes through the offline gate, and each later pass must give the same
/// RF and balance, bit for bit: the passes are deterministic, and a
/// graph's quality counts once however many passes fit in the budget.
fn partition_phase(
    params: &Params,
    seed: u64,
    budget_s: f64,
    paths: &Paths,
) -> Result<PartitionPhase, String> {
    let registry = tlp_pipeline::builtin_registry();
    let mut phase = PartitionPhase::default();
    while phase.secs.len() < MAX_PARTITION_REPS
        && (phase.secs.len() < params.graphs || phase.secs.iter().sum::<f64>() < budget_s)
    {
        let g = phase.secs.len() % params.graphs;
        let rep = partition_rep(params, &registry, seed, &paths.tlpg[g], &paths.store[g])?;
        phase.secs.push(rep.seconds);
        phase.run_secs.push(rep.artifact.seconds);
        phase.peak_buffer_edges = rep.artifact.peak_stream_buffer.unwrap_or(0);
        let (rf, balance) = (rep.artifact.rf(), rep.artifact.balance());
        match phase.quality.get(g) {
            None => {
                if let Err(e) = check_pass(&rep, &paths.tlpg[g], &paths.store[g]) {
                    phase.gate_errors.push(format!("graph {g}: {e}"));
                }
                phase.quality.push((rf, balance));
            }
            Some(&(first_rf, first_balance)) => {
                if rf.to_bits() != first_rf.to_bits()
                    || balance.to_bits() != first_balance.to_bits()
                {
                    phase.gate_errors.push(format!(
                        "graph {g}: pass {} gave RF {rf} and balance {balance}, \
                         its first pass {first_rf} and {first_balance}",
                        phase.secs.len()
                    ));
                }
            }
        }
    }
    Ok(phase)
}

/// What one offline run measured.
struct OfflinePass {
    setups: Vec<SetupRep>,
    partitions: PartitionPhase,
    /// `(milliseconds, chunks)` of the drained stream pass, traced only.
    stream: Option<(f64, u64)>,
    peak_rss_mib: f64,
}

fn offline_pass(
    params: &Params,
    seed: u64,
    seconds: f64,
    traced: bool,
    paths: &Paths,
) -> Result<OfflinePass, String> {
    let setups = setup_phase(params, paths)?;
    let partitions = partition_phase(params, seed, seconds, paths)?;
    let stream = if traced {
        Some(stream_pass(&paths.tlpg[0], params.stream_budget)?)
    } else {
        None
    };
    Ok(OfflinePass {
        setups,
        partitions,
        stream,
        peak_rss_mib: peak_rss_mib()?,
    })
}

/// What one serving run measured.
struct ServePass {
    /// Open-plus-bind seconds per server open.
    opens: Vec<f64>,
    /// The served store's metrics, recomputed from the store.
    metrics: PartitionMetrics,
    load: LoadOutcome,
    stats: ServeStats,
    wal_depth: u64,
    peak_rss_mib: f64,
    /// `(read, place)` latencies of the direct `handle` pass, traced only.
    direct: Option<(Vec<u64>, Vec<u64>)>,
    gate_errors: Vec<String>,
}

fn serve_pass(
    params: &Params,
    seed: u64,
    seconds: f64,
    traced: bool,
    paths: &Paths,
) -> Result<ServePass, String> {
    let (tlpg, store) = (&paths.tlpg[0], &paths.store[0]);
    let mut gate_errors = Vec::new();
    // Client-side knowledge of the served state: the base graph (to draw
    // fresh pairs) and every vertex's replica set before the run.
    let graph = {
        let _span = span("store.open");
        LoadedGraph::open(tlpg).map_err(|e| format!("open: {e}"))?
    };
    let (masks, metrics) = {
        let _span = span("gate");
        let partition = PartitionStoreReader::open(store)
            .and_then(|reader| reader.load_assignment(graph.view()))
            .map_err(|e| format!("served store: {e}"))?;
        let metrics = PartitionMetrics::compute(graph.view(), &partition);
        if let Err(e) = check_offline(graph.view(), store, &partition, &metrics) {
            gate_errors.push(format!("served store: {e}"));
        }
        (ReplicaMasks::of(graph.view(), &partition)?, metrics)
    };

    let mut opens: Vec<f64> = Vec::new();
    let server = loop {
        copy_store(store, &paths.serve)?;
        let (open_s, handle) = open_and_bind(&paths.serve, tlpg)?;
        opens.push(open_s);
        if !more_setup(opens.len(), opens.iter().sum()) {
            break handle;
        }
        handle.shutdown();
    };
    // Read before the load: what the load adds (placement maps, WAL) grows
    // with its throughput, which would tie this figure to ops_s.
    let peak_rss_mib = peak_rss_mib()?;
    let addr = server.addr().to_string();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let load = {
        let _span = span("serve.load");
        run_load(
            &addr,
            graph.view(),
            &masks,
            params.partitions as u32,
            threads,
            seed,
            Duration::from_secs_f64(seconds),
        )
    };
    let stats = server.stats();
    let mut control = ServeClient::connect(&addr, Duration::from_secs(30))
        .map_err(|e| format!("control connection: {e}"))?;
    let wal_depth = match control.request(&Request::Health) {
        Ok(Response::HealthReport(health)) => health.wal_depth,
        other => return Err(format!("health: {other:?}")),
    };
    let flushed = match control.request(&Request::Flush) {
        Ok(Response::Flushed { edges }) => edges,
        other => return Err(format!("flush: {other:?}")),
    };
    drop(control);
    server.shutdown();

    gate_errors.extend(load_gate_errors(&load));
    if stats.protocol_errors > 0 {
        gate_errors.push(format!("{} server protocol errors", stats.protocol_errors));
    }
    if stats.placements != load.fresh_placed || flushed != load.fresh_placed {
        gate_errors.push(format!(
            "server placed {} and flushed {}, clients saw {} fresh placements",
            stats.placements, flushed, load.fresh_placed
        ));
    }
    if let Err(e) = check_flushed_store(&paths.serve, graph.view().num_edges(), load.fresh_placed) {
        gate_errors.push(e);
    }
    for (kind, samples) in [("read", load.reads()), ("place", load.places())] {
        if samples < MIN_SAMPLES {
            gate_errors.push(format!("{samples} {kind} samples, p99 needs {MIN_SAMPLES}"));
        }
    }

    let direct = if traced {
        copy_store(store, &paths.direct)?;
        let service = open_service(&paths.direct, tlpg)?;
        let _span = span("serve.handle");
        Some(replay_direct(
            &service,
            params.partitions as u32,
            seed,
            &load.ops_per_thread,
            DIRECT_REPLAY_CAP,
        ))
    } else {
        None
    };
    Ok(ServePass {
        opens,
        metrics,
        load,
        stats,
        wal_depth,
        peak_rss_mib,
        direct,
        gate_errors,
    })
}

/// Runs `params` with the input already generated in `work` by
/// [`generate`].
///
/// Untraced, the outcome carries the end-to-end metrics. Traced, it runs
/// the procedure under a recording observer inside one `workload` span
/// and carries the per-layer metrics, with the self-time table in its
/// notes; an offline workload first measures the tracing overhead.
///
/// # Errors
///
/// Any failure that stops the run before its gate.
pub fn run(
    params: &Params,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let paths = Paths::under(work, params.graphs);
    let kind = params.workload.kind();
    let mut outcome = Outcome::default();
    if !traced {
        match kind {
            Kind::Offline => {
                let pass = offline_pass(params, seed, seconds, false, &paths)?;
                fill_offline(&mut outcome, &pass);
            }
            Kind::Serve => {
                let pass = serve_pass(params, seed, seconds, false, &paths)?;
                fill_serve(&mut outcome, &pass);
            }
        }
        outcome.notes.insert(0, input_note(params, seed, &paths)?);
        return Ok(outcome);
    }
    let trace = match kind {
        Kind::Offline => {
            setup_phase(params, &paths)?;
            let overhead = tracing_overhead(params, seed, seconds, &paths)?;
            let (pass, events) = recorded(params, seed, || {
                offline_pass(params, seed, seconds, true, &paths)
            });
            let pass = pass?;
            let trace = Trace::fold(&events);
            fill_offline(&mut outcome, &pass);
            fill_offline_layers(&mut outcome, &pass, &trace, &paths)?;
            outcome.metrics.insert("obs.overhead_frac", overhead);
            trace
        }
        Kind::Serve => {
            let (pass, events) = recorded(params, seed, || {
                serve_pass(params, seed, seconds, true, &paths)
            });
            let pass = pass?;
            let trace = Trace::fold(&events);
            fill_serve(&mut outcome, &pass);
            fill_serve_layers(&mut outcome, &pass, &trace, &paths)?;
            trace
        }
    };
    // A layer that the workload's path does not call reads 0.
    for def in PER_LAYER {
        outcome.metrics.entry(def.name).or_insert(0.0);
    }
    outcome.notes.insert(0, input_note(params, seed, &paths)?);
    outcome.notes.push(format!(
        "self time per span:\n{}",
        trace.render_self_times()
    ));
    outcome.trace = Some(trace);
    Ok(outcome)
}

/// Traced partitioning time over untraced, minus 1: the median over pairs
/// of back-to-back passes on one graph, one of them under a recording
/// observer, until every graph had a pair and `budget_s` has elapsed.
/// The two passes of a pair run close in time, so a drift in the host's
/// speed cancels out, and every other pair runs the traced pass first.
fn tracing_overhead(
    params: &Params,
    seed: u64,
    budget_s: f64,
    paths: &Paths,
) -> Result<f64, String> {
    let registry = tlp_pipeline::builtin_registry();
    let rep = |g: usize| partition_rep(params, &registry, seed, &paths.tlpg[g], &paths.store[g]);
    let traced_rep = |g: usize| tlp_obs::with_recording(|| rep(g)).0;
    let (mut ratios, mut spent) = (Vec::new(), 0.0);
    while ratios.len() < MAX_PARTITION_REPS && (ratios.len() < params.graphs || spent < budget_s) {
        let g = ratios.len() % params.graphs;
        let (plain, traced) = if ratios.len() % 2 == 0 {
            (rep(g)?, traced_rep(g)?)
        } else {
            let traced = traced_rep(g)?;
            (rep(g)?, traced)
        };
        spent += plain.seconds + traced.seconds;
        ratios.push(traced.seconds / plain.seconds);
    }
    Ok(median(&ratios) - 1.0)
}

/// Runs `f` under a recording observer, inside one `workload` span that
/// holds every other span of the run.
fn recorded<T>(params: &Params, seed: u64, f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    tlp_obs::with_recording(|| {
        let _root = span_with(
            "workload",
            vec![
                ("name".into(), Field::Str(params.workload.name().into())),
                ("run".into(), Field::U64(seed)),
            ],
        );
        f()
    })
}

/// The record of the inputs.
fn input_note(params: &Params, seed: u64, paths: &Paths) -> Result<String, String> {
    Ok(format!(
        "inputs: workload {} seed {seed}: {} chung-lu gamma {GAMMA} graph(s) drawn with {} \
         vertices / {} edges, .tlpg of graph 0 {} bytes; {} p={}{}",
        params.workload.name(),
        params.graphs,
        params.vertices,
        params.edges,
        file_bytes(&paths.tlpg[0])?,
        params.algorithm,
        params.partitions,
        if params.streamed {
            format!(", streamed with a {}-edge budget", params.stream_budget)
        } else {
            String::new()
        },
    ))
}

fn fill_offline(outcome: &mut Outcome, pass: &OfflinePass) {
    let phase = &pass.partitions;
    outcome
        .gate_errors
        .extend(phase.gate_errors.iter().cloned());
    outcome.attempted = (pass.setups.len() + phase.secs.len()) as u64;
    let parse: Vec<f64> = pass.setups.iter().map(|s| s.parse_s).collect();
    let write: Vec<f64> = pass.setups.iter().map(|s| s.write_s).collect();
    let setup = pass.setups[0];
    outcome.notes.push(format!(
        "samples: graph 0 parsed to {} vertices / {} edges; {} set-up passes (median parse \
         {:.4} s, write {:.4} s), {} partitioning passes ({:.4?} s)",
        setup.vertices,
        setup.edges,
        pass.setups.len(),
        median(&parse),
        median(&write),
        phase.secs.len(),
        phase.secs,
    ));
    let setup: Vec<f64> = pass.setups.iter().map(|s| s.parse_s + s.write_s).collect();
    let rfs: Vec<f64> = phase.quality.iter().map(|q| q.0).collect();
    let balances: Vec<f64> = phase.quality.iter().map(|q| q.1).collect();
    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&setup));
    m.insert("partition_s", median(&phase.secs));
    m.insert("rf", median(&rfs));
    m.insert("balance", median(&balances));
    m.insert("peak_rss_mb", pass.peak_rss_mib);
}

fn fill_serve(outcome: &mut Outcome, pass: &ServePass) {
    let load = &pass.load;
    outcome.gate_errors.extend(pass.gate_errors.iter().cloned());
    outcome.attempted = pass.opens.len() as u64 + load.attempted;
    outcome.failed = load.failed;
    outcome.notes.push(format!(
        "serving: {} connections (one per core), vertex cache {CACHE_CAPACITY} entries vs {} \
         distinct keys drawn; samples: {} server opens (open + bind {:.4?} s), {} \
         lookups, {} neighbor queries, {} PlaceEdge ({} fresh) in {} sessions, {:.2} s",
        load.ops_per_thread.len(),
        load.distinct_keys,
        pass.opens.len(),
        pass.opens,
        load.lookups,
        load.reads() as u64 - load.lookups,
        load.places_sent,
        load.fresh_placed,
        load.sessions.len(),
        load.elapsed_s,
    ));
    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&pass.opens));
    m.insert("rf", pass.metrics.replication_factor);
    m.insert("balance", pass.metrics.balance);
    m.insert("peak_rss_mb", pass.peak_rss_mib);
    let rates: Vec<f64> = load
        .sessions
        .iter()
        .map(|s| (s.reads_ns.len() + s.places_ns.len()) as f64 / s.elapsed_s)
        .collect();
    m.insert("ops_s", interquartile_mean(&rates));
    let reads: fn(&Session) -> &[u64] = |s| &s.reads_ns;
    let places: fn(&Session) -> &[u64] = |s| &s.places_ns;
    m.insert("lookup_p50_us", session_percentile(load, reads, 0.50));
    m.insert("lookup_p99_us", session_percentile(load, reads, 0.99));
    m.insert("place_p50_us", session_percentile(load, places, 0.50));
    m.insert("place_p99_us", session_percentile(load, places, 0.99));
}

/// Interquartile mean over the load's sessions of each session's
/// `q`-percentile of the latencies `pick` selects, in microseconds.
/// Sessions with no such latency are skipped; NaN when none has one.
fn session_percentile(load: &LoadOutcome, pick: fn(&Session) -> &[u64], q: f64) -> f64 {
    let values: Vec<f64> = load
        .sessions
        .iter()
        .map(pick)
        .filter(|latencies| !latencies.is_empty())
        .map(|latencies| percentile_us(&mut latencies.to_vec(), q))
        .collect();
    if values.is_empty() {
        f64::NAN
    } else {
        interquartile_mean(&values)
    }
}

/// `a / (a + b)`, or 0 when both are 0.
fn share(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

/// Median duration of the spans named `name`, in milliseconds; NaN (which
/// fails the result line) when the run has none.
fn span_median(trace: &Trace, name: &str) -> f64 {
    let durations = trace.durations_ms(name);
    if durations.is_empty() {
        f64::NAN
    } else {
        median(&durations)
    }
}

fn fill_offline_layers(
    outcome: &mut Outcome,
    pass: &OfflinePass,
    trace: &Trace,
    paths: &Paths,
) -> Result<(), String> {
    let phase = &pass.partitions;
    let reps = trace.count("pipeline.run").max(1) as f64;
    let per_rep = |counter: &str| trace.counter_under(counter, "pipeline.run") as f64 / reps;
    let rescored = trace.counter_under("scoring.rescored", "pipeline.run");
    let skipped = trace.counter_under("scoring.skipped", "pipeline.run");
    let cache_hits = trace.counter_under("kernel.cache_hit", "pipeline.run");
    let counts = trace.counter_under("kernel.count.", "pipeline.run");
    let (stream_ms, chunks) = pass.stream.unwrap_or((f64::NAN, 0));
    let m = &mut outcome.metrics;
    m.insert("graph.parse_ms", span_median(trace, "graph.parse"));
    m.insert(
        "store.write_graph_ms",
        span_median(trace, "store.write_graph"),
    );
    m.insert("store.graph_bytes", file_bytes(&paths.tlpg[0])? as f64);
    m.insert("store.open_ms", span_median(trace, "store.open"));
    m.insert("store.stream_pass_ms", stream_ms);
    m.insert("store.chunks", chunks as f64);
    m.insert(
        "store.write_partition_ms",
        span_median(trace, "store.write_partition"),
    );
    m.insert("store.partition_bytes", dir_bytes(&paths.store[0])? as f64);
    m.insert(
        "store.fsyncs",
        trace.counter_under("store.fsync", "store.write_partition") as f64 / reps,
    );
    m.insert("pipeline.run_ms", median(&phase.run_secs) * 1e3);
    m.insert("core.metrics_ms", span_median(trace, "core.metrics"));
    m.insert(
        "core.round_ms",
        trace.durations_ms("round").iter().sum::<f64>() / reps,
    );
    m.insert("core.rounds", trace.count("round") as f64 / reps);
    m.insert("core.selects", per_rep("round.select"));
    m.insert("core.rescored", rescored as f64 / reps);
    m.insert("core.kernel_probes", per_rep("kernel.probes"));
    m.insert("core.kernel_counts", counts as f64 / reps);
    m.insert("core.rescore_skip_ratio", share(skipped, rescored));
    m.insert("core.kernel_reuse_ratio", share(cache_hits, counts));
    m.insert(
        "baselines.peak_buffer_edges",
        phase.peak_buffer_edges as f64,
    );
    Ok(())
}

fn fill_serve_layers(
    outcome: &mut Outcome,
    pass: &ServePass,
    trace: &Trace,
    paths: &Paths,
) -> Result<(), String> {
    let (mut handle_reads, mut handle_places) = pass.direct.clone().unwrap_or_default();
    if handle_reads.is_empty() || handle_places.is_empty() {
        return Err("the direct handle pass collected no samples".into());
    }
    let handle_lookup_p50 = percentile_us(&mut handle_reads, 0.5);
    let handle_place_p50 = percentile_us(&mut handle_places, 0.5);
    let lookup_p50 = outcome.metrics["lookup_p50_us"];
    let stats = &pass.stats;
    let load = &pass.load;
    let m = &mut outcome.metrics;
    m.insert("store.graph_bytes", file_bytes(&paths.tlpg[0])? as f64);
    m.insert("store.open_ms", span_median(trace, "store.open"));
    m.insert("store.partition_bytes", dir_bytes(&paths.store[0])? as f64);
    m.insert("serve.open_ms", span_median(trace, "serve.open"));
    m.insert("serve.handle_lookup_p50_us", handle_lookup_p50);
    m.insert("serve.handle_place_p50_us", handle_place_p50);
    m.insert("serve.transport_p50_us", lookup_p50 - handle_lookup_p50);
    m.insert(
        "serve.cache_hit_ratio",
        share(stats.cache_hits, stats.cache_misses),
    );
    m.insert("serve.cache_evictions", stats.cache_evictions as f64);
    m.insert("serve.wal_appends", pass.wal_depth as f64);
    m.insert(
        "serve.fresh_place_ratio",
        share(load.fresh_placed, load.places_sent - load.fresh_placed),
    );
    m.insert("serve.overloads", stats.overloads as f64);
    m.insert("serve.protocol_errors", stats.protocol_errors as f64);
    m.insert("serve.client_retries", load.retries as f64);
    Ok(())
}
