//! The online path: `open_store_with_graph` plus bind (set-up), then a
//! closed-loop mixed load over TCP, and the same request sequence straight
//! through `PartitionService::handle` for the per-layer split.
//!
//! The loop is closed because the callers it models are graph-engine
//! workers that wait for each reply. Reads and placements share the
//! service's state lock, which a fresh placement holds across its WAL
//! fsync, so the two request kinds slow each other down.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlp_graph::GraphView;
use tlp_obs::span;
use tlp_serve::{
    serve, AttemptError, ClientError, PartitionService, Request, Response, RetryPolicy,
    RetryingClient, ServerConfig, ServerHandle, ZipfSampler,
};

use crate::gate::ReplicaMasks;

/// Vertex-cache capacity: `tlp-serve`'s default `--cache`.
pub const CACHE_CAPACITY: usize = 4096;
/// Online placement heuristic, seeded from the served partition.
const PLACER: &str = "hdrf";
/// Share of requests that are reads.
const READ_RATIO: f64 = 0.9;
/// Zipf skew of read keys, as `tlp-loadgen` uses by default.
const ZIPF_SKEW: f64 = 1.1;
/// One read in this many is a partition-local neighbor query.
const NEIGHBOR_EVERY: u32 = 8;
/// Samples of each request kind a run must collect, so that p99 has ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 1000;
/// Client-side reply timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Copies the partition store in `from` into a fresh directory `to`, and
/// syncs the copy, so that its write-back does not compete with the WAL
/// fsyncs of the load that follows.
///
/// # Errors
///
/// I/O failures.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let fail = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(|e| fail(to, e))?;
    }
    std::fs::create_dir_all(to).map_err(|e| fail(to, e))?;
    for entry in std::fs::read_dir(from).map_err(|e| fail(from, e))? {
        let entry = entry.map_err(|e| fail(from, e))?;
        let target = to.join(entry.file_name());
        std::fs::copy(entry.path(), &target).map_err(|e| fail(&entry.path(), e))?;
        sync_path(&target)?;
    }
    sync_path(to)
}

/// Flushes a file or directory to stable storage.
///
/// # Errors
///
/// Open or fsync failures.
pub fn sync_path(path: &Path) -> Result<(), String> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("syncing {}: {e}", path.display()))
}

/// Opens the store in `dir` over the graph file `tlpg` with the default
/// vertex cache and the default WAL, which fsyncs before every ack.
///
/// # Errors
///
/// Open or WAL-replay failures.
pub fn open_service(dir: &Path, tlpg: &Path) -> Result<PartitionService, String> {
    let _span = span("serve.open");
    PartitionService::open_store_with_graph(dir, tlpg, PLACER, CACHE_CAPACITY)
        .map_err(|e| format!("open_store_with_graph: {e}"))
}

/// Opens and binds a server on an ephemeral loopback port: returns the
/// seconds for open plus bind, and the running server.
///
/// # Errors
///
/// Open or bind failures.
pub fn open_and_bind(dir: &Path, tlpg: &Path) -> Result<(f64, ServerHandle), String> {
    let start = Instant::now();
    let service = open_service(dir, tlpg)?;
    let handle = {
        let _span = span("serve.bind");
        serve(service, "127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))?
    };
    Ok((start.elapsed().as_secs_f64(), handle))
}

/// The request stream of one client thread: deterministic in
/// `(seed, thread)`, so the direct pass can replay it exactly.
struct RequestGen<'a> {
    rng: StdRng,
    zipf: &'a ZipfSampler,
    graph: GraphView<'a>,
    partitions: u32,
    thread: u32,
    threads: u32,
    placed: HashSet<(u32, u32)>,
}

impl<'a> RequestGen<'a> {
    fn new(
        zipf: &'a ZipfSampler,
        graph: GraphView<'a>,
        partitions: u32,
        seed: u64,
        thread: u32,
        threads: u32,
    ) -> Self {
        RequestGen {
            rng: StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15 * (u64::from(thread) + 1))),
            zipf,
            graph,
            partitions,
            thread,
            threads,
            placed: HashSet::new(),
        }
    }

    fn next(&mut self) -> Request {
        if self.rng.gen_bool(READ_RATIO) {
            let vertex = self.zipf.sample(&mut self.rng);
            if self.rng.gen_range(0..NEIGHBOR_EVERY) == 0 {
                let partition = self.rng.gen_range(0..self.partitions);
                Request::Neighbors { vertex, partition }
            } else {
                Request::VertexLookup { vertex }
            }
        } else {
            let (u, v) = self.fresh_pair();
            Request::PlaceEdge { u, v }
        }
    }

    /// A pair that is neither a base-graph edge nor placed before in this
    /// run. Each thread owns the pairs whose smaller endpoint is congruent
    /// to its index, so no two threads place the same edge.
    fn fresh_pair(&mut self) -> (u32, u32) {
        let n = self.graph.num_vertices() as u32;
        loop {
            let u = self.rng.gen_range(0..n);
            let v = self.rng.gen_range(0..n);
            let (a, b) = (u.min(v), u.max(v));
            if a == b || a % self.threads != self.thread || self.graph.has_edge(a, b) {
                continue;
            }
            if self.placed.insert((a, b)) {
                return (u, v);
            }
        }
    }
}

/// Length of one load session. Each session opens fresh connections, so
/// how the scheduler happens to place client and server threads on the
/// cores changes from session to session instead of fixing a whole run.
pub const SESSION: Duration = Duration::from_secs(1);

/// The latencies of one session.
#[derive(Clone, Debug, Default)]
pub struct Session {
    /// Wall-clock seconds of the session.
    pub elapsed_s: f64,
    /// Client-side latency of every answered read, nanoseconds.
    pub reads_ns: Vec<u64>,
    /// Client-side latency of every answered `PlaceEdge`, nanoseconds.
    pub places_ns: Vec<u64>,
}

/// What the closed loop saw, summed over client threads.
#[derive(Clone, Debug, Default)]
pub struct LoadOutcome {
    /// The sessions, in order.
    pub sessions: Vec<Session>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, timed out, retry-exhausted or answered with an
    /// unexpected reply.
    pub failed: u64,
    /// Failures whose cause was the transport or a frame that failed to
    /// decode.
    pub transport_errors: u64,
    /// Vertex lookups answered.
    pub lookups: u64,
    /// `PlaceEdge` requests sent.
    pub places_sent: u64,
    /// `Placed { fresh: true }` replies.
    pub fresh_placed: u64,
    /// The first few failed requests, with what went wrong.
    pub failures: Vec<String>,
    /// Lookup replies that failed the replica-superset check (first few).
    pub violations: Vec<String>,
    /// Lookup replies that failed the check, in total.
    pub violation_count: u64,
    /// Distinct read keys drawn.
    pub distinct_keys: usize,
    /// Retries performed by the clients.
    pub retries: u64,
    /// Requests sent by each client thread, in thread order.
    pub ops_per_thread: Vec<u64>,
    /// Wall-clock seconds of the whole load.
    pub elapsed_s: f64,
}

impl LoadOutcome {
    /// Answered reads over all sessions.
    pub fn reads(&self) -> usize {
        self.sessions.iter().map(|s| s.reads_ns.len()).sum()
    }

    /// Answered placements over all sessions.
    pub fn places(&self) -> usize {
        self.sessions.iter().map(|s| s.places_ns.len()).sum()
    }
}

/// One client thread's tallies for one session.
#[derive(Default)]
struct Tally {
    load: LoadOutcome,
    reads_ns: Vec<u64>,
    places_ns: Vec<u64>,
    keys: HashSet<u32>,
}

impl Tally {
    /// Files one reply.
    fn record(
        &mut self,
        masks: &ReplicaMasks,
        request: &Request,
        reply: Result<Response, ClientError>,
        ns: u64,
    ) {
        let load = &mut self.load;
        load.attempted += 1;
        match request {
            Request::VertexLookup { vertex } | Request::Neighbors { vertex, .. } => {
                self.keys.insert(*vertex);
            }
            Request::PlaceEdge { .. } => load.places_sent += 1,
            _ => {}
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                load.failed += 1;
                if load.failures.len() < 5 {
                    load.failures.push(format!("{request:?} failed: {e:?}"));
                }
                let (ClientError::NotRetryable(cause)
                | ClientError::Exhausted {
                    last_error: cause, ..
                }) = e;
                if matches!(cause, AttemptError::Transport(_)) {
                    load.transport_errors += 1;
                }
                return;
            }
        };
        // Every lookup reply goes through the replica check, whatever its
        // kind: an error reply to a lookup is a wrong answer too.
        if let Request::VertexLookup { vertex } = request {
            if let Err(violation) = masks.check_lookup(*vertex, &reply) {
                load.violation_count += 1;
                if load.violations.len() < 5 {
                    load.violations.push(violation);
                }
            }
        }
        match (request, &reply) {
            (Request::VertexLookup { .. }, Response::VertexInfo { .. }) => {
                load.lookups += 1;
                self.reads_ns.push(ns);
            }
            (Request::Neighbors { .. }, Response::NeighborList { .. }) => self.reads_ns.push(ns),
            (Request::PlaceEdge { .. }, Response::Placed { fresh, .. }) => {
                self.places_ns.push(ns);
                load.fresh_placed += u64::from(*fresh);
            }
            _ => {
                load.failed += 1;
                if load.failures.len() < 5 {
                    load.failures
                        .push(format!("{request:?} answered {reply:?}"));
                }
            }
        }
    }
}

/// The serve gate's checks on what the clients saw: no request failed,
/// none was answered with a reply of the wrong kind, and every lookup
/// reply held the vertex's pre-run replicas. Empty when all passed.
pub fn load_gate_errors(load: &LoadOutcome) -> Vec<String> {
    let mut errors = Vec::new();
    if load.failed > 0 {
        errors.push(format!(
            "{} of {} requests failed ({} transport errors), e.g. {}",
            load.failed,
            load.attempted,
            load.transport_errors,
            load.failures.join("; ")
        ));
    }
    if load.violation_count > 0 {
        errors.push(format!(
            "{} lookup replies lost replicas, e.g. {}",
            load.violation_count,
            load.violations.join("; ")
        ));
    }
    errors
}

/// Runs `threads` closed-loop clients against `addr` in back-to-back
/// [`SESSION`]s for at least `window`, and until [`MIN_SAMPLES`] of both
/// request kinds are in (but no longer than four windows). Each thread's
/// request stream runs on across sessions.
pub fn run_load(
    addr: &str,
    graph: GraphView<'_>,
    masks: &ReplicaMasks,
    partitions: u32,
    threads: u32,
    seed: u64,
    window: Duration,
) -> LoadOutcome {
    let zipf = ZipfSampler::new(graph.num_vertices() as u32, ZIPF_SKEW);
    let mut gens: Vec<RequestGen<'_>> = (0..threads)
        .map(|t| RequestGen::new(&zipf, graph, partitions, seed, t, threads))
        .collect();
    let mut total = LoadOutcome {
        ops_per_thread: vec![0; threads as usize],
        ..LoadOutcome::default()
    };
    let mut keys = HashSet::new();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        let enough = total.reads() >= MIN_SAMPLES && total.places() >= MIN_SAMPLES;
        if elapsed >= window * 4 || (elapsed >= window && enough) {
            break;
        }
        let session_start = Instant::now();
        let end = session_start + SESSION;
        let retry_seed = seed.wrapping_add(total.sessions.len() as u64 * u64::from(threads));
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = gens
                .iter_mut()
                .enumerate()
                .map(|(t, gen)| {
                    scope.spawn(move || {
                        let policy = RetryPolicy {
                            seed: retry_seed.wrapping_add(t as u64),
                            ..RetryPolicy::default()
                        };
                        let mut client = RetryingClient::new(addr, READ_TIMEOUT, policy);
                        let mut tally = Tally::default();
                        while Instant::now() < end {
                            let request = gen.next();
                            let sent = Instant::now();
                            let reply = client.request(&request);
                            let ns = sent.elapsed().as_nanos() as u64;
                            tally.record(masks, &request, reply, ns);
                        }
                        tally.load.retries = client.retries();
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut session = Session {
            elapsed_s: session_start.elapsed().as_secs_f64(),
            ..Session::default()
        };
        for (t, tally) in tallies.into_iter().enumerate() {
            let load = tally.load;
            total.ops_per_thread[t] += load.attempted;
            total.attempted += load.attempted;
            total.failed += load.failed;
            total.transport_errors += load.transport_errors;
            total.lookups += load.lookups;
            total.places_sent += load.places_sent;
            total.fresh_placed += load.fresh_placed;
            total.violation_count += load.violation_count;
            total.violations.extend(load.violations);
            total.failures.extend(load.failures);
            total.retries += load.retries;
            session.reads_ns.extend(tally.reads_ns);
            session.places_ns.extend(tally.places_ns);
            keys.extend(tally.keys);
        }
        total.sessions.push(session);
    }
    total.violations.truncate(5);
    total.failures.truncate(5);
    total.distinct_keys = keys.len();
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// Replays the first `ops_per_thread[t]` requests of every client thread
/// (at most `cap` in all) straight through `service.handle`, with no TCP:
/// returns the `(read, place)` latencies in nanoseconds.
pub fn replay_direct(
    service: &PartitionService,
    partitions: u32,
    seed: u64,
    ops_per_thread: &[u64],
    cap: u64,
) -> (Vec<u64>, Vec<u64>) {
    let graph = service.graph();
    let zipf = ZipfSampler::new(graph.num_vertices() as u32, ZIPF_SKEW);
    let threads = ops_per_thread.len() as u32;
    let total: u64 = ops_per_thread.iter().sum();
    let (mut reads, mut places) = (Vec::new(), Vec::new());
    for (t, &ops) in ops_per_thread.iter().enumerate() {
        let mut gen = RequestGen::new(&zipf, graph, partitions, seed, t as u32, threads);
        let share = if total > cap { ops * cap / total } else { ops };
        for _ in 0..share {
            let request = gen.next();
            let sent = Instant::now();
            let reply = std::hint::black_box(service.handle(&request));
            let ns = sent.elapsed().as_nanos() as u64;
            match (&request, reply) {
                (Request::PlaceEdge { .. }, Response::Placed { .. }) => places.push(ns),
                (Request::PlaceEdge { .. }, _) => {}
                (_, Response::Error(_)) => {}
                _ => reads.push(ns),
            }
        }
    }
    (reads, places)
}
