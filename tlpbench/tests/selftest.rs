//! Self-tests of the benchmark: downsized runs emit every named metric,
//! the correctness gate trips on wrong outputs, and the traced fold adds
//! up.

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use serde::Value;
use tlp_core::{AlgoConfig, EdgePartition};
use tlp_graph::generators::chung_lu;
use tlp_graph::CsrSource;
use tlp_serve::{
    decode_request, encode_response, read_frame, write_frame, ErrorCode, PartitionService, Request,
    Response,
};
use tlpbench::gate::{check_offline, ReplicaMasks};
use tlpbench::report::{MetricDef, END_TO_END, PER_LAYER};
use tlpbench::serve::{load_gate_errors, run_load};
use tlpbench::workload::{generate, run, Workload};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn object(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(entries) => entries,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    object(value)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn string(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn array(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in a result line, in order.
fn line_metrics(line: &str) -> Vec<(String, String)> {
    let value = serde_json::from_str(line).expect("result line is JSON");
    let keys: Vec<&str> = object(&value).iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(get(&value, "correct"), &Value::Bool(true), "{line}");
    object(get(&value, "metrics"))
        .iter()
        .map(|(name, metric)| {
            assert!(
                matches!(get(metric, "value"), Value::Float(_)),
                "{name} is not a number"
            );
            (name.clone(), string(get(metric, "unit")).to_string())
        })
        .collect()
}

fn expected(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn downsized_runs_emit_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        let params = workload.params().downsized(50);
        let work = work_dir(workload.name());
        generate(&params, 7, &work).expect("generate");
        for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let mut outcome = run(&params, 7, 2.0, traced, &work).expect("run");
            let line = outcome.json_line(defs);
            assert!(
                outcome.correct(),
                "{} traced={traced}: {:?}",
                workload.name(),
                outcome.gate_errors
            );
            assert_eq!(line_metrics(&line), expected(defs), "{}", workload.name());
            assert_eq!(outcome.failed, 0);
        }
    }
}

#[test]
fn the_traced_fold_self_times_sum_to_the_workload_span() {
    let offline = [
        "graph.parse",
        "store.write_graph",
        "store.open",
        "pipeline.run",
        "core.metrics",
        "store.write_partition",
        "store.stream_pass",
        "gate",
        "run",
    ];
    let serving = [
        "store.open",
        "gate",
        "serve.open",
        "serve.bind",
        "serve.load",
        "serve.handle",
    ];
    for (workload, layers) in [
        (Workload::HdrfStream, &offline[..]),
        (Workload::ServeMixed, &serving[..]),
    ] {
        let params = workload.params().downsized(100);
        let work = work_dir(&format!("fold-{}", workload.name()));
        generate(&params, 3, &work).expect("generate");
        let outcome = run(&params, 3, 1.0, true, &work).expect("traced run");
        let trace = outcome.trace.expect("a traced run keeps its trace");
        let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "one workload span holds every other span");
        assert_eq!(roots[0].name, "workload");
        let self_total: i64 = trace.spans.iter().map(|s| s.self_us).sum();
        assert_eq!(self_total, roots[0].dur_us, "{}", workload.name());
        for layer in layers {
            assert!(
                trace.count(layer) > 0,
                "{}: no {layer} span",
                workload.name()
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let names: Vec<&str> = array(get(&value, "workloads"))
        .iter()
        .map(|w| string(get(w, "name")))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = array(get(&value, key))
            .iter()
            .map(|m| {
                (
                    string(get(m, "name")).to_string(),
                    string(get(m, "unit")).to_string(),
                )
            })
            .collect();
        assert_eq!(listed, expected(defs), "{key}");
    }
}

#[test]
fn a_corrupted_assignment_trips_the_offline_gate() {
    let graph = chung_lu(500, 2000, 2.2, 3);
    let artifact = tlp_pipeline::builtin_registry()
        .run(
            "hdrf",
            &AlgoConfig::seeded(1),
            &mut CsrSource::new(&graph),
            4,
        )
        .expect("hdrf");
    let store = work_dir("gate-offline");
    tlp_store::write_partition_store(&store, &graph, &artifact.partition).expect("store");
    check_offline(graph.view(), &store, &artifact.partition, &artifact.metrics)
        .expect("the run's own output passes");

    let mut assignments = artifact.partition.assignments().to_vec();
    assignments[0] = (assignments[0] + 1) % 4;
    let corrupted = EdgePartition::new(4, assignments).expect("valid ids");
    let err = check_offline(graph.view(), &store, &corrupted, &artifact.metrics)
        .expect_err("a moved edge must trip the gate");
    assert!(err.contains("edge 0"), "{err}");

    let mut metrics = artifact.metrics.clone();
    metrics.replication_factor = f64::from_bits(metrics.replication_factor.to_bits() + 1);
    let err = check_offline(graph.view(), &store, &artifact.partition, &metrics)
        .expect_err("an RF off by one ulp must trip the gate");
    assert!(err.contains("RF"), "{err}");
}

#[test]
fn a_wrong_lookup_reply_trips_the_serve_gate() {
    let graph = chung_lu(300, 1500, 2.2, 5);
    let artifact = tlp_pipeline::builtin_registry()
        .run(
            "hdrf",
            &AlgoConfig::seeded(2),
            &mut CsrSource::new(&graph),
            4,
        )
        .expect("hdrf");
    let masks = ReplicaMasks::of(graph.view(), &artifact.partition).expect("masks");
    let service = PartitionService::new(graph.clone(), artifact.partition.clone(), "hdrf", 16)
        .expect("service");
    let mut checked_spanned = false;
    for vertex in 0..graph.num_vertices() as u32 {
        let reply = service.handle(&Request::VertexLookup { vertex });
        masks
            .check_lookup(vertex, &reply)
            .expect("the service's own replies pass");
        let Response::VertexInfo { master, replicas } = reply else {
            unreachable!("checked above")
        };
        if replicas.len() < 2 {
            continue;
        }
        checked_spanned = true;
        let lost = Response::VertexInfo {
            master,
            replicas: replicas[..replicas.len() - 1].to_vec(),
        };
        assert!(masks.check_lookup(vertex, &lost).is_err(), "lost replica");
        let stray = Response::VertexInfo {
            master: Some(4),
            replicas: replicas.clone(),
        };
        assert!(masks.check_lookup(vertex, &stray).is_err(), "stray master");
        let refused = Response::Error(tlp_serve::ErrorCode::NotFound);
        assert!(masks.check_lookup(vertex, &refused).is_err(), "error reply");
    }
    assert!(checked_spanned, "the graph has a replicated vertex");
}

/// Starts a server on a loopback port that speaks the protocol and
/// answers every request with `answer(request)`. Its threads end with the
/// test process.
fn scripted_server(answer: fn(&Request) -> Response) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || {
                while let Ok(Some(body)) = read_frame(&mut stream) {
                    let reply = match decode_request(&body) {
                        Ok(request) => answer(&request),
                        Err(_) => Response::Error(ErrorCode::BadRequest),
                    };
                    if write_frame(&mut stream, &encode_response(&reply)).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

/// Runs the benchmark's closed loop against a server that answers with
/// `answer`, and returns the serve gate's verdict on what the clients saw.
fn gate_after_load(answer: fn(&Request) -> Response) -> Vec<String> {
    let graph = chung_lu(300, 1500, 2.2, 5);
    let artifact = tlp_pipeline::builtin_registry()
        .run(
            "hdrf",
            &AlgoConfig::seeded(2),
            &mut CsrSource::new(&graph),
            4,
        )
        .expect("hdrf");
    let masks = ReplicaMasks::of(graph.view(), &artifact.partition).expect("masks");
    let addr = scripted_server(answer);
    let load = run_load(
        &addr,
        graph.view(),
        &masks,
        4,
        2,
        9,
        Duration::from_millis(100),
    );
    assert!(load.attempted > 0, "the clients sent requests");
    load_gate_errors(&load)
}

/// Answers each request with a reply of the right kind: every vertex in
/// partition 0 alone, placements fresh in partition 0.
fn plausible(request: &Request) -> Response {
    match request {
        Request::VertexLookup { .. } => Response::VertexInfo {
            master: Some(0),
            replicas: vec![0],
        },
        Request::Neighbors { .. } => Response::NeighborList { neighbors: vec![] },
        Request::PlaceEdge { .. } => Response::Placed {
            partition: 0,
            fresh: true,
        },
        _ => Response::Error(ErrorCode::BadRequest),
    }
}

#[test]
fn error_replies_during_the_load_trip_the_serve_gate() {
    let errors = gate_after_load(|_| Response::Error(ErrorCode::Internal));
    assert!(
        errors.iter().any(|e| e.contains("requests failed")),
        "{errors:?}"
    );
    assert!(
        errors
            .iter()
            .any(|e| e.contains("lookup replies lost replicas")),
        "{errors:?}"
    );
    let errors = gate_after_load(|request| match request {
        Request::VertexLookup { .. } => Response::Error(ErrorCode::NotFound),
        other => plausible(other),
    });
    assert!(
        errors
            .iter()
            .any(|e| e.contains("lookup replies lost replicas")),
        "{errors:?}"
    );
}

#[test]
fn lookups_that_lose_replicas_during_the_load_trip_the_serve_gate() {
    let errors = gate_after_load(plausible);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].contains("lookup replies lost replicas"),
        "{errors:?}"
    );
}
