//! A text edge list read through `TextFileSource` numbers its vertices the
//! same way in a streaming pass as in its materialized `random_access()`
//! view, self-loops included, and fails the same way on both paths.

use tlp_graph::{Edge, EdgeSource, GraphError, SourceError};
use tlp_store::TextFileSource;

#[test]
fn stream_pass_and_random_access_agree_on_a_loop_bearing_file() {
    let dir = std::env::temp_dir().join(format!("tlp-text-source-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("loops.txt");
    // Duplicate-free, with self-loops first, in the middle and last.
    std::fs::write(&path, "5 5\n1 2\n2 3\n7 7\n3 9\n1 9\n9 9\n").unwrap();

    for budget in [1, 2, usize::MAX] {
        let mut source = TextFileSource::new(&path, budget);
        let mut streamed: Vec<Edge> = Vec::new();
        source
            .stream_pass(&mut |chunk| streamed.extend_from_slice(chunk))
            .unwrap();
        let materialized: Vec<Edge> = source.random_access().unwrap().edge_iter().collect();
        streamed.sort_unstable();
        assert_eq!(streamed, materialized, "budget {budget}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stream_pass_and_random_access_fail_alike() {
    let dir = std::env::temp_dir().join(format!("tlp-text-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let missing = dir.join("missing.txt");
    let mut source = TextFileSource::new(&missing, 16);
    let streamed = source.stream_pass(&mut |_| {}).unwrap_err();
    assert!(matches!(streamed, SourceError::Io(_)), "{streamed:?}");
    let materialized = source.random_access().unwrap_err();
    assert!(
        matches!(materialized, SourceError::Io(_)),
        "{materialized:?}"
    );

    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "1 2\nnot numbers\n").unwrap();
    let parse_line = |err: SourceError| match err {
        SourceError::Other(e) => match e.downcast_ref::<GraphError>() {
            Some(GraphError::Parse { line, .. }) => *line,
            _ => panic!("not a parse error: {e}"),
        },
        other => panic!("not a parse error: {other:?}"),
    };
    let mut source = TextFileSource::new(&bad, 16);
    assert_eq!(parse_line(source.stream_pass(&mut |_| {}).unwrap_err()), 2);
    assert_eq!(parse_line(source.random_access().unwrap_err()), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
