//! A text edge list read through `TextFileSource` numbers its vertices the
//! same way in a streaming pass as in its materialized `random_access()`
//! view, self-loops included.

use tlp_graph::{Edge, EdgeSource};
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
