//! Differential test of the byte-level edge-list parser against a
//! line-by-line `str` parser: on every input both must return the same
//! graph and original ids, or errors with the same text.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use tlp_graph::io::{read_edge_list, LoadedGraph};
use tlp_graph::{GraphBuilder, GraphError, VertexId};

/// The reference parser: `BufRead::lines`, `str::trim`,
/// `split_whitespace` and `str::parse`, with SipHash interning.
fn oracle<R: Read>(reader: R) -> Result<LoadedGraph, GraphError> {
    let mut remap: HashMap<u64, VertexId> = HashMap::new();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut builder = GraphBuilder::new();
    let mut intern = |raw: u64, original_ids: &mut Vec<u64>| -> Result<VertexId, GraphError> {
        if let Some(&id) = remap.get(&raw) {
            return Ok(id);
        }
        let id = VertexId::try_from(original_ids.len())
            .map_err(|_| GraphError::Invalid("more than u32::MAX vertices".into()))?;
        remap.insert(raw, id);
        original_ids.push(raw);
        Ok(id)
    };
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let a = oracle_field(fields.next(), line_no, "source vertex")?;
        let b = oracle_field(fields.next(), line_no, "target vertex")?;
        let a = intern(a, &mut original_ids)?;
        let b = intern(b, &mut original_ids)?;
        builder.push_edge(a, b);
    }
    Ok(LoadedGraph {
        graph: builder.build(),
        original_ids,
    })
}

fn oracle_field(field: Option<&str>, line: usize, what: &str) -> Result<u64, GraphError> {
    let text = field.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    text.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("{what} is not an unsigned integer: {text:?}"),
    })
}

/// Hands out at most `step` bytes per `read`, so refills see short reads.
struct Trickle<'a> {
    data: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn outcome(result: Result<LoadedGraph, GraphError>) -> Result<LoadedGraph, String> {
    result.map_err(|e| e.to_string())
}

/// Compares the parsers on `input`, feeding ours `step` bytes per read for
/// each of `steps`.
fn assert_same_in_steps(input: &[u8], steps: &[usize]) {
    let expected = outcome(oracle(input));
    for &step in steps {
        let got = outcome(read_edge_list(Trickle { data: input, step }));
        let shown = String::from_utf8_lossy(&input[..input.len().min(80)]);
        match (&got, &expected) {
            (Ok(g), Ok(e)) => {
                assert_eq!(g.graph, e.graph, "graph differs on {shown:?}");
                assert_eq!(g.original_ids, e.original_ids, "ids differ on {shown:?}");
            }
            (Err(g), Err(e)) => assert_eq!(g, e, "error differs on {shown:?}"),
            _ => panic!(
                "outcome differs on {shown:?}: got {:?}, expected {:?}",
                got.as_ref().map(|l| l.graph.num_edges()),
                expected.as_ref().map(|l| l.graph.num_edges())
            ),
        }
    }
}

fn assert_same(input: &[u8]) {
    assert_same_in_steps(input, &[usize::MAX, 7, 1]);
}

#[test]
fn edge_cases_match_the_str_parser() {
    let max = u64::MAX;
    let over = u128::from(u64::MAX) + 1;
    let cases: Vec<Vec<u8>> = vec![
        b"# c\n% c\n1 2\n".to_vec(),
        b"  # indented comment\n\t% another\n1 2\n".to_vec(),
        b"\n\n   \n\t\t\n1 2\n\n".to_vec(),
        b"1 2\r\n2 3\r\n\r\n".to_vec(),
        b"1\t2\n2\x0b3\n3\x0c4\n\x0b\x0c4 \t 5\x0b\n".to_vec(),
        b"1\x1c2\n".to_vec(),
        b"+7 +8\n8 7\n".to_vec(),
        b"+ 7\n".to_vec(),
        b"++7 8\n".to_vec(),
        b"-1 2\n".to_vec(),
        b"1 -2\n".to_vec(),
        format!("{max} 1\n1 {max}\n").into_bytes(),
        format!("{over} 1\n").into_bytes(),
        format!("1 {over}\n").into_bytes(),
        b"1 2\n3\n".to_vec(),
        b"1 2\n   7   \n".to_vec(),
        b"1x 2\n".to_vec(),
        b"1 2x\n".to_vec(),
        b"1 2 3 4 weight=0.5\n2 3 x\n".to_vec(),
        b"1\x002\n".to_vec(),
        b"\"1\" 2\n".to_vec(),
        "1\u{a0}2\n2\u{2003}3\n\u{3000}3 4\u{85}\n"
            .as_bytes()
            .to_vec(),
        "1 2\n# caf\u{e9}\n2\u{a0}x\n".as_bytes().to_vec(),
        "1 2\n\u{663} 4\n".as_bytes().to_vec(),
        b"1 2\n2 \xff3\n".to_vec(),
        b"1 2\n# caf\xe9\n2 3\n".to_vec(),
        b"1 2\n2 3".to_vec(),
        b"1 2\n2 3 \r".to_vec(),
        b"1 2\n# no newline".to_vec(),
        b"".to_vec(),
        b"5 5\n".to_vec(),
        b"1 1\n2 1\n1 2\n".to_vec(),
        b"007 7\n".to_vec(),
    ];
    for case in &cases {
        assert_same(case);
    }
}

#[test]
fn lines_longer_than_a_block_match_the_str_parser() {
    let long = "9".repeat(700_000);
    assert_same(format!("1 2 {long}\n2 3\n").as_bytes());
    assert_same(format!("# {long}\n2 3\n").as_bytes());
    assert_same(format!("1 2\n{long} 3\n").as_bytes());
}

/// A random mostly well-formed line: varied separators, comments, extra
/// columns and a few non-ASCII separators, so lines of every length land
/// on block boundaries.
fn random_line(rng: &mut StdRng, out: &mut Vec<u8>) {
    const SEPS: [&str; 8] = [
        " ", "\t", "  ", " \t ", "\x0b", "\x0c", "\u{a0}", "\u{2003}",
    ];
    let id = |rng: &mut StdRng| -> u64 {
        match rng.gen_range(0..10u32) {
            0 => rng.gen::<u64>(),
            1 => rng.gen_range(0..10u64),
            _ => rng.gen_range(0..50_000u64),
        }
    };
    match rng.gen_range(0..40u32) {
        0 => out.extend_from_slice(b"# a comment line"),
        1 => out.extend_from_slice("% comment \u{e9}t\u{e9}".as_bytes()),
        2 => {}
        3 => out.extend_from_slice(b"   \t"),
        _ => {
            let sep = |rng: &mut StdRng| SEPS[rng.gen_range(0..SEPS.len())];
            let lead = if rng.gen_bool(0.05) { " " } else { "" };
            let plus = if rng.gen_bool(0.05) { "+" } else { "" };
            let line = format!("{lead}{plus}{}{}{}", id(rng), sep(rng), id(rng));
            out.extend_from_slice(line.as_bytes());
            if rng.gen_bool(0.1) {
                let extra = format!("{}{}", sep(rng), rng.gen_range(0..1_000_000u64));
                out.extend_from_slice(extra.as_bytes());
            }
        }
    }
    out.extend_from_slice(if rng.gen_bool(0.1) { b"\r\n" } else { b"\n" });
}

#[test]
fn random_multi_block_inputs_match_the_str_parser() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut input = Vec::new();
        while input.len() < 1 << 20 {
            random_line(&mut rng, &mut input);
        }
        assert_same_in_steps(&input, &[usize::MAX, 4099]);
        // The same input with a malformed line past the first blocks.
        let at = input.len() - rng.gen_range(1..200_000usize);
        let at = at + input[at..].iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut broken = input[..at].to_vec();
        broken.extend_from_slice(b"12 3x\n");
        broken.extend_from_slice(&input[at..]);
        assert_same_in_steps(&broken, &[usize::MAX, 4099]);
    }
}

/// An edge list of `lines` lines whose ids come from `id`.
fn edge_lines(lines: usize, mut id: impl FnMut() -> u64) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..lines {
        out.extend_from_slice(format!("{} {}\n", id(), id()).as_bytes());
    }
    out
}

#[test]
fn every_id_mix_numbers_vertices_in_first_seen_order() {
    let mut rng = StdRng::seed_from_u64(11);
    let sparse: Vec<u64> = (0..3_000)
        .map(|_| rng.gen_range(1 << 40..1 << 41))
        .collect();
    let large: Vec<u64> = (0..3_000)
        .map(|_| rng.gen_range(150_000..250_000))
        .collect();
    let pick = |pool: &[u64], rng: &mut StdRng| pool[rng.gen_range(0..pool.len())];

    let dense = edge_lines(30_000, || rng.gen_range(0..20_000));
    let sparse_40_bit = edge_lines(20_000, || pick(&sparse, &mut rng));
    let near_max = edge_lines(20_000, || u64::MAX - rng.gen_range(0..3_000u64));
    let mixed = edge_lines(20_000, || match rng.gen_range(0..3) {
        0 => pick(&sparse, &mut rng),
        1 => u64::MAX - rng.gen_range(0..50u64),
        _ => rng.gen_range(0..30_000),
    });
    // Large ids first, while the table is small, so they go to the map;
    // then enough small ids that the table grows over the large ones,
    // which come back mixed in.
    let mut large_first = edge_lines(5_000, || pick(&large, &mut rng));
    large_first.extend(edge_lines(60_000, || match rng.gen_range(0..4) {
        0 => pick(&large, &mut rng),
        _ => rng.gen_range(0..60_000),
    }));

    for input in [dense, sparse_40_bit, near_max, mixed, large_first] {
        assert_same_in_steps(&input, &[usize::MAX, 4099]);
    }
}
