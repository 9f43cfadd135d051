//! Reading and writing SNAP-style edge-list files.
//!
//! SNAP datasets (the paper's G1–G8) are whitespace-separated edge lists with
//! `#`-prefixed comment lines. Vertex ids in those files are arbitrary
//! integers; [`read_edge_list`] densifies them to `0..n` and returns the
//! mapping so results can be reported in original ids if needed.
//!
//! Every text path in the workspace parses through one [`EdgeListReader`]:
//! a block scanner that parses ASCII lines straight from bytes, plus a
//! first-seen vertex interner. A line holding any non-ASCII byte is parsed
//! as `str` instead, so Unicode whitespace, invalid UTF-8, line numbers and
//! error messages behave exactly as a `BufRead::lines` parser would.

use crate::{CsrGraph, GraphBuilder, GraphError, VertexId};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::Path;

/// Bytes requested from the reader per refill. Lines are parsed in place
/// from this block; only a line longer than the block grows it. Parsing
/// is as fast as with 256 KiB blocks, and a block under glibc's 128 KiB
/// mmap threshold leaves the allocator's later choices, and so the peak
/// RSS of a whole run, as they were with a `BufReader`.
const BLOCK: usize = 64 << 10;

/// Data lines parsed before their ids are interned together.
const BATCH: usize = 1024;

/// Result of loading an edge list: the graph plus the original-id mapping.
#[derive(Clone, Debug)]
pub struct LoadedGraph {
    /// The parsed, deduplicated, loop-free graph.
    pub graph: CsrGraph,
    /// `original_ids[v]` is the id vertex `v` had in the input file.
    pub original_ids: Vec<u64>,
}

/// Reads a SNAP-style edge list from any reader.
///
/// Lines starting with `#` or `%` and blank lines are skipped. Each other
/// line must contain at least two integers (extra columns such as weights or
/// timestamps are ignored). Directed inputs are symmetrized, duplicates and
/// self-loops dropped — matching the preprocessing the paper applies.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on read failure and [`GraphError::Parse`] on a
/// malformed line.
///
/// # Example
///
/// ```
/// use tlp_graph::io::read_edge_list;
///
/// let data = "# comment\n10 20\n20 30\n10 20\n";
/// let loaded = read_edge_list(data.as_bytes())?;
/// assert_eq!(loaded.graph.num_vertices(), 3);
/// assert_eq!(loaded.graph.num_edges(), 2);
/// assert_eq!(loaded.original_ids, vec![10, 20, 30]);
/// # Ok::<(), tlp_graph::GraphError>(())
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<LoadedGraph, GraphError> {
    let mut edges = EdgeListReader::new(reader);
    let mut builder = GraphBuilder::new();
    while let Some((a, b)) = edges.next_edge()? {
        builder.push_edge(a, b);
    }
    Ok(LoadedGraph {
        graph: builder.build(),
        original_ids: edges.into_original_ids(),
    })
}

/// Reads an edge list from a file path. See [`read_edge_list`].
///
/// # Errors
///
/// Returns [`GraphError::Io`] if the file cannot be opened or read, and
/// [`GraphError::Parse`] on malformed content.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<LoadedGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Incremental SNAP edge-list parser: yields one interned edge per data
/// line, in file order.
///
/// The input is read in fixed blocks, so memory is one block plus the
/// vertex interner whatever the file size. Raw ids are interned in
/// first-seen order (`original_ids[v]` is the raw id of vertex `v`), and
/// both endpoints of a self-loop are interned before the caller sees it,
/// so every consumer of the same file numbers its vertices identically.
///
/// # Example
///
/// ```
/// use tlp_graph::io::EdgeListReader;
///
/// let mut edges = EdgeListReader::new("# c\n10 20\n5 5\n20 10 7\n".as_bytes());
/// assert_eq!(edges.next_edge()?, Some((0, 1)));
/// assert_eq!(edges.next_edge()?, Some((2, 2)));
/// assert_eq!(edges.next_edge()?, Some((1, 0)));
/// assert_eq!(edges.next_edge()?, None);
/// assert_eq!(edges.into_original_ids(), vec![10, 20, 5]);
/// # Ok::<(), tlp_graph::GraphError>(())
/// ```
pub struct EdgeListReader<R> {
    reader: R,
    /// `buf[pos..end]` is read but not yet parsed.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    eof: bool,
    /// 1-based number of the line last returned by `next_line`.
    line: usize,
    /// Raw endpoints of the batch being parsed.
    raw: Vec<(u64, u64)>,
    /// The current batch, interned; `ready[next..]` is not yet returned.
    ready: Vec<(VertexId, VertexId)>,
    next: usize,
    /// The error that ended the current batch, due after its edges.
    error: Option<GraphError>,
    interner: Interner,
}

impl<R: Read> EdgeListReader<R> {
    /// Wraps `reader`; nothing is read until the first [`next_edge`].
    ///
    /// [`next_edge`]: Self::next_edge
    pub fn new(reader: R) -> Self {
        EdgeListReader {
            reader,
            buf: Vec::new(),
            pos: 0,
            end: 0,
            eof: false,
            line: 0,
            raw: Vec::with_capacity(BATCH),
            ready: Vec::with_capacity(BATCH),
            next: 0,
            error: None,
            interner: Interner::new(),
        }
    }

    /// The next data line's endpoints, interned; `None` at end of input.
    /// Self-loops are returned, not dropped.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on read failure or invalid UTF-8,
    /// [`GraphError::Parse`] on a malformed line, and
    /// [`GraphError::Invalid`] past `u32::MAX` distinct vertices. Each
    /// comes after the edges of the lines before it.
    pub fn next_edge(&mut self) -> Result<Option<(VertexId, VertexId)>, GraphError> {
        if self.next == self.ready.len() && self.error.is_none() {
            self.fill_batch();
        }
        match self.ready.get(self.next) {
            Some(&edge) => {
                self.next += 1;
                Ok(Some(edge))
            }
            None => self.error.take().map_or(Ok(None), Err),
        }
    }

    /// Number of distinct vertices interned so far.
    pub fn num_vertices(&self) -> usize {
        self.interner.original_ids.len()
    }

    /// The raw id of every interned vertex, indexed by [`VertexId`].
    pub fn into_original_ids(self) -> Vec<u64> {
        self.interner.original_ids
    }

    /// Parses up to [`BATCH`] data lines, then interns them in one loop,
    /// where independent lookups overlap their cache misses. The first
    /// error ends the batch and waits in `error` behind its edges.
    fn fill_batch(&mut self) {
        self.raw.clear();
        while self.raw.len() < BATCH {
            match self.next_pair() {
                Ok(Some(pair)) => self.raw.push(pair),
                Ok(None) => break,
                Err(e) => {
                    self.error = Some(e);
                    break;
                }
            }
        }
        self.ready.clear();
        self.next = 0;
        for &(a, b) in &self.raw {
            let interned = self
                .interner
                .intern(a)
                .and_then(|a| Some((a, self.interner.intern(b)?)));
            match interned {
                Some(edge) => self.ready.push(edge),
                None => {
                    let full = GraphError::Invalid("more than u32::MAX vertices".into());
                    self.error = Some(full);
                    break;
                }
            }
        }
    }

    /// The next data line's raw endpoints; `None` at end of input.
    fn next_pair(&mut self) -> Result<Option<(u64, u64)>, GraphError> {
        while let Some(range) = self.next_line()? {
            let bytes = &self.buf[range];
            let fast = if bytes.is_ascii() {
                scan_ascii(bytes)
            } else {
                None
            };
            let line = match fast {
                Some(line) => line,
                None => parse_str(bytes, self.line)?,
            };
            if let Line::Edge(a, b) = line {
                return Ok(Some((a, b)));
            }
        }
        Ok(None)
    }

    /// The byte range of the next line in `buf`, without its `\n`.
    fn next_line(&mut self) -> io::Result<Option<Range<usize>>> {
        let mut from = self.pos;
        loop {
            if let Some(i) = self.buf[from..self.end].iter().position(|&b| b == b'\n') {
                let line = self.pos..from + i;
                self.pos = line.end + 1;
                self.line += 1;
                return Ok(Some(line));
            }
            if self.eof {
                if self.pos == self.end {
                    return Ok(None);
                }
                let line = self.pos..self.end;
                self.pos = self.end;
                self.line += 1;
                return Ok(Some(line));
            }
            // The partial line moves to the front; resume the search after it.
            from = self.end - self.pos;
            self.refill()?;
        }
    }

    /// Moves the unparsed tail to the front and reads after it. The buffer
    /// is one block, and doubles only while a single line fills it.
    fn refill(&mut self) -> io::Result<()> {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(BLOCK.max(2 * self.end), 0);
        }
        let read = loop {
            match self.reader.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                result => break result?,
            }
        };
        self.end += read;
        self.eof = read == 0;
        Ok(())
    }
}

impl<R> fmt::Debug for EdgeListReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeListReader")
            .field("line", &self.line)
            .field("vertices", &self.interner.original_ids.len())
            .finish_non_exhaustive()
    }
}

/// Table slots allowed on top of eight per interned vertex.
const TABLE_SLACK: usize = 64 << 10;

/// A table slot whose raw id has not been seen. No vertex gets this
/// number, so at most `u32::MAX` vertices are interned.
const UNSEEN: VertexId = VertexId::MAX;

/// First-seen interning of raw ids as dense [`VertexId`]s, in two tiers.
///
/// Raw ids below `table.len()` map through `table`, one slot each; the
/// rest go through the keyed `spill` map. The table doubles to cover a new
/// id only while its length stays within `8 * (interned + 1) +
/// TABLE_SLACK`, so memory is `O(vertices)` whatever the ids, and growing
/// moves every spilled id it now covers into the table: an id lives in
/// exactly one tier, and keeps its number.
struct Interner {
    /// `table[raw]` is the vertex of raw id `raw`, or [`UNSEEN`].
    table: Vec<VertexId>,
    /// The vertices whose raw ids are `>= table.len()`.
    spill: HashMap<u64, VertexId, KeyedState>,
    /// `original_ids[v]` is the raw id interned as `v`.
    original_ids: Vec<u64>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            table: Vec::new(),
            spill: HashMap::with_hasher(KeyedState::new()),
            original_ids: Vec::new(),
        }
    }

    /// The vertex of `raw`, numbering it if new; `None` once `u32::MAX`
    /// vertices are numbered.
    fn intern(&mut self, raw: u64) -> Option<VertexId> {
        match usize::try_from(raw) {
            Ok(i) if i < self.table.len() || self.grow_to(i) => {
                let slot = &mut self.table[i];
                if *slot == UNSEEN {
                    *slot = push_vertex(&mut self.original_ids, raw)?;
                }
                Some(*slot)
            }
            _ => match self.spill.entry(raw) {
                Entry::Occupied(slot) => Some(*slot.get()),
                Entry::Vacant(slot) => {
                    Some(*slot.insert(push_vertex(&mut self.original_ids, raw)?))
                }
            },
        }
    }

    /// Doubles the table until it covers index `i`, unless that breaks
    /// the length bound; then moves the spilled ids it covers into it.
    fn grow_to(&mut self, i: usize) -> bool {
        let bound = (self.original_ids.len() + 1)
            .saturating_mul(8)
            .saturating_add(TABLE_SLACK);
        let len = match i.checked_add(1).and_then(usize::checked_next_power_of_two) {
            Some(len) if len <= bound => len.max(TABLE_SLACK),
            _ => return false,
        };
        self.table.resize(len, UNSEEN);
        let table = &mut self.table;
        self.spill
            .retain(|&raw, &mut id| match usize::try_from(raw) {
                Ok(j) if j < len => {
                    table[j] = id;
                    false
                }
                _ => true,
            });
        true
    }
}

/// Numbers `raw` as the next vertex, unless `u32::MAX` are numbered.
fn push_vertex(original_ids: &mut Vec<u64>, raw: u64) -> Option<VertexId> {
    let id = VertexId::try_from(original_ids.len())
        .ok()
        .filter(|&id| id != UNSEEN)?;
    original_ids.push(raw);
    Some(id)
}

/// One parsed line: a comment or blank line, or an edge in raw ids.
enum Line {
    Skip,
    Edge(u64, u64),
}

/// Parses an ASCII line from bytes, or returns `None` when the line is
/// malformed, leaving the error to [`parse_str`]. Whitespace is the ASCII
/// part of Unicode `White_Space` (which includes VT, unlike
/// `u8::is_ascii_whitespace`), so the result equals `parse_str`'s.
fn scan_ascii(line: &[u8]) -> Option<Line> {
    let rest = skip_whitespace(line);
    match rest.first() {
        None | Some(b'#' | b'%') => Some(Line::Skip),
        Some(_) => {
            let (a, rest) = take_id(rest)?;
            let (b, _) = take_id(skip_whitespace(rest))?;
            Some(Line::Edge(a, b))
        }
    }
}

fn is_whitespace(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

fn skip_whitespace(bytes: &[u8]) -> &[u8] {
    let start = bytes
        .iter()
        .position(|&b| !is_whitespace(b))
        .unwrap_or(bytes.len());
    &bytes[start..]
}

/// Parses a leading `u64` field as `str::parse` would (optional `+`,
/// overflow rejected) up to the next whitespace byte; `None` if the field
/// is empty or not a valid `u64`.
fn take_id(field: &[u8]) -> Option<(u64, &[u8])> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    let mut value = 0u64;
    let mut len = 0;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            if is_whitespace(b) {
                break;
            }
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
        len += 1;
    }
    (len > 0).then_some((value, &digits[len..]))
}

/// The `str` parser: handles every line the byte scanner declines,
/// including all lines with non-ASCII bytes, and words every error.
fn parse_str(bytes: &[u8], line: usize) -> Result<Line, GraphError> {
    // The error `BufRead::lines` gives, so invalid UTF-8 reads as before.
    let text = std::str::from_utf8(bytes).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    let trimmed = text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(Line::Skip);
    }
    let mut fields = trimmed.split_whitespace();
    let a = parse_field(fields.next(), line, "source vertex")?;
    let b = parse_field(fields.next(), line, "target vertex")?;
    Ok(Line::Edge(a, b))
}

fn parse_field(field: Option<&str>, line: usize, what: &str) -> Result<u64, GraphError> {
    let text = field.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    text.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("{what} is not an unsigned integer: {text:?}"),
    })
}

/// Hash state for the vertex interner: a folded multiply keyed per map.
///
/// SipHash dominated interning cost; an unkeyed fast hash would let a
/// crafted file precompute colliding ids. Drawing both keys from `std`'s
/// `RandomState` keeps collisions unpredictable at a fraction of the cost.
#[derive(Clone, Debug)]
struct KeyedState {
    k0: u64,
    k1: u64,
}

impl KeyedState {
    fn new() -> Self {
        let seed = RandomState::new();
        KeyedState {
            k0: seed.hash_one(0u64),
            // Odd, so the multiply is a bijection of the low bits.
            k1: seed.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for KeyedState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            k0: self.k0,
            k1: self.k1,
            acc: 0,
        }
    }
}

struct FoldHasher {
    k0: u64,
    k1: u64,
    acc: u64,
}

impl Hasher for FoldHasher {
    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.acc ^ x ^ self.k0) * u128::from(self.k1);
        self.acc = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

/// Writes `graph` as a SNAP-style edge list (one `u v` line per edge).
///
/// A mutable reference can be passed for `writer` (`&mut Vec<u8>`, `&mut
/// File`, …).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# Undirected graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.edges() {
        writeln!(writer, "{}\t{}", e.source(), e.target())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snap_format_with_comments_and_extra_columns() {
        let data = "# Directed graph\n% also a comment\n\n1 2 1000\n2 3\n3 1\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
    }

    #[test]
    fn symmetrizes_and_dedups_directed_input() {
        let data = "1 2\n2 1\n1 1\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
        assert_eq!(loaded.graph.num_vertices(), 2);
    }

    #[test]
    fn preserves_first_seen_order_in_mapping() {
        let data = "100 7\n7 55\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.original_ids, vec![100, 7, 55]);
    }

    #[test]
    fn rejects_garbage_line_with_location() {
        let data = "1 2\nnot numbers\n";
        let err = read_edge_list(data.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_single_column_line() {
        let data = "1\n";
        let err = read_edge_list(data.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn roundtrip_write_then_read() {
        let g = crate::GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (0, 3)])
            .build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(loaded.graph.num_edges(), g.num_edges());
        assert_eq!(loaded.graph.num_vertices(), g.num_vertices());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_edge_list_file("/nonexistent/definitely-not-here.txt").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    #[test]
    fn take_id_matches_str_parse_at_the_edges() {
        for text in ["0", "+7", "18446744073709551615", "007"] {
            assert_eq!(take_id(text.as_bytes()).map(|(v, _)| v), text.parse().ok());
        }
        for text in ["18446744073709551616", "-1", "+", "++1", "1x", ""] {
            assert_eq!(take_id(text.as_bytes()), None, "{text:?}");
        }
    }

    #[test]
    fn scan_ascii_takes_every_well_formed_ascii_line() {
        assert!(matches!(
            scan_ascii(b"\x0b+1\x0c2\t9\r"),
            Some(Line::Edge(1, 2))
        ));
        assert!(matches!(scan_ascii(b" % c"), Some(Line::Skip)));
        assert!(matches!(scan_ascii(b" \t\r"), Some(Line::Skip)));
        assert!(scan_ascii(b"1x 2").is_none());
        assert!(scan_ascii(b"1").is_none());
    }

    #[test]
    fn an_error_comes_after_the_edges_before_it() {
        let mut edges = EdgeListReader::new("1 2\n2 3\nx\n4 5\n".as_bytes());
        assert_eq!(edges.next_edge().unwrap(), Some((0, 1)));
        assert_eq!(edges.next_edge().unwrap(), Some((1, 2)));
        assert!(matches!(
            edges.next_edge(),
            Err(GraphError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn the_table_stays_within_its_bound_and_numbers_never_change() {
        let mut interner = Interner::new();
        let mut oracle: HashMap<u64, VertexId> = HashMap::new();
        // Sparse ids spill; then dense ids grow the table over some of
        // them, which must keep their numbers; then the sparse ids again.
        let sparse = (0..5_000u64).map(|i| i * 4_099 + ((i % 3) << 40));
        let raws = sparse
            .clone()
            .chain((0..200_000).rev())
            .chain(sparse)
            .chain([u64::MAX, 0, u64::MAX]);
        for raw in raws {
            let next = oracle.len() as VertexId;
            let expected = *oracle.entry(raw).or_insert(next);
            assert_eq!(interner.intern(raw).unwrap(), expected, "raw id {raw}");
            let bound = 8 * (interner.original_ids.len() + 1) + TABLE_SLACK;
            assert!(
                interner.table.len() <= bound,
                "table {}",
                interner.table.len()
            );
        }
        let len = interner.table.len() as u64;
        assert!(len >= 200_000, "dense ids stayed in the map");
        assert!(interner.spill.keys().all(|&raw| raw >= len));
        let in_table = interner.table.iter().filter(|&&v| v != UNSEEN).count();
        assert_eq!(in_table + interner.spill.len(), oracle.len());
    }

    #[test]
    fn keyed_states_differ_per_map() {
        let (a, b) = (KeyedState::new(), KeyedState::new());
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64));
    }
}
