//! Corruption robustness: every class of damaged store file must surface a
//! typed [`StoreError`], never a panic or a silently wrong graph.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use tlp_graph::generators::erdos_renyi;
use tlp_graph::{CsrGraph, EdgeSource, SourceError};
use tlp_store::{
    write_graph, BinaryFileSource, FormatVersion, LoadedGraph, StoreError, StoreReader,
    WriteOptions,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_store(graph: &CsrGraph) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tlp-store-corruption-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.tlpg");
    write_graph(&path, graph, &WriteOptions::default()).unwrap();
    path
}

fn temp_store_v1(graph: &CsrGraph) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tlp-store-corruption-v1-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.tlpg");
    let options = WriteOptions {
        version: FormatVersion::V1,
        ..WriteOptions::default()
    };
    write_graph(&path, graph, &options).unwrap();
    path
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

fn test_graph() -> CsrGraph {
    erdos_renyi(200, 800, 7)
}

#[test]
fn truncated_file_is_typed_not_a_panic() {
    let g = test_graph();
    let path = temp_store(&g);
    let bytes = std::fs::read(&path).unwrap();
    // Cut at several depths: inside the header, inside the degree section,
    // inside the edge payload, and one byte short of complete.
    for cut in [10, 40, 80, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let result = StoreReader::open(&path).and_then(|r| r.read_graph().map(|_| ()));
        assert!(
            matches!(
                result,
                Err(StoreError::Truncated { .. })
                    | Err(StoreError::ChecksumMismatch { .. })
                    | Err(StoreError::Corrupt(_))
            ),
            "cut at {cut}: unexpected {result:?}"
        );
    }
    cleanup(&path);
}

#[test]
fn bad_magic_is_rejected() {
    let g = test_graph();
    let path = temp_store(&g);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0..8].copy_from_slice(b"NOTAGRPH");
    std::fs::write(&path, &bytes).unwrap();
    match StoreReader::open(&path) {
        Err(StoreError::BadMagic { found }) => assert_eq!(&found, b"NOTAGRPH"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    cleanup(&path);
}

#[test]
fn unsupported_version_is_rejected() {
    let g = test_graph();
    let path = temp_store(&g);
    let mut bytes = std::fs::read(&path).unwrap();
    // Version lives right after the magic; bump it and re-stamp the header
    // checksum so the version check (not the checksum) is what fires.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let checksum = tlp_store::format::Checksum::of(&bytes[0..48]);
    bytes[48..56].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match StoreReader::open(&path) {
        Err(StoreError::UnsupportedVersion { found }) => assert_eq!(found, 99),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    cleanup(&path);
}

#[test]
fn flipped_payload_byte_fails_a_checksum_v1() {
    let g = test_graph();
    let path = temp_store_v1(&g);
    let clean = std::fs::read(&path).unwrap();
    // The only bytes a flip may legitimately go unnoticed in are the 4
    // reserved bytes of each section frame (ignored by readers for forward
    // compatibility). v1 frames sit at offsets 56 and 56+24+4n.
    let degs_frame = 56usize;
    let edge_frame = degs_frame + 24 + 4 * g.num_vertices();
    let reserved = |o: usize| {
        (degs_frame + 4..degs_frame + 8).contains(&o)
            || (edge_frame + 4..edge_frame + 8).contains(&o)
    };
    // Flip a byte in every other region past the header. Anywhere in a
    // payload the section checksum must catch it; in a frame the structural
    // checks fire.
    for offset in (60..clean.len()).step_by(101).filter(|&o| !reserved(o)) {
        let mut bytes = clean.clone();
        bytes[offset] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let result = StoreReader::open(&path).and_then(|r| r.read_graph().map(|_| ()));
        assert!(
            result.is_err(),
            "flip at {offset} was not detected: {result:?}"
        );
    }
    cleanup(&path);
}

#[test]
fn flipped_payload_byte_fails_a_checksum_v2() {
    let g = test_graph();
    let path = temp_store(&g);
    let clean = std::fs::read(&path).unwrap();
    // v2 layout: OFFS | ADJV | ADJE | EDGE frames, each with 4 reserved
    // bytes at frame+4. The zero-copy arena open (the production v2 path)
    // checksums every section, so a flip anywhere else must surface.
    let (n, m) = (g.num_vertices(), g.num_edges());
    let mut frames = Vec::new();
    let mut pos = 56usize;
    for payload in [8 * (n + 1), 8 * m, 8 * m, 8 * m] {
        frames.push(pos);
        pos += 24 + payload;
    }
    let reserved = |o: usize| frames.iter().any(|&f| (f + 4..f + 8).contains(&o));
    for offset in (60..clean.len()).step_by(101).filter(|&o| !reserved(o)) {
        let mut bytes = clean.clone();
        bytes[offset] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let result = LoadedGraph::open(&path).map(|_| ());
        assert!(
            result.is_err(),
            "flip at {offset} was not detected: {result:?}"
        );
    }
    cleanup(&path);
}

#[test]
fn header_corruption_fails_header_checksum() {
    let g = test_graph();
    let path = temp_store(&g);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[16] ^= 0x01; // inside num_vertices
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::ChecksumMismatch {
            section: "header",
            ..
        })
    ));
    cleanup(&path);
}

#[test]
fn empty_file_is_truncated() {
    let g = test_graph();
    let path = temp_store(&g);
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::Truncated { .. })
    ));
    cleanup(&path);
}

/// One strict streaming pass over `source`, reduced to the store error it
/// failed with (`None` if it completed).
fn streamed_error(source: &mut BinaryFileSource) -> Option<StoreError> {
    match source.stream_pass(&mut |_| {}) {
        Ok(_) => None,
        Err(SourceError::Other(e)) => match e.downcast::<StoreError>() {
            Ok(e) => Some(*e),
            Err(e) => panic!("untyped stream error: {e}"),
        },
        Err(e) => panic!("unexpected stream error: {e}"),
    }
}

#[test]
fn streamed_pass_reports_edge_section_damage() {
    let g = test_graph();
    for path in [temp_store_v1(&g), temp_store(&g)] {
        let clean = std::fs::read(&path).unwrap();
        let edges = StoreReader::open(&path)
            .unwrap()
            .section_infos()
            .into_iter()
            .find(|s| s.name == "EDGE")
            .unwrap();
        let (start, len) = (edges.payload_pos as usize, edges.payload_len as usize);
        // Opened on the clean file: every later pass re-reads the edges.
        let mut source = BinaryFileSource::open(&path, 64)
            .unwrap()
            .strict_streaming(true);
        assert!(streamed_error(&mut source).is_none());

        // A byte changed so the edge table stays valid (one target moved up
        // by one, still sorted and in range) only the checksum can catch.
        let (i, e) = g
            .edges()
            .iter()
            .enumerate()
            .find(|&(i, e)| {
                let next = (e.source(), e.target() + 1);
                e.target() & 0xff != 0xff
                    && (next.1 as usize) < g.num_vertices()
                    && g.edges()
                        .get(i + 1)
                        .is_none_or(|f| next < (f.source(), f.target()))
            })
            .unwrap();
        let mut bytes = clean.clone();
        bytes[start + 8 * i + 4] = (e.target() + 1) as u8;
        std::fs::write(&path, &bytes).unwrap();
        let err = streamed_error(&mut source);
        assert!(
            matches!(
                err,
                Some(StoreError::ChecksumMismatch {
                    section: "edges",
                    ..
                })
            ),
            "valid-looking change of edge {i}: unexpected {err:?}"
        );

        // A flipped byte anywhere else in the edge payload fails the pass
        // with the edge checksum, or earlier with a decode error.
        for offset in [start, start + len / 2 + 3, start + len - 1] {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let err = streamed_error(&mut source);
            assert!(
                matches!(
                    err,
                    Some(StoreError::ChecksumMismatch {
                        section: "edges",
                        ..
                    }) | Some(StoreError::Corrupt(_))
                ),
                "flip at {offset}: unexpected {err:?}"
            );
        }

        // A file cut inside the edge payload fails the pass as truncated.
        for cut in [start + len / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let err = streamed_error(&mut source);
            assert!(
                matches!(err, Some(StoreError::Truncated { .. })),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        cleanup(&path);
    }
}
