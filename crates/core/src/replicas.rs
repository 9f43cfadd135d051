//! Per-vertex replica sets as one flat bitset.

use tlp_graph::VertexId;

/// The replica sets `A(v)` of every vertex (the partitions holding at
/// least one of its edges), stored as one flat bitset: `ceil(p / 64)`
/// words per vertex in a single allocation, so one word per vertex when
/// `p <= 64`. Streaming placers, [`StreamedMetrics`](crate::StreamedMetrics)
/// and the partition-store loader all keep their membership state here.
///
/// # Example
///
/// ```
/// use tlp_core::ReplicaSets;
///
/// let mut sets = ReplicaSets::new(3, 130);
/// sets.insert(1, 0);
/// sets.insert(1, 129);
/// assert!(sets.contains(1, 129) && !sets.contains(2, 129));
/// assert_eq!(ReplicaSets::ids(sets.row(1).iter().copied()).collect::<Vec<_>>(), [0, 129]);
/// ```
#[derive(Clone, Debug)]
pub struct ReplicaSets {
    words: usize,
    bits: Vec<u64>,
}

impl ReplicaSets {
    /// Empty replica sets for `num_vertices` vertices over
    /// `num_partitions` partitions.
    pub fn new(num_vertices: usize, num_partitions: usize) -> Self {
        let words = num_partitions.div_ceil(64).max(1);
        ReplicaSets {
            words,
            bits: vec![0; num_vertices * words],
        }
    }

    /// Adds partition `q` to `A(v)`.
    #[inline]
    pub fn insert(&mut self, v: VertexId, q: usize) {
        self.bits[v as usize * self.words + q / 64] |= 1 << (q % 64);
    }

    /// Whether partition `q` is in `A(v)`.
    #[inline]
    pub fn contains(&self, v: VertexId, q: usize) -> bool {
        self.bits[v as usize * self.words + q / 64] >> (q % 64) & 1 == 1
    }

    /// The bitset words of `A(v)`: bit `q % 64` of word `q / 64` is
    /// partition `q`.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[u64] {
        let start = v as usize * self.words;
        &self.bits[start..start + self.words]
    }

    /// Every vertex's row, in vertex order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.bits.chunks_exact(self.words)
    }

    /// The partition ids set in a row (or in a combination of rows, such
    /// as the word-wise `&` of two), ascending.
    pub fn ids(row: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
        row.into_iter().enumerate().flat_map(|(wi, mut word)| {
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    wi * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_span_words_and_stay_separate() {
        let mut s = ReplicaSets::new(3, 130);
        assert_eq!(s.row(0), [0, 0, 0]);
        s.insert(0, 0);
        s.insert(0, 64);
        s.insert(0, 129);
        s.insert(2, 70);
        assert!(s.contains(0, 0) && s.contains(0, 64) && s.contains(0, 129));
        assert!(!s.contains(0, 1) && !s.contains(1, 0) && !s.contains(2, 6));
        assert_eq!(
            ReplicaSets::ids(s.row(0).iter().copied()).collect::<Vec<_>>(),
            [0, 64, 129]
        );
        let both = s.row(0).iter().zip(s.row(2)).map(|(a, b)| a | b);
        assert_eq!(ReplicaSets::ids(both).collect::<Vec<_>>(), [0, 64, 70, 129]);
        assert_eq!(s.rows().count(), 3);
    }

    #[test]
    fn one_word_per_vertex_up_to_64_partitions() {
        for p in [1, 16, 64] {
            assert_eq!(ReplicaSets::new(5, p).row(4).len(), 1, "p = {p}");
        }
        assert_eq!(ReplicaSets::new(5, 65).row(4).len(), 2);
        // Zero partitions still gives a well-formed (empty) row.
        assert_eq!(ReplicaSets::new(2, 0).rows().count(), 2);
    }
}
