//! Elias-Fano encoding of monotone integer sequences.
//!
//! The `.ssg` v2 offset index stores, per adjacency direction, the `n + 1`
//! byte offsets of the per-node blocks inside the section payload. Offsets
//! are non-decreasing, so Elias-Fano gets them down to
//! `2 + ⌈log₂(u/n)⌉` bits per entry (u = section length) while still
//! answering `get(i)` in O(1): the lower `l` bits are stored verbatim, the
//! upper bits live in a unary bitvector where the `i`-th set bit sits at
//! position `(vᵢ >> l) + i`, located via sampled select.
//!
//! Hand-rolled (no crates.io access) and serialised with the same varint
//! framing as the rest of the container.

use crate::varint::{read_varint, write_varint};
use crate::StoreError;

/// Bit position of every `SELECT_STRIDE`-th set bit is sampled, bounding
/// the scan in [`EliasFano::get`] to a handful of words.
const SELECT_STRIDE: usize = 64;

/// An Elias-Fano coded monotone sequence with O(1) random access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliasFano {
    count: usize,
    universe: u64,
    l: u32,
    lower: Vec<u64>,
    upper: Vec<u64>,
    /// Bit position of the `k·SELECT_STRIDE`-th set bit of `upper`.
    samples: Vec<u64>,
}

impl EliasFano {
    /// Encodes a non-decreasing sequence. The final value defines the
    /// universe.
    ///
    /// # Panics
    /// Debug builds panic on a decreasing input; writers own their inputs,
    /// so this is a programming error, not a data error.
    pub fn from_monotone(values: &[u64]) -> EliasFano {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input must be monotone");
        let count = values.len();
        let universe = values.last().copied().unwrap_or(0);
        let l = pick_l(universe, count);
        let mut lower = vec![0u64; (count * l as usize).div_ceil(64).max(1)];
        let upper_bits = (universe >> l) as usize + count + 1;
        let mut upper = vec![0u64; upper_bits.div_ceil(64).max(1)];
        for (i, &v) in values.iter().enumerate() {
            if l > 0 {
                let low = v & ((1u64 << l) - 1);
                let at = i * l as usize;
                lower[at / 64] |= low << (at % 64);
                if (at % 64) + l as usize > 64 {
                    lower[at / 64 + 1] |= low >> (64 - at % 64);
                }
            }
            let pos = (v >> l) as usize + i;
            upper[pos / 64] |= 1u64 << (pos % 64);
        }
        let samples = build_samples(&upper, count);
        EliasFano { count, universe, l, lower, upper, samples }
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest encodable value (the final input value).
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The `i`-th value. O(1): one sampled select plus a bounded word scan.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.count, "EliasFano index {i} out of bounds ({})", self.count);
        let hi = self.select(i) - i as u64;
        (hi << self.l) | self.lower_bits(i)
    }

    /// The pair `(get(i), get(i + 1))` — the byte range of block `i` when
    /// the sequence is an offset index — with a single select: element
    /// `i + 1`'s high bits come from the next set bit of `upper`.
    ///
    /// # Panics
    /// If `i + 1 >= len()`.
    pub fn range(&self, i: usize) -> (u64, u64) {
        assert!(i + 1 < self.count, "EliasFano range {i} out of bounds ({})", self.count);
        let at = self.select(i);
        let mut w = (at / 64) as usize;
        // Set bits strictly above `at` within its word.
        let mut word = self.upper[w] & (!1u64 << (at % 64));
        while word == 0 {
            w += 1;
            word = self.upper[w];
        }
        let next = (w as u64) * 64 + u64::from(word.trailing_zeros());
        let lo = ((at - i as u64) << self.l) | self.lower_bits(i);
        let hi = ((next - i as u64 - 1) << self.l) | self.lower_bits(i + 1);
        (lo, hi)
    }

    /// Serialises to the section payload layout:
    /// `varint(count) varint(universe) varint(l)` then the lower and upper
    /// words, little-endian (word counts are functions of the prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, self.count as u64);
        write_varint(&mut out, self.universe);
        write_varint(&mut out, u64::from(self.l));
        for &w in self.lower.iter().chain(&self.upper) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decodes a payload written by [`EliasFano::encode`]. `max_count`
    /// bounds allocation against hostile prefixes (callers know the
    /// expected sequence length from the store header).
    pub fn decode(bytes: &[u8], max_count: usize) -> Result<EliasFano, StoreError> {
        let corrupt =
            |message: &str| StoreError::Corrupt { message: format!("offset index: {message}") };
        let mut pos = 0usize;
        let count = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing count"))?;
        if count > max_count as u64 {
            return Err(corrupt(&format!("claims {count} entries, expected at most {max_count}")));
        }
        let count = count as usize;
        let universe = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing universe"))?;
        let l = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing bit width"))?;
        if l > 57 {
            return Err(corrupt(&format!("lower bit width {l} out of range")));
        }
        let l = l as u32;
        let lower_words = (count * l as usize).div_ceil(64).max(1);
        let upper_bits = (universe >> l) as usize + count + 1;
        let upper_words = upper_bits.div_ceil(64).max(1);
        let need = (lower_words + upper_words) * 8;
        if bytes.len() - pos != need {
            return Err(corrupt(&format!(
                "payload holds {} word bytes, layout requires {need}",
                bytes.len() - pos
            )));
        }
        let mut read_words = |k: usize| -> Vec<u64> {
            (0..k)
                .map(|_| {
                    let w = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("sized"));
                    pos += 8;
                    w
                })
                .collect()
        };
        let lower = read_words(lower_words);
        let upper = read_words(upper_words);
        let ones: usize = upper.iter().map(|w| w.count_ones() as usize).sum();
        if ones != count {
            return Err(corrupt(&format!("upper bits hold {ones} markers for {count} entries")));
        }
        let samples = build_samples(&upper, count);
        Ok(EliasFano { count, universe, l, lower, upper, samples })
    }

    /// Resident bytes of the decoded structure.
    pub fn resident_bytes(&self) -> usize {
        (self.lower.len() + self.upper.len() + self.samples.len()) * 8
            + std::mem::size_of::<EliasFano>()
    }

    /// Iterates all values in order. Amortised O(1) per value — one
    /// running scan of the upper bitvector instead of a select per
    /// entry, which is what the sequential decoders want (`get` would
    /// cost a select per node).
    pub fn iter(&self) -> EfIter<'_> {
        EfIter { ef: self, i: 0, w: 0, word: *self.upper.first().unwrap_or(&0) }
    }

    /// Bit position of the `i`-th set bit of `upper`.
    fn select(&self, i: usize) -> u64 {
        let anchor = self.samples[i / SELECT_STRIDE];
        let mut remaining = i % SELECT_STRIDE;
        let mut w = (anchor / 64) as usize;
        let mut word = self.upper[w] & (!0u64 << (anchor % 64));
        loop {
            let ones = word.count_ones() as usize;
            if remaining < ones {
                let mut x = word;
                for _ in 0..remaining {
                    x &= x - 1;
                }
                return (w as u64) * 64 + u64::from(x.trailing_zeros());
            }
            remaining -= ones;
            w += 1;
            word = self.upper[w];
        }
    }

    fn lower_bits(&self, i: usize) -> u64 {
        if self.l == 0 {
            return 0;
        }
        let at = i * self.l as usize;
        let shift = at % 64;
        let mut v = self.lower[at / 64] >> shift;
        if shift + self.l as usize > 64 {
            v |= self.lower[at / 64 + 1] << (64 - shift);
        }
        v & ((1u64 << self.l) - 1)
    }
}

/// Sequential cursor over an [`EliasFano`] sequence; see
/// [`EliasFano::iter`].
pub struct EfIter<'a> {
    ef: &'a EliasFano,
    i: usize,
    w: usize,
    word: u64,
}

impl Iterator for EfIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.i == self.ef.count {
            return None;
        }
        while self.word == 0 {
            self.w += 1;
            self.word = self.ef.upper[self.w];
        }
        let pos = (self.w as u64) * 64 + u64::from(self.word.trailing_zeros());
        self.word &= self.word - 1;
        let value = ((pos - self.i as u64) << self.ef.l) | self.ef.lower_bits(self.i);
        self.i += 1;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.ef.count - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for EfIter<'_> {}

/// The classic width choice: `⌊log₂(universe / count)⌋` lower bits.
fn pick_l(universe: u64, count: usize) -> u32 {
    if count == 0 || universe / count as u64 == 0 {
        0
    } else {
        (universe / count as u64).ilog2()
    }
}

fn build_samples(upper: &[u64], count: usize) -> Vec<u64> {
    let mut samples = Vec::with_capacity(count / SELECT_STRIDE + 1);
    let mut seen = 0usize;
    for (w, &word) in upper.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            if seen % SELECT_STRIDE == 0 {
                samples.push((w as u64) * 64 + u64::from(bits.trailing_zeros()));
            }
            seen += 1;
            if seen >= count {
                return samples;
            }
            bits &= bits - 1;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64]) {
        let ef = EliasFano::from_monotone(values);
        assert_eq!(ef.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v, "index {i}");
        }
        assert_eq!(ef.iter().collect::<Vec<_>>(), values, "iter disagrees with get");
        for i in 0..values.len().saturating_sub(1) {
            assert_eq!(ef.range(i), (values[i], values[i + 1]), "range {i}");
        }
        let decoded = EliasFano::decode(&ef.encode(), values.len()).unwrap();
        assert_eq!(decoded, ef);
    }

    #[test]
    fn small_sequences_round_trip() {
        round_trip(&[]);
        round_trip(&[0]);
        round_trip(&[7]);
        round_trip(&[0, 0, 0]);
        round_trip(&[0, 1, 2, 3, 4, 5]);
        round_trip(&[0, 100, 100, 250, 251, 1 << 40]);
        // l = 0 with neighbouring set bits in different upper words: bit
        // 62 → 127, and bit 63 → 164 across the empty word 1.
        round_trip(&[[0; 63].as_slice(), &[64]].concat());
        round_trip(&[[0; 64].as_slice(), &[100]].concat());
    }

    #[test]
    fn dense_and_sparse_sequences() {
        let dense: Vec<u64> = (0..5000).map(|i| i / 3).collect();
        round_trip(&dense);
        let sparse: Vec<u64> = (0..3000).map(|i| i * i * 17).collect();
        round_trip(&sparse);
        // Long runs of equal values stress select across empty buckets.
        let runs: Vec<u64> = (0..4000).map(|i| (i / 500) * 1_000_000).collect();
        round_trip(&runs);
    }

    #[test]
    fn compresses_typical_offsets() {
        // ~10 bytes per block on average: EF should land near
        // 2 + log2(10) ≈ 5-6 bits per entry, far under 64.
        let offsets: Vec<u64> = (0..10_000u64).map(|i| i * 10).collect();
        let ef = EliasFano::from_monotone(&offsets);
        let bits_per_entry = (ef.encode().len() * 8) as f64 / offsets.len() as f64;
        assert!(bits_per_entry < 8.0, "got {bits_per_entry}");
    }

    #[test]
    fn hostile_payloads_are_typed_errors() {
        let ef = EliasFano::from_monotone(&[0, 5, 9]);
        let good = ef.encode();
        // Count above the caller's bound.
        assert!(matches!(EliasFano::decode(&good, 2), Err(StoreError::Corrupt { .. })));
        // Truncated words.
        assert!(EliasFano::decode(&good[..good.len() - 1], 3).is_err());
        // Empty payload.
        assert!(EliasFano::decode(&[], 3).is_err());
        // Upper bits holding the wrong number of markers: flip one word.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        assert!(matches!(EliasFano::decode(&bad, 3), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn resident_bytes_positive() {
        let ef = EliasFano::from_monotone(&[0, 1, 2]);
        assert!(ef.resident_bytes() > 0);
    }
}
