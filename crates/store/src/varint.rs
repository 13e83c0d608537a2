//! LEB128 variable-length integer coding.
//!
//! The adjacency sections store node-id gaps, which on sorted real-world
//! adjacency lists are overwhelmingly small — LEB128 gets most of them
//! into one byte where the text format spends 5-8 digit characters plus a
//! separator. Hand-rolled (like the `vendor/` shims) because the build
//! runs without crates.io access.
//!
//! Public because `ssr-serve`'s binary wire codec (`ssb/1`) frames its
//! messages with the same coding — one varint implementation, one set of
//! truncation/overflow semantics across disk and wire.

/// Appends the LEB128 encoding of `value` to `out`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 integer from `buf[*pos..]`, advancing `*pos`.
///
/// Returns `None` on truncation (the continuation bit set on the last
/// available byte) or overflow past 64 bits — both are corruption, never
/// a panic. One- and two-byte values (nearly all adjacency gaps) take a
/// fast path with no branch on the length, which a mix of the two would
/// mispredict; this function sits in the inner loop of the zero-parse
/// load and of every random-access row decode.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    if let Some(pair) = buf.get(*pos..pos.saturating_add(2)) {
        let (b0, b1) = (u64::from(pair[0]), u64::from(pair[1]));
        let two = b0 >> 7;
        if two & (b1 >> 7) == 0 {
            *pos += 1 + two as usize;
            return Some((b0 & 0x7f) | ((b1 << 7) & two.wrapping_neg()));
        }
    }
    let &first = buf.get(*pos)?;
    *pos += 1;
    if first & 0x80 == 0 {
        return Some(u64::from(first));
    }
    read_varint_slow(buf, pos, first)
}

/// Continuation of [`read_varint`] after a first byte with the
/// continuation bit set.
#[cold]
fn read_varint_slow(buf: &[u8], pos: &mut usize, first: u8) -> Option<u64> {
    let mut value = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        // The 10th byte of a u64 varint may only carry the lowest bit.
        if shift == 63 && byte > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> usize {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), Some(v), "value {v}");
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn encodes_boundaries() {
        assert_eq!(round_trip(0), 1);
        assert_eq!(round_trip(127), 1);
        assert_eq!(round_trip(128), 2);
        assert_eq!(round_trip(16_383), 2);
        assert_eq!(round_trip(16_384), 3);
        assert_eq!(round_trip(u64::from(u32::MAX)), 5);
        assert_eq!(round_trip(u64::MAX), 10); // ⌈64/7⌉ bytes
    }

    #[test]
    fn dense_sweep_round_trips() {
        for v in (0..100_000u64).chain((0..64).map(|s| 1u64 << s)) {
            round_trip(v);
        }
    }

    #[test]
    fn truncated_stream_is_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 300);
        buf.truncate(1); // continuation bit set, second byte missing
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
        assert_eq!(read_varint(&[], &mut 0), None);
    }

    #[test]
    fn overlong_encoding_is_none() {
        // 11 continuation bytes can never terminate inside u64.
        let buf = [0x80u8; 11];
        assert_eq!(read_varint(&buf, &mut 0), None);
        // 10th byte carrying more than the top bit overflows.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(read_varint(&buf, &mut 0), None);
    }

    #[test]
    fn sequential_decode_advances() {
        // One-, two- and three-byte values next to each other, so the
        // two-byte fast path sees the next value's continuation bits.
        let values = [5u64, 1000, 0, 77, 128, 16_383, 16_384, 127, u64::MAX, 300, 1];
        let mut buf = Vec::new();
        for v in values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        let got: Vec<u64> = std::iter::from_fn(|| read_varint(&buf, &mut pos)).collect();
        assert_eq!(got, values);
        assert_eq!(pos, buf.len());
    }
}
