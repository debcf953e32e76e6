//! Huffman coding of quantized spectral values.
//!
//! Layer III Huffman-codes spectral values in pairs with escape codes for
//! large magnitudes. The reproduction uses one canonical code table built from
//! a fixed value-pair frequency model (rather than the 32 tables of the
//! standard); the decode loop has the same structure — bit-serial tree walk,
//! sign bits, escape linbits — so its control/ALU cost profile matches the
//! `III_hufman_decode` row of the paper's profiles.

use std::sync::OnceLock;

use symmap_platform::cost::{InstructionClass, OpCounts};

use crate::bitstream::{BitReader, BitWriter};

/// Largest magnitude representable without an escape code.
pub const MAX_DIRECT: i32 = 15;
/// Number of linbits used by the escape code.
pub const LINBITS: u8 = 13;

/// Number of distinct magnitudes per pair element (`0..=MAX_DIRECT`).
const MAGNITUDES: usize = MAX_DIRECT as usize + 1;
/// Bits the decoder reads for one pair before giving up on a corrupt stream.
const MAX_CODE_LEN: usize = 21;

/// A canonical Huffman code for value pairs `(|x|, |y|)` with `|x|, |y| <= 15`.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// `codes[x][y] = (code, length)`.
    codes: [[(u32, u8); MAGNITUDES]; MAGNITUDES],
    /// The symbols in canonical order: by code length, then code.
    symbols: [(u32, u32); MAGNITUDES * MAGNITUDES],
    /// `first_code[len]`: the code of the first symbol of length `len`.
    first_code: [u32; MAX_CODE_LEN + 1],
    /// `count[len]`: how many symbols have length `len`.
    count: [u32; MAX_CODE_LEN + 1],
    /// `offset[len]`: index in `symbols` of the first symbol of length `len`.
    offset: [usize; MAX_CODE_LEN + 1],
}

impl HuffmanTable {
    /// The table used by the synthetic stream, built once per process: code
    /// lengths grow with the sum of the pair magnitudes, which mimics the
    /// statistics of real audio (small values are overwhelmingly more
    /// common).
    pub fn standard() -> &'static HuffmanTable {
        static TABLE: OnceLock<HuffmanTable> = OnceLock::new();
        TABLE.get_or_init(HuffmanTable::build_standard)
    }

    fn build_standard() -> Self {
        // Assign lengths by magnitude sum, then build canonical codes.
        let mut symbols: Vec<(usize, usize, u8)> = Vec::new();
        for x in 0..MAGNITUDES {
            for y in 0..MAGNITUDES {
                let len = match x + y {
                    0 => 1,
                    1 => 3,
                    2 => 5,
                    3..=4 => 7,
                    5..=7 => 9,
                    8..=11 => 11,
                    12..=17 => 13,
                    _ => 15,
                };
                symbols.push((x, y, len));
            }
        }
        // Canonical code assignment: sort by (length, x, y).
        symbols.sort_by_key(|&(x, y, len)| (len, x, y));
        let mut table = HuffmanTable {
            codes: [[(0, 0); MAGNITUDES]; MAGNITUDES],
            symbols: [(0, 0); MAGNITUDES * MAGNITUDES],
            first_code: [0; MAX_CODE_LEN + 1],
            count: [0; MAX_CODE_LEN + 1],
            offset: [0; MAX_CODE_LEN + 1],
        };
        let mut code = 0_u32;
        let mut prev_len = symbols[0].2;
        for (index, &(x, y, len)) in symbols.iter().enumerate() {
            code <<= len - prev_len;
            prev_len = len;
            table.codes[x][y] = (code, len);
            let l = len as usize;
            if table.count[l] == 0 {
                table.first_code[l] = code;
                table.offset[l] = index;
            }
            table.count[l] += 1;
            table.symbols[index] = (x as u32, y as u32);
            code += 1;
        }
        table
    }

    /// Code and length for a magnitude pair.
    ///
    /// # Panics
    ///
    /// Panics if either magnitude exceeds [`MAX_DIRECT`].
    pub fn code(&self, x: u32, y: u32) -> (u32, u8) {
        self.codes[x as usize][y as usize]
    }

    /// The symbol whose code of length `len` is `code`, if any. Canonical
    /// codes of one length are consecutive, so this is a range check.
    fn symbol(&self, len: usize, code: u32) -> Option<(u32, u32)> {
        let index = code.wrapping_sub(self.first_code[len]);
        (index < self.count[len]).then(|| self.symbols[self.offset[len] + index as usize])
    }

    /// Decodes one magnitude pair by walking the canonical code bit by bit.
    /// Returns `None` on a truncated stream.
    pub fn decode_pair(
        &self,
        reader: &mut BitReader<'_>,
        ops: &mut OpCounts,
    ) -> Option<(u32, u32)> {
        let mut code = 0_u32;
        let mut len = 0;
        let pair = loop {
            let Some(bit) = reader.read_bit() else {
                break None;
            };
            code = (code << 1) | bit as u32;
            len += 1;
            if let Some(pair) = self.symbol(len, code) {
                break Some(pair);
            }
            if len == MAX_CODE_LEN {
                break None;
            }
        };
        // Per accumulated bit: shift-or and a length bump, a loop branch and
        // one table probe, as a real table-driven decoder would issue.
        let bits = len as u64;
        ops.add(InstructionClass::IntAlu, 2 * bits);
        ops.add(InstructionClass::Branch, bits);
        ops.add(InstructionClass::TableLookup, bits);
        pair
    }
}

/// Encodes a slice of quantized values (pairwise) into a bit stream.
pub fn encode(values: &[i32], table: &HuffmanTable) -> Vec<u8> {
    let mut w = BitWriter::new();
    for pair in values.chunks(2) {
        let x = pair[0];
        let y = if pair.len() > 1 { pair[1] } else { 0 };
        let (cx, cy) = (clamp_mag(x), clamp_mag(y));
        let (code, len) = table.code(cx, cy);
        w.write_bits(code, len);
        // Escape linbits for magnitudes above the direct range.
        if cx == MAX_DIRECT as u32 {
            w.write_bits(
                (x.unsigned_abs() - MAX_DIRECT as u32) & ((1 << LINBITS) - 1),
                LINBITS,
            );
        }
        if cy == MAX_DIRECT as u32 {
            w.write_bits(
                (y.unsigned_abs() - MAX_DIRECT as u32) & ((1 << LINBITS) - 1),
                LINBITS,
            );
        }
        // Sign bits for non-zero values.
        if x != 0 {
            w.write_bits((x < 0) as u32, 1);
        }
        if y != 0 {
            w.write_bits((y < 0) as u32, 1);
        }
    }
    w.into_bytes()
}

fn clamp_mag(v: i32) -> u32 {
    v.unsigned_abs().min(MAX_DIRECT as u32)
}

/// Decodes `count` quantized values from a bit stream, accumulating the
/// dynamic operation counts of the decode loop into `ops`.
pub fn decode(
    bytes: &[u8],
    count: usize,
    table: &HuffmanTable,
    ops: &mut OpCounts,
) -> Option<Vec<i32>> {
    let mut reader = BitReader::new(bytes);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (mx, my) = table.decode_pair(&mut reader, ops)?;
        let mut vals = [mx, my];
        for v in vals.iter_mut() {
            if *v == MAX_DIRECT as u32 {
                let lin = reader.read_bits(LINBITS)?;
                *v += lin;
                ops.add(InstructionClass::IntAlu, 1);
            }
        }
        for (i, &v) in vals.iter().enumerate() {
            if out.len() >= count && i == 1 {
                break;
            }
            let signed = if v != 0 {
                let sign = reader.read_bit()?;
                ops.add(InstructionClass::Branch, 1);
                if sign == 1 {
                    -(v as i32)
                } else {
                    v as i32
                }
            } else {
                0
            };
            ops.add(InstructionClass::Store, 1);
            out.push(signed);
            if out.len() == count {
                break;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonical_codes_are_prefix_free() {
        let t = HuffmanTable::standard();
        let mut all: Vec<(u32, u8)> = Vec::new();
        for x in 0..=MAX_DIRECT as u32 {
            for y in 0..=MAX_DIRECT as u32 {
                all.push(t.code(x, y));
            }
        }
        for (i, &(ci, li)) in all.iter().enumerate() {
            for (j, &(cj, lj)) in all.iter().enumerate() {
                if i == j {
                    continue;
                }
                if li <= lj {
                    assert_ne!(ci, cj >> (lj - li), "code {i} is a prefix of code {j}");
                }
            }
        }
    }

    #[test]
    fn small_values_get_short_codes() {
        let t = HuffmanTable::standard();
        assert!(t.code(0, 0).1 < t.code(5, 5).1);
        assert!(t.code(1, 0).1 < t.code(15, 15).1);
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = HuffmanTable::standard();
        let values: Vec<i32> = vec![0, 1, -1, 3, -7, 15, 0, 0, 2, -2, 14, -15, 9, 0, -4, 5];
        let bytes = encode(&values, t);
        let mut ops = OpCounts::new();
        let decoded = decode(&bytes, values.len(), t, &mut ops).unwrap();
        assert_eq!(decoded, values);
        assert!(ops.total() > 0);
    }

    #[test]
    fn escape_values_round_trip() {
        let t = HuffmanTable::standard();
        let values: Vec<i32> = vec![100, -200, 15, -15, 4095, 0];
        let bytes = encode(&values, t);
        let mut ops = OpCounts::new();
        let decoded = decode(&bytes, values.len(), t, &mut ops).unwrap();
        assert_eq!(decoded, values);
    }

    #[test]
    fn truncated_stream_returns_none() {
        let t = HuffmanTable::standard();
        let values: Vec<i32> = vec![3; 64];
        let mut bytes = encode(&values, t);
        bytes.truncate(2);
        let mut ops = OpCounts::new();
        assert!(decode(&bytes, values.len(), t, &mut ops).is_none());
    }

    #[test]
    fn odd_length_input() {
        let t = HuffmanTable::standard();
        let values: Vec<i32> = vec![1, -2, 3];
        let bytes = encode(&values, t);
        let mut ops = OpCounts::new();
        let decoded = decode(&bytes, values.len(), t, &mut ops).unwrap();
        assert_eq!(decoded, values);
    }

    #[test]
    fn every_pair_and_every_escape_and_sign_path_round_trips() {
        let t = HuffmanTable::standard();
        // All 256 direct magnitude pairs, each with every sign combination.
        for x in 0..=MAX_DIRECT {
            for y in 0..=MAX_DIRECT {
                for (sx, sy) in [(1, 1), (-1, 1), (1, -1), (-1, -1)] {
                    let values = vec![sx * x, sy * y];
                    let bytes = encode(&values, t);
                    let mut ops = OpCounts::new();
                    let decoded = decode(&bytes, 2, t, &mut ops).unwrap();
                    assert_eq!(decoded, values);
                    // Per code bit: two ALU ops, a branch and a probe; one
                    // ALU op per escape, one branch per sign, one store per
                    // value.
                    let len = u64::from(t.code(x as u32, y as u32).1);
                    let escapes = values.iter().filter(|v| v.abs() == MAX_DIRECT).count();
                    let signs = values.iter().filter(|&&v| v != 0).count();
                    assert_eq!(ops.count(InstructionClass::TableLookup), len);
                    assert_eq!(
                        ops.count(InstructionClass::IntAlu),
                        2 * len + escapes as u64
                    );
                    assert_eq!(ops.count(InstructionClass::Branch), len + signs as u64);
                    assert_eq!(ops.count(InstructionClass::Store), 2);
                }
            }
        }
        // Escapes on either or both sides, at the edges of the linbits range.
        let top = MAX_DIRECT + (1 << LINBITS) - 1;
        for values in [
            vec![MAX_DIRECT, 0],
            vec![0, -MAX_DIRECT],
            vec![MAX_DIRECT + 1, -(MAX_DIRECT + 1)],
            vec![-top, top],
            vec![top, 3],
        ] {
            let bytes = encode(&values, t);
            let mut ops = OpCounts::new();
            assert_eq!(decode(&bytes, 2, t, &mut ops).unwrap(), values);
        }
    }

    #[test]
    fn corrupt_stream_gives_up_after_the_longest_probe() {
        // Fifteen-bit codes are the longest; a run of ones past every
        // assigned code matches nothing.
        let t = HuffmanTable::standard();
        let bytes = [0xff; 4];
        let mut ops = OpCounts::new();
        assert!(t
            .decode_pair(&mut BitReader::new(&bytes), &mut ops)
            .is_none());
        assert_eq!(
            ops.count(InstructionClass::TableLookup),
            MAX_CODE_LEN as u64
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_round_trip(values in proptest::collection::vec(-4000_i32..4000, 2..120)) {
            let t = HuffmanTable::standard();
            let bytes = encode(&values, t);
            let mut ops = OpCounts::new();
            let decoded = decode(&bytes, values.len(), t, &mut ops).unwrap();
            prop_assert_eq!(decoded, values);
        }
    }
}
