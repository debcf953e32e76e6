//! Requantization (`III_dequantize_sample`).
//!
//! The dequantizer reconstructs spectral values from the Huffman-decoded
//! integers: `xr = sign(is) * |is|^(4/3) * 2^(gain/4 - scalefactor/2)`.
//! In the ISO reference code this is the single most expensive function of
//! the whole decoder (45% of the frame in Table 3) because it calls the
//! floating-point `pow` from the math library for every sample — on a
//! processor without an FPU each call costs thousands of cycles.
//!
//! Three variants are provided:
//!
//! * [`dequantize_reference`] — per-sample `pow` calls, like the ISO sources,
//! * [`dequantize_fixed`] — in-house fixed point with a precomputed
//!   `|is|^(4/3)` table and power-of-two shifts,
//! * [`dequantize_ipp`] — IPP-style fixed point with pair-at-a-time table
//!   lookups and fewer per-sample overheads.

use std::sync::OnceLock;

use symmap_platform::cost::{InstructionClass, OpCounts};
use symmap_platform::memory::MemoryRegion;

use crate::types::{Granule, LINES_PER_SUBBAND, SAMPLES_PER_GRANULE, SUBBANDS};

/// Normalization applied to every reconstructed sample so that the decoder's
/// PCM output lands in the nominal ±1 full-scale range (the standard's
/// global-gain bias of 210 plays the same role).
pub const GAIN_BIAS: f64 = 4096.0;

/// Exact requantization scale of subband `sb`.
fn scale_for(granule: &Granule, sb: usize) -> f64 {
    let sf = granule.scalefactors[sb] as f64;
    (2.0_f64).powf(granule.global_gain as f64 / 4.0 - sf / 2.0) / GAIN_BIAS
}

/// The requantization loop every variant computes on the host:
/// `sign(is) · |is|^(4/3) · scale(subband)`, with the magnitude power from
/// `pow43` and each subband's scale computed once and passed through `round`.
fn requantize(granule: &Granule, pow43: impl Fn(i32) -> f64, round: fn(f64) -> f64) -> Vec<f64> {
    let scales: [f64; SUBBANDS] = std::array::from_fn(|sb| round(scale_for(granule, sb)));
    let mut out = vec![0.0_f64; SAMPLES_PER_GRANULE];
    for (i, &q) in granule.quantized.iter().enumerate() {
        out[i] = q.signum() as f64 * pow43(q) * scales[i / LINES_PER_SUBBAND];
    }
    out
}

/// Reference double-precision dequantizer (ISO style): recomputes the powers
/// for every sample with math-library calls.
pub fn dequantize_reference(granule: &Granule, ops: &mut OpCounts) -> Vec<f64> {
    let out = requantize(granule, |q| (q.abs() as f64).powf(4.0 / 3.0), |s| s);
    // The ISO code calls pow() several times per sample: |is|^(4/3), the
    // global-gain power of two, the scalefactor and pre-emphasis powers of
    // two are all recomputed from scratch inside the sample loop.
    let n = granule.quantized.len() as u64;
    ops.add(InstructionClass::LibmCall, 5 * n);
    ops.add(InstructionClass::FloatMulSoft, 3 * n);
    ops.add(InstructionClass::FloatConvSoft, n);
    ops.add(InstructionClass::Load, 2 * n);
    ops.add(InstructionClass::Store, n);
    ops.add_memory(MemoryRegion::Sdram, 2 * n);
    out
}

/// Size of the `|is|^(4/3)` lookup table used by the fixed-point variants.
pub const POW43_TABLE_SIZE: usize = 8207;

/// The fixed-point `|is|^(4/3)` table (shared by the IH and IPP variants; a
/// real port stores it in SRAM), built once per process.
pub fn pow43_table() -> &'static [f64] {
    static TABLE: OnceLock<[f64; POW43_TABLE_SIZE]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|i| (i as f64).powf(4.0 / 3.0)))
}

/// The table-driven requantization shared by the fixed-point variants:
/// `|is|^(4/3)` from `table`, and the scale constant kept to a 32-bit
/// mantissa.
fn dequantize_table(granule: &Granule, table: &[f64]) -> Vec<f64> {
    let pow43 = |q: i32| {
        table
            .get(q.unsigned_abs() as usize)
            .copied()
            .unwrap_or_else(|| (q.abs() as f64).powf(4.0 / 3.0))
    };
    requantize(granule, pow43, quantize_scale)
}

/// In-house fixed-point dequantizer: table lookup plus shift-based scaling.
pub fn dequantize_fixed(granule: &Granule, table: &[f64], ops: &mut OpCounts) -> Vec<f64> {
    let out = dequantize_table(granule, table);
    let n = granule.quantized.len() as u64;
    ops.add(InstructionClass::TableLookup, 2 * n);
    ops.add(InstructionClass::IntAlu, 10 * n);
    ops.add(InstructionClass::IntMul, 2 * n);
    ops.add(InstructionClass::Load, 2 * n);
    ops.add(InstructionClass::Store, n);
    ops.add_memory(MemoryRegion::Sram, n);
    out
}

/// IPP-style dequantizer: identical arithmetic but a tighter inner loop
/// (paired lookups, no per-sample reloads of the scale constants).
pub fn dequantize_ipp(granule: &Granule, table: &[f64], ops: &mut OpCounts) -> Vec<f64> {
    let out = dequantize_table(granule, table);
    // One iteration per sample pair (the last one may be a single sample).
    let pairs = granule.quantized.len().div_ceil(2) as u64;
    ops.add(InstructionClass::TableLookup, 2 * pairs);
    ops.add(InstructionClass::IntAlu, 5 * pairs);
    ops.add(InstructionClass::IntMul, 2 * pairs);
    ops.add(InstructionClass::Load, pairs);
    ops.add(InstructionClass::Store, 2 * pairs);
    ops.add_memory(MemoryRegion::Sram, pairs);
    out
}

/// Quantizes a scale factor to the single-precision mantissa width carried by
/// the 32-bit fixed-point kernels (this is where the fixed-point variants
/// lose accuracy relative to the double-precision reference).
fn quantize_scale(scale: f64) -> f64 {
    scale as f32 as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameGenerator;

    fn test_granule() -> Granule {
        FrameGenerator::new(3).frame().granules[0].clone()
    }

    #[test]
    fn reference_applies_power_law() {
        let mut g = Granule::silent();
        g.quantized[0] = 8;
        g.quantized[1] = -8;
        let mut ops = OpCounts::new();
        let out = dequantize_reference(&g, &mut ops);
        let expected = 8.0_f64.powf(4.0 / 3.0) / GAIN_BIAS;
        assert!((out[0] - expected).abs() < 1e-12);
        assert!((out[1] + expected).abs() < 1e-12);
        assert_eq!(out[2], 0.0);
    }

    #[test]
    fn global_gain_scales_output() {
        let mut g = Granule::silent();
        g.quantized[0] = 4;
        g.global_gain = 4; // 2^(4/4) = 2x
        let mut ops = OpCounts::new();
        let boosted = dequantize_reference(&g, &mut ops)[0];
        g.global_gain = 0;
        let flat = dequantize_reference(&g, &mut ops)[0];
        assert!((boosted / flat - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_and_ipp_track_reference_closely() {
        let g = test_granule();
        let table = pow43_table();
        let mut ops = OpCounts::new();
        let reference = dequantize_reference(&g, &mut ops);
        let fixed = dequantize_fixed(&g, table, &mut ops);
        let ipp = dequantize_ipp(&g, table, &mut ops);
        let rms_fixed = rms(&reference, &fixed);
        let rms_ipp = rms(&reference, &ipp);
        let signal = rms(&reference, &vec![0.0; reference.len()]);
        assert!(
            rms_fixed < signal * 1e-3,
            "fixed rms {rms_fixed} vs signal {signal}"
        );
        assert!(rms_ipp < signal * 1e-3);
    }

    #[test]
    fn reference_costs_far_more_than_fixed() {
        let g = test_granule();
        let table = pow43_table();
        let badge = symmap_platform::machine::Badge4::new();
        let mut ops_ref = OpCounts::new();
        dequantize_reference(&g, &mut ops_ref);
        let mut ops_fixed = OpCounts::new();
        dequantize_fixed(&g, table, &mut ops_fixed);
        let mut ops_ipp = OpCounts::new();
        dequantize_ipp(&g, table, &mut ops_ipp);
        let c_ref = badge.cost_of(&ops_ref).cycles;
        let c_fixed = badge.cost_of(&ops_fixed).cycles;
        let c_ipp = badge.cost_of(&ops_ipp).cycles;
        assert!(c_ref > 50 * c_fixed, "reference {c_ref} vs fixed {c_fixed}");
        assert!(c_fixed > c_ipp, "fixed {c_fixed} vs ipp {c_ipp}");
    }

    #[test]
    fn pow43_table_is_monotone() {
        let t = pow43_table();
        assert_eq!(t.len(), POW43_TABLE_SIZE);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t[0], 0.0);
        assert!((t[8] - 8.0_f64.powf(4.0 / 3.0)).abs() < 1e-12);
    }

    fn rms(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / n).sqrt()
    }
}
