//! Antialiasing butterflies (`III_antialias`).
//!
//! Eight butterfly operations are applied across each of the 31 subband
//! boundaries to reduce aliasing introduced by the analysis filterbank. The
//! coefficient pairs `(cs_i, ca_i)` come from the standard's `c_i` constants.

use symmap_platform::cost::{InstructionClass, OpCounts};

use crate::types::{LINES_PER_SUBBAND, SAMPLES_PER_GRANULE, SUBBANDS};

/// Number of butterflies per subband boundary.
pub const BUTTERFLIES: usize = 8;

/// The standard's antialias coefficients `c_i`.
const C: [f64; BUTTERFLIES] = [
    -0.6, -0.535, -0.33, -0.185, -0.095, -0.041, -0.0142, -0.0037,
];

/// Returns the `(cs, ca)` coefficient pairs.
pub fn coefficients() -> [(f64, f64); BUTTERFLIES] {
    let mut out = [(0.0, 0.0); BUTTERFLIES];
    for (i, &c) in C.iter().enumerate() {
        let norm = (1.0 + c * c).sqrt();
        out[i] = (1.0 / norm, c / norm);
    }
    out
}

/// Which variant of the antialias kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AntialiasVariant {
    /// Double precision.
    Reference,
    /// Fixed point.
    Fixed,
}

/// Applies the antialiasing butterflies in place.
pub fn process(spectrum: &mut [f64], variant: AntialiasVariant, ops: &mut OpCounts) {
    assert_eq!(
        spectrum.len(),
        SAMPLES_PER_GRANULE,
        "antialias stage expects one granule"
    );
    let coeffs = coefficients();
    for sb in 1..SUBBANDS {
        for (i, &(cs, ca)) in coeffs.iter().enumerate() {
            let lower = sb * LINES_PER_SUBBAND - 1 - i;
            let upper = sb * LINES_PER_SUBBAND + i;
            let a = spectrum[lower];
            let b = spectrum[upper];
            spectrum[lower] = a * cs - b * ca;
            spectrum[upper] = b * cs + a * ca;
        }
    }
    // Per butterfly: four multiplies and two adds, two loads, two stores.
    let butterflies = ((SUBBANDS - 1) * BUTTERFLIES) as u64;
    match variant {
        AntialiasVariant::Reference => {
            ops.add(InstructionClass::FloatMulSoft, 4 * butterflies);
            ops.add(InstructionClass::FloatAddSoft, 2 * butterflies);
        }
        AntialiasVariant::Fixed => ops.add(InstructionClass::IntMac, 4 * butterflies),
    }
    ops.add(InstructionClass::Load, 2 * butterflies);
    ops.add(InstructionClass::Store, 2 * butterflies);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_are_normalized() {
        for (cs, ca) in coefficients() {
            assert!((cs * cs + ca * ca - 1.0).abs() < 1e-12);
            assert!(cs > 0.0 && ca <= 0.0);
        }
    }

    #[test]
    fn butterflies_preserve_energy() {
        let mut spectrum: Vec<f64> = (0..SAMPLES_PER_GRANULE)
            .map(|i| ((i as f64) * 0.1).sin())
            .collect();
        let before: f64 = spectrum.iter().map(|v| v * v).sum();
        let mut ops = OpCounts::new();
        process(&mut spectrum, AntialiasVariant::Reference, &mut ops);
        let after: f64 = spectrum.iter().map(|v| v * v).sum();
        // Each butterfly is a rotation, so total energy is preserved.
        assert!((before - after).abs() / before < 1e-9);
        assert_eq!(
            ops.count(InstructionClass::FloatMulSoft),
            (31 * BUTTERFLIES * 4) as u64
        );
    }

    #[test]
    fn silence_stays_silent() {
        let mut spectrum = vec![0.0_f64; SAMPLES_PER_GRANULE];
        process(&mut spectrum, AntialiasVariant::Fixed, &mut OpCounts::new());
        assert!(spectrum.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fixed_variant_counts_macs() {
        let mut spectrum = vec![0.25_f64; SAMPLES_PER_GRANULE];
        let mut ops = OpCounts::new();
        process(&mut spectrum, AntialiasVariant::Fixed, &mut ops);
        assert!(ops.count(InstructionClass::IntMac) > 0);
        assert_eq!(ops.count(InstructionClass::FloatMulSoft), 0);
    }
}
