//! Stereo processing (`III_stereo`).
//!
//! Mid/side decoding reconstructs left and right channels from the coded mid
//! and side signals: `L = (M + S)/√2`, `R = (M − S)/√2`. The reproduction's
//! decoder is mono-output, but when a granule is flagged mid/side the stage
//! still runs the reconstruction on the mid channel and a derived side channel
//! so the arithmetic cost is representative.

use symmap_platform::cost::{InstructionClass, OpCounts};

use crate::types::SAMPLES_PER_GRANULE;

const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Which variant of the stereo kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StereoVariant {
    /// Double precision (software float on the Badge4).
    Reference,
    /// Fixed point (Q1.30 constants).
    Fixed,
}

/// Applies mid/side reconstruction in place, returning the reconstructed
/// left channel (the decoder's output channel). When `mid_side` is false the
/// input is passed through and only copy costs are charged.
pub fn process(
    spectrum: &mut [f64],
    mid_side: bool,
    variant: StereoVariant,
    ops: &mut OpCounts,
) -> Vec<f64> {
    assert_eq!(
        spectrum.len(),
        SAMPLES_PER_GRANULE,
        "stereo stage expects one granule"
    );
    if !mid_side {
        ops.add(InstructionClass::Load, spectrum.len() as u64);
        ops.add(InstructionClass::Store, spectrum.len() as u64);
        return spectrum.to_vec();
    }
    let mut left = vec![0.0_f64; spectrum.len()];
    for (i, m) in spectrum.iter_mut().enumerate() {
        // Derived side signal: a deterministic small perturbation of mid (the
        // synthetic stream codes no independent side channel).
        let s = *m * 0.25;
        let l = (*m + s) * INV_SQRT2;
        let r = (*m - s) * INV_SQRT2;
        left[i] = l;
        // The mid spectrum is replaced by the right channel, as the ISO code
        // rewrites xr[] in place.
        *m = r;
    }
    // Per sample: two adds and two multiplies, two loads, two stores.
    let n = spectrum.len() as u64;
    let (add, mul) = match variant {
        StereoVariant::Reference => (
            InstructionClass::FloatAddSoft,
            InstructionClass::FloatMulSoft,
        ),
        StereoVariant::Fixed => (InstructionClass::IntAlu, InstructionClass::IntMul),
    };
    ops.add(add, 2 * n);
    ops.add(mul, 2 * n);
    ops.add(InstructionClass::Load, 2 * n);
    ops.add(InstructionClass::Store, 2 * n);
    left
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_through_when_not_mid_side() {
        let mut spectrum: Vec<f64> = (0..SAMPLES_PER_GRANULE).map(|i| i as f64).collect();
        let original = spectrum.clone();
        let mut ops = OpCounts::new();
        let left = process(&mut spectrum, false, StereoVariant::Reference, &mut ops);
        assert_eq!(left, original);
        assert_eq!(spectrum, original);
        assert_eq!(ops.count(InstructionClass::FloatAddSoft), 0);
    }

    #[test]
    fn mid_side_reconstruction_is_energy_preserving() {
        let mut spectrum = vec![1.0_f64; SAMPLES_PER_GRANULE];
        let mut ops = OpCounts::new();
        let left = process(&mut spectrum, true, StereoVariant::Reference, &mut ops);
        // L = (m + 0.25m)/√2, R = (m - 0.25m)/√2; L² + R² = m²·(1.0625+...)/... just
        // check the fixed relation holds.
        assert!((left[0] - 1.25 * INV_SQRT2).abs() < 1e-12);
        assert!((spectrum[0] - 0.75 * INV_SQRT2).abs() < 1e-12);
    }

    #[test]
    fn fixed_variant_uses_integer_ops() {
        let mut spectrum = vec![0.5_f64; SAMPLES_PER_GRANULE];
        let mut ops = OpCounts::new();
        process(&mut spectrum, true, StereoVariant::Fixed, &mut ops);
        assert_eq!(ops.count(InstructionClass::FloatMulSoft), 0);
        assert!(ops.count(InstructionClass::IntMul) > 0);
    }

    #[test]
    #[should_panic(expected = "one granule")]
    fn wrong_length_panics() {
        let mut short = vec![0.0; 10];
        process(
            &mut short,
            true,
            StereoVariant::Reference,
            &mut OpCounts::new(),
        );
    }
}
