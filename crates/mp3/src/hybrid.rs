//! Hybrid filterbank glue (`III_hybrid`): overlap-add of IMDCT blocks.
//!
//! Each subband's 36 windowed IMDCT outputs overlap-add with the previous
//! granule's tail to produce the 18 time-domain samples per subband that feed
//! the polyphase synthesis filterbank. The stage also applies the frequency
//! inversion of odd subbands required by the analysis filterbank.

use symmap_platform::cost::{InstructionClass, OpCounts};

use crate::types::{IMDCT_SIZE, LINES_PER_SUBBAND, SUBBANDS};

/// Which variant of the hybrid stage to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridVariant {
    /// Double-precision adds.
    Reference,
    /// Fixed-point adds.
    Fixed,
}

/// Stateful overlap-add buffer (per subband).
#[derive(Debug, Clone)]
pub struct HybridFilter {
    variant: HybridVariant,
    overlap: Vec<Vec<f64>>,
}

impl HybridFilter {
    /// Creates the filter with zeroed overlap state.
    pub fn new(variant: HybridVariant) -> Self {
        HybridFilter {
            variant,
            overlap: vec![vec![0.0; LINES_PER_SUBBAND]; SUBBANDS],
        }
    }

    /// The configured variant.
    pub fn variant(&self) -> HybridVariant {
        self.variant
    }

    /// Consumes one granule of IMDCT blocks (32 blocks × 36 samples) and
    /// produces 18 time slots of 32 subband samples each.
    ///
    /// # Panics
    ///
    /// Panics if the block shape is not 32 × 36.
    pub fn process(&mut self, blocks: &[Vec<f64>], ops: &mut OpCounts) -> Vec<Vec<f64>> {
        assert_eq!(blocks.len(), SUBBANDS, "hybrid expects 32 IMDCT blocks");
        assert!(
            blocks.iter().all(|b| b.len() == IMDCT_SIZE),
            "hybrid expects 36-sample blocks"
        );
        let mut slots = vec![vec![0.0_f64; SUBBANDS]; LINES_PER_SUBBAND];
        for (sb, block) in blocks.iter().enumerate() {
            for t in 0..LINES_PER_SUBBAND {
                let mut sample = block[t] + self.overlap[sb][t];
                // Frequency inversion of odd subbands on odd time slots.
                if sb % 2 == 1 && t % 2 == 1 {
                    sample = -sample;
                }
                slots[t][sb] = sample;
            }
            // Save the second half of the block as the next granule's overlap.
            self.overlap[sb].copy_from_slice(&block[LINES_PER_SUBBAND..]);
        }
        // Per output sample: one add, two loads and one store, plus one more
        // store to save the overlap value it replaces.
        let samples = (SUBBANDS * LINES_PER_SUBBAND) as u64;
        let add = match self.variant {
            HybridVariant::Reference => InstructionClass::FloatAddSoft,
            HybridVariant::Fixed => InstructionClass::IntAlu,
        };
        ops.add(add, samples);
        ops.add(InstructionClass::Load, 2 * samples);
        ops.add(InstructionClass::Store, 2 * samples);
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(value: f64) -> Vec<Vec<f64>> {
        vec![vec![value; IMDCT_SIZE]; SUBBANDS]
    }

    #[test]
    fn produces_18_slots_of_32_bands() {
        let mut h = HybridFilter::new(HybridVariant::Reference);
        let out = h.process(&blocks(0.5), &mut OpCounts::new());
        assert_eq!(out.len(), LINES_PER_SUBBAND);
        assert!(out.iter().all(|slot| slot.len() == SUBBANDS));
    }

    #[test]
    fn overlap_carries_between_granules() {
        let mut h = HybridFilter::new(HybridVariant::Reference);
        let mut ops = OpCounts::new();
        let first = h.process(&blocks(1.0), &mut ops);
        let second = h.process(&blocks(0.0), &mut ops);
        // First granule has no history: slot value 1.0 for even subbands.
        assert_eq!(first[0][0], 1.0);
        // Second granule sees the first granule's tail (1.0) overlap-added to 0.
        assert_eq!(second[0][0], 1.0);
        // Third granule of silence has silent history.
        let third = h.process(&blocks(0.0), &mut ops);
        assert_eq!(third[0][0], 0.0);
    }

    #[test]
    fn odd_subband_frequency_inversion() {
        let mut h = HybridFilter::new(HybridVariant::Fixed);
        let out = h.process(&blocks(1.0), &mut OpCounts::new());
        // Subband 1, time slot 1 is inverted.
        assert_eq!(out[1][1], -1.0);
        assert_eq!(out[0][1], 1.0);
        assert_eq!(out[1][0], 1.0);
    }

    #[test]
    #[should_panic(expected = "32 IMDCT blocks")]
    fn wrong_shape_panics() {
        let mut h = HybridFilter::new(HybridVariant::Reference);
        h.process(&vec![vec![0.0; IMDCT_SIZE]; 3], &mut OpCounts::new());
    }
}
