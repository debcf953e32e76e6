//! The host-speed reference kernel.
//!
//! Shared small machines drift between speed phases (frequency, noisy
//! neighbours, a busy SMT sibling), so one raw wall cannot repeat within a
//! tenth. The benchmark therefore runs this fixed kernel next to every timed
//! pass and reports the pass wall divided by the kernel's wall just before it.
//! The kernel does the two kinds of work the workloads do, on fixed inputs:
//! the mapper's allocation, sorting and merging of sparse term lists with
//! packed exponent keys, and the decoder's floating-point transform loops.
//!
//! It uses only the standard library: no change to the workspace crates can
//! make it faster or slower, so the ratio moves only when the program does.

// lint:allow-file(D2): benchmark timing; no clock read here feeds a mapping decision.

use std::hint::black_box;
use std::time::Instant;

/// Wall of one kernel unit at the nominal host speed: about its median on a
/// 2-vCPU Intel Xeon container. `jobs_per_s` and `setup_s` are reported at
/// this speed.
pub const NOMINAL_UNIT_S: f64 = 0.5e-3;

/// A sparse polynomial: `(packed exponents, coefficient)` terms.
type Terms = Vec<(u64, i64)>;

/// Transform geometry: 32 blocks of 18 inputs to 36 outputs, as in an MP3
/// granule's long-block IMDCT.
const BLOCKS: usize = 32;
const IN: usize = 18;
const OUT: usize = 36;
/// Transform sweeps per unit, sizing the float half like the integer half.
const SWEEPS: usize = 24;

/// Fixed inputs of the kernel.
pub struct HostRef {
    pairs: Vec<(Terms, Terms)>,
    cosines: Vec<f64>,
    samples: Vec<f64>,
}

impl HostRef {
    /// Builds the kernel's inputs (a fixed function of nothing).
    pub fn new() -> Self {
        let mut state = 0x005e_ed0f_1e57_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut poly = |terms: usize| -> Terms {
            let mut t: Terms = (0..terms)
                .map(|_| {
                    // Four exponents below 6 packed 16 bits apart.
                    let key = (0..4).fold(0_u64, |k, _| (k << 16) | (next() % 6));
                    (key, (next() % 19) as i64 - 9)
                })
                .collect();
            t.sort_unstable();
            t.dedup_by_key(|(k, _)| *k);
            t
        };
        let pairs = (0..6).map(|_| (poly(40), poly(40))).collect();
        let cosines = (0..OUT * IN)
            .map(|n| {
                let (i, k) = ((n / IN) as f64, (n % IN) as f64);
                (std::f64::consts::PI / 72.0 * (2.0 * i + 19.0) * (2.0 * k + 1.0)).cos()
            })
            .collect();
        let samples = (0..BLOCKS * IN)
            .map(|n| ((n * 7919) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        HostRef {
            pairs,
            cosines,
            samples,
        }
    }

    /// One unit of work: multiplies every input pair by sort-and-merge, then
    /// runs the transform sweeps.
    fn unit(&self) -> f64 {
        let mut checksum = 0_i64;
        for (a, b) in &self.pairs {
            let mut products: Terms = Vec::with_capacity(a.len() * b.len());
            for &(ka, ca) in a {
                for &(kb, cb) in b {
                    products.push((ka + kb, ca.wrapping_mul(cb)));
                }
            }
            products.sort_unstable_by_key(|&(k, _)| k);
            let mut merged: Terms = Vec::new();
            for (k, c) in products {
                match merged.last_mut() {
                    Some((lk, lc)) if *lk == k => *lc = lc.wrapping_add(c),
                    _ => merged.push((k, c)),
                }
            }
            merged.retain(|&(_, c)| c != 0);
            checksum = merged.iter().fold(checksum, |s, &(k, c)| {
                s.wrapping_mul(31).wrapping_add(k as i64 ^ c)
            });
        }

        let mut input = black_box(self.samples.clone());
        let mut output = vec![0.0_f64; BLOCKS * OUT];
        for _ in 0..SWEEPS {
            for (block, out) in input.chunks_exact(IN).zip(output.chunks_exact_mut(OUT)) {
                for (o, row) in out.iter_mut().zip(self.cosines.chunks_exact(IN)) {
                    *o = row.iter().zip(block).map(|(c, x)| c * x).sum();
                }
            }
            // Fold the outputs back into the inputs so no sweep is dead.
            for (x, pair) in input.iter_mut().zip(output.chunks_exact(2)) {
                *x = (pair[0] - pair[1]) * 0.25;
            }
        }
        checksum as f64 + input.iter().sum::<f64>()
    }

    /// Runs `units` units on each of `threads` threads at once and returns
    /// the wall in seconds. A workload's threads all feel the host's speed,
    /// so the kernel runs on as many.
    pub fn time(&self, units: usize, threads: usize) -> f64 {
        let run = || {
            for _ in 0..units {
                black_box(self.unit());
            }
        };
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(run);
            }
            run();
        });
        start.elapsed().as_secs_f64()
    }
}
