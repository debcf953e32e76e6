//! The wide-interner scaling bench: proof that algebra cost scales with
//! variables-per-ideal, not interner width.
//!
//! Packed monomials are dense by global interner index, so before the ring
//! layer a symbol interned after 4096 unrelated names forced every monomial
//! touching it to store and scan ~4096 exponent slots — the Gröbner wall
//! clock blew up proportionally to interner population (`DESIGN.md` §4's
//! documented limitation, now closed). This bench stages exactly that
//! profile:
//!
//! 1. **baseline** — the paper's twisted-cubic and mapper-side-relation
//!    ideals over freshly interned (low-index) variables;
//! 2. intern [`FILLER_SYMBOLS`] unused symbols;
//! 3. **wide** — α-equivalent copies of the same ideals over *late-interned*
//!    variables (global indices ≥ 4096), measured through the ring-local
//!    path ([`buchberger`]) and through the kept pre-ring global-coordinate
//!    path ([`buchberger_unringed`]).
//!
//! The gate: the ring-local wall clock on the wide ideals must stay within
//! [`RATIO_GATE`]× of the baseline — the computation is instruction-identical
//! after localization, so only the one-pass ring boundary may differ — while
//! the printed pre-ring numbers document the proportional blowup the layer
//! removed.

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_algebra::groebner::{buchberger, buchberger_unringed, GroebnerOptions};
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_algebra::var::{Var, VarSet};
use symmap_bench::measure_ns;

/// Unused symbols interned between the baseline and wide phases.
const FILLER_SYMBOLS: usize = 4096;

/// Ring-local wall clock on the wide ideals may exceed the baseline by at
/// most this factor (the acceptance criterion's 1.2×), summed over the
/// benched workload. The only per-call cost the ring layer cannot remove is
/// the one-pass support scan of the wide *input* polynomials (they are
/// global `Poly` values — reading them is proportional to their storage), so
/// the smallest ideal sits nearer the gate than the larger ones; the
/// aggregate is the stable statistic. Per-ideal ratios are printed either
/// way.
const RATIO_GATE: f64 = 1.2;

/// One staged workload: name, generators, order, and the exact reduction
/// count it must reproduce (the shared budget table's canonical engine
/// counts — 5 for the twisted cubic, 7 for the mapper ideal).
struct StagedIdeal {
    name: &'static str,
    generators: Vec<Poly>,
    order: MonomialOrder,
    expected_reductions: usize,
}

/// Builds α-equivalent copies of the two hot ideals over `prefix`-named
/// variables, so each phase fully controls its variables' interner indices.
fn staged_ideals(prefix: &str) -> Vec<StagedIdeal> {
    let v = |s: &str| Var::new(&format!("{prefix}_{s}"));
    let pv = |s: &str| Poly::var(v(s));
    let (x, y, z) = (pv("x"), pv("y"), pv("z"));
    let cubic = StagedIdeal {
        name: "twisted-cubic",
        generators: vec![x.mul(&x).sub(&y), x.mul(&x).mul(&x).sub(&z)],
        order: MonomialOrder::Lex([v("x"), v("y"), v("z")].into_iter().collect::<VarSet>()),
        expected_reductions: 5,
    };
    let (s, d, q, sx) = (pv("s"), pv("d"), pv("q"), pv("sx"));
    let mapper = StagedIdeal {
        name: "mapper-side-relations",
        generators: vec![
            x.add(&y).sub(&s),
            x.sub(&y).sub(&d),
            x.mul(&y).sub(&q),
            x.mul(&x).sub(&sx),
        ],
        order: MonomialOrder::Lex(
            [v("x"), v("y"), v("s"), v("d"), v("q"), v("sx")]
                .into_iter()
                .collect::<VarSet>(),
        ),
        expected_reductions: 7,
    };
    vec![cubic, mapper]
}

fn ring_wall(ideal: &StagedIdeal, iters: u32, samples: usize) -> u128 {
    measure_ns(iters, samples, || {
        criterion::black_box(buchberger(
            &ideal.generators,
            &ideal.order,
            &GroebnerOptions::default(),
        ));
    })
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();

    // Phase 1: baseline over low-index variables (interned before anything
    // else this process touches).
    let narrow = staged_ideals("nar");
    // Phase 2: inflate the interner.
    for i in 0..FILLER_SYMBOLS {
        Var::new(&format!("wide_filler_{i:04}"));
    }
    // Phase 3: α-equivalent ideals over late-interned variables.
    let wide = staged_ideals("wid");
    let min_wide_index = wide[0].order.vars().iter().next().unwrap().index();
    assert!(
        min_wide_index as usize >= FILLER_SYMBOLS,
        "wide variables must be interned after the {FILLER_SYMBOLS} fillers \
         (got index {min_wide_index})"
    );

    // Correctness before timing: both phases reproduce the canonical engine
    // reduction counts and basis sizes — localization changed nothing.
    for (nar, wid) in narrow.iter().zip(&wide) {
        let opts = GroebnerOptions::default();
        let gb_nar = buchberger(&nar.generators, &nar.order, &opts);
        let gb_wid = buchberger(&wid.generators, &wid.order, &opts);
        let gb_pre = buchberger_unringed(&wid.generators, &wid.order, &opts);
        assert!(gb_nar.complete && gb_wid.complete && gb_pre.complete);
        for gb in [&gb_nar, &gb_wid, &gb_pre] {
            assert_eq!(gb.reductions, nar.expected_reductions, "{}", nar.name);
        }
        assert_eq!(gb_nar.polys().len(), gb_wid.polys().len());
        assert_eq!(
            gb_wid.polys(),
            gb_pre.polys(),
            "ring-local path diverged from the global-coordinate oracle"
        );
    }

    // Interleaved measurement (baseline/wide rounds alternate so ambient
    // noise hits both sides equally); the gate compares the per-side minima
    // of the round medians — the most noise-robust stable statistic here —
    // and re-measures once before failing, so only a *sustained* boundary
    // regression (not one noisy-neighbor episode on a shared runner) trips
    // the assert.
    let (iters, samples, rounds) = (20, 7, 5);
    struct Measured {
        name: &'static str,
        base_ns: u128,
        ring_ns: u128,
        pre_ns: u128,
    }
    let measure_all = || -> Vec<Measured> {
        narrow
            .iter()
            .zip(&wide)
            .map(|(nar, wid)| {
                let mut base_ns = u128::MAX;
                let mut ring_ns = u128::MAX;
                for _ in 0..rounds {
                    base_ns = base_ns.min(ring_wall(nar, iters, samples));
                    ring_ns = ring_ns.min(ring_wall(wid, iters, samples));
                }
                // The pre-ring path pays the interner width on every monomial
                // op; a handful of iterations documents the blowup.
                let pre_ns = measure_ns(2, 5, || {
                    criterion::black_box(buchberger_unringed(
                        &wid.generators,
                        &wid.order,
                        &GroebnerOptions::default(),
                    ));
                });
                Measured {
                    name: nar.name,
                    base_ns,
                    ring_ns,
                    pre_ns,
                }
            })
            .collect()
    };
    let aggregate_of = |measured: &[Measured]| -> f64 {
        let base: u128 = measured.iter().map(|m| m.base_ns).sum();
        let ring: u128 = measured.iter().map(|m| m.ring_ns).sum();
        ring as f64 / base.max(1) as f64
    };

    let mut measured = measure_all();
    let mut aggregate = aggregate_of(&measured);
    if aggregate > RATIO_GATE {
        println!(
            "aggregate {aggregate:.2}x exceeded the {RATIO_GATE}x gate on the first \
             attempt; re-measuring once to rule out ambient noise"
        );
        measured = measure_all();
        aggregate = aggregate_of(&measured);
    }

    println!("\nwide_interner — {FILLER_SYMBOLS} pre-interned symbols");
    println!(
        "{:<24} {:>14} {:>14} {:>8} {:>14}",
        "ideal", "baseline ns", "ring-local ns", "ratio", "pre-ring ns"
    );
    for m in &measured {
        let ratio = m.ring_ns as f64 / m.base_ns.max(1) as f64;
        println!(
            "{:<24} {:>14} {:>14} {ratio:>7.2}x {:>14}",
            m.name, m.base_ns, m.ring_ns, m.pre_ns
        );
    }
    println!("aggregate ring-local/baseline ratio: {aggregate:.2}x (gate {RATIO_GATE}x)");
    assert!(
        aggregate <= RATIO_GATE,
        "ring-local Gröbner wall clock on late-interned variables is {aggregate:.2}x \
         the no-preinterned baseline across the workload (gate {RATIO_GATE}x) — \
         the ring boundary regressed"
    );

    if quick {
        return;
    }

    for ideal in narrow.iter().chain(&wide) {
        let label = if ideal.order.vars().iter().next().unwrap().index() as usize >= FILLER_SYMBOLS
        {
            "wide"
        } else {
            "baseline"
        };
        c.bench_function(&format!("wide_interner/{}/{label}", ideal.name), |b| {
            b.iter(|| buchberger(&ideal.generators, &ideal.order, &GroebnerOptions::default()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
