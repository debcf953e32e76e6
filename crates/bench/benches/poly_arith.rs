//! Raw polynomial-arithmetic bench: the substrate underneath the Gröbner
//! engine (monomial-keyed term storage, rational coefficients, merge-based
//! add/sub, multiplication, multi-divisor reduction).
//!
//! The `groebner_engine` bench measures the *algorithm* (pair selection,
//! criteria, memoization); this one measures the *representation* the
//! algorithm runs on, so a data-layout change shows up here first.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symmap_algebra::division::normal_form;
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;

fn p(s: &str) -> Poly {
    Poly::parse(s).unwrap()
}

/// Two dense trivariate polynomials with 56 terms each (degree-5 expansions),
/// the "wide addition" workload.
fn add_operands() -> (Poly, Poly) {
    (p("(x + y + z + 1)^5"), p("(x - y + 2*z + 1)^5"))
}

/// Two 20-term operands whose product expands 400 term pairs.
fn mul_operands() -> (Poly, Poly) {
    (p("(x + y + z + 1)^3"), p("(2*x - y + z - 1)^3"))
}

/// A degree-6 dividend over a three-element divisor set under grlex — the
/// shape of a `prepared_normal_form` call inside Buchberger.
fn reduction_workload() -> (Poly, Vec<Poly>, MonomialOrder) {
    (
        p("(x + y + z + 1)^6"),
        vec![p("x^2 - y"), p("x*y - z"), p("z^2 - x")],
        MonomialOrder::grlex(&["x", "y", "z"]),
    )
}

/// Coefficient-growth workload: repeated squaring with non-integer rationals,
/// which exercises the coefficient arithmetic more than the term bookkeeping.
fn coeff_workload() -> Poly {
    p("(x/2 + 3*y/7 - 5/3)^4")
}

/// A named benchmark closure.
type Workload = (&'static str, Box<dyn FnMut()>);

fn workloads() -> Vec<Workload> {
    let (a1, a2) = add_operands();
    let (m1, m2) = mul_operands();
    let (f, divisors, order) = reduction_workload();
    let c = coeff_workload();
    // The warm MP3 batch's hot reduction: one division step, then every
    // remaining term moves to the remainder.
    let (imdct, imdct_divisors, imdct_order) = symmap_bench::imdct_reduction_workload();
    vec![
        (
            "poly_arith/add",
            Box::new(move || {
                black_box(a1.add(&a2));
            }),
        ),
        (
            "poly_arith/mul",
            Box::new(move || {
                black_box(m1.mul(&m2));
            }),
        ),
        (
            "poly_arith/normal_form",
            Box::new(move || {
                black_box(normal_form(&f, &divisors, &order));
            }),
        ),
        (
            "poly_arith/reduce_imdct",
            Box::new(move || {
                black_box(normal_form(&imdct, &imdct_divisors, &imdct_order));
            }),
        ),
        (
            "poly_arith/coeff_mul",
            Box::new(move || {
                black_box(c.mul(&c));
            }),
        ),
    ]
}

fn bench(criterion: &mut Criterion) {
    for (name, mut f) in workloads() {
        criterion.bench_function(name, move |b| b.iter(&mut *f));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
