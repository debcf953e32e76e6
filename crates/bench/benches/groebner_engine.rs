//! The Gröbner hot-path engine bench: reduction counts and wall time of the
//! heap pair queue, the Buchberger criteria and the mapper's basis
//! memoization, on the workloads the mapping algorithm actually runs.
//!
//! The reduction counts it prints are exact; the tier-1 tests in
//! `symmap_bench::budgets` pin them against fixed budgets and check that
//! every option configuration completes, so this bench only times.

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_algebra::groebner::{buchberger, GroebnerOptions};
use symmap_algebra::poly::Poly;
use symmap_bench::budgets;
use symmap_core::decompose::{Mapper, MapperConfig};
use symmap_libchar::{Library, LibraryElement};

fn p(s: &str) -> Poly {
    Poly::parse(s).unwrap()
}

fn element(name: &str, symbol: &str, poly: &str, cycles: u64) -> LibraryElement {
    LibraryElement::builder(name, symbol)
        .polynomial(p(poly))
        .cycles(cycles)
        .energy_nj(cycles as f64)
        .accuracy(1e-9)
        .build()
        .unwrap()
}

fn bench(c: &mut Criterion) {
    let ideals = budgets::budgeted_ideals();

    println!("\ngroebner engine — S-polynomial reduction counts");
    println!(
        "{:<24} {:<12} {:>6} {:>10} {:>8} {:>7} {:>6}",
        "ideal", "config", "basis", "reductions", "coprime", "chain", "done"
    );
    for ideal in &ideals {
        for (cfg_name, opts) in budgets::option_configurations() {
            let gb = buchberger(&ideal.generators, &ideal.order, &opts);
            println!(
                "{:<24} {cfg_name:<12} {:>6} {:>10} {:>8} {:>7} {:>6}",
                ideal.name,
                gb.polys().len(),
                gb.reductions,
                gb.skipped_coprime,
                gb.skipped_chain,
                gb.complete
            );
        }
    }

    // Mapper memoization: the repeat call is answered from the basis cache.
    let mut lib = Library::new("bench");
    lib.push(element("sum", "s", "x + y", 3));
    lib.push(element("diff", "d", "x - y", 3));
    lib.push(element("prod", "q", "x*y", 5));
    lib.push(element("sq_x", "sx", "x^2", 4));
    let mapper = Mapper::new(&lib, MapperConfig::default());
    let target = p("x^4 - y^4 + x^2*y^2");
    mapper.map_polynomial(&target).unwrap();

    for ideal in &ideals {
        c.bench_function(&format!("groebner_engine/{}/full", ideal.name), |b| {
            b.iter(|| buchberger(&ideal.generators, &ideal.order, &GroebnerOptions::default()))
        });
        c.bench_function(
            &format!("groebner_engine/{}/no_criteria", ideal.name),
            |b| {
                b.iter(|| {
                    buchberger(
                        &ideal.generators,
                        &ideal.order,
                        &GroebnerOptions {
                            use_coprime_criterion: false,
                            use_chain_criterion: false,
                            ..Default::default()
                        },
                    )
                })
            },
        );
    }
    c.bench_function("groebner_engine/mapper_memoized", |b| {
        b.iter(|| mapper.map_polynomial(&target).unwrap())
    });
    c.bench_function("groebner_engine/mapper_cold_cache", |b| {
        b.iter(|| {
            Mapper::new(&lib, MapperConfig::default())
                .map_polynomial(&target)
                .unwrap()
        })
    });
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
