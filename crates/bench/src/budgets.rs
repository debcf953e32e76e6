//! The shared reduction-budget table for the Gröbner regression guards.
//!
//! The engine's S-polynomial reduction counts are exact and deterministic
//! (no wall clock involved), so fixed budgets make perfect CI regression
//! guards: exceeding one is a real selection/criteria regression, never
//! noise. This module owns the canonical workloads *and* their budgets in
//! one place: its unit tests assert the table, the `groebner_engine` bench
//! times the same workloads, and the ring differential tests reuse them.
//!
//! Budgets are the seed engine's deterministic counts (linear-scan queue +
//! coprime criterion only): 7 on the twisted cubic, 11 on the mapper ideal.
//! The rebuilt engine does 5 and 7.

use symmap_algebra::eliminate::{eliminate, Elimination};
use symmap_algebra::groebner::{buchberger, GroebnerBasis, GroebnerOptions};
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_algebra::simplify::SideRelations;

fn p(s: &str) -> Poly {
    Poly::parse(s).expect("budget workload polynomial parses")
}

/// A canonical Gröbner workload, with a fixed reduction budget when it
/// serves as a regression guard (`None` = tracked for display only).
pub struct BudgetedIdeal {
    /// Stable display name.
    pub name: &'static str,
    /// Ideal generators.
    pub generators: Vec<Poly>,
    /// Monomial order of the computation.
    pub order: MonomialOrder,
    /// Maximum allowed S-polynomial reductions under default options.
    pub budget: Option<usize>,
}

/// The textbook twisted cubic `<x^2 - y, x^3 - z>` under lex. Budget: the
/// seed engine's 7 reductions.
pub fn twisted_cubic() -> BudgetedIdeal {
    BudgetedIdeal {
        name: "twisted-cubic",
        generators: vec![p("x^2 - y"), p("x^3 - z")],
        order: MonomialOrder::lex(&["x", "y", "z"]),
        budget: Some(7),
    }
}

/// The mapper's 4-relation side-relation ideal (sum/diff/prod/square library
/// elements) — the elimination-style workload that made the seed engine's
/// naive pair ordering hang in PR 1. Budget: the seed engine's 11 reductions.
pub fn mapper_side_relations() -> BudgetedIdeal {
    let mut sr = SideRelations::new();
    sr.push("s", p("x + y")).expect("fresh symbol");
    sr.push("d", p("x - y")).expect("fresh symbol");
    sr.push("q", p("x*y")).expect("fresh symbol");
    sr.push("sx", p("x^2")).expect("fresh symbol");
    BudgetedIdeal {
        name: "mapper-side-relations",
        generators: sr.generators(),
        order: MonomialOrder::lex(&["x", "y", "s", "d", "q", "sx"]),
        budget: Some(11),
    }
}

/// The circle/line/saddle system from the ordering ablation. The current
/// engine needs 2 reductions; the budget leaves headroom for a benign
/// selection-order change without letting a real regression through.
pub fn circle_system() -> BudgetedIdeal {
    BudgetedIdeal {
        name: "circle-system",
        generators: vec![p("x^2 + y^2 + z^2 - 1"), p("x*y - z"), p("x - y + z^2")],
        order: MonomialOrder::grevlex(&["x", "y", "z"]),
        budget: Some(4),
    }
}

/// Every tracked workload, in display order.
pub fn budgeted_ideals() -> Vec<BudgetedIdeal> {
    vec![twisted_cubic(), mapper_side_relations(), circle_system()]
}

/// The option grid the `groebner_engine` bench prints reduction counts for:
/// the default engine, each Buchberger criterion switched off, both off, and
/// the sugar tiebreak.
pub fn option_configurations() -> Vec<(&'static str, GroebnerOptions)> {
    vec![
        ("full", GroebnerOptions::default()),
        (
            "no-chain",
            GroebnerOptions {
                use_chain_criterion: false,
                ..Default::default()
            },
        ),
        (
            "no-coprime",
            GroebnerOptions {
                use_coprime_criterion: false,
                ..Default::default()
            },
        ),
        (
            "no-criteria",
            GroebnerOptions {
                use_coprime_criterion: false,
                use_chain_criterion: false,
                ..Default::default()
            },
        ),
        (
            "sugar",
            GroebnerOptions {
                use_sugar_tiebreak: true,
                ..Default::default()
            },
        ),
    ]
}

/// Asserts one computed basis against its workload's budget (no-op for
/// display-only workloads). Panics with an actionable message on a breach.
pub fn assert_within_budget(ideal: &BudgetedIdeal, gb: &GroebnerBasis) {
    assert!(
        gb.complete,
        "{} hit the iteration bound before completing",
        ideal.name
    );
    if let Some(budget) = ideal.budget {
        assert!(
            gb.reductions <= budget,
            "{} exceeded its reduction budget: {} > {budget}",
            ideal.name,
            gb.reductions
        );
    }
}

/// Computes every budgeted ideal's basis under default options, asserts the
/// budgets, and returns `(name, reductions, budget)` for reporting.
pub fn assert_groebner_budgets() -> Vec<(&'static str, usize, usize)> {
    let mut report = Vec::new();
    for ideal in budgeted_ideals() {
        let gb = buchberger(&ideal.generators, &ideal.order, &GroebnerOptions::default());
        assert_within_budget(&ideal, &gb);
        if let Some(budget) = ideal.budget {
            report.push((ideal.name, gb.reductions, budget));
        }
    }
    report
}

/// Reduction budget for eliminating `x` from the twisted cubic via an
/// elimination order ([`Elimination::reductions`] is the same exact metric;
/// the current engine does 5).
pub const ELIMINATION_TWISTED_CUBIC_BUDGET: usize = 7;

/// Runs the canonical elimination workload, asserts its budget, and returns
/// the [`Elimination`] for further inspection.
pub fn assert_elimination_budget() -> Elimination {
    let ideal = twisted_cubic();
    let result = eliminate(&ideal.generators, &["x"]);
    assert!(result.complete, "elimination hit the iteration bound");
    assert!(
        result.reductions <= ELIMINATION_TWISTED_CUBIC_BUDGET,
        "twisted-cubic elimination exceeded its reduction budget: {} > {}",
        result.reductions,
        ELIMINATION_TWISTED_CUBIC_BUDGET
    );
    assert!(
        !result.eliminated.is_empty(),
        "eliminating x from the twisted cubic must leave the y/z curve"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_table_holds_on_the_current_engine() {
        let report = assert_groebner_budgets();
        assert_eq!(report.len(), 3);
        // The rebuilt engine's exact counts, pinned so an *improvement* also
        // shows up (update the expectation, not the budget, when it does).
        let by_name: std::collections::HashMap<_, _> =
            report.iter().map(|(n, r, _)| (*n, *r)).collect();
        assert_eq!(by_name["twisted-cubic"], 5);
        assert_eq!(by_name["mapper-side-relations"], 7);
        assert_eq!(by_name["circle-system"], 2);
        // Every option configuration completes on every workload.
        for ideal in budgeted_ideals() {
            for (config, options) in option_configurations() {
                let gb = buchberger(&ideal.generators, &ideal.order, &options);
                assert!(
                    gb.complete,
                    "{}/{config} hit the iteration bound",
                    ideal.name
                );
            }
        }
    }

    #[test]
    fn elimination_budget_holds() {
        let result = assert_elimination_budget();
        assert!(result.reductions <= ELIMINATION_TWISTED_CUBIC_BUDGET);
    }
}
