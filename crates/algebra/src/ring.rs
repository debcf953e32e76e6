//! Ring-local monomial coordinates.
//!
//! Packed monomials (see [`crate::monomial`]) store exponents densely by
//! **global interner index**, so a monomial touching one late-interned
//! variable of index `k` stores and scans `k + 1` slots — cost proportional
//! to interner width, not to how many variables the ideal actually uses. A
//! [`Ring`] is a small, cheaply cloneable (`Arc`-backed) bijection between
//! the global [`Var`]s of one ideal and dense *local* indices `0..n`, built
//! once per ideal at the algebra boundary ([`crate::groebner::buchberger`],
//! [`crate::division::normal_form`], the basis cache). Inside that boundary
//! every monomial is `n` slots wide regardless of interner population, order
//! comparisons loop over ring variables only, and (for rings of ≤ 64
//! variables) the [`crate::monomial::Monomial::var_mask`] support fingerprint
//! is an exact dense bitset rather than a hash.
//!
//! # Why localization is invisible to callers
//!
//! Local indices are assigned in **ascending global-index order**, which
//! makes localization order-preserving for the canonical storage order of
//! [`Monomial`]: that order compares dense exponent vectors
//! lexicographically, and deleting coordinates that are zero in *both*
//! operands (every non-ring coordinate, for monomials supported on the ring)
//! cannot change a lexicographic comparison. Sorted [`Poly`] term vectors
//! therefore stay sorted under [`Ring::localize_poly`]/[`Ring::globalize_poly`]
//! — no re-sort, and `globalize(localize(p)) == p` exactly (property-tested
//! below). [`crate::ordering::MonomialOrder::localized`] maps an order's
//! precedence list the same way, so every comparison, divisibility test and
//! criterion decision made in local coordinates is identical to the one the
//! global-coordinate path would have made — byte-identical results, proven
//! by the differential tests in `crates/bench/tests/ring_differential.rs`.

use std::sync::Arc;

use crate::monomial::Monomial;
use crate::poly::Poly;
use crate::var::Var;

/// A dense local coordinate system over the variables of one ideal.
///
/// Construction cost is one support scan of the spanning polynomials (the
/// only width-proportional step left on the algebra path); cloning is one
/// `Arc` bump. Local index `i` maps to [`Ring::global`]`(i)`, and local
/// indices preserve ascending global-index order.
///
/// ```
/// use symmap_algebra::poly::Poly;
/// use symmap_algebra::ring::Ring;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Poly::parse("x^2*y - z")?;
/// let ring = Ring::spanning([&p]);
/// assert_eq!(ring.len(), 3);
/// assert_eq!(ring.globalize_poly(&ring.localize_poly(&p)), p);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    /// Ring variables in ascending global-index order; position = local index.
    globals: Arc<[Var]>,
}

impl Ring {
    /// The ring spanned by every variable occurring in `polys`, in ascending
    /// global-index order.
    pub fn spanning<'a, I>(polys: I) -> Ring
    where
        I: IntoIterator<Item = &'a Poly>,
    {
        let mut indices: Vec<u32> = Vec::new();
        for p in polys {
            for (m, _) in p.iter() {
                m.support_into(&mut indices);
            }
        }
        indices.sort_unstable();
        indices.dedup();
        Ring {
            globals: indices.into_iter().map(Var::from_index).collect(),
        }
    }

    /// Number of ring variables.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Returns `true` for the ring of constant polynomials.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// The ring variables, ascending by global index (position = local index).
    pub fn vars(&self) -> &[Var] {
        &self.globals
    }

    /// Returns `true` when local and global indices coincide (`globals[i]`
    /// has interner index `i` for every `i`): localization would be the
    /// identity map, so the boundary conversions can be skipped entirely.
    /// This is the mapper's intern-early profile — program variables and
    /// library symbols interned before anything else.
    pub fn is_identity(&self) -> bool {
        self.globals
            .iter()
            .enumerate()
            .all(|(i, v)| v.index() as usize == i)
    }

    /// Returns `true` if `v` is a ring variable.
    pub fn contains(&self, v: Var) -> bool {
        self.local_of(v).is_some()
    }

    /// Local index of a global variable, or `None` when it is not in the
    /// ring. Binary search over the (sorted) ring variables.
    pub fn local_of(&self, v: Var) -> Option<u32> {
        self.globals
            .binary_search_by_key(&v.index(), |g| g.index())
            .ok()
            .map(|i| i as u32)
    }

    /// Global variable of a local index.
    ///
    /// # Panics
    ///
    /// Panics when `local >= self.len()`.
    pub fn global(&self, local: u32) -> Var {
        self.globals[local as usize]
    }

    /// Rewrites a monomial into local coordinates, or `None` when it
    /// involves a variable outside the ring (detected by a constant-time
    /// comparison of cached total degrees — a foreign variable's exponent
    /// goes missing from the localized sum).
    pub fn try_localize_monomial(&self, m: &Monomial) -> Option<Monomial> {
        let local = Monomial::from_fn(self.len(), |i| m.degree_of(self.globals[i]));
        (local.total_degree_u64() == m.total_degree_u64()).then_some(local)
    }

    /// Rewrites a monomial into local coordinates.
    ///
    /// # Panics
    ///
    /// Panics when the monomial involves a variable outside the ring.
    pub fn localize_monomial(&self, m: &Monomial) -> Monomial {
        self.try_localize_monomial(m)
            .unwrap_or_else(|| panic!("monomial {m} has variables outside the ring"))
    }

    /// Rewrites a local-coordinate monomial back into global coordinates.
    pub fn globalize_monomial(&self, m: &Monomial) -> Monomial {
        let exps = m.exps();
        let Some(last) = exps.iter().rposition(|&e| e != 0) else {
            return Monomial::one();
        };
        let width = self.globals[last].index() as usize + 1;
        if width <= crate::monomial::INLINE_VARS {
            // Narrow result: build through the allocation-free constructor.
            return Monomial::from_fn(width, |gi| {
                self.globals[..=last]
                    .iter()
                    .position(|v| v.index() as usize == gi)
                    .map_or(0, |li| exps[li])
            });
        }
        // Wide result: one zeroed allocation plus a scatter of the (few)
        // ring entries; the cached degree carries over, so no O(width)
        // trim/sum pass is needed.
        let mut dense = vec![0u32; width];
        for (li, &e) in exps.iter().enumerate() {
            if e != 0 {
                dense[self.globals[li].index() as usize] = e;
            }
        }
        Monomial::from_dense_with_degree(dense, m.total_degree_u64())
    }

    /// Rewrites a polynomial into local coordinates. Localization preserves
    /// the canonical term order (see the module docs), so the sorted term
    /// vector is mapped in place — no re-sort.
    ///
    /// # Panics
    ///
    /// Panics when the polynomial involves a variable outside the ring.
    pub fn localize_poly(&self, p: &Poly) -> Poly {
        Poly::from_sorted_terms_unchecked(
            p.iter()
                .map(|(m, c)| (self.localize_monomial(m), c.clone()))
                .collect(),
        )
    }

    /// Rewrites a polynomial into local coordinates, or `None` when any of
    /// its variables falls outside the ring (used by
    /// [`crate::groebner::GroebnerBasis::reduce`] to decide between the
    /// fully-local fast path and the joint-ring fallback).
    pub fn try_localize_poly(&self, p: &Poly) -> Option<Poly> {
        let mut terms = Vec::with_capacity(p.num_terms());
        for (m, c) in p.iter() {
            terms.push((self.try_localize_monomial(m)?, c.clone()));
        }
        Some(Poly::from_sorted_terms_unchecked(terms))
    }

    /// Rewrites a local-coordinate polynomial back into global coordinates
    /// (exact inverse of [`Ring::localize_poly`]).
    pub fn globalize_poly(&self, p: &Poly) -> Poly {
        Poly::from_sorted_terms_unchecked(
            p.iter()
                .map(|(m, c)| (self.globalize_monomial(m), c.clone()))
                .collect(),
        )
    }

    /// [`Ring::globalize_poly`] of an owned polynomial: the coefficients
    /// move instead of being cloned.
    pub(crate) fn globalize_owned(&self, p: Poly) -> Poly {
        Poly::from_sorted_terms_unchecked(
            p.into_sorted_terms()
                .into_iter()
                .map(|(m, c)| (self.globalize_monomial(&m), c))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::MonomialOrder;
    use crate::var::VarSet;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn spanning_collects_sorted_distinct_vars() {
        let ring = Ring::spanning([&p("x*y + z"), &p("y^2 - 1")]);
        assert_eq!(ring.len(), 3);
        let idx: Vec<u32> = ring.vars().iter().map(|v| v.index()).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted);
        assert!(ring.contains(Var::new("x")));
        assert!(!ring.contains(Var::new("w")));
        assert_eq!(ring.local_of(Var::new("w")), None);
        for (i, v) in ring.vars().iter().enumerate() {
            assert_eq!(ring.local_of(*v), Some(i as u32));
            assert_eq!(ring.global(i as u32), *v);
        }
    }

    #[test]
    fn empty_ring_for_constants() {
        let ring = Ring::spanning([&p("7"), &Poly::zero()]);
        assert!(ring.is_empty());
        assert!(ring.is_identity());
        assert_eq!(ring.localize_poly(&p("7")), p("7"));
        assert_eq!(ring.globalize_poly(&p("7")), p("7"));
    }

    #[test]
    fn roundtrip_on_late_interned_wide_variables() {
        // Force high global indices: a monomial over these stores thousands
        // of slots globally but exactly two locally.
        for i in 0..600 {
            Var::new(&format!("ring_test_filler_{i}"));
        }
        let a = Var::new("ring_test_wide_a");
        let b = Var::new("ring_test_wide_b");
        let wide = Poly::from_terms(vec![
            (
                Monomial::from_pairs(&[(a, 2), (b, 1)]),
                symmap_numeric::Rational::integer(3),
            ),
            (Monomial::var(b, 4), symmap_numeric::Rational::integer(-1)),
        ]);
        let ring = Ring::spanning([&wide]);
        assert_eq!(ring.len(), 2);
        assert!(!ring.is_identity());
        let local = ring.localize_poly(&wide);
        // Local coordinates are dense from zero.
        for (m, _) in local.iter() {
            assert!(m.exps().len() <= 2);
        }
        assert_eq!(ring.globalize_poly(&local), wide);
    }

    #[test]
    #[should_panic(expected = "outside the ring")]
    fn localizing_a_foreign_variable_panics() {
        let ring = Ring::spanning([&p("x + y")]);
        ring.localize_poly(&p("x + z"));
    }

    #[test]
    fn localized_order_comparisons_match_global() {
        let monos = [
            p("x^2*y").iter().next().unwrap().0.clone(),
            p("x*y^2*z").iter().next().unwrap().0.clone(),
            p("z^4").iter().next().unwrap().0.clone(),
            Monomial::one(),
            p("x*z").iter().next().unwrap().0.clone(),
        ];
        let spanning: Vec<Poly> = monos
            .iter()
            .map(|m| Poly::from_term(m.clone(), symmap_numeric::Rational::one()))
            .collect();
        let ring = Ring::spanning(spanning.iter());
        for order in [
            MonomialOrder::lex(&["x", "y", "z"]),
            MonomialOrder::grlex(&["y", "x"]),
            MonomialOrder::grevlex(&["x", "y", "z"]),
            // Listed variable `w` is absent from the ring: dropped, inert.
            MonomialOrder::Elimination(VarSet::from_names(&["x", "w", "y", "z"]), 2),
        ] {
            let lorder = order.localized(&ring);
            for a in &monos {
                for b in &monos {
                    let (la, lb) = (ring.localize_monomial(a), ring.localize_monomial(b));
                    assert_eq!(
                        order.cmp(a, b),
                        lorder.cmp(&la, &lb),
                        "order {order:?} diverged on {a} vs {b}"
                    );
                    // Canonical storage order is preserved too.
                    assert_eq!(a.cmp(b), la.cmp(&lb));
                }
            }
        }
    }

    #[test]
    fn elimination_block_shrinks_with_dropped_vars() {
        let ring = Ring::spanning([&p("x + y")]);
        // Block of 2 where only one variable survives: k must become 1, so
        // the surviving block variable still dominates.
        let order = MonomialOrder::Elimination(VarSet::from_names(&["w", "x", "y"]), 2);
        let local = order.localized(&ring);
        let (lx, ly) = (
            ring.localize_monomial(&Monomial::var(Var::new("x"), 1)),
            ring.localize_monomial(&Monomial::var(Var::new("y"), 5)),
        );
        assert_eq!(local.cmp(&lx, &ly), Ordering::Greater);
        assert_eq!(
            order.cmp(
                &Monomial::var(Var::new("x"), 1),
                &Monomial::var(Var::new("y"), 5)
            ),
            Ordering::Greater
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole invariant: `globalize(localize(p)) == p` for random
        /// polynomials, including ones over a late-interned (wide-index)
        /// variable.
        #[test]
        fn prop_globalize_localize_round_trips(
            terms in proptest::collection::vec(
                (0u32..4, 0u32..4, 0u32..3, -6i64..7),
                1..6,
            ),
        ) {
            let wide = Var::new("ring_prop_wide_var");
            let polys: Vec<Poly> = vec![Poly::from_terms(terms.iter().map(|&(ex, ey, ew, c)| {
                (
                    Monomial::from_pairs(&[
                        (Var::new("x"), ex),
                        (Var::new("y"), ey),
                        (wide, ew),
                    ]),
                    symmap_numeric::Rational::integer(c),
                )
            }))];
            let ring = Ring::spanning(polys.iter());
            for q in &polys {
                let local = ring.localize_poly(q);
                prop_assert_eq!(&ring.globalize_poly(&local), q);
                // Degrees, term counts and coefficients carry over exactly.
                prop_assert_eq!(local.num_terms(), q.num_terms());
                prop_assert_eq!(local.total_degree(), q.total_degree());
            }
        }
    }
}
