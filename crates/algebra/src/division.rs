//! Multi-divisor polynomial division (normal-form reduction).
//!
//! Given a target polynomial `f` and a list of divisors `g1..gk`, the division
//! algorithm writes `f = q1*g1 + ... + qk*gk + r` where no term of the
//! remainder `r` is divisible by any leading monomial of the divisors. When
//! the divisors form a Gröbner basis the remainder is canonical — this is the
//! "simplification modulo a set of polynomials" at the heart of the paper's
//! mapping algorithm.

use symmap_numeric::Rational;

use crate::coeff::{normal_form_in, CPoly, DivisorView, RationalField};
use crate::monomial::Monomial;
use crate::ordering::MonomialOrder;
use crate::poly::Poly;
use crate::ring::Ring;

/// The result of dividing a polynomial by a list of divisors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Division {
    /// One quotient per divisor, in the same order as the divisor list.
    pub quotients: Vec<Poly>,
    /// The remainder; no term is divisible by any divisor's leading monomial.
    pub remainder: Poly,
}

impl Division {
    /// Reconstructs `Σ qi*gi + r`, which must equal the original dividend.
    pub fn reconstruct(&self, divisors: &[Poly]) -> Poly {
        let mut acc = self.remainder.clone();
        for (q, g) in self.quotients.iter().zip(divisors) {
            acc = acc.add(&q.mul(g));
        }
        acc
    }
}

/// A nonzero divisor with its leading term resolved **once** under a fixed
/// order, plus a variable-support fingerprint of the leading monomial.
///
/// `leading_monomial` is a full term scan; the division loop and Buchberger's
/// pair bookkeeping consult a divisor's leading term for every term of every
/// dividend, so the Gröbner engine stores its basis as prepared divisors and
/// never rescans. The `mask` (see [`Monomial::var_mask`]) rejects most
/// non-dividing divisors with one AND before the exact divisibility test.
#[derive(Debug, Clone)]
pub struct PreparedDivisor {
    /// The divisor polynomial (nonzero).
    pub poly: Poly,
    /// Cached leading monomial of `poly` under the preparation order.
    pub lm: Monomial,
    /// Cached leading coefficient of `poly`.
    pub lc: Rational,
    /// Variable-support fingerprint of `lm`.
    pub mask: u64,
}

impl PreparedDivisor {
    /// Prepares `poly` for repeated division under `order`; `None` when the
    /// polynomial is zero (a zero divisor is always skipped anyway).
    pub fn new(poly: Poly, order: &MonomialOrder) -> Option<Self> {
        let (lm, lc) = poly.leading_term(order)?;
        let mask = lm.var_mask();
        Some(PreparedDivisor { poly, lm, lc, mask })
    }
}

/// Lets the field-generic division loop in [`crate::coeff`] read a ℚ
/// prepared divisor in place — the `Poly` term vector doubles as the generic
/// `(Monomial, Rational)` term slice, so the hot path pays no conversion.
impl DivisorView<RationalField> for PreparedDivisor {
    fn lm(&self) -> &Monomial {
        &self.lm
    }
    fn lc(&self) -> &Rational {
        &self.lc
    }
    fn mask(&self) -> u64 {
        self.mask
    }
    fn terms(&self) -> &[(Monomial, Rational)] {
        self.poly.sorted_terms()
    }
}

/// Divides `f` by the list of `divisors` under the given monomial `order`.
///
/// Zero divisors are skipped (their quotient stays zero). The classic
/// multivariate division algorithm from Cox–Little–O'Shea is used: repeatedly
/// cancel the leading term of the running dividend against the first divisor
/// whose leading monomial divides it; terms that cannot be cancelled move to
/// the remainder.
pub fn divide(f: &Poly, divisors: &[Poly], order: &MonomialOrder) -> Division {
    let mut quotients = vec![Poly::zero(); divisors.len()];
    let mut remainder = Poly::zero();
    let mut p = f.clone();

    let leading: Vec<Option<(Monomial, Rational, u64)>> = divisors
        .iter()
        .map(|g| {
            g.leading_term(order)
                .map(|(m, c)| (m.clone(), c, m.var_mask()))
        })
        .collect();

    while let Some((lm_p, lc_p)) = p.leading_term(order) {
        let t_mask = lm_p.var_mask();
        let mut divided = false;
        for (i, lt) in leading.iter().enumerate() {
            let Some((lm_g, lc_g, mask_g)) = lt else {
                continue;
            };
            if mask_g & !t_mask != 0 {
                continue;
            }
            if let Some(m_quot) = lm_p.div(lm_g) {
                let c_quot = &lc_p / lc_g;
                quotients[i].add_term(&m_quot, &c_quot);
                p.sub_scaled(&divisors[i], &m_quot, &c_quot);
                divided = true;
                break;
            }
        }
        if !divided {
            remainder.add_term(&lm_p, &lc_p);
            p.add_term(&lm_p, &-lc_p);
        }
    }
    Division {
        quotients,
        remainder,
    }
}

/// Returns only the remainder of [`divide`] — the *normal form* of `f` modulo
/// the divisor set.
///
/// Runs in **ring-local coordinates**: a [`Ring`] spanning the divisors and
/// the dividend is built once, everything is localized, the division loop
/// runs over dense `0..n` indices (with exact dense support masks for rings
/// of ≤ 64 variables), and the remainder is globalized on the way out —
/// byte-identical to dividing in global coordinates, because localization
/// preserves every order comparison and divisibility test. When the ring
/// coincides with the interner prefix the conversion is skipped.
///
/// Either way the division itself is [`prepared_normal_form`]'s loop (which
/// picks the same divisor at every step as [`divide`]). [`divide`] stays in
/// global coordinates as the quotient-producing oracle; remainder-only
/// callers — the Gröbner engine, [`crate::groebner::GroebnerBasis::reduce`],
/// the mapper — should come through here.
pub fn normal_form(f: &Poly, divisors: &[Poly], order: &MonomialOrder) -> Poly {
    let ring = Ring::spanning(divisors.iter().chain(std::iter::once(f)));
    if ring.is_identity() {
        let prepared: Vec<PreparedDivisor> = divisors
            .iter()
            .filter_map(|g| PreparedDivisor::new(g.clone(), order))
            .collect();
        return prepared_normal_form(f.clone(), &prepared, order, None);
    }
    let lorder = order.localized(&ring);
    let prepared: Vec<PreparedDivisor> = divisors
        .iter()
        .filter_map(|g| PreparedDivisor::new(ring.localize_poly(g), &lorder))
        .collect();
    let lf = ring.localize_poly(f);
    ring.globalize_owned(prepared_normal_form(lf, &prepared, &lorder, None))
}

/// Normal form of `f` modulo already-prepared divisors — the Gröbner engine's
/// hot path. `skip` excludes one divisor by index (used by auto-reduction to
/// reduce a basis element modulo *the others* without cloning the rest of the
/// basis).
///
/// Chooses the same divisor at every step as [`divide`] (the mask check only
/// skips divisors whose leading monomial provably cannot divide the current
/// term), so the remainder is byte-identical to `divide(..).remainder`.
///
/// The loop itself lives in [`crate::coeff::normal_form_in`], shared with
/// the ℤ/p fast path; this is its ℚ instantiation, reading the prepared
/// divisors in place through [`DivisorView`] (no conversion). The dividend is
/// taken by value: callers reduce a freshly localized target, whose term
/// vector moves into the loop and back out without a copy or a re-sort.
pub fn prepared_normal_form(
    f: Poly,
    divisors: &[PreparedDivisor],
    order: &MonomialOrder,
    skip: Option<usize>,
) -> Poly {
    let p = CPoly::from_sorted_terms(f.into_sorted_terms());
    let r = normal_form_in(&RationalField, p, divisors, order, skip);
    Poly::from_sorted_terms_unchecked(r.into_terms())
}

/// Returns `true` when `f` reduces to zero modulo the divisors, i.e. `f` lies
/// in the ideal generated by them **provided the divisors are a Gröbner
/// basis**.
pub fn reduces_to_zero(f: &Poly, divisors: &[Poly], order: &MonomialOrder) -> bool {
    normal_form(f, divisors, order).is_zero()
}

/// The S-polynomial of `f` and `g`: the combination that cancels both leading
/// terms. Returns the zero polynomial when either input is zero.
pub fn s_polynomial(f: &Poly, g: &Poly, order: &MonomialOrder) -> Poly {
    let (Some((lm_f, lc_f)), Some((lm_g, lc_g))) = (f.leading_term(order), g.leading_term(order))
    else {
        return Poly::zero();
    };
    let lcm = lm_f.lcm(&lm_g);
    let mf = lcm.div(&lm_f).expect("lcm divisible by lm(f)");
    let mg = lcm.div(&lm_g).expect("lcm divisible by lm(g)");
    let lhs = f.mul_term(&mf, &lc_f.recip().expect("nonzero leading coefficient"));
    let rhs = g.mul_term(&mg, &lc_g.recip().expect("nonzero leading coefficient"));
    lhs.sub(&rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn univariate_division_matches_schoolbook() {
        // (x^3 - 1) / (x - 1) = x^2 + x + 1 remainder 0.
        let order = MonomialOrder::lex(&["x"]);
        let d = divide(&p("x^3 - 1"), &[p("x - 1")], &order);
        assert_eq!(d.quotients[0], p("x^2 + x + 1"));
        assert!(d.remainder.is_zero());
    }

    #[test]
    fn division_with_remainder() {
        let order = MonomialOrder::lex(&["x"]);
        let d = divide(&p("x^2 + 1"), &[p("x - 1")], &order);
        assert_eq!(d.quotients[0], p("x + 1"));
        assert_eq!(d.remainder, p("2"));
        assert_eq!(d.reconstruct(&[p("x - 1")]), p("x^2 + 1"));
    }

    #[test]
    fn textbook_multivariate_example() {
        // Cox–Little–O'Shea example: divide x^2*y + x*y^2 + y^2 by
        // [x*y - 1, y^2 - 1] under lex x > y.
        let order = MonomialOrder::lex(&["x", "y"]);
        let divisors = [p("x*y - 1"), p("y^2 - 1")];
        let d = divide(&p("x^2*y + x*y^2 + y^2"), &divisors, &order);
        assert_eq!(d.quotients[0], p("x + y"));
        assert_eq!(d.quotients[1], p("1"));
        assert_eq!(d.remainder, p("x + y + 1"));
        assert_eq!(d.reconstruct(&divisors), p("x^2*y + x*y^2 + y^2"));
    }

    #[test]
    fn remainder_terms_not_divisible_by_leading_monomials() {
        let order = MonomialOrder::grlex(&["x", "y"]);
        let divisors = [p("x^2 - y"), p("x*y - 1")];
        let d = divide(&p("x^3 + x^2*y^2 + y^3 + x + 1"), &divisors, &order);
        let lms: Vec<Monomial> = divisors
            .iter()
            .map(|g| g.leading_monomial(&order).unwrap())
            .collect();
        for (m, _) in d.remainder.iter() {
            for lm in &lms {
                assert!(!lm.divides(m), "remainder term {m} divisible by {lm}");
            }
        }
        assert_eq!(d.reconstruct(&divisors), p("x^3 + x^2*y^2 + y^3 + x + 1"));
    }

    #[test]
    fn paper_side_relation_reduction() {
        // The paper's simplify example, done directly with division:
        // S = x + x^3*y^2 - 2*x*y^3 reduced by x^2 - 2*y - p under lex
        // x > y > p gives x + x*y^2*p.
        let order = MonomialOrder::lex(&["x", "y", "p"]);
        let nf = normal_form(&p("x + x^3*y^2 - 2*x*y^3"), &[p("x^2 - 2*y - p")], &order);
        assert_eq!(nf, p("x + x*y^2*p"));
    }

    #[test]
    fn zero_divisors_are_skipped() {
        let order = MonomialOrder::lex(&["x"]);
        let d = divide(&p("x^2"), &[Poly::zero(), p("x")], &order);
        assert!(d.quotients[0].is_zero());
        assert_eq!(d.quotients[1], p("x"));
        assert!(d.remainder.is_zero());
    }

    #[test]
    fn dividing_zero_gives_zero() {
        let order = MonomialOrder::lex(&["x"]);
        let d = divide(&Poly::zero(), &[p("x - 1")], &order);
        assert!(d.remainder.is_zero());
        assert!(d.quotients[0].is_zero());
    }

    #[test]
    fn prepared_normal_form_matches_divide_remainder() {
        let order = MonomialOrder::grlex(&["x", "y"]);
        let divisors = [p("x^2 - y"), Poly::zero(), p("x*y - 1")];
        let f = p("x^3 + x^2*y^2 + y^3 + x + 1");
        let prepared: Vec<PreparedDivisor> = divisors
            .iter()
            .filter_map(|g| PreparedDivisor::new(g.clone(), &order))
            .collect();
        assert_eq!(prepared.len(), 2, "zero divisors are dropped");
        assert_eq!(
            prepared_normal_form(f.clone(), &prepared, &order, None),
            divide(&f, &divisors, &order).remainder
        );
        assert_eq!(
            normal_form(&f, &divisors, &order),
            divide(&f, &divisors, &order).remainder
        );
    }

    #[test]
    fn prepared_normal_form_skip_excludes_one_divisor() {
        let order = MonomialOrder::lex(&["x", "y"]);
        let prepared: Vec<PreparedDivisor> = [p("x - y"), p("y^2 - 1")]
            .into_iter()
            .filter_map(|g| PreparedDivisor::new(g, &order))
            .collect();
        let f = p("x*y^2");
        // Skipping the first divisor reduces only modulo y^2 - 1.
        assert_eq!(
            prepared_normal_form(f.clone(), &prepared, &order, Some(0)),
            normal_form(&f, &[p("y^2 - 1")], &order)
        );
        // No skip uses both.
        assert_eq!(
            prepared_normal_form(f.clone(), &prepared, &order, None),
            normal_form(&f, &[p("x - y"), p("y^2 - 1")], &order)
        );
    }

    #[test]
    fn s_polynomial_cancels_leading_terms() {
        let order = MonomialOrder::grlex(&["x", "y"]);
        let f = p("x^3*y^2 - x^2*y^3 + x");
        let g = p("3*x^4*y + y^2");
        let s = s_polynomial(&f, &g, &order);
        // Classic CLO example: S = -x^3*y^3 + x^2 - y^3/3
        assert_eq!(s, p("-x^3*y^3 + x^2 - y^3/3"));
        assert!(s_polynomial(&Poly::zero(), &g, &order).is_zero());
    }

    #[test]
    fn reduces_to_zero_detects_ideal_membership_with_groebner_divisors() {
        // {x - 1, y - 2} is already a Gröbner basis; (x-1)*(y-2)+(y-2) is in the ideal.
        let order = MonomialOrder::lex(&["x", "y"]);
        let basis = [p("x - 1"), p("y - 2")];
        let member = p("(x - 1)*(y - 2) + y - 2");
        assert!(reduces_to_zero(&member, &basis, &order));
        assert!(!reduces_to_zero(&p("x*y"), &basis, &order));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_division_reconstructs(
            a in -4_i64..4, b in -4_i64..4, c in -4_i64..4, e in 1_u32..4,
        ) {
            let order = MonomialOrder::grlex(&["x", "y"]);
            let f = Poly::parse(&format!("{a}*x^{e}*y + {b}*x + {c}")).unwrap();
            let divisors = [Poly::parse("x^2 - y").unwrap(), Poly::parse("x*y - 1").unwrap()];
            let d = divide(&f, &divisors, &order);
            prop_assert_eq!(d.reconstruct(&divisors), f);
        }

        #[test]
        fn prop_members_of_principal_ideal_reduce_to_zero(
            a in -4_i64..4, b in -4_i64..4, e in 0_u32..3,
        ) {
            let order = MonomialOrder::lex(&["x", "y"]);
            let g = Poly::parse("x^2 + y - 1").unwrap();
            let multiplier = Poly::parse(&format!("{a}*x^{e} + {b}*y")).unwrap();
            let member = g.mul(&multiplier);
            prop_assert!(reduces_to_zero(&member, &[g], &order));
        }
    }
}
