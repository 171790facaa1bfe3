//! Variables and sparse linear expressions.
//!
//! [`Variable`] is a lightweight handle into a [`crate::Model`];
//! [`LinExpr`] is a sparse affine expression `Σ cᵢ·xᵢ + k` supporting the
//! natural `+`, `-`, `*` operator syntax:
//!
//! ```
//! use postcard_lp::{Model, Sense};
//! let mut m = Model::new(Sense::Minimize);
//! let x = m.add_var("x", 0.0, 10.0);
//! let y = m.add_var("y", 0.0, 10.0);
//! let e = 2.0 * x - y + 3.0;
//! assert_eq!(e.coefficient(x), 2.0);
//! assert_eq!(e.coefficient(y), -1.0);
//! assert_eq!(e.constant(), 3.0);
//! ```

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A handle to a decision variable of a [`crate::Model`].
///
/// Handles are cheap to copy and are only meaningful for the model that
/// created them; using a handle with a different model yields
/// [`crate::LpError::UnknownVariable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Variable(pub(crate) usize);

impl Variable {
    /// The index of this variable within its model (dense, 0-based).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A sparse affine expression `Σ cᵢ·xᵢ + constant`.
///
/// Terms live in a `Vec` sorted by variable, one entry per variable:
/// adding a variable already present merges its coefficient, and adding
/// one past the last (the order a builder naturally emits) is a push. Zero
/// coefficients are retained until [`LinExpr::compact`] is called (the
/// solver compacts on ingestion).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(Variable, f64)>,
    constant: f64,
}

impl LinExpr {
    /// Creates the zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an expression consisting of a single term `coef · var`.
    pub fn term(var: Variable, coef: f64) -> Self {
        let mut e = Self::new();
        e.add_term(var, coef);
        e
    }

    /// Creates a constant expression.
    pub fn constant_expr(value: f64) -> Self {
        Self { terms: Vec::new(), constant: value }
    }

    /// Adds `coef · var` to the expression, merging with any existing term.
    ///
    /// A new term starts from `0.0 + coef`, so a `-0.0` coefficient is
    /// stored as `+0.0`.
    pub fn add_term(&mut self, var: Variable, coef: f64) -> &mut Self {
        match self.terms.last_mut() {
            Some(last) if last.0 == var => last.1 += coef,
            Some(last) if last.0 > var => match self.terms.binary_search_by_key(&var, |t| t.0) {
                Ok(i) => self.terms[i].1 += coef,
                Err(i) => self.terms.insert(i, (var, 0.0 + coef)),
            },
            _ => self.terms.push((var, 0.0 + coef)),
        }
        self
    }

    /// Adds a constant offset.
    pub fn add_constant(&mut self, value: f64) -> &mut Self {
        self.constant += value;
        self
    }

    /// The coefficient of `var` (0 if absent).
    pub fn coefficient(&self, var: Variable) -> f64 {
        self.terms.binary_search_by_key(&var, |t| t.0).map_or(0.0, |i| self.terms[i].1)
    }

    /// The constant offset of the expression.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Number of stored (possibly zero) terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` if the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Variable, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Removes terms with exactly-zero coefficients.
    pub fn compact(&mut self) {
        // postcard-analyze: allow(PA101) — bit-exact zero removal is the point.
        self.terms.retain(|&(_, c)| c != 0.0);
    }

    /// Evaluates the expression on a dense assignment indexed by variable.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range for `values`.
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|&(v, c)| c * values[v.0]).sum::<f64>()
    }

    /// Returns `true` if any coefficient or the constant is NaN.
    pub fn has_nan(&self) -> bool {
        self.constant.is_nan() || self.terms.iter().any(|&(_, c)| c.is_nan())
    }

    /// Largest variable index referenced, if any.
    pub fn max_var_index(&self) -> Option<usize> {
        self.terms.last().map(|&(v, _)| v.0)
    }

    /// Adds every term of `rhs` (sorted, one per variable), as repeated
    /// [`LinExpr::add_term`] calls would, in one merge pass.
    fn merge_terms(&mut self, rhs: Vec<(Variable, f64)>) {
        let appends = match (self.terms.last(), rhs.first()) {
            (Some(last), Some(first)) => last.0 < first.0,
            _ => true,
        };
        if appends {
            self.terms.extend(rhs.into_iter().map(|(v, c)| (v, 0.0 + c)));
            return;
        }
        let lhs = std::mem::take(&mut self.terms);
        let mut merged = Vec::with_capacity(lhs.len() + rhs.len());
        let mut rhs = rhs.into_iter().peekable();
        for (v, c) in lhs {
            while let Some((w, d)) = rhs.next_if(|&(w, _)| w < v) {
                merged.push((w, 0.0 + d));
            }
            match rhs.next_if(|&(w, _)| w == v) {
                Some((_, d)) => merged.push((v, c + d)),
                None => merged.push((v, c)),
            }
        }
        merged.extend(rhs.map(|(w, d)| (w, 0.0 + d)));
        self.terms = merged;
    }
}

impl From<Variable> for LinExpr {
    fn from(v: Variable) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant_expr(c)
    }
}

// --- operator implementations -------------------------------------------------

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.merge_terms(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        *self += -rhs;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: LinExpr) -> LinExpr {
        rhs * self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl Add<LinExpr> for f64 {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        rhs + self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: f64) -> LinExpr {
        self + (-rhs)
    }
}

impl Sub<LinExpr> for f64 {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        -rhs + self
    }
}

// Variable-involving operators delegate to LinExpr.

impl Add<Variable> for Variable {
    type Output = LinExpr;
    fn add(self, rhs: Variable) -> LinExpr {
        LinExpr::from(self) + LinExpr::from(rhs)
    }
}

impl Sub<Variable> for Variable {
    type Output = LinExpr;
    fn sub(self, rhs: Variable) -> LinExpr {
        LinExpr::from(self) - LinExpr::from(rhs)
    }
}

impl Add<LinExpr> for Variable {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Add<Variable> for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: Variable) -> LinExpr {
        self + LinExpr::from(rhs)
    }
}

impl Sub<Variable> for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: Variable) -> LinExpr {
        self - LinExpr::from(rhs)
    }
}

impl Sub<LinExpr> for Variable {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) - rhs
    }
}

impl Mul<Variable> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: Variable) -> LinExpr {
        LinExpr::term(rhs, self)
    }
}

impl Mul<f64> for Variable {
    type Output = LinExpr;
    fn mul(self, rhs: f64) -> LinExpr {
        LinExpr::term(self, rhs)
    }
}

impl Add<f64> for Variable {
    type Output = LinExpr;
    fn add(self, rhs: f64) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Sub<f64> for Variable {
    type Output = LinExpr;
    fn sub(self, rhs: f64) -> LinExpr {
        LinExpr::from(self) - rhs
    }
}

impl Neg for Variable {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr::term(self, -1.0)
    }
}

impl Sum for LinExpr {
    fn sum<I: Iterator<Item = LinExpr>>(iter: I) -> LinExpr {
        iter.fold(LinExpr::new(), |acc, e| acc + e)
    }
}

impl Extend<(Variable, f64)> for LinExpr {
    fn extend<T: IntoIterator<Item = (Variable, f64)>>(&mut self, iter: T) {
        for (v, c) in iter {
            self.add_term(v, c);
        }
    }
}

impl FromIterator<(Variable, f64)> for LinExpr {
    fn from_iter<T: IntoIterator<Item = (Variable, f64)>>(iter: T) -> Self {
        let mut e = LinExpr::new();
        e.extend(iter);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Variable {
        Variable(i)
    }

    #[test]
    fn term_merging() {
        let e = LinExpr::term(v(0), 1.0) + LinExpr::term(v(0), 2.5);
        assert_eq!(e.coefficient(v(0)), 3.5);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn operators_compose() {
        let e = 2.0 * v(0) + v(1) - 0.5 * v(2) + 7.0;
        assert_eq!(e.coefficient(v(0)), 2.0);
        assert_eq!(e.coefficient(v(1)), 1.0);
        assert_eq!(e.coefficient(v(2)), -0.5);
        assert_eq!(e.constant(), 7.0);
    }

    #[test]
    fn negation_and_subtraction() {
        let e = v(0) - v(1);
        let n = -e.clone();
        assert_eq!(n.coefficient(v(0)), -1.0);
        assert_eq!(n.coefficient(v(1)), 1.0);
        assert_eq!((e - LinExpr::term(v(0), 1.0)).coefficient(v(0)), 0.0);
    }

    #[test]
    fn evaluate_matches_hand_computation() {
        let e = 2.0 * v(0) + 3.0 * v(2) - 1.0;
        assert_eq!(e.evaluate(&[1.0, 99.0, 2.0]), 2.0 + 6.0 - 1.0);
    }

    #[test]
    fn sum_of_expressions() {
        let total: LinExpr = (0..4).map(|i| LinExpr::term(v(i), i as f64)).sum();
        assert_eq!(total.coefficient(v(3)), 3.0);
        assert_eq!(total.coefficient(v(0)), 0.0);
    }

    #[test]
    fn compact_drops_zeros() {
        let mut e = v(0) + v(1) - v(1);
        assert_eq!(e.len(), 2);
        e.compact();
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let e: LinExpr = vec![(v(0), 1.0), (v(1), 2.0), (v(0), 3.0)].into_iter().collect();
        assert_eq!(e.coefficient(v(0)), 4.0);
        assert_eq!(e.coefficient(v(1)), 2.0);
    }

    #[test]
    fn nan_detection() {
        let mut e = LinExpr::term(v(0), 1.0);
        assert!(!e.has_nan());
        e.add_constant(f64::NAN);
        assert!(e.has_nan());
    }

    #[test]
    fn scalar_on_both_sides() {
        let a = 1.0 + LinExpr::from(v(0));
        let b = LinExpr::from(v(0)) + 1.0;
        assert_eq!(a, b);
        let c = 5.0 - LinExpr::from(v(0));
        assert_eq!(c.coefficient(v(0)), -1.0);
        assert_eq!(c.constant(), 5.0);
    }

    #[test]
    fn max_var_index() {
        let e = v(3) + v(7);
        assert_eq!(e.max_var_index(), Some(7));
        assert_eq!(LinExpr::new().max_var_index(), None);
    }

    /// What a `BTreeMap`-keyed expression stores after the same calls:
    /// each variable's coefficient starts at `0.0` and adds up in call
    /// order.
    fn reference(calls: &[(usize, f64)]) -> Vec<(usize, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for &(i, c) in calls {
            *map.entry(i).or_insert(0.0) += c;
        }
        map.into_iter().map(|(i, c): (usize, f64)| (i, c.to_bits())).collect()
    }

    fn bits(e: &LinExpr) -> Vec<(usize, u64)> {
        e.iter().map(|(var, c)| (var.index(), c.to_bits())).collect()
    }

    /// Random `(variable, coefficient)` calls, out of order and with
    /// repeats, over coefficients that include `-0.0` and values whose
    /// sums round.
    fn random_calls(rng: &mut impl rand::Rng, len: usize) -> Vec<(usize, f64)> {
        const COEFS: [f64; 7] = [-0.0, 0.0, 1.0, -2.5, 0.1, 1e-17, 3e16];
        (0..len).map(|_| (rng.gen_range(0..12), COEFS[rng.gen_range(0..COEFS.len())])).collect()
    }

    #[test]
    fn add_term_and_sums_merge_like_an_ordered_map() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let (la, lb) = (rng.gen_range(0..30), rng.gen_range(0..30));
            let a = random_calls(&mut rng, la);
            let b = random_calls(&mut rng, lb);
            let mut e = LinExpr::new();
            for &(i, c) in &a {
                e.add_term(v(i), c);
            }
            assert_eq!(bits(&e), reference(&a), "calls {a:?}");
            let collected: LinExpr = a.iter().map(|&(i, c)| (v(i), c)).collect();
            assert_eq!(collected, e);

            // `a + b` adds `b`'s stored terms to `a`'s, variable by variable.
            let rhs: LinExpr = b.iter().map(|&(i, c)| (v(i), c)).collect();
            let sum = e + rhs.clone();
            let mut calls = a.clone();
            calls.extend(rhs.iter().map(|(var, c)| (var.index(), c)));
            assert_eq!(bits(&sum), reference(&calls), "{a:?} + {b:?}");
            assert!(sum.iter().zip(sum.iter().skip(1)).all(|(x, y)| x.0 < y.0));
        }
    }

    #[test]
    fn negative_zero_starts_from_positive_zero() {
        let e = LinExpr::term(v(2), -0.0);
        assert_eq!(bits(&e), vec![(2, 0.0f64.to_bits())]);
        let mut e = LinExpr::term(v(2), -0.0);
        e.add_term(v(1), -0.0);
        assert_eq!(bits(&e), vec![(1, 0.0f64.to_bits()), (2, 0.0f64.to_bits())]);
        let sum = LinExpr::term(v(4), 1.0) + LinExpr::term(v(3), -0.0);
        assert_eq!(bits(&sum), vec![(3, 0.0f64.to_bits()), (4, 1.0f64.to_bits())]);
    }

    #[test]
    fn out_of_order_terms_iterate_ascending() {
        let mut e = LinExpr::new();
        for i in [5, 1, 9, 1, 0, 5, 7] {
            e.add_term(v(i), i as f64);
        }
        let order: Vec<usize> = e.iter().map(|(var, _)| var.index()).collect();
        assert_eq!(order, vec![0, 1, 5, 7, 9]);
        assert_eq!(e.coefficient(v(1)), 2.0);
        assert_eq!(e.coefficient(v(5)), 10.0);
        assert_eq!(e.coefficient(v(3)), 0.0);
        assert_eq!(e.max_var_index(), Some(9));
        e.add_term(v(0), -0.0);
        e.add_term(v(7), -7.0);
        e.compact();
        let order: Vec<usize> = e.iter().map(|(var, _)| var.index()).collect();
        assert_eq!(order, vec![1, 5, 9]);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a: LinExpr = vec![(v(3), 1.0), (v(1), 2.0)].into_iter().collect();
        let b: LinExpr = vec![(v(1), 2.0), (v(3), 1.0)].into_iter().collect();
        assert_eq!(a, b);
        let c: LinExpr = vec![(v(1), 2.0), (v(3), 1.0), (v(4), 0.0)].into_iter().collect();
        assert_ne!(a, c, "a stored zero is still a term until compacted");
        let mut c = c;
        c.compact();
        assert_eq!(a, c);
    }
}
