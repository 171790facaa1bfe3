//! # postcard-lp — a pure-Rust linear programming substrate
//!
//! This crate provides everything the [Postcard](https://doi.org/10.1109/ICDCS.2012.39)
//! reproduction needs to state and solve linear programs:
//!
//! * a small **modeling layer** ([`Model`], [`Variable`], [`LinExpr`]) for
//!   building problems with named variables, bounds, and `≤ / = / ≥`
//!   constraints;
//! * a **two-phase sparse revised simplex** solver ([`SimplexSolver`])
//!   pricing directly against the CSC constraint matrix, with the basis held
//!   as a sparse LU factorization plus product-form (eta-file) updates,
//!   periodic refactorization, and warm starts from a previously exported
//!   [`Basis`];
//! * **solution objects** ([`Solution`]) carrying primal values, dual values,
//!   reduced costs, and the termination [`Status`];
//! * an independent **verifier** ([`validate`]) used by the test-suite to
//!   check primal/dual feasibility and strong duality of returned solutions.
//!
//! The Postcard paper solves its convex program with MATLAB's `fmincon`; in
//! this reproduction the convex objective is linearized exactly (see the
//! repository `DESIGN.md`), so a robust LP solver is all that is required.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`, `x, y ≥ 0`:
//!
//! ```
//! use postcard_lp::{Model, Sense};
//!
//! # fn main() -> Result<(), postcard_lp::LpError> {
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY);
//! let y = m.add_var("y", 0.0, f64::INFINITY);
//! m.set_objective(3.0 * x + 2.0 * y);
//! m.leq(x + y, 4.0);
//! m.leq(x + 3.0 * y, 6.0);
//! let sol = m.solve()?;
//! assert!((sol.objective() - 12.0).abs() < 1e-6); // x=4, y=0
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod dense;
mod error;
mod eta;
mod expr;
mod factor;
mod model;
mod simplex;
mod solution;
mod sparse;
mod standard;
pub mod validate;

pub use error::LpError;
pub use expr::{LinExpr, Variable};
pub use model::{Constraint, ConstraintId, Model, PreparedLp, Relation, Sense};
pub use simplex::{Basis, SimplexOptions, SimplexSolver, SolverWorkspace};
pub use solution::{Solution, Status};
pub use sparse::CscMatrix;

/// Default numeric tolerance used across the solver for feasibility and
/// optimality tests.
pub const DEFAULT_TOL: f64 = 1e-7;
