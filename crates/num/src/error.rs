//! Error type shared by the numerical routines.

use std::fmt;

/// Errors produced by the numerical substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumError {
    /// A matrix or vector had an unexpected shape.
    DimensionMismatch {
        /// What the caller supplied.
        got: usize,
        /// What the routine required.
        expected: usize,
        /// Human-readable context (routine name / argument).
        context: &'static str,
    },
    /// LU factorization hit a (numerically) singular pivot.
    SingularMatrix {
        /// Column at which elimination broke down.
        column: usize,
    },
    /// An iterative method exhausted its iteration budget.
    DidNotConverge {
        /// Number of iterations performed.
        iterations: usize,
        /// Residual norm at the final iterate.
        residual: f64,
    },
    /// An axis or grid definition was invalid (too few points, non-monotonic, NaN…).
    InvalidGrid(String),
    /// A lookup-table query used the wrong number of coordinates.
    InvalidQuery(String),
    /// A table of a [`crate::lut::LutGroup`] is not sampled on the axes of the
    /// group's first table.
    MismatchedAxes {
        /// Index of the first table whose axes differ.
        table: usize,
    },
    /// A root-finding bracket did not actually bracket a sign change.
    InvalidBracket {
        /// Function value at the lower end of the bracket.
        f_lo: f64,
        /// Function value at the upper end of the bracket.
        f_hi: f64,
    },
    /// A scalar argument was out of the allowed range (step sizes, tolerances…).
    InvalidArgument(String),
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::DimensionMismatch {
                got,
                expected,
                context,
            } => write!(
                f,
                "dimension mismatch in {context}: got {got}, expected {expected}"
            ),
            NumError::SingularMatrix { column } => {
                write!(f, "matrix is singular at column {column}")
            }
            NumError::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "iteration did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            NumError::InvalidGrid(msg) => write!(f, "invalid grid: {msg}"),
            NumError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            NumError::MismatchedAxes { table } => {
                write!(
                    f,
                    "lut group table {table} is not sampled on the axes of table 0"
                )
            }
            NumError::InvalidBracket { f_lo, f_hi } => write!(
                f,
                "bracket does not contain a sign change (f_lo = {f_lo:.3e}, f_hi = {f_hi:.3e})"
            ),
            NumError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for NumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = NumError::DimensionMismatch {
            got: 3,
            expected: 4,
            context: "solve",
        };
        let msg = e.to_string();
        assert!(msg.contains("solve"));
        assert!(msg.contains('3'));
        assert!(msg.contains('4'));
    }

    #[test]
    fn display_singular() {
        let e = NumError::SingularMatrix { column: 2 };
        assert!(e.to_string().contains("column 2"));
    }

    #[test]
    fn display_not_converged() {
        let e = NumError::DidNotConverge {
            iterations: 50,
            residual: 1e-3,
        };
        let msg = e.to_string();
        assert!(msg.contains("50"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<NumError>();
    }

    #[test]
    fn display_invalid_bracket() {
        let e = NumError::InvalidBracket {
            f_lo: 1.0,
            f_hi: 2.0,
        };
        assert!(e.to_string().contains("sign change"));
    }
}
