//! Error type for configuration and construction failures.

use std::borrow::Cow;

/// Errors produced when configuring or building sketches.
///
/// The hot paths (insert/estimate) are infallible by construction; all
/// validation happens when a sketch is dimensioned and built.
#[derive(Debug, Clone, PartialEq)]
pub enum SBitmapError {
    /// A dimensioning or construction parameter is out of its valid range.
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// Human-readable explanation (a static string where the
        /// rejection must not allocate, as in wire-frame validation).
        reason: Cow<'static, str>,
    },
    /// The numeric solver for `C` failed to bracket or converge.
    SolverFailure(String),
    /// A delta frame (wire v3) arrived for a `(source, epoch)` whose
    /// round-0 baseline has not been absorbed: the delta chain is
    /// broken and the sender must resync from a baseline frame. Raised
    /// *before* any O(m) apply work, so a peer with a stale chain costs
    /// the receiver one map lookup.
    MissingBaseline {
        /// Absolute epoch of the rejected delta frame.
        epoch: u64,
        /// Round index of the rejected delta frame (always > 0).
        round: u32,
    },
    /// An epoch slot's absorb guard is full: too many distinct
    /// `(source, round)` pairs were recorded for one epoch. Raised
    /// instead of growing the guard without bound when peers churn
    /// through source ids; the frame is rejected, the ring untouched.
    GuardFull {
        /// Absolute epoch whose guard hit the cap.
        epoch: u64,
        /// The per-slot entry cap that was reached.
        cap: usize,
    },
}

impl std::fmt::Display for SBitmapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SBitmapError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            SBitmapError::SolverFailure(msg) => write!(f, "dimensioning solver failed: {msg}"),
            SBitmapError::MissingBaseline { epoch, round } => write!(
                f,
                "missing baseline: delta round {round} for epoch {epoch} \
                 arrived before its round-0 baseline"
            ),
            SBitmapError::GuardFull { epoch, cap } => write!(
                f,
                "absorb guard full: epoch {epoch} already tracks {cap} \
                 (source, round) entries; frame rejected"
            ),
        }
    }
}

impl std::error::Error for SBitmapError {}

impl SBitmapError {
    /// Convenience constructor for parameter errors.
    pub fn invalid(name: &'static str, reason: impl Into<Cow<'static, str>>) -> Self {
        SBitmapError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SBitmapError::invalid("m", "must be positive");
        assert_eq!(e.to_string(), "invalid parameter `m`: must be positive");
        let s = SBitmapError::SolverFailure("no bracket".into());
        assert!(s.to_string().contains("no bracket"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SBitmapError::invalid("x", "y"));
    }
}
