//! Error type for the timing-analysis layer.

use mcsm_core::CsmError;
use mcsm_spice::SpiceError;
use std::fmt;

/// Errors produced by delay calculation, slack arithmetic or noise analysis.
#[derive(Debug)]
pub enum StaError {
    /// A required characterized model is missing from the model library.
    MissingModel(String),
    /// A parameter was out of range.
    InvalidParameter(String),
    /// The underlying model evaluation failed.
    Model(CsmError),
    /// The underlying reference (SPICE) simulation failed.
    Spice(SpiceError),
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::MissingModel(msg) => write!(f, "missing model: {msg}"),
            StaError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            StaError::Model(e) => write!(f, "model evaluation failed: {e}"),
            StaError::Spice(e) => write!(f, "reference simulation failed: {e}"),
        }
    }
}

impl std::error::Error for StaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StaError::Model(e) => Some(e),
            StaError::Spice(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CsmError> for StaError {
    fn from(e: CsmError) -> Self {
        StaError::Model(e)
    }
}

impl From<SpiceError> for StaError {
    fn from(e: SpiceError) -> Self {
        StaError::Spice(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        use std::error::Error;
        assert!(StaError::MissingModel("NOR2".into())
            .to_string()
            .contains("NOR2"));
        assert!(StaError::InvalidParameter("dt".into())
            .to_string()
            .contains("dt"));
        let wrapped = StaError::from(CsmError::InvalidParameter("x".into()));
        assert!(wrapped.source().is_some());
        let wrapped = StaError::from(SpiceError::UnknownNode("n".into()));
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<StaError>();
    }
}
