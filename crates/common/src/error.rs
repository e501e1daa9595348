//! Error type shared across the workspace.

/// Errors produced while configuring or running the streaming
/// estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A configuration parameter was outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter, e.g. `"epsilon"`.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A randomized sketch failed to produce an answer (probability ≤ δ
    /// by construction). Carries the component that failed.
    SketchFailed(&'static str),
    /// A heavy-hitter decode found no qualifying author.
    NoHeavyHitter,
    /// The stream violated a model assumption (e.g. an index outside the
    /// declared domain of a cash-register vector).
    ModelViolation(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            Error::SketchFailed(which) => write!(f, "sketch `{which}` failed to decode"),
            Error::NoHeavyHitter => write!(f, "no heavy hitter found"),
            Error::ModelViolation(msg) => write!(f, "stream model violation: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// Builds an [`Error::InvalidParameter`].
    #[must_use]
    pub(crate) fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        Error::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::invalid("epsilon", "must lie in (0, 1)");
        assert_eq!(e.to_string(), "invalid parameter `epsilon`: must lie in (0, 1)");
        assert_eq!(
            Error::SketchFailed("l0-sampler").to_string(),
            "sketch `l0-sampler` failed to decode"
        );
        assert_eq!(Error::NoHeavyHitter.to_string(), "no heavy hitter found");
        assert!(Error::ModelViolation("x".into()).to_string().contains("x"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::NoHeavyHitter);
    }
}
