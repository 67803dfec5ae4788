//! Error types shared across the workspace.

use core::fmt;

/// A configuration value failed validation.
///
/// Returned by the `validate` methods on the configuration structs in
/// [`crate::config`]. The message names the offending field and states
/// the constraint that was violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    reason: String,
}

impl ConfigError {
    /// Creates an error for `field` with a human-readable `reason`.
    pub fn new(field: &'static str, reason: impl Into<String>) -> ConfigError {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    impl ConfigError {
        /// The configuration field that failed validation.
        pub(crate) fn field(&self) -> &'static str {
            self.field
        }
    }

    #[test]
    fn display_names_field_and_reason() {
        let err = ConfigError::new("banks_per_dimm", "must be a power of two");
        let s = err.to_string();
        assert!(s.contains("banks_per_dimm"));
        assert!(s.contains("power of two"));
        assert_eq!(err.field(), "banks_per_dimm");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_e: E) {}
        takes_err(ConfigError::new("x", "y"));
    }
}
