//! Error types shared across the GS-Scale workspace.

use std::fmt;

/// Convenience alias for results using [`enum@Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the GS-Scale core and downstream crates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A caller supplied an argument that violates a documented precondition.
    InvalidArgument {
        /// Human-readable description of the violated precondition.
        reason: String,
    },
    /// A simulated device ran out of memory.
    ///
    /// This is how the GPU-only baseline fails on scenes that exceed the GPU
    /// memory capacity (the "OOM" bars in Figure 11 of the paper).
    OutOfMemory {
        /// Name of the device whose pool overflowed.
        device: String,
        /// Bytes the allocation asked for.
        requested_bytes: usize,
        /// Bytes still available in the pool.
        available_bytes: usize,
        /// Total capacity of the pool.
        capacity_bytes: usize,
    },
    /// A numerical routine produced a non-finite value.
    NumericalError {
        /// Where the problem was detected.
        context: String,
    },
    /// A shape or length mismatch between two containers.
    ShapeMismatch {
        /// Description of the mismatch.
        reason: String,
    },
}

impl Error {
    /// Creates an [`Error::InvalidArgument`].
    pub fn invalid_argument(reason: impl Into<String>) -> Self {
        Error::InvalidArgument {
            reason: reason.into(),
        }
    }

    /// Whether this error is an out-of-memory condition.
    pub fn is_oom(&self) -> bool {
        matches!(self, Error::OutOfMemory { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
            Error::OutOfMemory {
                device,
                requested_bytes,
                available_bytes,
                capacity_bytes,
            } => write!(
                f,
                "out of memory on {device}: requested {requested_bytes} bytes, \
                 {available_bytes} of {capacity_bytes} bytes available"
            ),
            Error::NumericalError { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            Error::ShapeMismatch { reason } => write!(f, "shape mismatch: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::OutOfMemory {
            device: "gpu".into(),
            requested_bytes: 100,
            available_bytes: 10,
            capacity_bytes: 1000,
        };
        let s = e.to_string();
        assert!(s.contains("gpu"));
        assert!(s.contains("100"));
        assert!(e.is_oom());
    }

    #[test]
    fn constructors_build_expected_variants() {
        assert!(matches!(
            Error::invalid_argument("bad"),
            Error::InvalidArgument { .. }
        ));
        assert!(!Error::invalid_argument("x").is_oom());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
