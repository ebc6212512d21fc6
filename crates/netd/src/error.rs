//! The network error taxonomy.
//!
//! Every failure mode on the wire — malformed bytes, protocol misuse,
//! configuration drift, resource-cap violations, and transport faults —
//! is a typed [`NetError`] variant, never a panic. The daemon answers a
//! failing connection with a structured error frame carrying the
//! variant's [`ErrorCode`], so a client can distinguish "retry later"
//! (draining, transport) from "fix your config" (mismatch, protocol).

use ldp_primitives::codec::CodecError;
use std::fmt;

/// One-byte wire identifier for each error class, carried in error
/// frames (see `docs/WIRE_FORMAT.md` §5). Codes are append-only: new
/// classes get new numbers, existing numbers are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame body failed container decoding (magic, version,
    /// checksum, truncation, or trailing bytes).
    Malformed = 1,
    /// The length prefix claimed more than [`crate::proto::MAX_FRAME_LEN`].
    FrameTooLarge = 2,
    /// The frame kind byte names no known frame.
    UnknownKind = 3,
    /// The peer's configuration fingerprint disagrees with ours.
    ConfigMismatch = 4,
    /// A submit batch is structurally inconsistent (offsets, counts).
    BadBatch = 5,
    /// A submit batch claims more reports/indices than the protocol cap.
    OversizedBatch = 6,
    /// A report index is outside the aggregation dimension.
    SupportOutOfRange = 7,
    /// A frame arrived out of protocol order (e.g. submit before hello).
    Protocol = 8,
    /// The connection produced no frame within the idle timeout.
    IdleTimeout = 9,
    /// The daemon is draining for shutdown; retry after it restarts.
    Draining = 10,
    /// A server-side fault (ingest pipeline or I/O), not the client's.
    Internal = 11,
}

impl ErrorCode {
    /// Decodes a wire byte back to the code.
    pub fn from_u8(byte: u8) -> Result<Self, NetError> {
        Ok(match byte {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::FrameTooLarge,
            3 => ErrorCode::UnknownKind,
            4 => ErrorCode::ConfigMismatch,
            5 => ErrorCode::BadBatch,
            6 => ErrorCode::OversizedBatch,
            7 => ErrorCode::SupportOutOfRange,
            8 => ErrorCode::Protocol,
            9 => ErrorCode::IdleTimeout,
            10 => ErrorCode::Draining,
            11 => ErrorCode::Internal,
            other => return Err(NetError::UnknownErrorCode(other)),
        })
    }

    /// The wire byte for this code.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// A static label (telemetry labels must be `&'static str`).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::UnknownKind => "unknown_kind",
            ErrorCode::ConfigMismatch => "config_mismatch",
            ErrorCode::BadBatch => "bad_batch",
            ErrorCode::OversizedBatch => "oversized_batch",
            ErrorCode::SupportOutOfRange => "support_out_of_range",
            ErrorCode::Protocol => "protocol",
            ErrorCode::IdleTimeout => "idle_timeout",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a wire operation failed. Mirrors the checkpoint layer's
/// [`CodecError`] philosophy: typed, displayable, comparable — a hostile
/// byte stream can select the variant but never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Container-level decode failure of a frame body.
    Codec(CodecError),
    /// A length prefix exceeding the frame cap — rejected before any
    /// buffer grows, so a forged length cannot force an allocation.
    FrameTooLarge {
        /// Claimed body length.
        len: u32,
        /// The enforced cap ([`crate::proto::MAX_FRAME_LEN`]).
        cap: u32,
    },
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Unknown error code byte inside an error frame.
    UnknownErrorCode(u8),
    /// The peer pins a different configuration fingerprint.
    ConfigMismatch {
        /// The fingerprint the peer sent.
        got: u64,
        /// The fingerprint this side derives from its own config.
        want: u64,
    },
    /// Structurally inconsistent submit batch.
    BadBatch(&'static str),
    /// Submit batch claims beyond the protocol caps — rejected before
    /// the index buffers are allocated.
    OversizedBatch {
        /// Claimed report count.
        reports: u32,
        /// Claimed index count.
        indices: u32,
    },
    /// A decoded report index is outside the aggregation dimension.
    SupportOutOfRange {
        /// The offending index.
        index: usize,
        /// The aggregation dimension.
        dim: usize,
    },
    /// Frame sequencing violation (e.g. submit before hello).
    Protocol(&'static str),
    /// No frame arrived within the connection's idle deadline.
    IdleTimeout,
    /// The daemon is draining; the round can be replayed after restart.
    Draining,
    /// The peer reported a structured error frame.
    Remote {
        /// The peer's error class.
        code: ErrorCode,
        /// The peer's human-readable detail.
        detail: String,
    },
    /// The ingest pipeline failed server-side.
    Pipeline(String),
    /// Transport-level I/O failure.
    Io(String),
}

impl NetError {
    /// The wire error class this variant maps to when the daemon reports
    /// it to a client.
    pub fn code(&self) -> ErrorCode {
        match self {
            NetError::Codec(_) => ErrorCode::Malformed,
            NetError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
            NetError::UnknownKind(_) => ErrorCode::UnknownKind,
            NetError::UnknownErrorCode(_) => ErrorCode::Malformed,
            NetError::ConfigMismatch { .. } => ErrorCode::ConfigMismatch,
            NetError::BadBatch(_) => ErrorCode::BadBatch,
            NetError::OversizedBatch { .. } => ErrorCode::OversizedBatch,
            NetError::SupportOutOfRange { .. } => ErrorCode::SupportOutOfRange,
            NetError::Protocol(_) => ErrorCode::Protocol,
            NetError::IdleTimeout => ErrorCode::IdleTimeout,
            NetError::Draining => ErrorCode::Draining,
            NetError::Remote { code, .. } => *code,
            NetError::Pipeline(_) | NetError::Io(_) => ErrorCode::Internal,
        }
    }

    /// Whether a loadgen client should treat the failure as transient
    /// and replay the round once the daemon is back: drains, transport
    /// faults, and server-internal faults qualify; malformed frames and
    /// configuration drift never resolve by retrying.
    pub fn retryable(&self) -> bool {
        match self {
            NetError::Draining | NetError::Io(_) | NetError::IdleTimeout => true,
            NetError::Remote { code, .. } => {
                matches!(code, ErrorCode::Draining | ErrorCode::Internal)
            }
            _ => false,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "malformed frame: {e}"),
            NetError::FrameTooLarge { len, cap } => {
                write!(f, "frame length {len} exceeds the {cap}-byte cap")
            }
            NetError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            NetError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            NetError::ConfigMismatch { got, want } => write!(
                f,
                "configuration fingerprint mismatch: peer {got:#018x}, ours {want:#018x}"
            ),
            NetError::BadBatch(what) => write!(f, "inconsistent submit batch: {what}"),
            NetError::OversizedBatch { reports, indices } => write!(
                f,
                "submit batch claims {reports} reports / {indices} indices, beyond the protocol cap"
            ),
            NetError::SupportOutOfRange { index, dim } => {
                write!(f, "report index {index} outside dimension {dim}")
            }
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::IdleTimeout => f.write_str("connection idle past its deadline"),
            NetError::Draining => f.write_str("daemon is draining for shutdown"),
            NetError::Remote { code, detail } => write!(f, "peer error [{code}]: {detail}"),
            NetError::Pipeline(e) => write!(f, "ingest pipeline failure: {e}"),
            NetError::Io(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_round_trips_its_wire_byte() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnknownKind,
            ErrorCode::ConfigMismatch,
            ErrorCode::BadBatch,
            ErrorCode::OversizedBatch,
            ErrorCode::SupportOutOfRange,
            ErrorCode::Protocol,
            ErrorCode::IdleTimeout,
            ErrorCode::Draining,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Ok(code));
            assert!(!code.name().is_empty());
        }
        assert_eq!(
            ErrorCode::from_u8(0),
            Err(NetError::UnknownErrorCode(0)),
            "0 is reserved so a zeroed byte never parses as a code"
        );
    }

    #[test]
    fn retryability_separates_transient_from_permanent() {
        assert!(NetError::Draining.retryable());
        assert!(NetError::Io("reset".into()).retryable());
        assert!(!NetError::ConfigMismatch { got: 1, want: 2 }.retryable());
        assert!(!NetError::UnknownKind(77).retryable());
        assert!(NetError::Remote {
            code: ErrorCode::Draining,
            detail: String::new()
        }
        .retryable());
        assert!(!NetError::Remote {
            code: ErrorCode::BadBatch,
            detail: String::new()
        }
        .retryable());
    }
}
