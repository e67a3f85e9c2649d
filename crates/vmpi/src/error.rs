//! Typed communication failures.
//!
//! Every [`crate::Comm`] operation, collective and exchange returns
//! `Result<_, CommError>` instead of panicking: a lost peer, a stuck
//! receive or a poisoned shared structure surfaces as a value the
//! caller can react to (retry, tear the world down, restart from a
//! checkpoint) rather than as an aborted rank thread.

/// Result alias used across the crate's communication surface.
pub type CommResult<T> = Result<T, CommError>;

/// Why a communication operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The peer rank is dead: it aborted, its thread exited, or its
    /// channel endpoints were dropped.
    PeerDead {
        /// The rank that is gone.
        peer: usize,
    },
    /// This rank itself has been killed (it aborted, e.g. at a
    /// scheduled kill); every subsequent operation on its endpoint
    /// fails with this.
    Killed {
        /// The killed rank (the caller).
        rank: usize,
    },
    /// A receive waited out its timeout with no message: the peer is
    /// alive but stuck.
    Timeout {
        /// The source rank the receive was matched against.
        from: usize,
        /// Per-pair delivery ordinal of the message the receive was
        /// waiting for (the count of messages already delivered from
        /// `from`). Lets operators see *which* message in the stream
        /// stalled.
        seq: u64,
    },
    /// A shared communication structure (channel or world state) was
    /// poisoned by a panic on another rank thread.
    Poisoned,
    /// A wire frame could not be decoded (truncated header or body).
    Malformed {
        /// What failed to parse.
        what: &'static str,
    },
    /// [`crate::Strategy::Auto`] reached the wire without being
    /// resolved to a concrete strategy first.
    AutoUnresolved,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerDead { peer } => write!(f, "peer rank {peer} is dead"),
            CommError::Killed { rank } => write!(f, "rank {rank} was killed"),
            CommError::Timeout { from, seq } => {
                write!(f, "receive from rank {from} timed out (pending seq {seq})")
            }
            CommError::Poisoned => write!(f, "communication state poisoned by a panic"),
            CommError::Malformed { what } => write!(f, "malformed wire frame: {what}"),
            CommError::AutoUnresolved => write!(
                f,
                "Strategy::Auto must be resolved to a concrete strategy before \
                 the exchange runs (see coupled::machine::CostModel::pick_strategy)"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Read a little-endian `u32` from the front of `buf`, advancing it.
pub(crate) fn take_u32(buf: &mut &[u8], what: &'static str) -> CommResult<u32> {
    if buf.len() < 4 {
        return Err(CommError::Malformed { what });
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Ok(u32::from_le_bytes([head[0], head[1], head[2], head[3]]))
}

/// Read a little-endian `u64` from the front of `buf`, advancing it.
pub(crate) fn take_u64(buf: &mut &[u8], what: &'static str) -> CommResult<u64> {
    if buf.len() < 8 {
        return Err(CommError::Malformed { what });
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    let mut b = [0u8; 8];
    b.copy_from_slice(head);
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_variant() {
        assert!(CommError::PeerDead { peer: 3 }.to_string().contains("3"));
        assert!(CommError::Killed { rank: 1 }.to_string().contains("killed"));
        let timeout = CommError::Timeout { from: 2, seq: 17 }.to_string();
        assert!(timeout.contains("timed out"));
        assert!(timeout.contains("seq 17"), "pending seq must surface");
        assert!(CommError::Poisoned.to_string().contains("poisoned"));
        assert!(CommError::Malformed { what: "seq header" }
            .to_string()
            .contains("seq header"));
        assert!(CommError::AutoUnresolved.to_string().contains("Auto"));
    }

    #[test]
    fn take_helpers_reject_short_buffers() {
        let mut short: &[u8] = &[1, 2, 3];
        assert_eq!(
            take_u32(&mut short, "hdr"),
            Err(CommError::Malformed { what: "hdr" })
        );
        let mut short8: &[u8] = &[0; 7];
        assert_eq!(
            take_u64(&mut short8, "len"),
            Err(CommError::Malformed { what: "len" })
        );
        let mut ok: &[u8] = &[5, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(take_u32(&mut ok, "hdr"), Ok(5));
        assert_eq!(take_u64(&mut ok, "len"), Ok(7));
        assert!(ok.is_empty());
    }
}
