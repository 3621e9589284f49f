//! Wire protocol: packet types and header packing.
//!
//! LCI needs only three two-sided packet types (plus the RDMA put itself):
//!
//! * `EGR` — eager data packet, used below the rendezvous threshold.
//! * `RTS` — ready-to-send, opens a rendezvous; carries the id of the
//!   sender's request.
//! * `RTR` — ready-to-receive, answers an RTS; carries the sender's id back,
//!   the receiver's registered region key, and the id of the receiver's
//!   request (which the sender echoes as the put's immediate value), in the
//!   body [`lci_fabric::encode_rtr`] writes.
//!
//! There is deliberately **no** tag matching or ordering in this layer — the
//! header's tag field is transported verbatim for the upper layer to use.
//!
//! Header layout (64 bits): `[ty:3][tag:25][size:36]`.

/// Maximum representable tag (25 bits).
pub const MAX_TAG: u32 = (1 << 25) - 1;

/// Maximum representable message size (36 bits).
pub const MAX_SIZE: u64 = (1 << 36) - 1;

/// The three two-sided control/data packet kinds plus the emulated-put
/// fragment stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketType {
    /// Eager data packet (at or below the rendezvous threshold).
    Egr = 0,
    /// Ready-to-send: opens a rendezvous.
    Rts = 1,
    /// Ready-to-receive: answers an RTS.
    Rtr = 2,
    /// Rendezvous data fragment (emulated-put mode, psm2-style).
    Frag = 3,
}

impl PacketType {
    fn from_bits(b: u64) -> Option<PacketType> {
        match b {
            0 => Some(PacketType::Egr),
            1 => Some(PacketType::Rts),
            2 => Some(PacketType::Rtr),
            3 => Some(PacketType::Frag),
            _ => None,
        }
    }
}

/// Fragment payload prefix: receiver request id + byte offset.
pub fn encode_frag_header(recv_id: u64, offset: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&recv_id.to_le_bytes());
    out[8..].copy_from_slice(&offset.to_le_bytes());
    out
}

/// Decode a fragment prefix as `(recv_id, offset)`; `None` on short
/// input. Total, panic-free on arbitrary bytes.
pub fn decode_frag_header(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() < 16 {
        return None;
    }
    let c = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let o = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    Some((c, o))
}

/// Pack a header as `[ty:3][tag:25][size:36]`.
pub fn pack(ty: PacketType, tag: u32, size: u64) -> u64 {
    debug_assert!(tag <= MAX_TAG, "tag out of range");
    debug_assert!(size <= MAX_SIZE, "size out of range");
    ((ty as u64) << 61) | ((tag as u64) << 36) | size
}

/// Unpack a header; `None` when the type bits are invalid. Total, panic-free
/// on arbitrary input.
pub fn unpack(header: u64) -> Option<(PacketType, u32, u64)> {
    let ty = PacketType::from_bits(header >> 61)?;
    let tag = ((header >> 36) & MAX_TAG as u64) as u32;
    let size = header & MAX_SIZE;
    Some((ty, tag, size))
}

/// RTS payload: 8-byte little-endian sender request id.
pub fn encode_rts(send_id: u64) -> [u8; 8] {
    send_id.to_le_bytes()
}

/// Decode an RTS payload as the sender request id; `None` on short
/// input. Total, panic-free on arbitrary bytes.
pub fn decode_rts(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?))
}

/// RTR payload: sender id, memory-region key, receiver id — the fabric's
/// one rendezvous codec, which mini-mpi's RTR carries too.
pub use lci_fabric::{decode_rtr, encode_rtr};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (ty, tag, size) in [
            (PacketType::Egr, 0u32, 0u64),
            (PacketType::Rts, MAX_TAG, MAX_SIZE),
            (PacketType::Rtr, 12345, 1 << 20),
        ] {
            let h = pack(ty, tag, size);
            let (t2, g2, s2) = unpack(h).unwrap();
            assert_eq!(t2, ty);
            assert_eq!(g2, tag);
            assert_eq!(s2, size);
        }
    }

    #[test]
    fn bad_type_bits_rejected() {
        assert!(unpack(7u64 << 61).is_none());
    }

    #[test]
    fn frag_header_roundtrip() {
        let enc = encode_frag_header(0xAA55, 123_456);
        assert_eq!(decode_frag_header(&enc), Some((0xAA55, 123_456)));
        assert_eq!(decode_frag_header(&enc[..15]), None);
    }

    #[test]
    fn rts_roundtrip() {
        let enc = encode_rts(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(decode_rts(&enc), Some(0xDEAD_BEEF_CAFE_F00D));
        assert_eq!(decode_rts(&[1, 2, 3]), None);
    }

    #[test]
    fn rtr_roundtrip() {
        let enc = encode_rtr(1, 2, 3);
        assert_eq!(decode_rtr(&enc), Some((1, 2, 3)));
        assert_eq!(decode_rtr(&enc[..23]), None);
    }
}
