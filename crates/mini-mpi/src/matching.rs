//! Tag/source matching: posted-receive and unexpected-message queues.
//!
//! This module is deliberately structured the way real MPI implementations
//! are (and the way the paper criticizes): both queues are plain lists
//! traversed sequentially under the communicator lock, and wildcard receives
//! force full traversals. The traversal cost per element is charged from the
//! active [`Personality`](crate::Personality).

use std::collections::VecDeque;

/// Result of a successful probe: enough information to post the receive,
/// exactly like `MPI_Status` after `MPI_Iprobe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiStatus {
    /// Matched source rank.
    pub src: u16,
    /// Matched tag.
    pub tag: u32,
    /// Message payload size in bytes.
    pub len: usize,
}

/// An arrived-but-unmatched message.
pub(crate) struct UnexMsg {
    pub src: u16,
    pub tag: u32,
    pub body: UnexBody,
}

pub(crate) enum UnexBody {
    /// Eager message: full payload present.
    Eager(Vec<u8>),
    /// Rendezvous announcement: size and the id of the sender's request.
    Rts { size: usize, send_id: u64 },
}

impl UnexMsg {
    pub(crate) fn len(&self) -> usize {
        match &self.body {
            UnexBody::Eager(v) => v.len(),
            UnexBody::Rts { size, .. } => *size,
        }
    }
}

/// Decode an RTS envelope as `(size, send_id)`; `None` on short input.
/// Total and panic-free: RTS bodies reach this from the wire, and the
/// hardened progress path drops short ones instead of unwrapping.
pub(crate) fn decode_rts_envelope(body: &[u8]) -> Option<(usize, u64)> {
    if body.len() < 16 {
        return None;
    }
    let size = u64::from_le_bytes(body[..8].try_into().ok()?) as usize;
    let id = u64::from_le_bytes(body[8..16].try_into().ok()?);
    Some((size, id))
}

/// A receive posted before its message arrived.
pub(crate) struct PostedRecv {
    pub src: Option<u16>,
    pub tag: Option<u32>,
    pub req: std::sync::Arc<crate::p2p::Request>,
}

fn matches(want_src: Option<u16>, want_tag: Option<u32>, src: u16, tag: u32) -> bool {
    want_src.is_none_or(|s| s == src) && want_tag.is_none_or(|t| t == tag)
}

/// The matching engine state (guarded by the communicator lock).
#[derive(Default)]
pub(crate) struct Matching {
    pub unexpected: VecDeque<UnexMsg>,
    pub posted: VecDeque<PostedRecv>,
    /// Elements traversed since the last drain (for charging match cost).
    pub traversed: u64,
}

impl Matching {
    /// Find (and remove) the first unexpected message matching the pattern.
    /// Traverses sequentially from the front, as MPI's non-overtaking rule
    /// requires given in-order insertion.
    pub fn take_unexpected(
        &mut self,
        src: Option<u16>,
        tag: Option<u32>,
    ) -> Option<UnexMsg> {
        let mut idx = None;
        for (i, m) in self.unexpected.iter().enumerate() {
            self.traversed += 1;
            if matches(src, tag, m.src, m.tag) {
                idx = Some(i);
                break;
            }
        }
        idx.and_then(|i| self.unexpected.remove(i))
    }

    /// Probe without removing.
    pub fn probe(&mut self, src: Option<u16>, tag: Option<u32>) -> Option<MpiStatus> {
        for m in self.unexpected.iter() {
            self.traversed += 1;
            if matches(src, tag, m.src, m.tag) {
                return Some(MpiStatus {
                    src: m.src,
                    tag: m.tag,
                    len: m.len(),
                });
            }
        }
        None
    }

    /// Find (and remove) the first posted receive matching an arrival.
    pub fn take_posted(&mut self, src: u16, tag: u32) -> Option<PostedRecv> {
        let mut idx = None;
        for (i, p) in self.posted.iter().enumerate() {
            self.traversed += 1;
            if matches(p.src, p.tag, src, tag) {
                idx = Some(i);
                break;
            }
        }
        idx.and_then(|i| self.posted.remove(i))
    }

    /// Reset and return the traversal counter (cost accounting).
    pub fn drain_traversed(&mut self) -> u64 {
        std::mem::take(&mut self.traversed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lci_fabric::{Held, Req};
    use parking_lot::Mutex;

    fn unex(src: u16, tag: u32) -> UnexMsg {
        UnexMsg {
            src,
            tag,
            body: UnexBody::Eager(vec![0; 3]),
        }
    }

    #[test]
    fn wildcard_matches_first_in_order() {
        let mut m = Matching::default();
        m.unexpected.push_back(unex(1, 10));
        m.unexpected.push_back(unex(2, 20));
        m.unexpected.push_back(unex(1, 30));
        let got = m.take_unexpected(None, None).unwrap();
        assert_eq!((got.src, got.tag), (1, 10));
        let got = m.take_unexpected(Some(1), None).unwrap();
        assert_eq!((got.src, got.tag), (1, 30));
        assert!(m.take_unexpected(Some(3), None).is_none());
    }

    #[test]
    fn tag_filter() {
        let mut m = Matching::default();
        m.unexpected.push_back(unex(1, 10));
        m.unexpected.push_back(unex(1, 20));
        let got = m.take_unexpected(None, Some(20)).unwrap();
        assert_eq!(got.tag, 20);
        assert_eq!(m.unexpected.len(), 1);
    }

    #[test]
    fn probe_does_not_remove() {
        let mut m = Matching::default();
        m.unexpected.push_back(unex(4, 44));
        let st = m.probe(None, None).unwrap();
        assert_eq!(st, MpiStatus { src: 4, tag: 44, len: 3 });
        assert_eq!(m.unexpected.len(), 1);
    }

    #[test]
    fn traversal_counting() {
        let mut m = Matching::default();
        for i in 0..10 {
            m.unexpected.push_back(unex(i as u16, i));
        }
        assert!(m.probe(Some(9), None).is_some());
        assert_eq!(m.drain_traversed(), 10, "wildcard miss scans everything");
        assert_eq!(m.drain_traversed(), 0);
    }

    #[test]
    fn envelope_decoders_are_total() {
        let mut rts = [0u8; 16];
        rts[..8].copy_from_slice(&512u64.to_le_bytes());
        rts[8..16].copy_from_slice(&0xABCDu64.to_le_bytes());
        assert_eq!(decode_rts_envelope(&rts), Some((512, 0xABCD)));
        for cut in 0..16 {
            assert_eq!(decode_rts_envelope(&rts[..cut]), None);
        }
    }

    #[test]
    fn posted_matching() {
        let mut m = Matching::default();
        m.posted.push_back(PostedRecv {
            src: Some(2),
            tag: None,
            req: Req::new(Held::Empty, Mutex::new(None)),
        });
        m.posted.push_back(PostedRecv {
            src: None,
            tag: Some(7),
            req: Req::new(Held::Empty, Mutex::new(None)),
        });
        assert!(m.take_posted(3, 9).is_none());
        assert!(m.take_posted(2, 1).is_some());
        assert!(m.take_posted(5, 7).is_some());
        assert!(m.posted.is_empty());
    }
}
