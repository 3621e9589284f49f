//! Offline stand-in for `bytes`: cheaply cloneable byte buffers over std.
//!
//! `benchmark/Cargo.toml` patches `bytes` onto this crate because the build
//! container has no crates.io registry. [`Bytes`] is a reference-counted
//! view (`Arc<Vec<u8>>` plus a range, or a `&'static [u8]`): `clone`,
//! `slice` and `split_*` share the allocation and `From<Vec<u8>>` takes the
//! vector without copying, like the real crate. [`BytesMut`] is a plain
//! growable buffer. The `Buf`/`BufMut` traits are not reproduced; the few
//! `put_*` helpers live directly on `BytesMut`.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared {
        buf: Arc<Vec<u8>>,
        off: usize,
        len: usize,
    },
}

/// An immutable, cheaply cloneable and sliceable chunk of bytes.
#[derive(Clone)]
pub struct Bytes(Repr);

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Bytes {
        Bytes(Repr::Static(&[]))
    }

    /// A view of a static slice (no allocation, no copy).
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes(Repr::Static(bytes))
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes viewed.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Static(s) => s.len(),
            Repr::Shared { len, .. } => *len,
        }
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view sharing the same allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of range for Bytes of length {}",
            self.len()
        );
        match &self.0 {
            Repr::Static(s) => Bytes(Repr::Static(&s[start..end])),
            Repr::Shared { buf, off, .. } => Bytes(Repr::Shared {
                buf: Arc::clone(buf),
                off: off + start,
                len: end - start,
            }),
        }
    }

    /// Split at `at`: `self` keeps `[at, len)`, the returned value views
    /// `[0, at)`.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        *self = self.slice(at..);
        head
    }

    /// Split at `at`: `self` keeps `[0, at)`, the returned value views
    /// `[at, len)`.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        *self = self.slice(..at);
        tail
    }

    /// Shorten the view to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            *self = self.slice(..len);
        }
    }

    /// Make the view empty.
    pub fn clear(&mut self) {
        self.truncate(0);
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared { buf, off, len } => &buf[*off..*off + *len],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes(Repr::Shared {
            buf: Arc::new(v),
            off: 0,
            len,
        })
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from(b.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        match b.0 {
            // Sole owner of the whole vector: hand it back without a copy.
            Repr::Shared { buf, off: 0, len } if len == buf.len() => {
                Arc::try_unwrap(buf).unwrap_or_else(|shared| (*shared).clone())
            }
            _ => b.to_vec(),
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

macro_rules! eq_with {
    ($($other:ty),+) => {$(
        impl PartialEq<$other> for Bytes {
            fn eq(&self, other: &$other) -> bool {
                **self == AsRef::<[u8]>::as_ref(other)[..]
            }
        }
        impl PartialEq<Bytes> for $other {
            fn eq(&self, other: &Bytes) -> bool {
                other == self
            }
        }
    )+};
}

eq_with!([u8], Vec<u8>, &[u8], str, &str, String);

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

fn fmt_bytes(bytes: &[u8], f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    f.write_str("b\"")?;
    for &b in bytes {
        for c in std::ascii::escape_default(b) {
            std::fmt::Write::write_char(f, c as char)?;
        }
    }
    f.write_str("\"")
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_bytes(self, f)
    }
}

/// A uniquely owned, growable byte buffer; [`BytesMut::freeze`] turns it
/// into a [`Bytes`] without copying.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub const fn new() -> BytesMut {
        BytesMut(Vec::new())
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(cap))
    }

    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> BytesMut {
        BytesMut(vec![0; len])
    }

    /// Bytes held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Make room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Append a slice (`BufMut::put_slice`).
    pub fn put_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16_le(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Grow with `value` or shrink to exactly `len` bytes.
    pub fn resize(&mut self, len: usize, value: u8) {
        self.0.resize(len, value);
    }

    /// Shorten to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }

    /// Remove all bytes, keeping the capacity.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Split at `at`: `self` keeps `[at, len)`, the returned buffer holds
    /// `[0, at)`. Unlike the real crate this copies the tail.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let tail = self.0.split_off(at);
        BytesMut(std::mem::replace(&mut self.0, tail))
    }

    /// Take the whole contents, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut(std::mem::take(&mut self.0))
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> BytesMut {
        BytesMut(s.to_vec())
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.0
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl<'a> Extend<&'a u8> for BytesMut {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_bytes(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_shares_instead_of_copying() {
        let v = vec![1u8, 2, 3, 4, 5];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        let c = b.clone();
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(c.slice(1..3).as_ptr(), ptr.wrapping_add(1));
        assert_eq!(c.slice(1..3), [2u8, 3]);
        drop(c);
        let back: Vec<u8> = b.into();
        assert_eq!(back.as_ptr(), ptr, "sole owner gets the vector back");
    }

    #[test]
    fn statics_and_splits() {
        let mut b = Bytes::from_static(b"hello world");
        assert_eq!(b, b"hello world");
        let head = b.split_to(5);
        assert_eq!((head.as_ref(), b.as_ref()), (&b"hello"[..], &b" world"[..]));
        let tail = b.split_off(1);
        assert_eq!((b.len(), tail), (1, Bytes::from("world")));
        b.clear();
        assert!(b.is_empty() && Bytes::new().is_empty());
        assert_eq!(
            format!("{:?}", Bytes::from_static(b"a\n\xff")),
            "b\"a\\n\\xff\""
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_bounds_panics() {
        let _ = Bytes::from(vec![0u8; 4]).slice(2..9);
    }

    #[test]
    fn bytes_mut_builds_and_freezes() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u32_le(0x0403_0201);
        m.extend_from_slice(b"xy");
        m[0] = 9;
        let head = m.split_to(1);
        assert_eq!(&head[..], [9]);
        assert_eq!(m.freeze(), [1u8, 2, 3, 4, b'x', b'y']);
    }
}
