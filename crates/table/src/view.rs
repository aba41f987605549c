//! Zero-copy backing for snapshot-loaded structures: [`LakeBuf`] and the
//! view types that borrow from it.
//!
//! A `*.gentlake` snapshot is opened by reading the whole file **once**
//! into a single reference-counted buffer. Every structure decoded from it
//! — the frozen inverted index's open-addressing arrays, the canonical
//! value blob, lazily-decoded table payloads — then *views* ranges of that
//! buffer instead of copying them into owned memory. The views are
//! `Arc`-anchored rather than lifetime-borrowed so they stay `'static`
//! (the serve daemon moves them across threads and keeps them alive for
//! its whole life).
//!
//! Two access disciplines coexist behind one type each:
//!
//! * [`ByteView`] — raw bytes. A view *is* the on-disk bytes, so `Deref`
//!   to `&[u8]` is free.
//! * [`WordView<T>`] — a packed little-endian `u16`/`u32`/`u64` array.
//!   The file stores words unaligned, so element access decodes with
//!   `from_le_bytes` (a single unaligned load on every target we build
//!   for); no upfront allocation or byte-swap pass happens at open time.
//!
//! Both carry an `Owned` backing too, so structures built in memory (a
//! freshly frozen index) and structures viewed from a snapshot share one
//! type — and compare equal element-wise regardless of backing.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A whole snapshot file, read once and shared by every structure decoded
/// from it. Cloning is a refcount bump.
///
/// Internally `Arc<Vec<u8>>`, not `Arc<[u8]>`: converting a freshly read
/// `Vec` into `Arc<[u8]>` re-copies the whole file (the slice must live
/// inline with the refcount), which on a multi-gigabyte snapshot is the
/// single largest open cost. The extra pointer hop is irrelevant next to
/// that.
#[derive(Clone)]
pub struct LakeBuf(Arc<Vec<u8>>);

impl LakeBuf {
    /// Wrap freshly read file bytes (no copy).
    pub fn new(bytes: Vec<u8>) -> Self {
        LakeBuf(Arc::new(bytes))
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The whole buffer.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// A sub-slice; panics when out of range (callers validate ranges at
    /// open time, before any view is constructed).
    pub fn slice(&self, range: Range<usize>) -> &[u8] {
        &self.0[range]
    }
}

impl From<Vec<u8>> for LakeBuf {
    fn from(bytes: Vec<u8>) -> Self {
        LakeBuf::new(bytes)
    }
}

impl fmt::Debug for LakeBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LakeBuf({} bytes)", self.0.len())
    }
}

/// Raw bytes: either owned, or a range of a shared [`LakeBuf`].
#[derive(Clone)]
pub enum ByteView {
    /// Heap-owned bytes (structures built in memory).
    Owned(Vec<u8>),
    /// A range of a shared snapshot buffer (zero-copy open).
    Buf {
        /// The snapshot the bytes live in.
        buf: LakeBuf,
        /// Byte range within `buf`.
        range: Range<usize>,
    },
}

impl ByteView {
    /// View `range` of `buf`; fails when the range is out of bounds or
    /// inverted, so a corrupt offset can never build a panicking view.
    pub fn view(buf: LakeBuf, range: Range<usize>) -> Result<Self, String> {
        if range.start > range.end || range.end > buf.len() {
            return Err(format!(
                "byte view {}..{} out of range for a {}-byte buffer",
                range.start,
                range.end,
                buf.len()
            ));
        }
        Ok(ByteView::Buf { buf, range })
    }
}

impl Deref for ByteView {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            ByteView::Owned(v) => v,
            ByteView::Buf { buf, range } => buf.slice(range.clone()),
        }
    }
}

impl From<Vec<u8>> for ByteView {
    fn from(v: Vec<u8>) -> Self {
        ByteView::Owned(v)
    }
}

impl PartialEq for ByteView {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for ByteView {}

impl fmt::Debug for ByteView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ByteView({} bytes, {})",
            self.len(),
            backing_name(matches!(self, Self::Owned(_)))
        )
    }
}

fn backing_name(owned: bool) -> &'static str {
    if owned {
        "owned"
    } else {
        "buf"
    }
}

/// A word type a [`WordView`] can decode: fixed width, little-endian.
pub trait LeWord: Copy + PartialEq + fmt::Debug {
    /// Encoded width in bytes.
    const BYTES: usize;
    /// Decode one word from exactly `Self::BYTES` bytes.
    fn read_le(bytes: &[u8]) -> Self;
    /// Append this word's little-endian bytes to `out` (the encode dual of
    /// [`LeWord::read_le`], so codecs can stay generic over word width).
    fn write_le(self, out: &mut Vec<u8>);
}

macro_rules! le_word {
    ($t:ty, $n:expr) => {
        impl LeWord for $t {
            const BYTES: usize = $n;
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("word width"))
            }
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    };
}
le_word!(u16, 2);
le_word!(u32, 4);
le_word!(u64, 8);

/// A packed little-endian word array: either owned, or decoded on access
/// from a range of a shared [`LakeBuf`].
#[derive(Clone)]
pub enum WordView<T: LeWord> {
    /// Heap-owned words (structures built in memory).
    Owned(Vec<T>),
    /// A packed range of a shared snapshot buffer; words decode on access.
    Buf {
        /// The snapshot the words live in.
        buf: LakeBuf,
        /// Byte offset of the first word within `buf`.
        start: usize,
        /// Element count.
        len: usize,
    },
}

impl<T: LeWord> WordView<T> {
    /// View `len` packed words at byte offset `start` of `buf`; fails when
    /// the range overflows or falls outside the buffer.
    pub fn view(buf: LakeBuf, start: usize, len: usize) -> Result<Self, String> {
        let bytes = len
            .checked_mul(T::BYTES)
            .and_then(|b| b.checked_add(start))
            .ok_or_else(|| format!("word view of {len} elements at {start} overflows"))?;
        if bytes > buf.len() {
            return Err(format!(
                "word view {start}+{len}×{} exceeds the {}-byte buffer",
                T::BYTES,
                buf.len()
            ));
        }
        Ok(WordView::Buf { buf, start, len })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            WordView::Owned(v) => v.len(),
            WordView::Buf { len, .. } => *len,
        }
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`; panics when out of bounds (like slice indexing).
    pub fn get(&self, i: usize) -> T {
        match self {
            WordView::Owned(v) => v[i],
            WordView::Buf { buf, start, len } => {
                assert!(i < *len, "word view index {i} out of bounds (len {len})");
                let at = start + i * T::BYTES;
                T::read_le(buf.slice(at..at + T::BYTES))
            }
        }
    }

    /// Iterate all elements in order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Copy out into an owned vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// The packed little-endian wire bytes of a buffer-backed view (`None`
    /// when owned — in-memory words carry no endianness guarantee). Lets
    /// encoders re-emit a view with one bulk copy.
    pub fn raw_le_bytes(&self) -> Option<&[u8]> {
        match self {
            WordView::Owned(_) => None,
            WordView::Buf { buf, start, len } => Some(buf.slice(*start..*start + *len * T::BYTES)),
        }
    }
}

impl<T: LeWord> From<Vec<T>> for WordView<T> {
    fn from(v: Vec<T>) -> Self {
        WordView::Owned(v)
    }
}

impl<T: LeWord> PartialEq for WordView<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}
impl<T: LeWord + Eq> Eq for WordView<T> {}

impl<T: LeWord> fmt::Debug for WordView<T> {
    // Deliberately summary-only: a view can span millions of elements.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WordView({} × {}B, {})",
            self.len(),
            T::BYTES,
            backing_name(matches!(self, Self::Owned(_)))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_view_decodes_le() {
        let mut bytes = vec![0xFFu8]; // misalign on purpose
        for v in [1u32, 2, 0xDEAD_BEEF] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let buf = LakeBuf::new(bytes);
        let view = WordView::<u32>::view(buf, 1, 3).unwrap();
        assert_eq!(view.to_vec(), vec![1, 2, 0xDEAD_BEEF]);
        assert_eq!(view.get(2), 0xDEAD_BEEF);
        assert_eq!(view, WordView::Owned(vec![1, 2, 0xDEAD_BEEF]));
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // inverted ranges are the input under test
    fn out_of_range_views_are_rejected() {
        let buf = LakeBuf::new(vec![0u8; 10]);
        assert!(WordView::<u64>::view(buf.clone(), 4, 1).is_err());
        assert!(WordView::<u32>::view(buf.clone(), usize::MAX, 2).is_err());
        assert!(ByteView::view(buf.clone(), 5..20).is_err());
        assert!(ByteView::view(buf.clone(), 8..4).is_err());
        assert!(WordView::<u16>::view(buf, 0, 5).is_ok());
    }

    #[test]
    fn byte_view_derefs_and_compares_across_backings() {
        let buf = LakeBuf::new(vec![1, 2, 3, 4, 5]);
        let v = ByteView::view(buf, 1..4).unwrap();
        assert_eq!(&*v, &[2, 3, 4]);
        assert_eq!(v, ByteView::Owned(vec![2, 3, 4]));
        assert_ne!(v, ByteView::Owned(vec![2, 3]));
    }
}
