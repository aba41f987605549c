//! [`FrozenIndex`]: the inverted value index in its *serving layout* —
//! an open-addressing hash table whose backing arrays are plain `u32`/`u64`/
//! byte arrays.
//!
//! The point of freezing is persistence: `gent-store` writes the arrays to
//! disk verbatim ([`FrozenIndex::encode`]) and a snapshot open does not
//! read them back at all — the arrays become [`WordView`]/[`ByteView`]s
//! into the shared, `Arc`-anchored snapshot buffer
//! ([`gent_table::view::LakeBuf`]), so reopening a lake allocates nothing
//! per entry and the resident cost of the index is the file bytes it
//! already occupies. Only the posting arena is materialized (the file
//! stores it struct-of-arrays, and lookups hand out `&[Posting]`). A frozen
//! index answers [`FrozenIndex::get`] exactly like the `FxHashMap` it was
//! built from, because keys are compared as *canonical value bytes*
//! ([`gent_table::binary::encode_value_canonical`]), under which byte
//! equality coincides with [`Value`] equality (including `3 == 3.0`,
//! NaN-collapsing, and `-0.0 == 0.0`).

use crate::lake::Posting;
use gent_table::binary::{decode_value, encode_value_canonical, fold64, BinReader, BinWriter};
use gent_table::view::{ByteView, WordView};
use gent_table::{FxHashMap, Value};

/// Bucket sentinel for "empty".
const EMPTY: u32 = u32::MAX;

/// Owned copies of the six frozen arrays, in [`FrozenIndex::from_raw_parts`]
/// order: buckets, hashes, value offsets, value blob, posting offsets, arena.
pub type RawParts = (Vec<u32>, Vec<u64>, Vec<u32>, Vec<u8>, Vec<u32>, Vec<Posting>);

/// An immutable, serialisable inverted index: canonical value bytes →
/// posting list, laid out as flat arrays. Each array is either owned (built
/// in memory by [`FrozenIndex::from_map`]) or a zero-copy view into an
/// opened snapshot ([`FrozenIndex::from_views`]); the two backings are
/// indistinguishable to lookups and compare equal element-wise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenIndex {
    /// Open-addressing table: entry id or [`EMPTY`]; length a power of two,
    /// load factor ≤ 0.5, linear probing.
    buckets: WordView<u32>,
    /// Per entry: `fold64` of its canonical key bytes (probe fast-reject).
    hashes: WordView<u64>,
    /// Per entry: start of its key in `blob`; `n + 1` offsets, monotone.
    value_offsets: WordView<u32>,
    /// Canonically encoded keys, concatenated in entry order.
    blob: ByteView,
    /// Per entry: start of its postings in `arena`; `n + 1` offsets.
    posting_offsets: WordView<u32>,
    /// All posting lists, concatenated in entry order. Always owned: the
    /// snapshot stores postings struct-of-arrays (`u32[]` tables ‖ `u16[]`
    /// columns), so a borrowed `&[Posting]` cannot exist over file bytes.
    arena: Vec<Posting>,
}

impl FrozenIndex {
    /// Freeze a mutable index. Entries are laid out in canonical-byte order,
    /// so equal maps freeze to identical structures (and identical
    /// snapshots) regardless of hash-map iteration order.
    pub fn from_map(map: &FxHashMap<Value, Vec<Posting>>) -> Self {
        let mut items: Vec<(Vec<u8>, &[Posting])> = map
            .iter()
            .map(|(v, p)| {
                let mut w = BinWriter::new();
                encode_value_canonical(v, &mut w);
                (w.into_bytes(), p.as_slice())
            })
            .collect();
        items.sort_by(|a, b| a.0.cmp(&b.0));

        let n = items.len();
        let mut hashes = Vec::with_capacity(n);
        let mut value_offsets = Vec::with_capacity(n + 1);
        let mut blob = Vec::new();
        let mut posting_offsets = Vec::with_capacity(n + 1);
        let mut arena = Vec::new();
        value_offsets.push(0);
        posting_offsets.push(0);
        for (bytes, postings) in &items {
            hashes.push(fold64(bytes));
            blob.extend_from_slice(bytes);
            arena.extend_from_slice(postings);
            // Offsets are u32 to keep snapshots compact; fail loudly rather
            // than wrap if a lake ever outgrows them (≥4 GiB of distinct
            // value bytes or ≥2³² postings).
            assert!(
                blob.len() <= u32::MAX as usize && arena.len() <= u32::MAX as usize,
                "lake too large to freeze: {} value bytes / {} postings exceed the u32 \
                 offset range of the snapshot format",
                blob.len(),
                arena.len()
            );
            value_offsets.push(blob.len() as u32);
            posting_offsets.push(arena.len() as u32);
        }

        let n_buckets = (n.max(8) * 2).next_power_of_two();
        let mut buckets = vec![EMPTY; n_buckets];
        let mask = n_buckets - 1;
        for (i, &h) in hashes.iter().enumerate() {
            let mut slot = h as usize & mask;
            while buckets[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            buckets[slot] = i as u32;
        }

        FrozenIndex {
            buckets: buckets.into(),
            hashes: hashes.into(),
            value_offsets: value_offsets.into(),
            blob: blob.into(),
            posting_offsets: posting_offsets.into(),
            arena,
        }
    }

    /// Reassemble from owned raw arrays (the store's thaw when a degraded
    /// open filtered quarantined postings, and tests). Validates like
    /// [`FrozenIndex::from_views`].
    pub fn from_raw_parts(
        buckets: Vec<u32>,
        hashes: Vec<u64>,
        value_offsets: Vec<u32>,
        blob: Vec<u8>,
        posting_offsets: Vec<u32>,
        arena: Vec<Posting>,
    ) -> Result<Self, String> {
        Self::from_views(
            buckets.into(),
            hashes.into(),
            value_offsets.into(),
            blob.into(),
            posting_offsets.into(),
            arena,
        )
    }

    /// Reassemble from array views — owned or anchored in a snapshot buffer
    /// (the zero-copy snapshot load path). Validates every structural invariant
    /// the probe loop relies on, so a corrupt file can produce an error but
    /// never an out-of-bounds access or infinite probe.
    pub fn from_views(
        buckets: WordView<u32>,
        hashes: WordView<u64>,
        value_offsets: WordView<u32>,
        blob: ByteView,
        posting_offsets: WordView<u32>,
        arena: Vec<Posting>,
    ) -> Result<Self, String> {
        let n = hashes.len();
        if value_offsets.len() != n + 1 || posting_offsets.len() != n + 1 {
            return Err(format!(
                "offset arrays have lengths {}/{}, expected {}",
                value_offsets.len(),
                posting_offsets.len(),
                n + 1
            ));
        }
        if !buckets.len().is_power_of_two() || buckets.len() < (n.max(8) * 2).next_power_of_two() {
            return Err(format!("bucket table size {} invalid for {n} entries", buckets.len()));
        }
        let mono = |offs: &WordView<u32>, end: usize, what: &str| -> Result<(), String> {
            if offs.get(0) != 0 || offs.get(n) as usize != end {
                return Err(format!("{what} offsets do not span the data"));
            }
            let mut prev = 0u32;
            for o in offs.iter() {
                if o < prev {
                    return Err(format!("{what} offsets not monotone"));
                }
                prev = o;
            }
            Ok(())
        };
        mono(&value_offsets, blob.len(), "value")?;
        mono(&posting_offsets, arena.len(), "posting")?;
        // Walk every key slice once (tags + lengths + UTF-8, no `Value`
        // built): blob slices outlive decode in the zero-copy open, so this
        // is the moment that guarantees `entries()`/`get` can never hit an
        // undecodable key later — corruption that beat the checksum still
        // becomes a structured error here.
        for i in 0..n {
            let key = &blob[value_offsets.get(i) as usize..value_offsets.get(i + 1) as usize];
            gent_table::binary::validate_encoded_value(key)
                .map_err(|e| format!("index entry {i}: {e}"))?;
        }
        let mut seen = vec![false; n];
        let mut occupied = 0usize;
        for b in buckets.iter() {
            if b == EMPTY {
                continue;
            }
            let i = b as usize;
            if i >= n || seen[i] {
                return Err(format!("bucket references entry {b} (n = {n}) twice or out of range"));
            }
            seen[i] = true;
            occupied += 1;
        }
        if occupied != n {
            return Err(format!("{occupied} bucket entries for {n} index entries"));
        }
        Ok(FrozenIndex { buckets, hashes, value_offsets, blob, posting_offsets, arena })
    }

    /// Owned copies of the raw arrays, in [`FrozenIndex::from_raw_parts`]
    /// order (test/diagnostic aid; persistence uses [`FrozenIndex::encode`]).
    pub fn to_raw_parts(&self) -> RawParts {
        (
            self.buckets.to_vec(),
            self.hashes.to_vec(),
            self.value_offsets.to_vec(),
            self.blob.to_vec(),
            self.posting_offsets.to_vec(),
            self.arena.clone(),
        )
    }

    /// Serialize the index section exactly as snapshots store it: the five
    /// length-prefixed word arrays (buckets, hashes, value offsets — then
    /// the blob with its `u64` length — posting offsets) followed by the
    /// posting arena struct-of-arrays. Buffer-backed arrays are written
    /// with one bulk copy (their view *is* the wire format), so resaving a
    /// snapshot-loaded lake re-encodes nothing; either backing produces
    /// byte-identical output.
    pub fn encode(&self, w: &mut BinWriter) {
        put_word_view(w, &self.buckets);
        put_word_view(w, &self.hashes);
        put_word_view(w, &self.value_offsets);
        w.put_u64(self.blob.len() as u64);
        w.put_raw(&self.blob);
        put_word_view(w, &self.posting_offsets);
        let arena_tables: Vec<u32> = self.arena.iter().map(|p| p.table).collect();
        let arena_cols: Vec<u16> = self.arena.iter().map(|p| p.column).collect();
        w.put_u32_array(&arena_tables);
        w.put_u16_array(&arena_cols);
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the index holds no values.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Posting list for `v` (empty when unseen) — the frozen counterpart of
    /// the map lookup.
    pub fn get(&self, v: &Value) -> &[Posting] {
        let mut w = BinWriter::new();
        encode_value_canonical(v, &mut w);
        let key = w.as_bytes();
        if self.hashes.is_empty() {
            return &[];
        }
        let h = fold64(key);
        let mask = self.buckets.len() - 1;
        let mut slot = h as usize & mask;
        loop {
            match self.buckets.get(slot) {
                EMPTY => return &[],
                e => {
                    let i = e as usize;
                    if self.hashes.get(i) == h && self.key_bytes(i) == key {
                        return self.postings_of(i);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn key_bytes(&self, i: usize) -> &[u8] {
        &self.blob[self.value_offsets.get(i) as usize..self.value_offsets.get(i + 1) as usize]
    }

    fn postings_of(&self, i: usize) -> &[Posting] {
        &self.arena[self.posting_offsets.get(i) as usize..self.posting_offsets.get(i + 1) as usize]
    }

    /// The posting arena, concatenated in entry order (bounds validation
    /// against a lake's table list happens at snapshot load).
    pub fn arena(&self) -> &[Posting] {
        &self.arena
    }

    /// Iterate `(value, postings)` in entry (canonical-byte) order, decoding
    /// each value from the blob.
    pub fn entries(&self) -> impl Iterator<Item = (Value, &[Posting])> + '_ {
        (0..self.len()).map(|i| {
            let mut r = BinReader::new(self.key_bytes(i));
            let v = decode_value(&mut r).expect("frozen blob holds valid canonical values");
            (v, self.postings_of(i))
        })
    }

    /// Thaw back into a mutable map (used when tables are pushed into a
    /// snapshot-loaded lake).
    pub fn to_map(&self) -> FxHashMap<Value, Vec<Posting>> {
        let mut map = FxHashMap::with_capacity_and_hasher(self.len(), Default::default());
        for (v, postings) in self.entries() {
            map.insert(v, postings.to_vec());
        }
        map
    }
}

/// Write a word-array view in `put_u32_array`/`put_u64_array` wire format
/// (`u64` count, then packed little-endian words): buffer-backed views
/// copy their bytes in one memcpy — their view *is* the wire format.
fn put_word_view<T: gent_table::view::LeWord>(w: &mut BinWriter, v: &WordView<T>) {
    w.put_u64(v.len() as u64);
    match v.raw_le_bytes() {
        Some(bytes) => w.put_raw(bytes),
        None => {
            let mut bytes = Vec::with_capacity(v.len() * T::BYTES);
            for word in v.iter() {
                word.write_le(&mut bytes);
            }
            w.put_raw(&bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::view::LakeBuf;

    fn map() -> FxHashMap<Value, Vec<Posting>> {
        let mut m: FxHashMap<Value, Vec<Posting>> = FxHashMap::default();
        let p = |t, c| Posting { table: t, column: c };
        m.insert(Value::Int(1), vec![p(0, 0), p(1, 0)]);
        m.insert(Value::str("hello"), vec![p(0, 1)]);
        m.insert(Value::Float(2.5), vec![p(2, 3)]);
        m.insert(Value::Bool(true), vec![p(1, 1)]);
        m.insert(Value::LabeledNull(9), vec![p(2, 0)]);
        for i in 10..200i64 {
            m.insert(Value::Int(i), vec![p((i % 5) as u32, (i % 3) as u16)]);
        }
        m
    }

    /// Decode an [`FrozenIndex::encode`] section back into view-backed
    /// arrays over `buf` — the test-local mirror of the store's index thaw.
    fn decode_views(buf: &LakeBuf) -> FrozenIndex {
        let mut r = BinReader::new(buf.as_slice());
        let word_view_u32 = |r: &mut BinReader| {
            let n = r.get_u64().unwrap() as usize;
            let start = r.position();
            r.take(n * 4).unwrap();
            WordView::<u32>::view(buf.clone(), start, n).unwrap()
        };
        let buckets = word_view_u32(&mut r);
        let n_h = r.get_u64().unwrap() as usize;
        let h_start = r.position();
        r.take(n_h * 8).unwrap();
        let hashes = WordView::<u64>::view(buf.clone(), h_start, n_h).unwrap();
        let value_offsets = word_view_u32(&mut r);
        let blob_len = r.get_u64().unwrap() as usize;
        let blob_start = r.position();
        r.take(blob_len).unwrap();
        let blob = ByteView::view(buf.clone(), blob_start..blob_start + blob_len).unwrap();
        let posting_offsets = word_view_u32(&mut r);
        let tables = r.get_u32_array().unwrap();
        let cols = r.get_u16_array().unwrap();
        assert_eq!(r.remaining(), 0, "section fully consumed");
        let arena =
            tables.iter().zip(&cols).map(|(&t, &c)| Posting { table: t, column: c }).collect();
        FrozenIndex::from_views(buckets, hashes, value_offsets, blob, posting_offsets, arena)
            .unwrap()
    }

    #[test]
    fn frozen_answers_like_the_map() {
        let m = map();
        let f = FrozenIndex::from_map(&m);
        assert_eq!(f.len(), m.len());
        for (v, postings) in &m {
            assert_eq!(f.get(v), postings.as_slice(), "lookup({v:?})");
        }
        assert!(f.get(&Value::Int(-777)).is_empty());
        assert!(f.get(&Value::str("absent")).is_empty());
    }

    #[test]
    fn cross_type_equality_is_preserved() {
        let mut m: FxHashMap<Value, Vec<Posting>> = FxHashMap::default();
        m.insert(Value::Int(3), vec![Posting { table: 4, column: 2 }]);
        m.insert(Value::Float(0.5), vec![Posting { table: 1, column: 1 }]);
        let f = FrozenIndex::from_map(&m);
        // The map itself would answer these (Value::Eq is cross-type):
        assert_eq!(f.get(&Value::Float(3.0)), m[&Value::Int(3)].as_slice());
        assert_eq!(f.get(&Value::Float(0.5)), m[&Value::Float(0.5)].as_slice());
        assert!(f.get(&Value::Float(3.5)).is_empty());
    }

    #[test]
    fn freezing_is_deterministic() {
        // Two maps with identical content but different insertion order.
        let a = FrozenIndex::from_map(&map());
        let mut m2 = FxHashMap::default();
        let mut entries: Vec<_> = map().into_iter().collect();
        entries.reverse();
        for (k, v) in entries {
            m2.insert(k, v);
        }
        let b = FrozenIndex::from_map(&m2);
        assert_eq!(a, b);
    }

    #[test]
    fn raw_parts_round_trip() {
        let f = FrozenIndex::from_map(&map());
        let (b, h, vo, bl, po, ar) = f.to_raw_parts();
        let back = FrozenIndex::from_raw_parts(b, h, vo, bl, po, ar).unwrap();
        assert_eq!(back, f);
    }

    /// A view-backed index over an encoded section answers identically to
    /// the owned index it was encoded from, re-encodes byte-identically
    /// (bulk copy path), and compares equal across backings.
    #[test]
    fn view_backed_index_round_trips_and_serves() {
        let m = map();
        let owned = FrozenIndex::from_map(&m);
        let mut w = BinWriter::new();
        owned.encode(&mut w);
        let buf = LakeBuf::new(w.into_bytes());
        let viewed = decode_views(&buf);
        assert_eq!(viewed, owned, "backings compare equal element-wise");
        for (v, postings) in &m {
            assert_eq!(viewed.get(v), postings.as_slice(), "view lookup({v:?})");
        }
        assert!(viewed.get(&Value::str("absent")).is_empty());
        // Re-encoding the viewed index takes the bulk-copy path and must
        // reproduce the bytes exactly.
        let mut w2 = BinWriter::new();
        viewed.encode(&mut w2);
        assert_eq!(w2.as_bytes(), buf.as_slice());
    }

    #[test]
    fn from_raw_parts_rejects_corruption() {
        let f = FrozenIndex::from_map(&map());
        let (b, h, vo, bl, po, ar) = f.to_raw_parts();
        // Truncated offsets.
        assert!(FrozenIndex::from_raw_parts(
            b.clone(),
            h.clone(),
            vo[..vo.len() - 1].to_vec(),
            bl.clone(),
            po.clone(),
            ar.clone()
        )
        .is_err());
        // Non-power-of-two bucket table.
        assert!(FrozenIndex::from_raw_parts(
            b[..b.len() - 1].to_vec(),
            h.clone(),
            vo.clone(),
            bl.clone(),
            po.clone(),
            ar.clone()
        )
        .is_err());
        // Dangling bucket reference.
        let mut bad = b.clone();
        let slot = bad.iter().position(|&x| x != super::EMPTY).unwrap();
        bad[slot] = 10_000;
        assert!(FrozenIndex::from_raw_parts(bad, h, vo, bl, po, ar).is_err());
    }

    #[test]
    fn entries_and_thaw_reconstruct_the_map() {
        let m = map();
        let f = FrozenIndex::from_map(&m);
        let thawed = f.to_map();
        assert_eq!(thawed.len(), m.len());
        for (v, postings) in &m {
            assert_eq!(thawed.get(v), Some(postings), "thawed({v:?})");
        }
        // entries() are sorted by canonical bytes — stable across runs.
        let keys: Vec<Vec<u8>> = f
            .entries()
            .map(|(v, _)| {
                let mut w = BinWriter::new();
                encode_value_canonical(&v, &mut w);
                w.into_bytes()
            })
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_index_works() {
        let f = FrozenIndex::from_map(&FxHashMap::default());
        assert!(f.is_empty());
        assert!(f.get(&Value::Int(1)).is_empty());
        assert_eq!(f.entries().count(), 0);
    }
}
