//! Stable binary encoding for [`Value`], [`Schema`] and [`Table`].
//!
//! `gent-store` persists whole data lakes; this module is the codec layer it
//! builds on. The format is little-endian; the snapshot container that
//! holds these frames versions and checksums them ([`fold64`]):
//!
//! ```text
//! table  := name | schema | n_rows u64 | columns (see `encode_table_columnar`)
//! schema := n_cols u16 | column names | n_key u16 | key indices u16*
//! value  := tag u8 | tag-specific bytes (see `TAG_*`)
//! ```
//!
//! Strings are length-prefixed UTF-8. Floats are stored by raw bits, so a
//! round-trip is bit-exact (NaN payloads included); equality semantics are
//! untouched because [`Value`]'s `Eq`/`Hash` already normalise floats.
//! Decoding never trusts the input: truncated buffers and unknown tags
//! return [`TableError::Binary`] instead of panicking.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::error::TableError;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::view::LakeBuf;

const TAG_NULL: u8 = 0;
const TAG_LABELED_NULL: u8 = 1;
const TAG_BOOL_FALSE: u8 = 2;
const TAG_BOOL_TRUE: u8 = 3;
const TAG_INT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;

/// Word-folding 64-bit checksum (FxHash-style): processes 8 bytes per step,
/// an order of magnitude faster than byte-at-a-time FNV on multi-megabyte
/// snapshot bodies, with comparable corruption detection for this purpose
/// (any flipped bit perturbs every subsequent multiply).
pub fn fold64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).rotate_left(5).wrapping_mul(K);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    (h ^ tail).rotate_left(5).wrapping_mul(K)
}

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a `u16` array (length-prefixed with a `u64`).
    pub fn put_u16_array(&mut self, vals: &[u16]) {
        self.put_u64(vals.len() as u64);
        self.buf.reserve(vals.len() * 2);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a `u32` array (length-prefixed with a `u64`).
    pub fn put_u32_array(&mut self, vals: &[u32]) {
        self.put_u64(vals.len() as u64);
        self.buf.reserve(vals.len() * 4);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a `u64` array (length-prefixed with a `u64`).
    pub fn put_u64_array(&mut self, vals: &[u64]) {
        self.put_u64(vals.len() as u64);
        self.buf.reserve(vals.len() * 8);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// A bounds-checked little-endian byte cursor.
#[derive(Debug, Clone, Copy)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Read from `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn corrupt(&self, what: &str) -> TableError {
        TableError::Binary(format!("truncated input reading {what} at offset {}", self.pos))
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TableError> {
        if self.remaining() < n {
            return Err(self.corrupt("bytes"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, TableError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, TableError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, TableError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, TableError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, TableError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, TableError> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map_err(|e| TableError::Binary(format!("invalid utf-8 in string: {e}")))
    }

    /// Read `n` consecutive `u16`s.
    pub fn get_u16s(&mut self, n: usize) -> Result<Vec<u16>, TableError> {
        let bytes = self.take(n.checked_mul(2).ok_or_else(|| self.corrupt("array length"))?)?;
        Ok(bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
            .collect())
    }

    /// Read a `u16` array written by [`BinWriter::put_u16_array`].
    pub fn get_u16_array(&mut self) -> Result<Vec<u16>, TableError> {
        let n = self.get_u64()? as usize;
        self.get_u16s(n)
    }

    /// Read `n` consecutive `u32`s.
    pub fn get_u32s(&mut self, n: usize) -> Result<Vec<u32>, TableError> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| self.corrupt("array length"))?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Read `n` consecutive `u64`s.
    pub fn get_u64s(&mut self, n: usize) -> Result<Vec<u64>, TableError> {
        let bytes = self.take(n.checked_mul(8).ok_or_else(|| self.corrupt("array length"))?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Read a `u32` array written by [`BinWriter::put_u32_array`].
    pub fn get_u32_array(&mut self) -> Result<Vec<u32>, TableError> {
        let n = self.get_u64()? as usize;
        self.get_u32s(n)
    }

    /// Read a `u64` array written by [`BinWriter::put_u64_array`].
    pub fn get_u64_array(&mut self) -> Result<Vec<u64>, TableError> {
        let n = self.get_u64()? as usize;
        self.get_u64s(n)
    }
}

/// Encode one cell value.
pub fn encode_value(v: &Value, w: &mut BinWriter) {
    match v {
        Value::Null => w.put_u8(TAG_NULL),
        Value::LabeledNull(id) => {
            w.put_u8(TAG_LABELED_NULL);
            w.put_u64(*id);
        }
        Value::Bool(false) => w.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => w.put_u8(TAG_BOOL_TRUE),
        Value::Int(i) => {
            w.put_u8(TAG_INT);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(TAG_FLOAT);
            w.put_u64(f.to_bits());
        }
        Value::Str(s) => {
            w.put_u8(TAG_STR);
            w.put_str(s);
        }
    }
}

/// Decode one cell value.
pub fn decode_value(r: &mut BinReader<'_>) -> Result<Value, TableError> {
    Ok(match r.get_u8()? {
        TAG_NULL => Value::Null,
        TAG_LABELED_NULL => Value::LabeledNull(r.get_u64()?),
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(r.get_i64()?),
        TAG_FLOAT => Value::Float(f64::from_bits(r.get_u64()?)),
        TAG_STR => Value::str(r.get_str()?),
        tag => return Err(TableError::Binary(format!("unknown value tag {tag}"))),
    })
}

/// Structurally validate that `bytes` hold exactly one encoded value —
/// a tag walk plus a UTF-8 check, no `Value` materialization. This is what
/// lets zero-copy consumers (the frozen index's canonical-key blob, whose
/// slices outlive decode) promise that later `decode_value` calls cannot
/// fail: every key slice is walked once at open time, so corruption that
/// defeats the checksum still surfaces as a structured error instead of a
/// mid-serve panic.
pub fn validate_encoded_value(bytes: &[u8]) -> Result<(), TableError> {
    let mut r = BinReader::new(bytes);
    match r.get_u8()? {
        TAG_NULL | TAG_BOOL_FALSE | TAG_BOOL_TRUE => {}
        TAG_LABELED_NULL => {
            r.get_u64()?;
        }
        TAG_INT => {
            r.get_i64()?;
        }
        TAG_FLOAT => {
            r.get_u64()?;
        }
        TAG_STR => {
            r.get_str()?;
        }
        tag => return Err(TableError::Binary(format!("unknown value tag {tag}"))),
    }
    if r.remaining() != 0 {
        return Err(TableError::Binary(format!(
            "{} trailing bytes after encoded value",
            r.remaining()
        )));
    }
    Ok(())
}

/// Encode a value in *canonical* form: two values that compare equal under
/// [`Value`]'s (cross-type, NaN-collapsing, `-0.0 == 0.0`) equality produce
/// identical bytes, and non-equal values produce distinct bytes. Integral
/// floats encode as ints (mirroring `Value::hash`), NaNs collapse to one bit
/// pattern. This is the key encoding of the frozen inverted index: equality
/// of values reduces to equality of byte strings.
pub fn encode_value_canonical(v: &Value, w: &mut BinWriter) {
    match v {
        // The int/float split is `Value`'s own, shared with `==` and `Hash`.
        Value::Float(f) => match Value::float_as_int(*f) {
            Some(i) => {
                w.put_u8(TAG_INT);
                w.put_i64(i);
            }
            None => {
                w.put_u8(TAG_FLOAT);
                let bits = if f.is_nan() { f64::NAN.to_bits() } else { f.to_bits() };
                w.put_u64(bits);
            }
        },
        other => encode_value(other, w),
    }
}

/// Encode a schema (column names + key designation).
pub fn encode_schema(s: &Schema, w: &mut BinWriter) {
    w.put_u16(s.len() as u16);
    for c in s.columns() {
        w.put_str(c);
    }
    w.put_u16(s.key().len() as u16);
    for &k in s.key() {
        w.put_u16(k as u16);
    }
}

/// Decode a schema.
pub fn decode_schema(r: &mut BinReader<'_>) -> Result<Schema, TableError> {
    let n_cols = r.get_u16()? as usize;
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        columns.push(r.get_str()?.to_string());
    }
    let mut schema = Schema::new(columns.iter())?;
    let n_key = r.get_u16()? as usize;
    let mut key_names = Vec::with_capacity(n_key);
    for _ in 0..n_key {
        let idx = r.get_u16()? as usize;
        let name = columns
            .get(idx)
            .ok_or_else(|| TableError::Binary(format!("key index {idx} out of range")))?;
        key_names.push(name.as_str());
    }
    schema.set_key(key_names)?;
    Ok(schema)
}

const COL_GENERIC: u8 = 0;
const COL_INT: u8 = 1;
const COL_FLOAT: u8 = 2;
const COL_STR: u8 = 3;

/// Sentinel string id for a null cell in a [`COL_STR`] column.
const STR_NULL: u32 = u32::MAX;

/// Deduplicated string storage shared by every table of a snapshot.
///
/// Data lakes repeat strings massively — the TP-TR benchmarks put four
/// variants of every base table in the lake, so each string value occurs at
/// least four times. The builder interns strings at encode time; columns
/// store `u32` ids. At decode time each distinct string is allocated once
/// and cells clone the shared `Arc`, which is the difference between an
/// allocation per string cell and a refcount bump per string cell.
#[derive(Debug, Default)]
pub struct StringTableBuilder {
    ids: crate::fxhash::FxHashMap<std::sync::Arc<str>, u32>,
    list: Vec<std::sync::Arc<str>>,
}

impl StringTableBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its id (first-encounter order, deterministic).
    pub fn intern(&mut self, s: &std::sync::Arc<str>) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.list.len() as u32;
        self.ids.insert(s.clone(), id);
        self.list.push(s.clone());
        id
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Serialise the table: count, then length-prefixed strings in id order.
    pub fn encode(&self, w: &mut BinWriter) {
        w.put_u32(self.list.len() as u32);
        for s in &self.list {
            w.put_str(s);
        }
    }
}

/// Decode a string table written by [`StringTableBuilder::encode`].
pub fn decode_string_table(r: &mut BinReader<'_>) -> Result<Vec<std::sync::Arc<str>>, TableError> {
    let n = r.get_u32()? as usize;
    if n > r.remaining() {
        return Err(TableError::Binary(format!(
            "string table claims {n} entries with {} bytes left",
            r.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(std::sync::Arc::from(r.get_str()?));
    }
    Ok(out)
}

/// Encode a table column-major with per-column type specialisation — the
/// layout snapshots use. Homogeneous columns (the common case in data
/// lakes, nulls included) pack their payloads with no per-cell tag: ints
/// and floats behind a presence bitmap, strings as `u32` ids into the
/// shared string table. Mixed columns fall back to tagged cells. Decoding a
/// packed column is a tight loop instead of a per-cell dispatch, which is
/// what makes reopening a snapshot cheap.
pub fn encode_table_columnar(t: &Table, w: &mut BinWriter, strings: &mut StringTableBuilder) {
    w.put_str(t.name());
    encode_schema(t.schema(), w);
    let n_rows = t.n_rows();
    w.put_u64(n_rows as u64);
    for ci in 0..t.n_cols() {
        // Classify: does every non-null cell share one payload type?
        let mut tag = None;
        for v in t.column(ci) {
            let cell_tag = match v {
                Value::Null => continue,
                Value::Int(_) => COL_INT,
                Value::Float(_) => COL_FLOAT,
                Value::Str(_) => COL_STR,
                Value::Bool(_) | Value::LabeledNull(_) => COL_GENERIC,
            };
            match tag {
                None => tag = Some(cell_tag),
                Some(t0) if t0 == cell_tag => {}
                Some(_) => {
                    tag = Some(COL_GENERIC);
                    break;
                }
            }
        }
        let tag = tag.unwrap_or(COL_INT); // all-null column: bitmap of zeros
        w.put_u8(tag);
        match tag {
            COL_GENERIC => {
                for v in t.column(ci) {
                    encode_value(v, w);
                }
            }
            COL_STR => {
                // One id per row; nulls are the sentinel — no bitmap needed.
                for v in t.column(ci) {
                    match v {
                        Value::Null => w.put_u32(STR_NULL),
                        Value::Str(s) => w.put_u32(strings.intern(s)),
                        _ => unreachable!("classified as string column"),
                    }
                }
            }
            _ => {
                // Presence bitmap (bit i ⇔ row i non-null), packed payloads.
                let mut bitmap = vec![0u8; n_rows.div_ceil(8)];
                for (i, v) in t.column(ci).enumerate() {
                    if !v.is_null() {
                        bitmap[i / 8] |= 1 << (i % 8);
                    }
                }
                w.put_raw(&bitmap);
                for v in t.column(ci) {
                    match v {
                        Value::Null => {}
                        Value::Int(i) => w.put_i64(*i),
                        Value::Float(f) => w.put_u64(f.to_bits()),
                        _ => unreachable!("classified as packed numeric"),
                    }
                }
            }
        }
    }
}

/// The cheap head of a columnar table frame: everything *except* the cell
/// payloads. Decoding a preamble costs a handful of string reads, so the
/// zero-copy open path decodes one per table at open time (names and
/// schemas must be addressable without touching a cell) and defers the cell
/// payload to [`decode_table_cells`] on first access.
#[derive(Debug, Clone)]
pub struct TablePreamble {
    /// Table name as written.
    pub name: String,
    /// Column names + key designation.
    pub schema: Schema,
    /// Row count of the deferred cell payload.
    pub n_rows: usize,
}

/// Decode the preamble (name, schema, row count) of a columnar table frame,
/// leaving the reader positioned at the first column payload.
pub fn decode_table_preamble(r: &mut BinReader<'_>) -> Result<TablePreamble, TableError> {
    let name = r.get_str()?.to_string();
    let schema = decode_schema(r)?;
    let n_rows = r.get_u64()? as usize;
    // Each row of a packed column costs at least a bitmap bit or an id.
    // Reject absurd counts before allocating.
    if n_rows > r.remaining().saturating_mul(8) {
        return Err(TableError::Binary(format!(
            "row count {n_rows} exceeds remaining {} bytes",
            r.remaining()
        )));
    }
    Ok(TablePreamble { name, schema, n_rows })
}

/// Decode a table written by [`encode_table_columnar`], resolving string
/// ids against the snapshot's decoded string table.
pub fn decode_table_columnar(
    r: &mut BinReader<'_>,
    strings: &[std::sync::Arc<str>],
) -> Result<Table, TableError> {
    let p = decode_table_preamble(r)?;
    let rows = decode_table_cells(r, &p.schema, p.n_rows, strings)?;
    Table::from_rows(p.name, p.schema, rows)
}

/// Decode the column payloads of a table frame whose preamble was already
/// read by [`decode_table_preamble`].
pub fn decode_table_cells(
    r: &mut BinReader<'_>,
    schema: &Schema,
    n_rows: usize,
    strings: &[std::sync::Arc<str>],
) -> Result<Vec<Vec<Value>>, TableError> {
    let n_cols = schema.len();
    // NB: not `vec![Vec::with_capacity(..); n]` — cloning an empty Vec drops
    // its capacity, which would re-allocate every row mid-fill.
    let mut rows: Vec<Vec<Value>> = (0..n_rows).map(|_| Vec::with_capacity(n_cols)).collect();
    for _ in 0..n_cols {
        match r.get_u8()? {
            COL_GENERIC => {
                for row in rows.iter_mut() {
                    row.push(decode_value(r)?);
                }
            }
            COL_STR => {
                let ids = r.get_u32s(n_rows)?;
                for (row, &id) in rows.iter_mut().zip(&ids) {
                    if id == STR_NULL {
                        row.push(Value::Null);
                    } else {
                        let s = strings.get(id as usize).ok_or_else(|| {
                            TableError::Binary(format!(
                                "string id {id} out of range ({} interned)",
                                strings.len()
                            ))
                        })?;
                        row.push(Value::Str(s.clone()));
                    }
                }
            }
            tag @ (COL_INT | COL_FLOAT) => {
                // `take` hands back a slice borrowing the underlying buffer
                // (not the reader), so the reader stays usable.
                let bitmap = r.take(n_rows.div_ceil(8))?;
                for (i, row) in rows.iter_mut().enumerate() {
                    if bitmap[i / 8] & (1 << (i % 8)) == 0 {
                        row.push(Value::Null);
                    } else if tag == COL_INT {
                        row.push(Value::Int(r.get_i64()?));
                    } else {
                        row.push(Value::Float(f64::from_bits(r.get_u64()?)));
                    }
                }
            }
            tag => return Err(TableError::Binary(format!("unknown column tag {tag}"))),
        }
    }
    Ok(rows)
}

/// One table of a snapshot-backed lake: name, schema and row count are
/// always available (decoded from the [`TablePreamble`] at open time, or
/// copied from an in-memory table), while the cell payload of a lazy slot
/// is decoded **once, on first access**, memoized behind a [`OnceLock`].
///
/// This is the ownership pivot of the zero-copy open path: a
/// `DataLake` loaded from a snapshot holds `TableSlot`s viewing the
/// shared [`LakeBuf`], so opening a TB-scale lake decodes *no* cells, a
/// reclaim touching three tables decodes three, and an explicit
/// `decode_all` restores the old eager behavior.
///
/// Renames (`set_name`) apply to the slot's authoritative name; a lazy
/// decode builds its table under the *current* name, and renaming an
/// already-decoded slot renames the inner table too — so the two can never
/// disagree.
#[derive(Debug, Clone)]
pub struct TableSlot {
    name: String,
    schema: Schema,
    n_rows: usize,
    lazy: Option<LazyCells>,
    cell: OnceLock<Result<Table, TableError>>,
}

/// The deferred cell payload of a lazy [`TableSlot`].
#[derive(Debug, Clone)]
struct LazyCells {
    buf: LakeBuf,
    /// Byte range of the column payloads (preamble already consumed).
    cells: Range<usize>,
    /// The snapshot-wide interned string table, shared by every slot.
    strings: Arc<[Arc<str>]>,
    /// Per-section integrity: the full section range (preamble + cells)
    /// and its expected [`fold64`], verified once before the first cell
    /// decode. `None` for slots whose bytes were verified before the slot
    /// was built (delta-frame tables, a degraded open's survivors).
    check: Option<(Range<usize>, u64)>,
}

impl TableSlot {
    /// Wrap an already-materialized table (in-memory lakes, quarantine
    /// placeholders).
    pub fn eager(table: Table) -> Self {
        let slot = TableSlot {
            name: table.name().to_string(),
            schema: table.schema().clone(),
            n_rows: table.n_rows(),
            lazy: None,
            cell: OnceLock::new(),
        };
        let _ = slot.cell.set(Ok(table));
        slot
    }

    /// Build a lazy slot over `range` of `buf` (one table's columnar frame,
    /// as delimited by the snapshot's section-offset table). The preamble is
    /// decoded now — names, schemas and row counts must never force a cell
    /// decode — and the rest of the range becomes the deferred payload.
    pub fn lazy(
        buf: LakeBuf,
        range: Range<usize>,
        strings: Arc<[Arc<str>]>,
    ) -> Result<Self, TableError> {
        if range.start > range.end || range.end > buf.len() {
            return Err(TableError::Binary(format!(
                "table frame {}..{} out of range for a {}-byte snapshot",
                range.start,
                range.end,
                buf.len()
            )));
        }
        let mut r = BinReader::new(buf.slice(range.clone()));
        let p = decode_table_preamble(&mut r)?;
        let cells = range.start + r.position()..range.end;
        Ok(TableSlot {
            name: p.name,
            schema: p.schema,
            n_rows: p.n_rows,
            lazy: Some(LazyCells { buf, cells, strings, check: None }),
            cell: OnceLock::new(),
        })
    }

    /// [`TableSlot::lazy`] plus a deferred integrity check: `checksum` is
    /// the expected [`fold64`] of the *whole* `range` (preamble + cells),
    /// verified once before the first cell decode. A corrupted section
    /// surfaces as a structured decode error at first touch, so an open
    /// needs no O(file) checksum pass.
    /// (The preamble is decoded here, before verification: its decoder is
    /// total, and the cross-checks at open plus the checksum at first
    /// force bound what unverified preamble bytes can do.)
    pub fn lazy_checked(
        buf: LakeBuf,
        range: Range<usize>,
        strings: Arc<[Arc<str>]>,
        checksum: u64,
    ) -> Result<Self, TableError> {
        let mut slot = Self::lazy(buf, range.clone(), strings)?;
        if let Some(lazy) = slot.lazy.as_mut() {
            lazy.check = Some((range, checksum));
        }
        Ok(slot)
    }

    /// Current table name (no decode).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the slot; an already-decoded table is renamed in place.
    pub fn set_name(&mut self, name: impl AsRef<str>) {
        self.name = name.as_ref().to_string();
        if let Some(Ok(t)) = self.cell.get_mut() {
            t.set_name(&self.name);
        }
    }

    /// Column names + key (no decode).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count (no decode).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Column count (no decode).
    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// True once the cell payload has been decoded *successfully* (always
    /// true for eager slots) — the observable behind `tables_decoded`
    /// gauges and the lazy-open tests. A memoized decode *failure* reports
    /// false: a gauge that counted undecodable tables as materialized
    /// would misreport in exactly the corruption case it exists to
    /// diagnose.
    pub fn is_decoded(&self) -> bool {
        matches!(self.cell.get(), Some(Ok(_)))
    }

    /// The table, decoding (and memoizing) the cell payload on first call.
    /// Concurrent callers race benignly: `OnceLock` publishes exactly one
    /// decode result.
    pub fn force(&self) -> Result<&Table, TableError> {
        self.cell
            .get_or_init(|| self.decode())
            .as_ref()
            .map_err(|e| TableError::Binary(format!("table `{}`: {e}", self.name)))
    }

    /// The table; panics when a (checksum-verified, so practically
    /// unreachable) lazy decode fails. Infallible call sites deep in the
    /// pipeline use this; fallible entry points use [`TableSlot::force`].
    pub fn table(&self) -> &Table {
        self.force().unwrap_or_else(|e| panic!("lazy decode of snapshot table failed: {e}"))
    }

    fn decode(&self) -> Result<Table, TableError> {
        let lazy = self
            .lazy
            .as_ref()
            .ok_or_else(|| TableError::Binary("eager slot holds no table".into()))?;
        if let Some((section, stored)) = &lazy.check {
            let computed = fold64(lazy.buf.slice(section.clone()));
            if computed != *stored {
                return Err(TableError::Binary(format!(
                    "section checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )));
            }
        }
        let mut r = BinReader::new(lazy.buf.slice(lazy.cells.clone()));
        let rows = decode_table_cells(&mut r, &self.schema, self.n_rows, &lazy.strings)?;
        if r.remaining() != 0 {
            return Err(TableError::Binary(format!(
                "{} trailing bytes after cell payload",
                r.remaining()
            )));
        }
        Table::from_rows(self.name.clone(), self.schema.clone(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::build(
            "people",
            &["id", "name", "score"],
            &["id"],
            vec![
                vec![Value::Int(0), Value::str("Smith, \"Jr\""), Value::Float(1.5)],
                vec![Value::Int(1), Value::Null, Value::Float(f64::NAN)],
                vec![Value::Int(2), Value::LabeledNull(7), Value::Bool(true)],
            ],
        )
        .unwrap()
    }

    /// `t` through the codec snapshots and delta frames use: columnar
    /// frame + interned string table, encoded and decoded back.
    fn round_trip(t: &Table) -> Table {
        let mut strings = StringTableBuilder::new();
        let mut w = BinWriter::new();
        encode_table_columnar(t, &mut w, &mut strings);
        let mut st = BinWriter::new();
        strings.encode(&mut st);
        let table = decode_string_table(&mut BinReader::new(st.as_bytes())).unwrap();
        assert_eq!(table.len(), strings.len());
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        let back = decode_table_columnar(&mut r, &table).unwrap();
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn table_round_trip_is_identical() {
        let t = sample();
        let back = round_trip(&t);
        assert_eq!(back.name(), t.name());
        assert!(back.schema().same_columns(t.schema()));
        assert_eq!(back.schema().key(), t.schema().key());
        assert_eq!(back.rows(), t.rows());
    }

    #[test]
    fn nan_bits_survive() {
        // Once in a mixed (tagged-cell) column, once in a packed float one.
        let packed = Table::build(
            "f",
            &["x"],
            &[],
            vec![vec![Value::Float(0.5)], vec![Value::Float(f64::NAN)]],
        )
        .unwrap();
        for (t, row, col) in [(sample(), 1, 2), (packed, 1, 0)] {
            match round_trip(&t).cell(row, col) {
                Some(Value::Float(f)) => assert!(f.is_nan()),
                other => panic!("expected NaN float, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_and_keyless_tables_round_trip() {
        let t = Table::build::<&str>("empty", &["a", "b"], &[], vec![]).unwrap();
        let back = round_trip(&t);
        assert_eq!(back.n_rows(), 0);
        assert!(!back.schema().has_key());
        assert_eq!(back.schema().columns().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn all_value_variants_round_trip() {
        let vals = [
            Value::Null,
            Value::LabeledNull(u64::MAX),
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::str(""),
            Value::str("héllo ⊥ world"),
        ];
        let mut w = BinWriter::new();
        for v in &vals {
            encode_value(v, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        for v in &vals {
            let got = decode_value(&mut r).unwrap();
            // Compare representations, not just Eq (Eq collapses 3 == 3.0).
            assert_eq!(format!("{got:?}"), format!("{v:?}"));
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn unknown_tag_errors() {
        let mut r = BinReader::new(&[200u8]);
        assert!(matches!(decode_value(&mut r), Err(TableError::Binary(_))));
    }

    #[test]
    fn columnar_round_trip_matches_rowwise() {
        // Mixed shapes: packed int with nulls, packed str, floats, a
        // mixed-type column (generic), bools, and an all-null column.
        let t = Table::build(
            "mixed",
            &["i", "s", "f", "g", "b", "n"],
            &["i"],
            (0..20)
                .map(|r| {
                    vec![
                        Value::Int(r),
                        if r % 3 == 0 { Value::Null } else { Value::str(format!("s{r}")) },
                        Value::Float(r as f64 / 4.0),
                        match r % 3 {
                            0 => Value::Int(r),
                            1 => Value::str("mix"),
                            _ => Value::LabeledNull(r as u64),
                        },
                        Value::Bool(r % 2 == 0),
                        Value::Null,
                    ]
                })
                .collect(),
        )
        .unwrap();
        let back = round_trip(&t);
        assert_eq!(format!("{:?}", back.rows()), format!("{:?}", t.rows()));
        assert_eq!(back.schema().key(), t.schema().key());
        assert_eq!(back.name(), t.name());
    }

    #[test]
    fn string_table_dedupes_across_tables() {
        let mk = |name: &str| {
            Table::build(
                name,
                &["s"],
                &[],
                (0..10).map(|i| vec![Value::str(format!("shared{}", i % 3))]).collect(),
            )
            .unwrap()
        };
        let mut strings = StringTableBuilder::new();
        let mut w = BinWriter::new();
        encode_table_columnar(&mk("a"), &mut w, &mut strings);
        encode_table_columnar(&mk("b"), &mut w, &mut strings);
        assert_eq!(strings.len(), 3, "3 distinct strings across 20 cells");
        let mut st = BinWriter::new();
        strings.encode(&mut st);
        let table = decode_string_table(&mut BinReader::new(st.as_bytes())).unwrap();
        let mut r = BinReader::new(w.as_bytes());
        let a = decode_table_columnar(&mut r, &table).unwrap();
        let b = decode_table_columnar(&mut r, &table).unwrap();
        assert_eq!(a.rows(), mk("a").rows());
        assert_eq!(b.rows(), mk("b").rows());
    }

    #[test]
    fn columnar_handles_empty_tables() {
        let t = Table::build::<&str>("empty", &["a"], &[], vec![]).unwrap();
        let mut strings = StringTableBuilder::new();
        let mut w = BinWriter::new();
        encode_table_columnar(&t, &mut w, &mut strings);
        let bytes = w.into_bytes();
        let back = decode_table_columnar(&mut BinReader::new(&bytes), &[]).unwrap();
        assert_eq!(back.n_rows(), 0);
    }

    #[test]
    fn canonical_encoding_respects_value_equality() {
        let enc = |v: &Value| {
            let mut w = BinWriter::new();
            encode_value_canonical(v, &mut w);
            w.into_bytes()
        };
        // Equal values → identical bytes.
        assert_eq!(enc(&Value::Int(3)), enc(&Value::Float(3.0)));
        assert_eq!(enc(&Value::Float(0.0)), enc(&Value::Float(-0.0)));
        assert_eq!(enc(&Value::Float(f64::NAN)), enc(&Value::Float(-f64::NAN)));
        // Non-equal values → distinct bytes.
        assert_ne!(enc(&Value::Int(3)), enc(&Value::Float(3.5)));
        assert_ne!(enc(&Value::Float(f64::INFINITY)), enc(&Value::Float(f64::NEG_INFINITY)));
        assert_ne!(enc(&Value::str("3")), enc(&Value::Int(3)));
        assert_ne!(enc(&Value::Bool(true)), enc(&Value::Int(1)));
        // Huge integral floats stay floats (outside i64 range).
        assert_ne!(enc(&Value::Float(1e300)), enc(&Value::Float(2e300)));
    }

    #[test]
    fn arrays_round_trip() {
        let mut w = BinWriter::new();
        w.put_u32_array(&[1, 2, u32::MAX]);
        w.put_u64_array(&[]);
        w.put_u64_array(&[7, u64::MAX]);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        assert_eq!(r.get_u32_array().unwrap(), vec![1, 2, u32::MAX]);
        assert_eq!(r.get_u64_array().unwrap(), Vec::<u64>::new());
        assert_eq!(r.get_u64_array().unwrap(), vec![7, u64::MAX]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn fold64_detects_flips() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let base = fold64(&data);
        for at in [0usize, 500, 3999] {
            let mut bad = data.clone();
            bad[at] ^= 1;
            assert_ne!(fold64(&bad), base, "flip at {at} undetected");
        }
        assert_ne!(fold64(&data[..3999]), base, "truncation undetected");
    }
}
