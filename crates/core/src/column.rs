//! Typed columnar buffers.
//!
//! The batch path used to be columnar in *shape* only: every
//! [`ColumnChunk`](crate::tuple::ColumnChunk) column was a `Vec<Value>`, so
//! each kernel paid the enum tag per element and the compiler could not
//! autovectorise the inner loops.  This module re-lays columns as native
//! buffers — `Vec<i64>` / `Vec<f64>` for numerics, dictionary codes for
//! low-cardinality strings, offsets into a shared byte arena for
//! high-cardinality strings — with a validity [`Bitmap`] for nulls, and a
//! `Vec<Value>` fallback layout for mixed-type columns so self-describing
//! best-effort semantics (§3.3.1, §3.3.4) are preserved exactly.
//!
//! **Layout inference happens at ingest.**  A fresh column starts in the
//! fallback layout; the first non-null value promotes it to the matching
//! typed layout, and any later type mismatch degrades it back to the
//! fallback by materialising.  Strings start dictionary-encoded and spill to
//! the arena layout once the dictionary exceeds [`DICT_MAX`] distinct
//! entries.  Every kernel therefore needs a fallback arm, and the
//! differential oracle suite (tests/columnar_oracle.rs) pins each typed arm
//! to the fallback arm over arbitrary mixed chunks with nulls.
//!
//! **Reference layout.**  With the `reference-layout` feature enabled,
//! inference is disabled and every column stays in the `Vec<Value>` fallback
//! — running the whole test suite under that feature is a second,
//! independent differential check that no caller depends on a specific
//! layout.
//!
//! **Wire format.**  [`Column::encode_body`] / [`Column::decode_body`] give
//! each layout a real byte encoding (dictionary pages, arena + offsets,
//! packed validity words) used by the durable window snapshots in `pier-cq`
//! and charged by the batch wire accounting; `decode(encode(c))` re-encodes
//! bit for bit.

use crate::value::{Value, ValueRef};
use std::sync::Arc;

/// Maximum number of distinct dictionary entries before a string column
/// spills from dictionary encoding to the byte-arena layout.
pub const DICT_MAX: usize = 64;

/// When true (the `reference-layout` feature), every column is forced to the
/// `Vec<Value>` fallback layout at ingest.
const FORCE_REFERENCE: bool = cfg!(feature = "reference-layout");

/// Validity bitmap: bit `r` set ⇔ row `r` holds a (typed) value, clear ⇔ the
/// row is null.  Bits past `len` are always zero, so the packed words are a
/// canonical byte encoding.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Bitmap of `len` bits, all set to `valid`.
    pub fn with_len(len: usize, valid: bool) -> Bitmap {
        let mut words = vec![if valid { u64::MAX } else { 0 }; len.div_ceil(64)];
        if valid {
            if let Some(last) = words.last_mut() {
                let tail = len % 64;
                if tail != 0 {
                    *last &= (1u64 << tail) - 1;
                }
            }
        }
        Bitmap { words, len }
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit `r` (panics when out of range).
    pub fn get(&self, r: usize) -> bool {
        assert!(r < self.len, "bitmap index {r} out of range {}", self.len);
        self.words[r / 64] >> (r % 64) & 1 == 1
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (valid) bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every bit is set.
    pub fn all_valid(&self) -> bool {
        self.count_ones() == self.len
    }

    /// The packed `u64` words (bits past [`len`](Bitmap::len) are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from packed words; `None` when the word count does not match
    /// `len` or a bit past `len` is set (non-canonical input is rejected so
    /// decode→re-encode is bit-stable).
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Bitmap> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if let Some(last) = words.last() {
            let tail = len % 64;
            if tail != 0 && *last >> tail != 0 {
                return None;
            }
        }
        Some(Bitmap { words, len })
    }
}

/// One column of a chunk, laid out as typed native buffers.
///
/// The variant fields are public so kernels (including the predicate-index
/// kernels in `pier-mqo`) can match on the layout and run over raw slices.
/// Invariants (maintained by every constructor in this crate, assumed by the
/// kernels):
///
/// - `validity`, when present, has exactly `len()` bits; `None` means all
///   rows valid.  Rows with a clear bit hold an unspecified (but encoded as
///   zero) slot in the data buffer.
/// - `Dict`: every code indexes `dict`; `dict.len() <= 256` (ingest caps it
///   at [`DICT_MAX`]); entries are unique, in first-seen order.
/// - `Str`: `offsets.len() == len() + 1`, monotone, `offsets[0] == 0`,
///   `offsets[len()] == arena.len()`; row `r`'s bytes are
///   `arena[offsets[r]..offsets[r+1]]` and are valid UTF-8.
#[derive(Debug, Clone)]
pub enum Column {
    /// Native `i64` buffer.
    Int {
        /// Row values (zero at null rows).
        data: Vec<i64>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Native `f64` buffer.
    Float {
        /// Row values (zero at null rows).
        data: Vec<f64>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Boolean buffer.
    Bool {
        /// Row values (false at null rows).
        data: Vec<bool>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Dictionary-encoded strings (low cardinality).
    Dict {
        /// Per-row dictionary codes (0 at null rows).
        codes: Vec<u8>,
        /// Distinct values, first-seen order.
        dict: Vec<Arc<str>>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Arena-encoded strings (high cardinality).
    Str {
        /// Concatenated UTF-8 bytes of all rows.
        arena: Vec<u8>,
        /// Row `r` spans `arena[offsets[r]..offsets[r+1]]`.
        offsets: Vec<u32>,
        /// Null rows, if any.
        validity: Option<Bitmap>,
    },
    /// Fallback layout: one tagged [`Value`] per row (mixed-type columns,
    /// byte payloads, and the `reference-layout` differential oracle).
    Values(
        /// Row values.
        Vec<Value>,
    ),
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

fn is_all_null(vals: &[Value]) -> bool {
    vals.iter().all(Value::is_null)
}

/// Build the validity bitmap for a promotion of `nulls` leading nulls plus
/// one valid row, or `None` when there are no leading nulls.
fn promo_validity(nulls: usize) -> Option<Bitmap> {
    if nulls == 0 {
        return None;
    }
    let mut v = Bitmap::with_len(nulls, false);
    v.push(true);
    Some(v)
}

fn validity_push(validity: &mut Option<Bitmap>, len: usize, bit: bool) {
    match validity {
        Some(v) => v.push(bit),
        None if bit => {}
        None => {
            let mut v = Bitmap::with_len(len, true);
            v.push(false);
            *validity = Some(v);
        }
    }
}

impl Column {
    /// Fresh, empty column (fallback layout until the first value arrives).
    pub fn new() -> Column {
        Column::Values(Vec::new())
    }

    /// Force the `Vec<Value>` fallback layout — the reference path of the
    /// differential oracle suite.
    pub fn values_layout(vals: Vec<Value>) -> Column {
        Column::Values(vals)
    }

    /// Build a column from owned values, inferring the typed layout exactly
    /// as incremental ingest would.
    pub fn from_values(vals: Vec<Value>) -> Column {
        let mut col = Column::new();
        for v in vals {
            col.push_value(&v);
        }
        col
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Str { offsets, .. } => offsets.len() - 1,
            Column::Values(vals) => vals.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short layout name (`int`, `float`, `bool`, `dict`, `str`, `values`)
    /// for tests and trace output.
    pub fn layout_name(&self) -> &'static str {
        match self {
            Column::Int { .. } => "int",
            Column::Float { .. } => "float",
            Column::Bool { .. } => "bool",
            Column::Dict { .. } => "dict",
            Column::Str { .. } => "str",
            Column::Values(_) => "values",
        }
    }

    /// The validity bitmap of a typed layout (`None` for all-valid typed
    /// columns and for the fallback layout, which carries nulls inline).
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Bool { validity, .. }
            | Column::Dict { validity, .. }
            | Column::Str { validity, .. } => validity.as_ref(),
            Column::Values(_) => None,
        }
    }

    /// True when row `r` holds a non-null value.
    pub fn is_valid(&self, r: usize) -> bool {
        match self {
            Column::Values(vals) => !vals[r].is_null(),
            _ => self.validity().is_none_or(|v| v.get(r)),
        }
    }

    /// Borrowed view of row `r` — allocation-free on every layout.
    pub fn value_ref(&self, r: usize) -> ValueRef<'_> {
        match self {
            Column::Int { data, validity } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => ValueRef::Int(data[r]),
            },
            Column::Float { data, validity } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => ValueRef::Float(data[r]),
            },
            Column::Bool { data, validity } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => ValueRef::Bool(data[r]),
            },
            Column::Dict {
                codes,
                dict,
                validity,
            } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => ValueRef::Str(&dict[codes[r] as usize]),
            },
            Column::Str {
                arena,
                offsets,
                validity,
            } => match validity {
                Some(v) if !v.get(r) => ValueRef::Null,
                _ => {
                    let bytes = &arena[offsets[r] as usize..offsets[r + 1] as usize];
                    // Invariant: arena bytes are valid UTF-8 (pushed from &str).
                    ValueRef::Str(std::str::from_utf8(bytes).expect("arena holds UTF-8"))
                }
            },
            Column::Values(vals) => vals[r].as_ref(),
        }
    }

    /// Owned value of row `r`.  Allocation-free for every layout except
    /// arena strings (which must materialise an `Arc<str>`); dictionary rows
    /// hand out the shared entry with a reference-count bump.
    pub fn value(&self, r: usize) -> Value {
        match self {
            Column::Dict {
                codes,
                dict,
                validity,
            } => match validity {
                Some(v) if !v.get(r) => Value::Null,
                _ => Value::Str(Arc::clone(&dict[codes[r] as usize])),
            },
            Column::Values(vals) => vals[r].clone(),
            _ => self.value_ref(r).to_value(),
        }
    }

    /// Materialise every row (the reference representation).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|r| self.value(r)).collect()
    }

    /// Append a null row.
    pub fn push_null(&mut self) {
        let len = self.len();
        match self {
            Column::Values(vals) => vals.push(Value::Null),
            Column::Int { data, validity } => {
                data.push(0);
                validity_push(validity, len, false);
            }
            Column::Float { data, validity } => {
                data.push(0.0);
                validity_push(validity, len, false);
            }
            Column::Bool { data, validity } => {
                data.push(false);
                validity_push(validity, len, false);
            }
            Column::Dict {
                codes, validity, ..
            } => {
                codes.push(0);
                validity_push(validity, len, false);
            }
            Column::Str {
                offsets,
                validity,
                arena,
            } => {
                offsets.push(arena.len() as u32);
                validity_push(validity, len, false);
            }
        }
    }

    /// Append one owned value, promoting / degrading the layout as needed.
    /// String pushes get the dictionary's `Arc` pointer fast path.
    pub fn push_value(&mut self, v: &Value) {
        match v {
            Value::Str(s) => self.push_str_arc(s),
            other => self.push_ref(other.as_ref()),
        }
    }

    /// Append one borrowed value, promoting / degrading the layout as
    /// needed.
    pub fn push_ref(&mut self, v: ValueRef<'_>) {
        if FORCE_REFERENCE {
            self.degrade();
        }
        match v {
            ValueRef::Null => self.push_null(),
            ValueRef::Int(i) => self.push_int(i),
            ValueRef::Float(f) => self.push_float(f),
            ValueRef::Bool(b) => self.push_bool(b),
            ValueRef::Str(s) => self.push_str(s),
            ValueRef::Bytes(b) => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(Value::bytes(b));
            }
        }
    }

    /// Append row `r` of `src`, borrowing it: dictionary entries and
    /// fallback values keep their `Arc` pointer fast path, every other
    /// layout pushes a borrowed [`ValueRef`].
    pub(crate) fn push_from(&mut self, src: &Column, r: usize) {
        match src {
            Column::Values(vals) => self.push_value(&vals[r]),
            Column::Dict {
                codes,
                dict,
                validity,
            } if validity.as_ref().is_none_or(|v| v.get(r)) => {
                self.push_str_arc(&dict[usize::from(codes[r])]);
            }
            _ => self.push_ref(src.value_ref(r)),
        }
    }

    fn push_int(&mut self, i: i64) {
        match self {
            Column::Int { data, validity } => {
                data.push(i);
                if let Some(v) = validity {
                    v.push(true);
                }
            }
            Column::Values(vals) if !FORCE_REFERENCE && is_all_null(vals) => {
                let nulls = vals.len();
                let mut data = vec![0i64; nulls];
                data.push(i);
                *self = Column::Int {
                    data,
                    validity: promo_validity(nulls),
                };
            }
            _ => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(Value::Int(i));
            }
        }
    }

    fn push_float(&mut self, f: f64) {
        match self {
            Column::Float { data, validity } => {
                data.push(f);
                if let Some(v) = validity {
                    v.push(true);
                }
            }
            Column::Values(vals) if !FORCE_REFERENCE && is_all_null(vals) => {
                let nulls = vals.len();
                let mut data = vec![0f64; nulls];
                data.push(f);
                *self = Column::Float {
                    data,
                    validity: promo_validity(nulls),
                };
            }
            _ => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(Value::Float(f));
            }
        }
    }

    fn push_bool(&mut self, b: bool) {
        match self {
            Column::Bool { data, validity } => {
                data.push(b);
                if let Some(v) = validity {
                    v.push(true);
                }
            }
            Column::Values(vals) if !FORCE_REFERENCE && is_all_null(vals) => {
                let nulls = vals.len();
                let mut data = vec![false; nulls];
                data.push(b);
                *self = Column::Bool {
                    data,
                    validity: promo_validity(nulls),
                };
            }
            _ => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(Value::Bool(b));
            }
        }
    }

    /// Find or insert `s` in the dictionary; `None` when the dictionary is
    /// full and `s` is new (the spill trigger).  `prev` (the previous row's
    /// code) is tried before the linear probe: an install snapshot delivers
    /// rows grouped by partition key, so a key column usually repeats its
    /// last code.  Entries are unique, so a hit is the code the probe would
    /// find.
    fn dict_code(
        dict: &mut Vec<Arc<str>>,
        s: &str,
        arc: Option<&Arc<str>>,
        prev: Option<u8>,
    ) -> Option<u8> {
        let same = |entry: &Arc<str>| arc.is_some_and(|a| Arc::ptr_eq(a, entry)) || **entry == *s;
        if prev.is_some_and(|p| dict.get(usize::from(p)).is_some_and(same)) {
            return prev;
        }
        if let Some(i) = dict.iter().position(same) {
            return Some(i as u8);
        }
        if dict.len() >= DICT_MAX {
            return None;
        }
        dict.push(arc.map_or_else(|| Arc::from(s), Arc::clone));
        Some((dict.len() - 1) as u8)
    }

    fn push_str(&mut self, s: &str) {
        self.push_str_inner(s, None);
    }

    fn push_str_arc(&mut self, s: &Arc<str>) {
        if FORCE_REFERENCE {
            self.degrade();
            let Column::Values(vals) = self else {
                unreachable!()
            };
            vals.push(Value::Str(Arc::clone(s)));
            return;
        }
        self.push_str_inner(s, Some(s));
    }

    fn push_str_inner(&mut self, s: &str, arc: Option<&Arc<str>>) {
        if FORCE_REFERENCE {
            self.degrade();
            let Column::Values(vals) = self else {
                unreachable!()
            };
            vals.push(Value::str(s));
            return;
        }
        match self {
            Column::Dict {
                codes,
                dict,
                validity,
            } => match Self::dict_code(dict, s, arc, codes.last().copied()) {
                Some(code) => {
                    codes.push(code);
                    if let Some(v) = validity {
                        v.push(true);
                    }
                }
                None => {
                    self.spill_dict_to_arena();
                    self.push_str_inner(s, arc);
                }
            },
            Column::Str {
                arena,
                offsets,
                validity,
            } => {
                arena.extend_from_slice(s.as_bytes());
                offsets.push(arena.len() as u32);
                if let Some(v) = validity {
                    v.push(true);
                }
            }
            Column::Values(vals) if is_all_null(vals) => {
                let nulls = vals.len();
                let mut dict = Vec::new();
                let code = Self::dict_code(&mut dict, s, arc, None).expect("fresh dict");
                let mut codes = vec![0u8; nulls];
                codes.push(code);
                *self = Column::Dict {
                    codes,
                    dict,
                    validity: promo_validity(nulls),
                };
            }
            _ => {
                self.degrade();
                let Column::Values(vals) = self else {
                    unreachable!()
                };
                vals.push(arc.map_or_else(|| Value::str(s), |a| Value::Str(Arc::clone(a))));
            }
        }
    }

    /// Convert a full dictionary column to the arena layout in place.
    fn spill_dict_to_arena(&mut self) {
        let Column::Dict {
            codes,
            dict,
            validity,
        } = self
        else {
            return;
        };
        let mut arena = Vec::new();
        let mut offsets = Vec::with_capacity(codes.len() + 1);
        offsets.push(0u32);
        for (r, &code) in codes.iter().enumerate() {
            let valid = validity.as_ref().is_none_or(|v| v.get(r));
            if valid {
                arena.extend_from_slice(dict[code as usize].as_bytes());
            }
            offsets.push(arena.len() as u32);
        }
        *self = Column::Str {
            arena,
            offsets,
            validity: validity.take(),
        };
    }

    /// Degrade to the `Vec<Value>` fallback layout in place (type-mismatch
    /// escape hatch; a no-op when already there).
    pub fn degrade(&mut self) {
        if !matches!(self, Column::Values(_)) {
            *self = Column::Values(self.to_values());
        }
    }

    /// Gather rows by index into a new column, preserving the layout
    /// (dictionary columns share their `Arc<str>` entries; arena columns
    /// rebuild a compact arena).  Panics on out-of-range indices.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let gather_validity = |validity: &Option<Bitmap>| -> Option<Bitmap> {
            validity.as_ref().map(|v| {
                let mut out = Bitmap::new();
                for &i in idx {
                    out.push(v.get(i as usize));
                }
                out
            })
        };
        match self {
            Column::Int { data, validity } => Column::Int {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Float { data, validity } => Column::Float {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Bool { data, validity } => Column::Bool {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Dict {
                codes,
                dict,
                validity,
            } => Column::Dict {
                codes: idx.iter().map(|&i| codes[i as usize]).collect(),
                dict: dict.clone(),
                validity: gather_validity(validity),
            },
            Column::Str {
                arena,
                offsets,
                validity,
            } => {
                let mut out_arena = Vec::new();
                let mut out_offsets = Vec::with_capacity(idx.len() + 1);
                out_offsets.push(0u32);
                for &i in idx {
                    let (a, b) = (
                        offsets[i as usize] as usize,
                        offsets[i as usize + 1] as usize,
                    );
                    out_arena.extend_from_slice(&arena[a..b]);
                    out_offsets.push(out_arena.len() as u32);
                }
                Column::Str {
                    arena: out_arena,
                    offsets: out_offsets,
                    validity: gather_validity(validity),
                }
            }
            Column::Values(vals) => {
                Column::Values(idx.iter().map(|&i| vals[i as usize].clone()).collect())
            }
        }
    }

    /// Exact length in bytes of [`encode_body`](Column::encode_body)'s
    /// output, computed without encoding.
    pub fn encoded_len(&self) -> usize {
        let rows = self.len();
        let validity_len = |validity: &Option<Bitmap>| match validity {
            Some(_) => 1 + rows.div_ceil(64) * 8,
            None => 1,
        };
        1 + match self {
            Column::Int { validity, .. } | Column::Float { validity, .. } => {
                validity_len(validity) + rows * 8
            }
            Column::Bool { validity, .. } => validity_len(validity) + rows.div_ceil(64) * 8,
            Column::Dict { dict, validity, .. } => {
                validity_len(validity) + 2 + dict.iter().map(|s| 4 + s.len()).sum::<usize>() + rows
            }
            Column::Str {
                arena, validity, ..
            } => validity_len(validity) + 4 + arena.len() + (rows + 1) * 4,
            Column::Values(vals) => vals
                .iter()
                .map(pier_runtime::WireSize::wire_size)
                .sum::<usize>(),
        }
    }

    /// Append this column's byte encoding: a layout tag, the validity block
    /// (presence byte + packed `u64` LE words), then the layout payload —
    /// raw LE buffers for numerics, packed words for bools, dictionary page
    /// (entry count + length-prefixed entries) + codes for dictionaries,
    /// arena bytes + `u32` LE offsets for arena strings, tagged values for
    /// the fallback.  The row count is *not* encoded; it travels in the
    /// chunk header.
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        fn encode_validity(buf: &mut Vec<u8>, validity: &Option<Bitmap>) {
            match validity {
                None => buf.push(0),
                Some(v) => {
                    buf.push(1);
                    for w in v.words() {
                        buf.extend_from_slice(&w.to_le_bytes());
                    }
                }
            }
        }
        match self {
            Column::Int { data, validity } => {
                buf.push(1);
                encode_validity(buf, validity);
                for v in data {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Column::Float { data, validity } => {
                buf.push(2);
                encode_validity(buf, validity);
                for v in data {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Column::Bool { data, validity } => {
                buf.push(3);
                encode_validity(buf, validity);
                let mut packed = Bitmap::new();
                for &b in data {
                    packed.push(b);
                }
                for w in packed.words() {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
            }
            Column::Dict {
                codes,
                dict,
                validity,
            } => {
                buf.push(4);
                encode_validity(buf, validity);
                buf.extend_from_slice(&(dict.len() as u16).to_le_bytes());
                for entry in dict {
                    buf.extend_from_slice(&(entry.len() as u32).to_le_bytes());
                    buf.extend_from_slice(entry.as_bytes());
                }
                buf.extend_from_slice(codes);
            }
            Column::Str {
                arena,
                offsets,
                validity,
            } => {
                buf.push(5);
                encode_validity(buf, validity);
                buf.extend_from_slice(&(arena.len() as u32).to_le_bytes());
                buf.extend_from_slice(arena);
                for o in offsets {
                    buf.extend_from_slice(&o.to_le_bytes());
                }
            }
            Column::Values(vals) => {
                buf.push(0);
                for v in vals {
                    v.encode(buf);
                }
            }
        }
    }

    /// Decode one column of `rows` rows from the front of `buf`, returning
    /// it and the bytes consumed.  `None` on truncated, non-canonical, or
    /// invariant-violating input.
    pub fn decode_body(rows: usize, buf: &[u8]) -> Option<(Column, usize)> {
        fn decode_validity(rows: usize, buf: &[u8]) -> Option<(Option<Bitmap>, usize)> {
            match *buf.first()? {
                0 => Some((None, 1)),
                1 => {
                    let nwords = rows.div_ceil(64);
                    let mut words = Vec::with_capacity(nwords);
                    let mut at = 1;
                    for _ in 0..nwords {
                        words.push(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?));
                        at += 8;
                    }
                    Some((Some(Bitmap::from_words(words, rows)?), at))
                }
                _ => None,
            }
        }
        let tag = *buf.first()?;
        let rest = &buf[1..];
        match tag {
            0 => {
                let mut vals = Vec::with_capacity(rows);
                let mut at = 0;
                for _ in 0..rows {
                    let (v, used) = Value::decode(&rest[at.min(rest.len())..])?;
                    vals.push(v);
                    at += used;
                }
                Some((Column::Values(vals), 1 + at))
            }
            1 | 2 => {
                let (validity, mut at) = decode_validity(rows, rest)?;
                if tag == 1 {
                    let mut data = Vec::with_capacity(rows);
                    for _ in 0..rows {
                        data.push(i64::from_le_bytes(rest.get(at..at + 8)?.try_into().ok()?));
                        at += 8;
                    }
                    Some((Column::Int { data, validity }, 1 + at))
                } else {
                    let mut data = Vec::with_capacity(rows);
                    for _ in 0..rows {
                        data.push(f64::from_le_bytes(rest.get(at..at + 8)?.try_into().ok()?));
                        at += 8;
                    }
                    Some((Column::Float { data, validity }, 1 + at))
                }
            }
            3 => {
                let (validity, mut at) = decode_validity(rows, rest)?;
                let nwords = rows.div_ceil(64);
                let mut words = Vec::with_capacity(nwords);
                for _ in 0..nwords {
                    words.push(u64::from_le_bytes(rest.get(at..at + 8)?.try_into().ok()?));
                    at += 8;
                }
                let packed = Bitmap::from_words(words, rows)?;
                let data = (0..rows).map(|r| packed.get(r)).collect();
                Some((Column::Bool { data, validity }, 1 + at))
            }
            4 => {
                let (validity, mut at) = decode_validity(rows, rest)?;
                let dict_len = u16::from_le_bytes(rest.get(at..at + 2)?.try_into().ok()?) as usize;
                at += 2;
                if dict_len > 256 {
                    return None;
                }
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    let len = u32::from_le_bytes(rest.get(at..at + 4)?.try_into().ok()?) as usize;
                    at += 4;
                    let s = std::str::from_utf8(rest.get(at..at + len)?).ok()?;
                    dict.push(Arc::<str>::from(s));
                    at += len;
                }
                let codes: Vec<u8> = rest.get(at..at + rows)?.to_vec();
                at += rows;
                if codes.iter().any(|&c| c as usize >= dict_len.max(1)) {
                    return None;
                }
                Some((
                    Column::Dict {
                        codes,
                        dict,
                        validity,
                    },
                    1 + at,
                ))
            }
            5 => {
                let (validity, mut at) = decode_validity(rows, rest)?;
                let arena_len = u32::from_le_bytes(rest.get(at..at + 4)?.try_into().ok()?) as usize;
                at += 4;
                let arena = rest.get(at..at + arena_len)?.to_vec();
                at += arena_len;
                let mut offsets = Vec::with_capacity(rows + 1);
                for _ in 0..rows + 1 {
                    offsets.push(u32::from_le_bytes(rest.get(at..at + 4)?.try_into().ok()?));
                    at += 4;
                }
                if offsets[0] != 0
                    || offsets[rows] as usize != arena.len()
                    || offsets.windows(2).any(|w| w[0] > w[1])
                {
                    return None;
                }
                for w in offsets.windows(2) {
                    if std::str::from_utf8(&arena[w[0] as usize..w[1] as usize]).is_err() {
                        return None;
                    }
                }
                Some((
                    Column::Str {
                        arena,
                        offsets,
                        validity,
                    },
                    1 + at,
                ))
            }
            _ => None,
        }
    }
}

/// Logical row-wise equality (same values in the same order, regardless of
/// layout) — matches the old `Vec<Value>` column equality, including its
/// float semantics (`NaN != NaN`).
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        self.len() == other.len()
            && (0..self.len()).all(|r| self.value_ref(r) == other.value_ref(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get_and_canonical_words() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0);
        }
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
        let back = Bitmap::from_words(b.words().to_vec(), 130).unwrap();
        assert_eq!(back, b);
        // Non-canonical tail bit is rejected.
        let mut words = b.words().to_vec();
        let last = words.len() - 1;
        words[last] |= 1u64 << 63;
        assert!(Bitmap::from_words(words, 130).is_none());
        assert!(Bitmap::with_len(70, true).all_valid());
        assert_eq!(Bitmap::with_len(70, false).count_ones(), 0);
    }

    #[test]
    fn ingest_infers_typed_layouts() {
        let ints = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        if !FORCE_REFERENCE {
            assert_eq!(ints.layout_name(), "int");
            assert_eq!(ints.validity().unwrap().count_ones(), 2);
        }
        assert_eq!(
            ints.to_values(),
            vec![Value::Int(1), Value::Null, Value::Int(3)]
        );

        let strs = Column::from_values(vec![Value::str("a"), Value::str("b"), Value::str("a")]);
        if !FORCE_REFERENCE {
            assert_eq!(strs.layout_name(), "dict");
        }
        assert_eq!(strs.value(2), Value::str("a"));

        // Leading nulls then a float: promotion keeps the nulls.
        let floats = Column::from_values(vec![Value::Null, Value::Float(2.5)]);
        if !FORCE_REFERENCE {
            assert_eq!(floats.layout_name(), "float");
        }
        assert_eq!(floats.to_values(), vec![Value::Null, Value::Float(2.5)]);

        // Mixed types degrade to the fallback.
        let mixed = Column::from_values(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(mixed.layout_name(), "values");
        assert_eq!(mixed.to_values(), vec![Value::Int(1), Value::str("x")]);

        // Bytes always use the fallback.
        let bytes = Column::from_values(vec![Value::bytes([1, 2])]);
        assert_eq!(bytes.layout_name(), "values");
    }

    #[test]
    fn dict_spills_to_arena_past_the_cap() {
        let vals: Vec<Value> = (0..DICT_MAX as i64 + 5)
            .map(|i| Value::str(format!("s{i}")))
            .collect();
        let col = Column::from_values(vals.clone());
        if !FORCE_REFERENCE {
            assert_eq!(col.layout_name(), "str");
        }
        assert_eq!(col.to_values(), vals);
    }

    #[test]
    fn dict_push_shares_the_arc() {
        if FORCE_REFERENCE {
            return;
        }
        let s = Value::str("shared");
        let mut col = Column::new();
        col.push_value(&s);
        col.push_value(&s);
        match (&col.value(1), &s) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected dict layout"),
        }
    }

    /// Push `vals` through the owned (`Arc` fast path), borrowed and
    /// column-to-column ingest paths; each must give the reference layout's
    /// logical column, in `layout`.
    fn assert_pushes_match_reference(vals: &[Value], layout: &str) -> Column {
        let reference = Column::values_layout(vals.to_vec());
        let mut owned = Column::new();
        let mut borrowed = Column::new();
        let mut copied = Column::new();
        for (r, v) in vals.iter().enumerate() {
            owned.push_value(v);
            borrowed.push_ref(v.as_ref());
            copied.push_from(&reference, r);
        }
        for col in [&owned, &borrowed, &copied] {
            assert_eq!(col, &reference);
            if !FORCE_REFERENCE {
                assert_eq!(col.layout_name(), layout);
            }
        }
        let mut from_typed = Column::new();
        for r in 0..owned.len() {
            from_typed.push_from(&owned, r);
        }
        assert_eq!(from_typed, reference);
        owned
    }

    fn kw(i: usize) -> Value {
        Value::str(format!("kw{i}"))
    }

    #[test]
    fn dict_push_key_grouped_hits_the_previous_code() {
        // Runs of one key, as a partition scan delivers them.
        let grouped: Vec<Value> = (0..20)
            .flat_map(|k| std::iter::repeat_n(kw(k), 7))
            .collect();
        let col = assert_pushes_match_reference(&grouped, "dict");
        if let Column::Dict { codes, dict, .. } = &col {
            assert_eq!(dict.len(), 20, "entries stay unique");
            let want: Vec<u8> = (0..20u8).flat_map(|k| [k; 7]).collect();
            assert_eq!(codes, &want);
        }
        // Equal strings behind distinct `Arc`s share one entry too.
        let fresh: Vec<Value> = (0..10).map(|_| kw(3)).collect();
        assert_pushes_match_reference(&fresh, "dict");
    }

    #[test]
    fn dict_push_interleaved_and_with_nulls() {
        let interleaved: Vec<Value> = (0..200).map(|i| kw(i % 13)).collect();
        let col = assert_pushes_match_reference(&interleaved, "dict");
        if let Column::Dict { codes, .. } = &col {
            assert!(codes
                .iter()
                .enumerate()
                .all(|(i, &c)| usize::from(c) == i % 13));
        }
        // A null row stores code 0; the next row must not borrow it blindly.
        let with_nulls: Vec<Value> = (0..60)
            .map(|i| {
                if i % 4 == 1 {
                    Value::Null
                } else {
                    kw(i % 5 + 1)
                }
            })
            .collect();
        assert_pushes_match_reference(&with_nulls, "dict");
        let mut leading = vec![Value::Null, Value::Null];
        leading.extend((0..8).map(|i| kw(i / 3)));
        assert_pushes_match_reference(&leading, "dict");
    }

    #[test]
    fn dict_push_at_the_cap_and_across_the_spill() {
        // Exactly DICT_MAX distinct values, grouped then repeated in reverse:
        // the dictionary is full but never spills.
        let at_cap: Vec<Value> = (0..DICT_MAX)
            .flat_map(|k| [kw(k), kw(k)])
            .chain((0..DICT_MAX).rev().map(kw))
            .collect();
        let col = assert_pushes_match_reference(&at_cap, "dict");
        if let Column::Dict { dict, .. } = &col {
            assert_eq!(dict.len(), DICT_MAX);
        }
        // One more distinct value spills to the arena; grouped and
        // interleaved repeats after the spill land there too.
        let mut spill = at_cap.clone();
        spill.extend([
            kw(DICT_MAX),
            kw(DICT_MAX),
            kw(0),
            kw(DICT_MAX),
            Value::Null,
            kw(5),
        ]);
        assert_pushes_match_reference(&spill, "str");
        // A spill in the middle of a key-grouped run.
        let grouped_spill: Vec<Value> = (0..=DICT_MAX)
            .flat_map(|k| std::iter::repeat_n(kw(k), 3))
            .collect();
        assert_pushes_match_reference(&grouped_spill, "str");
    }

    #[test]
    fn gather_preserves_layout_and_values() {
        let vals = vec![Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)];
        let col = Column::from_values(vals.clone());
        let picked = col.gather(&[3, 1, 0]);
        assert_eq!(picked.layout_name(), col.layout_name());
        assert_eq!(
            picked.to_values(),
            vec![Value::Int(40), Value::Null, Value::Int(10)]
        );

        let strs: Vec<Value> = (0..100).map(|i| Value::str(format!("v{i}"))).collect();
        let arena = Column::from_values(strs.clone());
        let picked = arena.gather(&[99, 0, 50]);
        assert_eq!(
            picked.to_values(),
            vec![strs[99].clone(), strs[0].clone(), strs[50].clone()]
        );
    }

    #[test]
    fn codec_round_trips_every_layout_bit_for_bit() {
        let columns = vec![
            Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(-5)]),
            Column::from_values(vec![Value::Float(0.5), Value::Float(-0.0)]),
            Column::from_values(vec![Value::Bool(true), Value::Null, Value::Bool(false)]),
            Column::from_values(vec![Value::str("a"), Value::str("b"), Value::Null]),
            Column::from_values(
                (0..DICT_MAX as i64 + 2)
                    .map(|i| Value::str(format!("s{i}")))
                    .collect(),
            ),
            Column::values_layout(vec![Value::Int(1), Value::bytes([9, 9]), Value::Null]),
            Column::new(),
        ];
        for col in &columns {
            let mut buf = Vec::new();
            col.encode_body(&mut buf);
            assert_eq!(buf.len(), col.encoded_len(), "{}", col.layout_name());
            let (back, used) = Column::decode_body(col.len(), &buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(&back, col, "{}", col.layout_name());
            let mut again = Vec::new();
            back.encode_body(&mut again);
            assert_eq!(buf, again, "{}", col.layout_name());
        }
    }

    #[test]
    fn decode_rejects_torn_and_non_canonical_input() {
        let col = Column::from_values(vec![Value::Int(7), Value::Int(8)]);
        let mut buf = Vec::new();
        col.encode_body(&mut buf);
        assert!(Column::decode_body(2, &buf[..buf.len() - 1]).is_none());
        assert!(Column::decode_body(2, &[42]).is_none());
        // A dict code past the dictionary is rejected.
        let mut bad = Vec::new();
        Column::from_values(vec![Value::str("a")]).encode_body(&mut bad);
        if !FORCE_REFERENCE {
            let last = bad.len() - 1;
            bad[last] = 7;
            assert!(Column::decode_body(1, &bad).is_none());
        }
    }

    #[test]
    fn logical_equality_crosses_layouts() {
        let vals = vec![Value::str("x"), Value::Null, Value::str("y")];
        let typed = Column::from_values(vals.clone());
        let reference = Column::values_layout(vals);
        assert_eq!(typed, reference);
        let other = Column::values_layout(vec![Value::str("x"), Value::Null, Value::str("z")]);
        assert_ne!(typed, other);
    }
}
