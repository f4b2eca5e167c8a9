//! Binary wire codec: length-prefixed frames and serialization of the core
//! types, for shipping relations, dependencies, and verdicts between
//! processes (the `od-server` service layer, the distributed-lattice worker
//! pipes of the ROADMAP).
//!
//! Design rules:
//!
//! * **Fixed-width little-endian integers** everywhere — no varints, so every
//!   encoding has exactly one byte representation and `encode(decode(bytes))
//!   == bytes` holds bit-for-bit (the round-trip property the protocol
//!   proptests pin).
//! * **`u64` bitmasks for attribute sets**: an [`AttrSet`] — a lattice
//!   context, a candidate set — is its raw mask, eight bytes, no
//!   per-attribute framing.
//! * **Length prefixes are validated before allocation**: a frame or
//!   byte-string length beyond the caller's cap is a [`WireError::TooLarge`],
//!   never an attempted huge allocation, so a malformed or hostile peer
//!   cannot OOM the process with five bytes.
//! * **Every decoder is total**: any byte sequence either decodes or returns
//!   a structured [`WireError`]; decoders never panic.  Trailing bytes after
//!   a complete message are an error ([`Reader::finish`]), so two distinct
//!   byte strings never decode to the same value.
//!
//! A frame on the wire is `u32 LE payload length` followed by the payload.
//! What the payload means (request, response, notification) is the protocol
//! layer's business — this module only moves validated bytes.

use crate::attr::{AttrId, DataType, Schema};
use crate::columnar::{ColumnarEncoding, EncodedColumn};
use crate::dep::OrderDependency;
use crate::list::AttrList;
use crate::relation::{Relation, Tuple};
use crate::set::AttrSet;
use crate::value::Value;
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload, shared by both sides of the
/// protocol: 32 MiB comfortably fits the hosted-relation workloads while
/// bounding what a corrupt length prefix can demand.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Decoding / framing failure.  Carries enough context to distinguish a
/// truncated message from a corrupt one in tests and error responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the message did.
    UnexpectedEof {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A length prefix exceeded the permitted maximum.
    TooLarge {
        /// The declared length.
        declared: usize,
        /// The cap it violated.
        max: usize,
    },
    /// An enum tag byte had no meaning at its position.
    InvalidTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A byte string declared as text was not valid UTF-8.
    InvalidUtf8,
    /// A complete message left undecoded bytes behind.
    TrailingBytes {
        /// How many bytes were left.
        count: usize,
    },
    /// A decoded relation was internally inconsistent (e.g. a tuple's arity
    /// disagreed with its schema).
    Inconsistent(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} more bytes, had {remaining}"
            ),
            WireError::TooLarge { declared, max } => {
                write!(f, "declared length {declared} exceeds the cap {max}")
            }
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
            WireError::InvalidUtf8 => write!(f, "byte string is not valid UTF-8"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete message")
            }
            WireError::Inconsistent(what) => write!(f, "inconsistent message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for decoders.
pub type WireResult<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------------
// Primitive writers.  Encoders are infallible: they build into a Vec.
// ---------------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64`, little-endian two's complement.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i32`, little-endian two's complement.
pub fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern (bit-exact round trip,
/// including NaN payloads).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a `bool` as one byte (`0` / `1`).
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, v as u8);
}

/// Append a length-prefixed byte string (`u32 LE` length + bytes).
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> WireResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; any byte other than `0`/`1` is an invalid tag.
    pub fn bool(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { what: "bool", tag }),
        }
    }

    /// Read a length-prefixed byte string.  The declared length is validated
    /// against the bytes actually present before anything is copied.
    pub fn bytes(&mut self) -> WireResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<String> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| WireError::InvalidUtf8)
    }

    /// Read a `u32` count that prefixes a sequence, validating it against the
    /// bytes still available: each element of the sequence needs at least
    /// `min_elem_bytes` bytes, so a corrupt count cannot drive a huge
    /// pre-allocation or a long decode loop.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> WireResult<usize> {
        let declared = self.u32()? as usize;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if declared > cap {
            return Err(WireError::TooLarge { declared, max: cap });
        }
        Ok(declared)
    }

    /// Assert the payload is fully consumed.
    pub fn finish(self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.buf.len() - self.pos,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Core-type codecs
// ---------------------------------------------------------------------------

const VALUE_NULL: u8 = 0;
const VALUE_BOOL: u8 = 1;
const VALUE_INT: u8 = 2;
const VALUE_FLOAT: u8 = 3;
const VALUE_STR: u8 = 4;
const VALUE_DATE: u8 = 5;

/// Encode a [`Value`] (tag byte + payload).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, VALUE_NULL),
        Value::Bool(b) => {
            put_u8(buf, VALUE_BOOL);
            put_bool(buf, *b);
        }
        Value::Int(i) => {
            put_u8(buf, VALUE_INT);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            put_u8(buf, VALUE_FLOAT);
            put_f64(buf, *f);
        }
        Value::Str(s) => {
            put_u8(buf, VALUE_STR);
            put_str(buf, s);
        }
        Value::Date(d) => {
            put_u8(buf, VALUE_DATE);
            put_i32(buf, *d);
        }
    }
}

/// Decode a [`Value`].
pub fn get_value(r: &mut Reader<'_>) -> WireResult<Value> {
    match r.u8()? {
        VALUE_NULL => Ok(Value::Null),
        VALUE_BOOL => Ok(Value::Bool(r.bool()?)),
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_FLOAT => Ok(Value::Float(r.f64()?)),
        VALUE_STR => Ok(Value::Str(r.str()?)),
        VALUE_DATE => Ok(Value::Date(r.i32()?)),
        tag => Err(WireError::InvalidTag { what: "Value", tag }),
    }
}

/// Encode a tuple (`u32` arity + values).
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.len() as u32);
    for v in t {
        put_value(buf, v);
    }
}

/// Decode a tuple.
pub fn get_tuple(r: &mut Reader<'_>) -> WireResult<Tuple> {
    let n = r.seq_len(1)?;
    let mut t = Vec::with_capacity(n);
    for _ in 0..n {
        t.push(get_value(r)?);
    }
    Ok(t)
}

fn data_type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Integer => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Date => 3,
        DataType::Boolean => 4,
    }
}

fn data_type_from_tag(tag: u8) -> WireResult<DataType> {
    Ok(match tag {
        0 => DataType::Integer,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Date,
        4 => DataType::Boolean,
        tag => {
            return Err(WireError::InvalidTag {
                what: "DataType",
                tag,
            })
        }
    })
}

/// Encode a [`Schema`]: relation name + ordered `(name, type)` attributes.
/// Attribute ids are positional, exactly as [`Schema::add_attr`] assigns
/// them, so they are not transmitted.
pub fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_str(buf, schema.name());
    put_u32(buf, schema.arity() as u32);
    for attr in schema.attributes() {
        put_str(buf, &attr.name);
        put_u8(buf, data_type_tag(attr.data_type));
    }
}

/// Decode a [`Schema`].  Duplicate attribute names are rejected — the
/// in-memory invariant (names unique within a schema) must survive the wire.
pub fn get_schema(r: &mut Reader<'_>) -> WireResult<Schema> {
    let name = r.str()?;
    let arity = r.seq_len(5)?; // name length prefix (4) + type tag (1)
    let mut schema = Schema::new(name);
    for _ in 0..arity {
        let attr_name = r.str()?;
        let dt = data_type_from_tag(r.u8()?)?;
        schema
            .try_add_attr(attr_name, dt)
            .map_err(|_| WireError::Inconsistent("duplicate attribute name in schema"))?;
    }
    Ok(schema)
}

/// Encode a [`Relation`]: schema + row count + tuples.
pub fn put_relation(buf: &mut Vec<u8>, rel: &Relation) {
    put_schema(buf, rel.schema());
    put_u32(buf, rel.len() as u32);
    for t in rel.iter() {
        put_tuple(buf, &t);
    }
}

/// Decode a [`Relation`], re-validating every tuple's arity against the
/// schema (a mismatch is [`WireError::Inconsistent`], never a panic).
pub fn get_relation(r: &mut Reader<'_>) -> WireResult<Relation> {
    let schema = get_schema(r)?;
    let rows = r.seq_len(4)?; // a row is at least its arity prefix
    let tuples = (0..rows)
        .map(|_| get_tuple(r))
        .collect::<WireResult<Vec<Tuple>>>()?;
    Relation::from_rows(schema, tuples)
        .map_err(|_| WireError::Inconsistent("tuple arity disagrees with schema"))
}

/// Encode a [`Relation`] as a **columnar snapshot**: schema, row count, then
/// per attribute the sorted dictionary followed by the dense code column.
///
/// This is the distributed-worker startup format: a worker takes the
/// order-preserving encoding from one buffer, without re-sorting any column.
/// Values ride as their [`put_value`] bit patterns, so float cells (NaN
/// payloads included) round-trip bit-identically and
/// `encode ∘ decode ∘ encode` is byte-stable.
pub fn put_relation_snapshot(buf: &mut Vec<u8>, rel: &Relation) {
    let enc = rel.encoding();
    put_schema(buf, rel.schema());
    put_u32(buf, rel.len() as u32);
    for col in 0..enc.arity() {
        let dict = enc.dict(col);
        put_u32(buf, dict.len() as u32);
        for v in dict {
            put_value(buf, v);
        }
        for &code in enc.codes(col) {
            put_u32(buf, code);
        }
    }
}

/// Decode a columnar snapshot back into a [`Relation`] that carries the
/// snapshot's encoding directly — no column is re-sorted.  The encoding
/// invariants the discovery layers lean on are revalidated: every dictionary
/// must be strictly ascending in the [`Value`] order and every code must
/// index its dictionary.
pub fn get_relation_snapshot(r: &mut Reader<'_>) -> WireResult<Relation> {
    let schema = get_schema(r)?;
    let n_rows = r.u32()? as usize;
    let arity = schema.arity();
    if arity == 0 && n_rows > MAX_FRAME_LEN {
        // Zero-arity rows occupy no payload bytes, so the usual
        // "bytes-remaining" guards cannot bound the row count; cap it
        // explicitly.
        return Err(WireError::TooLarge {
            declared: n_rows,
            max: MAX_FRAME_LEN,
        });
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let dict_len = r.seq_len(1)?;
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            dict.push(get_value(r)?);
        }
        if !dict.windows(2).all(|w| w[0] < w[1]) {
            return Err(WireError::Inconsistent(
                "snapshot dictionary is not strictly sorted",
            ));
        }
        let needed = n_rows * std::mem::size_of::<u32>();
        if r.remaining() < needed {
            return Err(WireError::UnexpectedEof {
                needed,
                remaining: r.remaining(),
            });
        }
        let mut codes = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let code = r.u32()?;
            if code as usize >= dict.len() {
                return Err(WireError::Inconsistent(
                    "snapshot code exceeds its dictionary",
                ));
            }
            codes.push(code);
        }
        columns.push(EncodedColumn::from_parts(dict, codes));
    }
    let encoding = ColumnarEncoding::from_parts(columns, n_rows);
    Ok(Relation::from_encoding(schema, encoding))
}

/// Encode an [`AttrList`] (`u32` length + `u32` ids).
pub fn put_attr_list(buf: &mut Vec<u8>, list: &AttrList) {
    put_u32(buf, list.len() as u32);
    for id in list.iter() {
        put_u32(buf, id.0);
    }
}

/// Decode an [`AttrList`].
pub fn get_attr_list(r: &mut Reader<'_>) -> WireResult<AttrList> {
    let n = r.seq_len(4)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(AttrId(r.u32()?));
    }
    Ok(AttrList::new(ids))
}

/// Encode an [`AttrSet`] as its raw `u64` bitmask — contexts and candidate
/// sets cross the wire in eight bytes.
pub fn put_attr_set(buf: &mut Vec<u8>, set: &AttrSet) {
    put_u64(buf, set.mask());
}

/// Decode an [`AttrSet`] from its `u64` bitmask.  Every mask is a valid set,
/// so this cannot fail on content — only on truncation.
pub fn get_attr_set(r: &mut Reader<'_>) -> WireResult<AttrSet> {
    Ok(AttrSet::from_mask(r.u64()?))
}

/// Encode an [`OrderDependency`] (`lhs` list + `rhs` list).
pub fn put_od(buf: &mut Vec<u8>, od: &OrderDependency) {
    put_attr_list(buf, &od.lhs);
    put_attr_list(buf, &od.rhs);
}

/// Decode an [`OrderDependency`].
pub fn get_od(r: &mut Reader<'_>) -> WireResult<OrderDependency> {
    let lhs = get_attr_list(r)?;
    let rhs = get_attr_list(r)?;
    Ok(OrderDependency { lhs, rhs })
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame: `u32 LE` payload length followed by the payload, then
/// flush.  Payloads beyond `MAX_FRAME_LEN` are a programming error on the
/// sending side and reported as `InvalidInput` rather than truncated.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_unflushed(w, payload)?;
    w.flush()
}

/// [`write_frame`] without the flush, for a writer that batches several
/// frames into one flush.
pub fn write_frame_unflushed(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds MAX_FRAME_LEN",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame's payload, enforcing `max_len` *before* allocating.
///
/// Errors:
/// * a clean EOF **before any length byte** is `UnexpectedEof` mapped onto an
///   `io::Error` of kind `UnexpectedEof` with zero bytes read — callers
///   distinguish "peer closed between frames" (normal) from "peer died
///   mid-frame" (protocol violation) via [`read_frame_opt`];
/// * a declared length beyond `max_len` is an `InvalidData` error carrying a
///   [`WireError::TooLarge`] description.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> io::Result<Vec<u8>> {
    match read_frame_opt(r, max_len)? {
        Some(payload) => Ok(payload),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed between frames",
        )),
    }
}

/// [`read_frame`], returning `Ok(None)` on a clean close **between** frames
/// (EOF before the first length byte).  EOF anywhere inside a frame is still
/// an `UnexpectedEof` error: the peer vanished mid-message.
pub fn read_frame_opt(r: &mut impl Read, max_len: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::TooLarge {
                declared: len,
                max: max_len,
            }
            .to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &Value) {
        let mut buf = Vec::new();
        put_value(&mut buf, v);
        let mut r = Reader::new(&buf);
        let back = get_value(&mut r).unwrap();
        r.finish().unwrap();
        // Compare re-encodings, not values: Value::eq is numeric (Int(2) ==
        // Float(2.0)) and the wire must be strictly finer than that.
        let mut again = Vec::new();
        put_value(&mut again, &back);
        assert_eq!(buf, again, "re-encode differs for {v:?}");
    }

    #[test]
    fn values_roundtrip_bit_identically() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Str(String::new()),
            Value::Str("héllo — wire".into()),
            Value::Date(0),
            Value::Date(i32::MIN),
        ] {
            roundtrip_value(&v);
        }
    }

    #[test]
    fn relation_roundtrips() {
        let rel = crate::fixtures::example_5_taxes();
        let mut buf = Vec::new();
        put_relation(&mut buf, &rel);
        let mut r = Reader::new(&buf);
        let back = get_relation(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(rel, back);
        // And the empty relation.
        let empty = Relation::new(rel.schema().clone());
        let mut buf = Vec::new();
        put_relation(&mut buf, &empty);
        let mut r = Reader::new(&buf);
        assert_eq!(get_relation(&mut r).unwrap(), empty);
    }

    #[test]
    fn attr_set_is_eight_bytes() {
        let set = AttrSet::from_mask(u64::MAX);
        let mut buf = Vec::new();
        put_attr_set(&mut buf, &set);
        assert_eq!(buf.len(), 8);
        let mut r = Reader::new(&buf);
        assert_eq!(get_attr_set(&mut r).unwrap(), set);
    }

    #[test]
    fn truncated_inputs_error_never_panic() {
        let rel = crate::fixtures::example_5_taxes();
        let mut buf = Vec::new();
        put_relation(&mut buf, &rel);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let result = get_relation(&mut r);
            assert!(result.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn corrupt_counts_are_rejected_before_allocation() {
        // A tuple claiming u32::MAX values in a 4-byte payload.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(matches!(get_tuple(&mut r), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Int(7));
        buf.push(0xFF);
        let mut r = Reader::new(&buf);
        get_value(&mut r).unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { count: 1 }));
    }

    #[test]
    fn frames_roundtrip_and_enforce_caps() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"");
        assert!(read_frame_opt(&mut cursor, 1024).unwrap().is_none());

        // Oversized declared length fails without allocating.
        let mut bad = Vec::new();
        bad.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = io::Cursor::new(bad);
        let err = read_frame(&mut cursor, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // EOF inside the length prefix is a mid-frame close.
        let mut cursor = io::Cursor::new(vec![1u8, 0]);
        let err = read_frame_opt(&mut cursor, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn relation_snapshots_roundtrip_with_nulls_nans_and_empties() {
        let mut schema = Schema::new("snap");
        schema.add_attr("mixed");
        schema.add_attr("num");
        let rel = Relation::from_rows(
            schema.clone(),
            vec![
                vec![Value::Null, Value::Float(f64::NAN)],
                vec![Value::Str("b".into()), Value::Float(-0.0)],
                vec![Value::Str("a".into()), Value::Float(f64::NEG_INFINITY)],
                vec![Value::Str("a".into()), Value::Null],
            ],
        )
        .unwrap();
        let bytes = rel.to_bytes();
        let back = Relation::from_bytes(&bytes).unwrap();
        assert_eq!(back, rel);
        // Byte-stable re-encode: NaN bit patterns and NULL codes intact.
        assert_eq!(back.to_bytes(), bytes);
        // The NaN cell survives as the identical bit pattern.
        let nan = back.value(0, AttrId(1));
        match nan {
            Value::Float(f) => assert_eq!(f.to_bits(), f64::NAN.to_bits()),
            other => panic!("expected a float, got {other:?}"),
        }
        // Empty relation, zero-arity relation.
        for empty in [Relation::new(schema), Relation::new(Schema::new("no-cols"))] {
            let bytes = empty.to_bytes();
            assert_eq!(Relation::from_bytes(&bytes).unwrap(), empty);
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let mut schema = Schema::new("snap");
        schema.add_attr("c0");
        let rel = Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(2)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        )
        .unwrap();
        let good = rel.to_bytes();
        // Every truncation errors instead of panicking.
        for cut in 0..good.len() {
            assert!(Relation::from_bytes(&good[..cut]).is_err());
        }
        // Trailing bytes are an error.
        let mut padded = good.clone();
        padded.push(0);
        assert!(Relation::from_bytes(&padded).is_err());
        // A code pointing past its dictionary is Inconsistent: the final u32
        // of the payload is the last row's code.
        let mut bad_code = good.clone();
        let at = bad_code.len() - 4;
        bad_code[at..].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Relation::from_bytes(&bad_code),
            Err(WireError::Inconsistent(_))
        ));
        // An unsorted dictionary is rejected: build a snapshot by hand with
        // the two Int dict entries swapped.
        let mut swapped = Vec::new();
        let enc = rel.encoding();
        put_schema(&mut swapped, rel.schema());
        put_u32(&mut swapped, rel.len() as u32);
        put_u32(&mut swapped, 2);
        put_value(&mut swapped, &enc.dict(0)[1]);
        put_value(&mut swapped, &enc.dict(0)[0]);
        for &code in enc.codes(0) {
            put_u32(&mut swapped, code);
        }
        assert!(matches!(
            Relation::from_bytes(&swapped),
            Err(WireError::Inconsistent(_))
        ));
    }

    #[test]
    fn schema_rejects_duplicate_names() {
        let mut buf = Vec::new();
        put_str(&mut buf, "t");
        put_u32(&mut buf, 2);
        for _ in 0..2 {
            put_str(&mut buf, "same");
            put_u8(&mut buf, 0);
        }
        let mut r = Reader::new(&buf);
        assert!(matches!(
            get_schema(&mut r),
            Err(WireError::Inconsistent(_))
        ));
    }
}
