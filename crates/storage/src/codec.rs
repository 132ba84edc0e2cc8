//! Binary codec for everything `cerfix-storage` puts on disk.
//!
//! Hand-rolled little-endian encoding (the build is offline; no serde
//! backend). Every on-disk unit — a journal event, a snapshot body, an
//! audit record — is framed as `[len: u32][crc32: u32][payload]` where
//! the CRC covers the payload only. A frame cut short is the torn tail
//! of a crashed write; a whole frame that fails its CRC or does not
//! decode is corruption (`walk_frames` draws that line for every file).
//!
//! Decoding is strict: trailing bytes inside a frame, out-of-range tags
//! and truncated fields are all [`CodecError`]s, never panics.

use crate::StorageError;
use cerfix_relation::Value;
use std::fmt;
use std::io::Read;
use std::path::Path;

/// Frame header size: payload length + CRC32, both `u32` LE.
pub const FRAME_HEADER: usize = 8;

/// A malformed or truncated on-disk payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// The CRC-32 polynomial (IEEE 802.3, reflected).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables, built at compile time (8 KiB): `CRC_TABLES[0]` is
/// the classic byte table, and `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so one step folds in eight bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`) over `bytes`,
/// eight bytes per step (slice-by-8), the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append-only byte writer with the primitive encoders. It continues
/// the buffer it is given — a frame payload is encoded straight into the
/// buffer the frame lives in ([`append_frame`]).
#[derive(Debug)]
pub struct Encoder<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Encoder<'a> {
    /// An encoder writing at the end of `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Encoder<'a> {
        Encoder { buf }
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// One relational [`Value`] (tag byte + payload).
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Str(s) => {
                self.put_u8(1);
                self.put_bytes(s.as_bytes());
            }
            Value::Int(i) => {
                self.put_u8(2);
                self.put_u64(*i as u64);
            }
            Value::Float(f) => {
                self.put_u8(3);
                self.put_u64(f.to_bits());
            }
            Value::Bool(b) => {
                self.put_u8(4);
                self.put_u8(*b as u8);
            }
        }
    }

    /// Length-prefixed list of values.
    pub fn put_values(&mut self, values: &[Value]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.put_value(v);
        }
    }

    /// Length-prefixed list of `u32` ids (attribute sets, session lists).
    pub fn put_u32_list(&mut self, ids: &[u32]) {
        self.put_u32(ids.len() as u32);
        for &id in ids {
            self.put_u32(id);
        }
    }
}

/// A value read in place by [`Decoder`].
enum Cell<'a> {
    Str(&'a str),
    Scalar(Value),
}

/// Bounds-checked reader over an encoded payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Error unless every byte was consumed (frames are exact-length).
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// One byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// `u32`, little-endian.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// `u64`, little-endian.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed UTF-8 string, borrowed from the payload.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError("string is not UTF-8".into()))
    }

    /// One value read in place: its tag and payload checked, a string
    /// left borrowed from the payload.
    fn cell(&mut self) -> Result<Cell<'a>, CodecError> {
        Ok(match self.get_u8()? {
            0 => Cell::Scalar(Value::Null),
            1 => Cell::Str(self.get_str()?),
            2 => Cell::Scalar(Value::Int(self.get_u64()? as i64)),
            3 => Cell::Scalar(Value::Float(f64::from_bits(self.get_u64()?))),
            4 => Cell::Scalar(Value::Bool(self.get_u8()? != 0)),
            tag => return Err(CodecError(format!("unknown value tag {tag}"))),
        })
    }

    /// One relational [`Value`]; a string is built straight from the
    /// payload bytes — in place if it fits a [`Text`](cerfix_relation::Text),
    /// else one allocation.
    pub fn get_value(&mut self) -> Result<Value, CodecError> {
        Ok(match self.cell()? {
            Cell::Str(s) => Value::str(s),
            Cell::Scalar(value) => value,
        })
    }

    /// Check one value as [`get_value`](Self::get_value) would read it —
    /// the same errors — without building it.
    pub(crate) fn skip_value(&mut self) -> Result<(), CodecError> {
        self.cell().map(drop)
    }

    /// The length prefix of a value list, bounded by the bytes left (a
    /// value is at least its tag byte): a corrupt length cannot ask for
    /// gigabytes.
    pub(crate) fn value_count(&mut self) -> Result<usize, CodecError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError(format!("value list length {n} exceeds payload")));
        }
        Ok(n)
    }

    /// Length-prefixed list of values, in a `Vec` sized from its prefix.
    pub fn get_values(&mut self) -> Result<Vec<Value>, CodecError> {
        let n = self.value_count()?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.get_value()?);
        }
        Ok(values)
    }

    /// Check a value list as [`get_values`](Self::get_values) would read
    /// it, without building it.
    pub(crate) fn skip_values(&mut self) -> Result<(), CodecError> {
        for _ in 0..self.value_count()? {
            self.skip_value()?;
        }
        Ok(())
    }

    /// Run `check` and return the bytes it consumed.
    pub(crate) fn spanned(
        &mut self,
        check: impl FnOnce(&mut Decoder<'a>) -> Result<(), CodecError>,
    ) -> Result<&'a [u8], CodecError> {
        let start = self.at;
        check(self)?;
        Ok(&self.bytes[start..self.at])
    }

    /// Length-prefixed list of `u32` ids.
    pub fn get_u32_list(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.get_u32()? as usize;
        if n * 4 > self.remaining() {
            return Err(CodecError(format!("id list length {n} exceeds payload")));
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(self.get_u32()?);
        }
        Ok(ids)
    }
}

/// The `[len][crc]` header that frames `payload`.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Wrap `payload` in a `[len][crc][payload]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
    out
}

/// Append one `[len][crc][payload]` frame to `buf` with the payload
/// written in place by `encode`: the header is reserved, the payload
/// encoded after it, then the length and CRC are patched in — the bytes
/// [`frame`] builds, without a payload `Vec` first. Returns the frame's
/// length.
pub fn append_frame(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Encoder<'_>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    encode(&mut Encoder::new(buf));
    let (header, payload) = buf[start..].split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    buf.len() - start
}

/// Try to read one frame at the start of `bytes`.
///
/// `Ok(Some((payload, frame_len)))` on a complete, checksummed frame;
/// `Ok(None)` when `bytes` is a truncated frame; `Err` when the header
/// is intact but the CRC fails. A file's frames are walked by
/// `walk_frames`; this reads one frame of a buffer already in memory.
pub fn read_frame(bytes: &[u8]) -> Result<Option<(&[u8], usize)>, CodecError> {
    if bytes.len() < FRAME_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let Some(payload) = bytes.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return Ok(None); // payload torn mid-write
    };
    if crc32(payload) != crc {
        return Err(CodecError("frame checksum mismatch".into()));
    }
    Ok(Some((payload, FRAME_HEADER + len)))
}

/// Where a `walk_frames` stopped: after `frames` verified frames, at
/// file offset `end`, the end of the valid prefix.
#[derive(Debug, Default)]
pub(crate) struct Walk {
    /// Frames that passed their CRC and that the caller decoded.
    pub(crate) frames: usize,
    /// Just past the last of them.
    pub(crate) end: u64,
    /// `Some` when the walk stopped at a whole frame, at `end`, that
    /// failed its CRC or did not decode; `None` when it stopped at the
    /// end of the file or at a torn tail, the bytes past `end`.
    pub(crate) corrupt: Option<StorageError>,
}

/// Walk the frames of `file` from offset `at` up to offset `len`,
/// reading them forward from `reader` (positioned at `at`), and hand
/// each verified payload, with its frame's offset, to `each` to decode.
///
/// The crate's one verdict on how a file ends: a frame that is not
/// whole before `len` is a torn tail, the legal residue of a crashed
/// append, which whoever opens the file for writing cuts; a whole frame
/// that fails its CRC, or that `each` rejects, is corruption, and the
/// walk stops there with the file untouched. One payload buffer is
/// reused, so a walk holds its largest frame, not the file.
pub(crate) fn walk_frames<E: fmt::Display>(
    file: &Path,
    mut reader: impl Read,
    mut at: u64,
    len: u64,
    mut each: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> std::io::Result<Walk> {
    let mut walk = Walk {
        end: at,
        ..Walk::default()
    };
    let (mut header, mut payload) = ([0u8; FRAME_HEADER], Vec::new());
    while at + FRAME_HEADER as u64 <= len {
        reader.read_exact(&mut header)?;
        let payload_len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let end = at + FRAME_HEADER as u64 + u64::from(payload_len);
        if end > len {
            break;
        }
        payload.resize(payload_len as usize, 0);
        reader.read_exact(&mut payload)?;
        let detail = if crc32(&payload) != crc {
            Some("frame checksum mismatch".to_string())
        } else {
            each(at, &payload)
                .err()
                .map(|e| format!("frame payload: {e}"))
        };
        if let Some(detail) = detail {
            walk.corrupt = Some(StorageError::corrupt(file, at, detail));
            break;
        }
        (walk.frames, walk.end, at) = (walk.frames + 1, end, end);
    }
    Ok(walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn encoded(encode: impl FnOnce(&mut Encoder<'_>)) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode(&mut Encoder::new(&mut bytes));
        bytes
    }

    /// The byte-at-a-time loop `crc32` replaced: the oracle it must
    /// agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// Slice-by-8 and the byte-wise loop agree on random inputs of every
    /// length from 0 to 4 100 bytes, starting at every alignment.
    #[test]
    fn crc32_slice_by_8_agrees_with_the_bytewise_loop() {
        let mut rng = StdRng::seed_from_u64(0x000C_8C32);
        let mut bytes = vec![0u8; 4100 + 8];
        for _ in 0..64 {
            for b in bytes.iter_mut() {
                *b = rng.gen_range(0..=255u8);
            }
            let len = rng.gen_range(0..=4100usize);
            for align in 0..8 {
                let slice = &bytes[align..align + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len} at +{align}");
            }
        }
        for len in 0..=64 {
            let slice = &bytes[3..3 + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len}");
        }
    }

    #[test]
    fn primitives_round_trip() {
        let bytes = encoded(|enc| {
            enc.put_u8(7);
            enc.put_u32(0xDEAD_BEEF);
            enc.put_u64(u64::MAX);
            enc.put_str("héllo");
            enc.put_u32_list(&[3, 1, 4, 1, 5]);
        });
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_str().unwrap(), "héllo");
        assert_eq!(dec.get_u32_list().unwrap(), vec![3, 1, 4, 1, 5]);
        dec.finish().unwrap();
    }

    #[test]
    fn values_round_trip() {
        let values = vec![
            Value::Null,
            Value::str("Edi"),
            Value::str(""),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Bool(true),
        ];
        let bytes = encoded(|enc| enc.put_values(&values));
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_values().unwrap(), values);
        dec.finish().unwrap();
    }

    #[test]
    fn frames_detect_torn_and_corrupt_tails() {
        let framed = frame(b"payload");
        let (payload, len) = read_frame(&framed).unwrap().unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(len, framed.len());
        // Every strict prefix is a torn tail, not an error.
        for cut in 0..framed.len() {
            assert_eq!(read_frame(&framed[..cut]).unwrap(), None, "cut at {cut}");
        }
        // A flipped payload bit is a checksum error.
        let mut corrupt = framed.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        assert!(read_frame(&corrupt).is_err());
    }

    #[test]
    fn decoder_rejects_trailing_and_truncated() {
        let bytes = encoded(|enc| enc.put_u32(1));
        let mut dec = Decoder::new(&bytes);
        dec.get_u8().unwrap();
        assert!(dec.finish().is_err(), "3 bytes left over");
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_u64().is_err(), "not enough bytes");
        // Corrupt list length larger than the payload.
        let bytes = encoded(|enc| enc.put_u32(u32::MAX));
        assert!(Decoder::new(&bytes).get_values().is_err());
        assert!(Decoder::new(&bytes).get_u32_list().is_err());
    }
}
