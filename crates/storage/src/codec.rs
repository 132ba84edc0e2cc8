//! Binary codec for everything `cerfix-storage` puts on disk.
//!
//! Hand-rolled little-endian encoding (the build is offline; no serde
//! backend). Every on-disk unit — a journal event, a snapshot body, an
//! audit record — is framed as `[len: u32][crc32: u32][payload]` where
//! the CRC covers the payload only, so a torn tail (partial header,
//! partial payload, or bit rot) is detected and cut at the last complete
//! frame instead of corrupting recovery.
//!
//! Decoding is strict: trailing bytes inside a frame, out-of-range tags
//! and truncated fields are all [`CodecError`]s, never panics — the
//! reader treats any of them as the torn tail of a crashed write.

use cerfix_relation::Value;
use std::fmt;

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

/// CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Table built on first use; 1 KiB, shared process-wide.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append-only byte writer with the primitive encoders.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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
                self.put_str(s);
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

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError("string is not UTF-8".into()))
    }

    /// One relational [`Value`].
    pub fn get_value(&mut self) -> Result<Value, CodecError> {
        Ok(match self.get_u8()? {
            0 => Value::Null,
            1 => Value::str(self.get_str()?),
            2 => Value::Int(self.get_u64()? as i64),
            3 => Value::Float(f64::from_bits(self.get_u64()?)),
            4 => Value::Bool(self.get_u8()? != 0),
            tag => return Err(CodecError(format!("unknown value tag {tag}"))),
        })
    }

    /// Length-prefixed list of values.
    pub fn get_values(&mut self) -> Result<Vec<Value>, CodecError> {
        let n = self.get_u32()? as usize;
        // Guard against a corrupt length asking for gigabytes.
        if n > self.remaining() {
            return Err(CodecError(format!("value list length {n} exceeds payload")));
        }
        (0..n).map(|_| self.get_value()).collect()
    }

    /// Length-prefixed list of `u32` ids.
    pub fn get_u32_list(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.get_u32()? as usize;
        if n * 4 > self.remaining() {
            return Err(CodecError(format!("id list length {n} exceeds payload")));
        }
        (0..n).map(|_| self.get_u32()).collect()
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

/// Try to read one frame at the start of `bytes`.
///
/// `Ok(Some((payload, frame_len)))` on a complete, checksummed frame;
/// `Ok(None)` when `bytes` is a truncated frame (a torn tail — caller
/// stops and truncates); `Err` when the header is intact but the CRC
/// fails (bit rot / overwritten region — also treated as the end of the
/// valid prefix by readers, but distinguishable for diagnostics).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX);
        enc.put_str("héllo");
        enc.put_u32_list(&[3, 1, 4, 1, 5]);
        let bytes = enc.into_bytes();
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
        let mut enc = Encoder::new();
        enc.put_values(&values);
        let bytes = enc.into_bytes();
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
        let mut enc = Encoder::new();
        enc.put_u32(1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        dec.get_u8().unwrap();
        assert!(dec.finish().is_err(), "3 bytes left over");
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_u64().is_err(), "not enough bytes");
        // Corrupt list length larger than the payload.
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX);
        let bytes = enc.into_bytes();
        assert!(Decoder::new(&bytes).get_values().is_err());
        assert!(Decoder::new(&bytes).get_u32_list().is_err());
    }
}
