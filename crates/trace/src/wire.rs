//! Low-level wire primitives of the `.qtr` format: LEB128 varints, bit-packed
//! flag vectors, CRC-32 checksums and the tagged, checksummed block frame.
//!
//! A flag vector of `len` flags is stored LSB-first in `ceil(len / 8)` bytes:
//! flag `i` is bit `i % 8` of byte `i / 8`. Those are exactly the leading
//! little-endian bytes of the vector's packed `u64` words ([`leaky_sim::bits`]),
//! so the codec copies words to bytes and back without visiting single flags.
//!
//! Block payloads are assembled in memory by an [`Encoder`] and consumed by a
//! [`Decoder`]; the framing layer ([`write_block`] / [`read_block`]) streams
//! blocks over any `std::io::{Write, Read}`, so writers never need more memory
//! than the largest single block (one shot).

use std::fmt;
use std::io::{Read, Write};

use leaky_sim::{Bits, BitsMut};

/// Errors produced while encoding, decoding or framing trace data.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are structurally invalid (bad magic, CRC mismatch, truncated
    /// payload, out-of-range value). The message names the first violation.
    Corrupt(String),
}

impl TraceError {
    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        TraceError::Corrupt(message.into())
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Corrupt(message) => write!(f, "corrupt trace: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

// ---------------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`, as used by every `.qtr` block trailer.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------------
// Payload encoding / decoding
// ---------------------------------------------------------------------------------

/// Appends wire-encoded values to an in-memory block payload.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty payload.
    #[must_use]
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded payload bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends an LEB128 varint (7 value bits per byte, low bits first).
    pub fn put_varint(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7F) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `usize` as a varint.
    pub fn put_usize(&mut self, value: usize) {
        self.put_varint(value as u64);
    }

    /// Appends an `f64` as its 8 raw little-endian IEEE-754 bytes (bit-exact).
    pub fn put_f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// Appends a single boolean byte.
    pub fn put_bool(&mut self, value: bool) {
        self.buf.push(u8::from(value));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_usize(value.len());
        self.buf.extend_from_slice(value.as_bytes());
    }

    /// Appends a flag vector as the leading `ceil(len / 8)` little-endian bytes
    /// of its words. The length is *not* stored — the decoder must know it (it
    /// always does: flag vectors are sized by the code in the trace header).
    pub fn put_bits(&mut self, bits: Bits<'_>) {
        let bytes = bits.len().div_ceil(8);
        let (whole, rest) = (bytes / 8, bytes % 8);
        for word in &bits.words()[..whole] {
            self.buf.extend_from_slice(&word.to_le_bytes());
        }
        if rest > 0 {
            self.buf.extend_from_slice(&bits.words()[whole].to_le_bytes()[..rest]);
        }
    }

    /// Appends a length-prefixed index sequence (varint count, then one varint
    /// per index, order preserved verbatim).
    pub fn put_index_seq(&mut self, indices: &[usize]) {
        self.put_usize(indices.len());
        for &index in indices {
            self.put_usize(index);
        }
    }
}

/// Reads wire-encoded values back out of a block payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end =
            self.pos.checked_add(n).filter(|&end| end <= self.bytes.len()).ok_or_else(|| {
                TraceError::corrupt(format!("payload truncated at byte {}", self.pos))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    /// Fails on truncation or a varint longer than 10 bytes (> 64 bits).
    pub fn take_varint(&mut self) -> Result<u64, TraceError> {
        let mut value = 0u64;
        for shift in 0..10u32 {
            let byte = self.take(1)?[0];
            let bits = u64::from(byte & 0x7F);
            if shift == 9 && byte > 0x01 {
                return Err(TraceError::corrupt("varint exceeds 64 bits"));
            }
            value |= bits << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        unreachable!("loop returns within 10 iterations")
    }

    /// Reads a varint and narrows it to `usize`.
    ///
    /// # Errors
    /// Fails on truncation or a value that does not fit `usize`.
    pub fn take_usize(&mut self) -> Result<usize, TraceError> {
        usize::try_from(self.take_varint()?)
            .map_err(|_| TraceError::corrupt("varint does not fit usize"))
    }

    /// Reads a bit-exact `f64`.
    ///
    /// # Errors
    /// Fails on truncation.
    pub fn take_f64(&mut self) -> Result<f64, TraceError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take returned 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Reads one boolean byte.
    ///
    /// # Errors
    /// Fails on truncation or a byte other than 0/1.
    pub fn take_bool(&mut self) -> Result<bool, TraceError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(TraceError::corrupt(format!("invalid boolean byte {other:#x}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Fails on truncation or invalid UTF-8.
    pub fn take_str(&mut self) -> Result<String, TraceError> {
        let len = self.take_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceError::corrupt("string is not valid UTF-8"))
    }

    /// Reads the bytes of a `len`-flag vector (the inverse of
    /// [`Encoder::put_bits`]); [`PackedBits::unpack_into`] copies them into
    /// words.
    ///
    /// # Errors
    /// Fails on truncation or non-zero padding bits in the final byte.
    pub fn take_bits(&mut self, len: usize) -> Result<PackedBits<'a>, TraceError> {
        let bytes = self.take(len.div_ceil(8))?;
        if len % 8 != 0 {
            let padding = bytes[bytes.len() - 1] >> (len % 8);
            if padding != 0 {
                return Err(TraceError::corrupt("non-zero padding in bit-packed sequence"));
            }
        }
        Ok(PackedBits { bytes, len })
    }

    /// Reads a length-prefixed index sequence, checking each index < `bound`.
    ///
    /// # Errors
    /// Fails on truncation or an index at/above `bound`.
    pub fn take_index_seq(&mut self, bound: usize) -> Result<Vec<usize>, TraceError> {
        let len = self.take_usize()?;
        if len > bound {
            return Err(TraceError::corrupt(format!("index sequence longer than bound {bound}")));
        }
        (0..len)
            .map(|_| {
                let index = self.take_usize()?;
                if index >= bound {
                    return Err(TraceError::corrupt(format!("index {index} out of bound {bound}")));
                }
                Ok(index)
            })
            .collect()
    }

    /// `true` once every payload byte has been consumed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    /// Fails when trailing bytes remain.
    pub fn expect_finished(&self) -> Result<(), TraceError> {
        if self.finished() {
            Ok(())
        } else {
            Err(TraceError::corrupt(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// A flag vector as read from a payload: `ceil(len / 8)` bytes whose padding
/// bits are zero (see [`Decoder::take_bits`]).
#[derive(Debug, Clone, Copy)]
pub struct PackedBits<'a> {
    bytes: &'a [u8],
    len: usize,
}

impl PackedBits<'_> {
    /// Number of flags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-length vector.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the flags into `out`, eight bytes to a word.
    ///
    /// # Panics
    /// Panics when `out` holds a different number of flags.
    pub fn unpack_into(self, out: &mut BitsMut<'_>) {
        assert_eq!(out.len(), self.len, "unpacking flags into a vector of another length");
        for (word, chunk) in out.words_mut().iter_mut().zip(self.bytes.chunks(8)) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            *word = u64::from_le_bytes(le);
        }
    }
}

// ---------------------------------------------------------------------------------
// Block framing: tag byte + varint length + payload + CRC-32 trailer
// ---------------------------------------------------------------------------------

/// Upper bound on a single block payload (64 MiB) — a corruption guard so a
/// damaged length prefix cannot trigger an absurd allocation.
pub const MAX_BLOCK_LEN: usize = 64 << 20;

/// Capacity reserved for a block payload before any of it is read: a shot
/// block (a few hundred bytes) fits in one allocation, and a length prefix
/// that outruns its input cannot reserve more than this.
const BLOCK_PREALLOC: usize = 64 << 10;

fn write_varint_io<W: Write>(w: &mut W, mut value: u64) -> Result<(), TraceError> {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint_io<R: Read>(r: &mut R) -> Result<u64, TraceError> {
    let mut value = 0u64;
    for shift in 0..10u32 {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift == 9 && byte[0] > 0x01 {
            return Err(TraceError::corrupt("varint exceeds 64 bits"));
        }
        value |= u64::from(byte[0] & 0x7F) << (7 * shift);
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
    }
    unreachable!("loop returns within 10 iterations")
}

/// Writes one tagged block: `tag`, varint payload length, payload bytes, then
/// the payload's CRC-32 as 4 little-endian bytes.
///
/// # Errors
/// Propagates I/O failures of the underlying writer.
pub fn write_block<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<(), TraceError> {
    w.write_all(&[tag])?;
    write_varint_io(w, payload.len() as u64)?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Reads one tagged block and verifies its CRC, returning `(tag, payload)`.
/// A length prefix over `max_len` ([`MAX_BLOCK_LEN`] unless the caller knows
/// a tighter bound) is refused before any payload byte is read.
///
/// # Errors
/// Fails on I/O errors, truncation, a length prefix over `max_len`, or a CRC
/// mismatch.
pub fn read_block<R: Read>(r: &mut R, max_len: usize) -> Result<(u8, Vec<u8>), TraceError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let declared = read_varint_io(r)?;
    let len = usize::try_from(declared).ok().filter(|&len| len <= max_len).ok_or_else(|| {
        TraceError::corrupt(format!(
            "block {:#04x} declares {declared} payload bytes, over its limit of {max_len}",
            tag[0]
        ))
    })?;
    // The payload grows only as bytes arrive, so its allocation is bounded by
    // the input actually present, not by the declared length.
    let mut payload = Vec::with_capacity(len.min(BLOCK_PREALLOC));
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let expected = u32::from_le_bytes(crc_bytes);
    let actual = crc32(&payload);
    if actual != expected {
        return Err(TraceError::corrupt(format!(
            "CRC mismatch in block {:#04x}: stored {expected:#010x}, computed {actual:#010x}",
            tag[0]
        )));
    }
    Ok((tag[0], payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_sim::BitVec;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32(b"123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varints_round_trip_at_the_boundaries() {
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX];
        let mut enc = Encoder::new();
        for &v in &values {
            enc.put_varint(v);
        }
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        for &v in &values {
            assert_eq!(dec.take_varint().unwrap(), v);
        }
        assert!(dec.finished());
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 10 continuation bytes with a final byte carrying bits past 64.
        let bytes = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(Decoder::new(&bytes).take_varint().is_err());
    }

    #[test]
    fn bit_packing_round_trips_and_rejects_dirty_padding() {
        // 83 flags: one whole word and a part-filled second one, whose last
        // byte holds three flags and five padding bits.
        let bits: BitVec = (0..83).map(|i| i % 3 == 0).collect();
        let mut enc = Encoder::new();
        enc.put_bits(bits.as_bits());
        let mut bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 11);
        let mut decoded = BitVec::new(83);
        Decoder::new(&bytes).take_bits(83).unwrap().unpack_into(&mut decoded.as_bits_mut());
        assert_eq!(decoded, bits);
        // Flip a padding bit: decode must refuse.
        bytes[10] |= 0x80;
        assert!(Decoder::new(&bytes).take_bits(83).is_err());
    }

    #[test]
    fn strings_and_floats_round_trip_bit_exactly() {
        let mut enc = Encoder::new();
        enc.put_str("surface-d5 π");
        enc.put_f64(1e-3);
        enc.put_f64(-0.0);
        enc.put_bool(true);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_str().unwrap(), "surface-d5 π");
        assert_eq!(dec.take_f64().unwrap().to_bits(), 1e-3f64.to_bits());
        assert_eq!(dec.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.take_bool().unwrap());
        dec.expect_finished().unwrap();
    }

    #[test]
    fn index_sequences_preserve_order_and_enforce_bounds() {
        let mut enc = Encoder::new();
        enc.put_index_seq(&[4, 1, 3]);
        let bytes = enc.into_bytes();
        assert_eq!(Decoder::new(&bytes).take_index_seq(5).unwrap(), vec![4, 1, 3]);
        assert!(Decoder::new(&bytes).take_index_seq(4).is_err(), "index 4 out of bound 4");
    }

    #[test]
    fn blocks_round_trip_and_detect_corruption() {
        let mut file = Vec::new();
        write_block(&mut file, 0x02, b"payload bytes").unwrap();
        let (tag, payload) = read_block(&mut file.as_slice(), MAX_BLOCK_LEN).unwrap();
        assert_eq!(tag, 0x02);
        assert_eq!(payload, b"payload bytes");
        // Corrupt one payload byte: the CRC trailer must catch it.
        let mut damaged = file.clone();
        damaged[3] ^= 0x01;
        let err = read_block(&mut damaged.as_slice(), MAX_BLOCK_LEN).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        // Truncate: clean I/O error, not a panic.
        let truncated = &file[..file.len() - 2];
        assert!(read_block(&mut &truncated[..], MAX_BLOCK_LEN).is_err());
    }

    /// A reader over a byte slice that records the largest buffer it is
    /// asked to fill.
    struct RecordingReader<'a> {
        bytes: &'a [u8],
        largest_request: usize,
    }

    impl Read for RecordingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_request = self.largest_request.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_truncated_block_allocates_only_what_it_holds() {
        // 16 bytes in all, declaring the largest payload a block may carry.
        let mut shard = vec![0x02];
        write_varint_io(&mut shard, MAX_BLOCK_LEN as u64).unwrap();
        shard.resize(16, 0xAB);
        let mut reader = RecordingReader { bytes: &shard, largest_request: 0 };
        let err = read_block(&mut reader, MAX_BLOCK_LEN).unwrap_err();
        assert!(
            matches!(&err, TraceError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err}"
        );
        assert!(
            reader.largest_request <= BLOCK_PREALLOC,
            "asked to fill {} bytes for a 16-byte input",
            reader.largest_request
        );
    }
}
