//! Versioned, dependency-free binary serialization.
//!
//! Trained DSSDDI parameter sets have to outlive the process that fitted
//! them: a service is trained once on the chronic cohort and then shipped to
//! serving hosts. This module is the byte-level substrate for that — a small
//! writer/reader pair plus a checked container format, with no external
//! crates involved.
//!
//! ## Container layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic bytes MAGIC
//! 4       2     format version (little-endian u16), FORMAT_VERSION
//! 6       8     payload length in bytes (little-endian u64)
//! 14      n     payload
//! 14+n    4     CRC-32 (IEEE) of the payload (little-endian u32)
//! ```
//!
//! [`MAGIC`] and [`FORMAT_VERSION`] are the values a container carries.
//! All integers are little-endian; `f32`/`f64` are stored as their IEEE-754
//! bit patterns, so values (including NaNs) round-trip bit-exactly. Reading
//! is fully bounds-checked: truncated, corrupted or version-mismatched input
//! produces a typed [`SerdeError`], never a panic, and no allocation is made
//! before the claimed element count has been checked against the bytes that
//! are actually present.

use std::path::Path;

use crate::{Matrix, ParamId, ParamSet};

/// Magic bytes opening every container.
pub const MAGIC: [u8; 4] = *b"DSSD";

/// Current container format version.
pub const FORMAT_VERSION: u16 = 1;

/// Errors produced while writing or reading serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SerdeError {
    /// A filesystem operation failed.
    Io {
        /// Description including the underlying error.
        what: String,
    },
    /// The input does not start with the `DSSD` magic bytes.
    BadMagic,
    /// The container was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The input ended before a declared field was complete.
    Truncated {
        /// The field that could not be read.
        what: &'static str,
    },
    /// A declared value is inconsistent with the surrounding data.
    Corrupt {
        /// Description of the inconsistency.
        what: String,
    },
    /// The payload checksum does not match the stored one.
    ChecksumMismatch {
        /// Checksum stored in the container.
        expected: u32,
        /// Checksum computed over the payload.
        found: u32,
    },
}

impl std::fmt::Display for SerdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerdeError::Io { what } => write!(f, "i/o error: {what}"),
            SerdeError::BadMagic => write!(f, "not a DSSD container (bad magic bytes)"),
            SerdeError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads version {supported})"
            ),
            SerdeError::Truncated { what } => write!(f, "truncated input while reading {what}"),
            SerdeError::Corrupt { what } => write!(f, "corrupt input: {what}"),
            SerdeError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum mismatch: stored {expected:#010x}, computed {found:#010x}"
            ),
        }
    }
}

impl std::error::Error for SerdeError {}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Appends fields to a growing payload buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The payload written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer and returns the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed raw byte slice.
    pub fn put_u8_slice(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, values: &[f32]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_f32(v);
        }
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn put_usize_slice(&mut self, values: &[usize]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_usize(v);
        }
    }

    /// Writes a [`Matrix`]: shape followed by the row-major data.
    pub fn put_matrix(&mut self, m: &Matrix) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        for &v in m.data() {
            self.put_f32(v);
        }
    }

    /// Writes an optional [`Matrix`] behind a presence byte.
    pub fn put_opt_matrix(&mut self, m: Option<&Matrix>) {
        match m {
            Some(m) => {
                self.put_bool(true);
                self.put_matrix(m);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes a [`ParamSet`]: every parameter's registration name and value,
    /// in registration order (so [`ParamId`]s stay valid after reload).
    pub fn put_param_set(&mut self, params: &ParamSet) {
        self.put_usize(params.len());
        for (id, matrix) in params.iter() {
            self.put_str(params.name(id));
            self.put_matrix(matrix);
        }
    }

    /// Writes a [`ParamId`] as its registration index.
    pub fn put_param_id(&mut self, id: ParamId) {
        self.put_usize(id.0);
    }
}

/// Reads fields back out of a payload, with full bounds checking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SerdeError> {
        if self.remaining() < n {
            return Err(SerdeError::Truncated { what });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, SerdeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self, what: &'static str) -> Result<u16, SerdeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, SerdeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, SerdeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` written by [`ByteWriter::put_usize`].
    pub fn take_usize(&mut self, what: &'static str) -> Result<usize, SerdeError> {
        let v = self.take_u64(what)?;
        usize::try_from(v).map_err(|_| SerdeError::Corrupt {
            what: format!("{what}: value {v} does not fit in usize"),
        })
    }

    /// Reads a boolean byte (0 or 1; anything else is corrupt).
    pub fn take_bool(&mut self, what: &'static str) -> Result<bool, SerdeError> {
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SerdeError::Corrupt {
                what: format!("{what}: invalid boolean byte {other}"),
            }),
        }
    }

    /// Reads an `f32` bit pattern.
    pub fn take_f32(&mut self, what: &'static str) -> Result<f32, SerdeError> {
        Ok(f32::from_bits(self.take_u32(what)?))
    }

    /// Reads an `f64` bit pattern.
    pub fn take_f64(&mut self, what: &'static str) -> Result<f64, SerdeError> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Checks that a declared element count is backed by enough remaining
    /// bytes *before* any allocation happens, so a corrupt length cannot
    /// trigger a huge allocation.
    fn checked_len(
        &self,
        count: usize,
        elem_size: usize,
        what: &'static str,
    ) -> Result<usize, SerdeError> {
        let bytes = count.checked_mul(elem_size).ok_or(SerdeError::Corrupt {
            what: format!("{what}: element count {count} overflows"),
        })?;
        if bytes > self.remaining() {
            return Err(SerdeError::Truncated { what });
        }
        Ok(count)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self, what: &'static str) -> Result<String, SerdeError> {
        let len = self.take_usize(what)?;
        self.checked_len(len, 1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SerdeError::Corrupt {
            what: format!("{what}: string is not valid UTF-8"),
        })
    }

    /// Reads a length-prefixed raw byte slice written by
    /// [`ByteWriter::put_u8_slice`].
    pub fn take_u8_vec(&mut self, what: &'static str) -> Result<Vec<u8>, SerdeError> {
        let len = self.take_usize(what)?;
        self.checked_len(len, 1, what)?;
        Ok(self.take(len, what)?.to_vec())
    }

    /// Reads a length-prefixed `f32` slice.
    pub fn take_f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>, SerdeError> {
        let len = self.take_usize(what)?;
        self.checked_len(len, 4, what)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_f32(what)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `usize` slice.
    pub fn take_usize_vec(&mut self, what: &'static str) -> Result<Vec<usize>, SerdeError> {
        let len = self.take_usize(what)?;
        self.checked_len(len, 8, what)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_usize(what)?);
        }
        Ok(out)
    }

    /// Reads a [`Matrix`] written by [`ByteWriter::put_matrix`].
    pub fn take_matrix(&mut self, what: &'static str) -> Result<Matrix, SerdeError> {
        let rows = self.take_usize(what)?;
        let cols = self.take_usize(what)?;
        let len = rows.checked_mul(cols).ok_or(SerdeError::Corrupt {
            what: format!("{what}: matrix shape {rows}x{cols} overflows"),
        })?;
        self.checked_len(len, 4, what)?;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.take_f32(what)?);
        }
        Matrix::from_vec(rows, cols, data).map_err(|_| SerdeError::Corrupt {
            what: format!("{what}: matrix data does not match shape {rows}x{cols}"),
        })
    }

    /// Reads an optional [`Matrix`] written by [`ByteWriter::put_opt_matrix`].
    pub fn take_opt_matrix(&mut self, what: &'static str) -> Result<Option<Matrix>, SerdeError> {
        if self.take_bool(what)? {
            Ok(Some(self.take_matrix(what)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a [`ParamSet`] written by [`ByteWriter::put_param_set`].
    /// Parameters are re-registered in their original order, so previously
    /// serialized [`ParamId`]s remain valid against the returned set.
    pub fn take_param_set(&mut self, what: &'static str) -> Result<ParamSet, SerdeError> {
        let len = self.take_usize(what)?;
        // Each parameter carries at least a name length and a shape.
        self.checked_len(len, 24, what)?;
        let mut params = ParamSet::new();
        for _ in 0..len {
            let name = self.take_str(what)?;
            let matrix = self.take_matrix(what)?;
            params.add(name, matrix);
        }
        Ok(params)
    }

    /// Reads a [`ParamId`] and validates it against `params`.
    pub fn take_param_id(
        &mut self,
        params: &ParamSet,
        what: &'static str,
    ) -> Result<ParamId, SerdeError> {
        let idx = self.take_usize(what)?;
        if idx >= params.len() {
            return Err(SerdeError::Corrupt {
                what: format!(
                    "{what}: parameter index {idx} out of range (set has {})",
                    params.len()
                ),
            });
        }
        Ok(ParamId(idx))
    }
}

/// Byte length of a frame header: magic (4) + version (2) + payload
/// length (8). Every framed format built on this module — the `DSSD`
/// container and the serving wire protocol — shares this prefix shape.
pub const FRAME_HEADER_LEN: usize = 14;

/// Wraps a payload in a generic frame: `magic`, little-endian `version`,
/// `u64` payload length, payload, CRC-32 trailer. The `DSSD` container and
/// the serving wire protocol are both instances of this layout, differing
/// only in their magic bytes and version number.
pub fn seal_frame(magic: [u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN + 4);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Validates the leading [`FRAME_HEADER_LEN`] bytes of a frame and returns
/// the declared payload length.
///
/// Checks, in order: magic bytes, format version, and that the declared
/// length fits in `usize`. This is the streaming entry point: a socket
/// reader pulls the fixed-size header first, learns the payload length from
/// it, then reads exactly `length + 4` more bytes (payload plus CRC) and
/// hands the whole frame to [`open_frame`].
pub fn parse_frame_header(magic: [u8; 4], version: u16, bytes: &[u8]) -> Result<usize, SerdeError> {
    if bytes.len() < 4 {
        return Err(SerdeError::Truncated {
            what: "container magic",
        });
    }
    if bytes[..4] != magic {
        return Err(SerdeError::BadMagic);
    }
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(SerdeError::Truncated {
            what: "container header",
        });
    }
    let found = u16::from_le_bytes([bytes[4], bytes[5]]);
    if found != version {
        return Err(SerdeError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    let declared = u64::from_le_bytes([
        bytes[6], bytes[7], bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13],
    ]);
    usize::try_from(declared).map_err(|_| SerdeError::Corrupt {
        what: format!("declared payload length {declared} does not fit in usize"),
    })
}

/// Validates a complete frame sealed by [`seal_frame`] and returns its
/// payload slice.
///
/// Checks, in order: the header (via [`parse_frame_header`]), the declared
/// payload length against the actual byte count (trailing bytes are
/// rejected), and the CRC-32 trailer.
pub fn open_frame(magic: [u8; 4], version: u16, bytes: &[u8]) -> Result<&[u8], SerdeError> {
    let declared = parse_frame_header(magic, version, bytes)?;
    let body = &bytes[FRAME_HEADER_LEN..];
    // The declared length is untrusted input: checked arithmetic, so a
    // near-usize::MAX value cannot overflow `declared + 4`.
    let declared_with_crc = declared.checked_add(4).ok_or_else(|| SerdeError::Corrupt {
        what: format!("declared payload length {declared} overflows"),
    })?;
    if body.len() < declared_with_crc {
        return Err(SerdeError::Truncated {
            what: "container payload",
        });
    }
    if body.len() > declared_with_crc {
        return Err(SerdeError::Corrupt {
            what: format!(
                "container has {} trailing bytes after the checksum",
                body.len() - declared_with_crc
            ),
        });
    }
    let payload = &body[..declared];
    let stored = u32::from_le_bytes([
        body[declared],
        body[declared + 1],
        body[declared + 2],
        body[declared + 3],
    ]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(SerdeError::ChecksumMismatch {
            expected: stored,
            found: computed,
        });
    }
    Ok(payload)
}

/// Like [`parse_frame_header`] but accepting any of several `supported`
/// versions — the entry point for protocols that negotiate per-frame
/// (the serving wire protocol's traced frames). Returns the version the
/// frame actually carries plus its declared payload length; a version not
/// in `supported` reports the highest supported one in the error.
pub fn parse_frame_header_versions(
    magic: [u8; 4],
    supported: &[u16],
    bytes: &[u8],
) -> Result<(u16, usize), SerdeError> {
    if bytes.len() < 4 {
        return Err(SerdeError::Truncated {
            what: "container magic",
        });
    }
    if bytes.get(..4) != Some(magic.as_slice()) {
        return Err(SerdeError::BadMagic);
    }
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(SerdeError::Truncated {
            what: "container header",
        });
    }
    let mut version_bytes = [0u8; 2];
    if let Some(src) = bytes.get(4..6) {
        version_bytes.copy_from_slice(src);
    }
    let found = u16::from_le_bytes(version_bytes);
    if !supported.contains(&found) {
        return Err(SerdeError::UnsupportedVersion {
            found,
            supported: supported.iter().copied().max().unwrap_or(0),
        });
    }
    let mut len_bytes = [0u8; 8];
    if let Some(src) = bytes.get(6..FRAME_HEADER_LEN) {
        len_bytes.copy_from_slice(src);
    }
    let declared = u64::from_le_bytes(len_bytes);
    let declared = usize::try_from(declared).map_err(|_| SerdeError::Corrupt {
        what: format!("declared payload length {declared} does not fit in usize"),
    })?;
    Ok((found, declared))
}

/// Like [`open_frame`] but accepting any of several `supported` versions;
/// returns the version the frame carries alongside its payload slice.
pub fn open_frame_versions<'a>(
    magic: [u8; 4],
    supported: &[u16],
    bytes: &'a [u8],
) -> Result<(u16, &'a [u8]), SerdeError> {
    let (found, declared) = parse_frame_header_versions(magic, supported, bytes)?;
    let body = bytes.get(FRAME_HEADER_LEN..).unwrap_or(&[]);
    // The declared length is untrusted input: checked arithmetic, so a
    // near-usize::MAX value cannot overflow `declared + 4`.
    let declared_with_crc = declared.checked_add(4).ok_or_else(|| SerdeError::Corrupt {
        what: format!("declared payload length {declared} overflows"),
    })?;
    if body.len() < declared_with_crc {
        return Err(SerdeError::Truncated {
            what: "container payload",
        });
    }
    if body.len() > declared_with_crc {
        return Err(SerdeError::Corrupt {
            what: format!(
                "container has {} trailing bytes after the checksum",
                body.len() - declared_with_crc
            ),
        });
    }
    let payload = body.get(..declared).ok_or(SerdeError::Truncated {
        what: "container payload",
    })?;
    let mut crc_bytes = [0u8; 4];
    if let Some(src) = body.get(declared..declared_with_crc) {
        crc_bytes.copy_from_slice(src);
    }
    let stored = u32::from_le_bytes(crc_bytes);
    let computed = crc32(payload);
    if stored != computed {
        return Err(SerdeError::ChecksumMismatch {
            expected: stored,
            found: computed,
        });
    }
    Ok((found, payload))
}

/// Wraps a payload in the `DSSD` container: magic, version, length, payload,
/// CRC-32 trailer.
pub fn seal_container(payload: &[u8]) -> Vec<u8> {
    seal_frame(MAGIC, FORMAT_VERSION, payload)
}

/// Validates a `DSSD` container and returns its payload slice.
///
/// Checks, in order: magic bytes, format version, declared payload length
/// against the actual byte count, and the CRC-32 trailer.
pub fn open_container(bytes: &[u8]) -> Result<&[u8], SerdeError> {
    open_frame(MAGIC, FORMAT_VERSION, bytes)
}

/// Writes `bytes` to `path` crash-safely: the bytes land in a temporary
/// sibling file first (same directory, so the rename never crosses a
/// filesystem) and replace `path` in one atomic `rename`. A writer killed
/// at any instant leaves either the previous artifact intact or no
/// artifact at all — never a torn container that would fail its CRC on the
/// next load. The temporary name carries the process id, so concurrent
/// savers from different processes cannot tear each other's staging file;
/// last rename wins, each rename installs a complete container.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), SerdeError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| SerdeError::Io {
        what: format!("writing {}: {e}", tmp.display()),
    })?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Do not leave the staging file behind on failure.
            std::fs::remove_file(&tmp).ok();
            Err(SerdeError::Io {
                what: format!(
                    "renaming {} into place as {}: {e}",
                    tmp.display(),
                    path.display()
                ),
            })
        }
    }
}

/// Seals `payload` into a container and writes it to `path` via
/// [`atomic_write`]: a crash mid-save can never leave a torn container.
pub fn save_container(path: impl AsRef<Path>, payload: &[u8]) -> Result<(), SerdeError> {
    atomic_write(path, &seal_container(payload))
}

/// Reads a container from `path`, validates it and returns the payload.
pub fn load_container(path: impl AsRef<Path>) -> Result<Vec<u8>, SerdeError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SerdeError::Io {
        what: format!("reading {}: {e}", path.display()),
    })?;
    open_container(&bytes).map(<[u8]>::to_vec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalar_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_usize(42);
        w.put_bool(true);
        w.put_f32(-1.5);
        w.put_f64(std::f64::consts::PI);
        w.put_str("médicament");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8("a").unwrap(), 7);
        assert_eq!(r.take_u16("b").unwrap(), 513);
        assert_eq!(r.take_u32("c").unwrap(), 70_000);
        assert_eq!(r.take_u64("d").unwrap(), 1 << 40);
        assert_eq!(r.take_usize("e").unwrap(), 42);
        assert!(r.take_bool("f").unwrap());
        assert_eq!(r.take_f32("g").unwrap(), -1.5);
        assert_eq!(r.take_f64("h").unwrap(), std::f64::consts::PI);
        assert_eq!(r.take_str("i").unwrap(), "médicament");
        assert!(r.is_exhausted());
    }

    #[test]
    fn special_floats_round_trip_bit_exactly() {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::MIN];
        let mut w = ByteWriter::new();
        w.put_f32_slice(&specials);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.take_f32_vec("specials").unwrap();
        for (a, b) in specials.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matrix_and_param_set_round_trip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 / 7.0);
        let mut params = ParamSet::new();
        let w_id = params.add("layer.w", m.clone());
        let b_id = params.add("layer.b", Matrix::zeros(1, 5));

        let mut w = ByteWriter::new();
        w.put_matrix(&m);
        w.put_opt_matrix(None);
        w.put_opt_matrix(Some(&m));
        w.put_param_set(&params);
        w.put_param_id(b_id);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_matrix("m").unwrap(), m);
        assert_eq!(r.take_opt_matrix("none").unwrap(), None);
        assert_eq!(r.take_opt_matrix("some").unwrap(), Some(m.clone()));
        let restored = r.take_param_set("params").unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.name(w_id), "layer.w");
        assert_eq!(restored.get(w_id), &m);
        let restored_b = r.take_param_id(&restored, "b").unwrap();
        assert_eq!(restored_b, b_id);
    }

    #[test]
    fn truncated_reads_error_without_panic() {
        let mut w = ByteWriter::new();
        w.put_matrix(&Matrix::ones(4, 4));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.take_matrix("m").is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_usize(usize::MAX / 2); // claimed element count, no data behind it
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.take_f32_vec("huge"),
            Err(SerdeError::Truncated { .. }) | Err(SerdeError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_param_id_is_rejected() {
        let params = ParamSet::new();
        let mut w = ByteWriter::new();
        w.put_usize(3);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.take_param_id(&params, "id"),
            Err(SerdeError::Corrupt { .. })
        ));
    }

    #[test]
    fn container_round_trip_and_validation() {
        let payload = b"the parameter bytes";
        let sealed = seal_container(payload);
        assert_eq!(open_container(&sealed).unwrap(), payload);

        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(open_container(&bad), Err(SerdeError::BadMagic));

        // Unsupported version.
        let mut bad = sealed.clone();
        bad[4] = 99;
        assert!(matches!(
            open_container(&bad),
            Err(SerdeError::UnsupportedVersion { found: 99, .. })
        ));

        // Flipped payload byte -> checksum mismatch.
        let mut bad = sealed.clone();
        bad[15] ^= 0x01;
        assert!(matches!(
            open_container(&bad),
            Err(SerdeError::ChecksumMismatch { .. })
        ));

        // Truncation anywhere -> error, never panic.
        for cut in 0..sealed.len() {
            assert!(open_container(&sealed[..cut]).is_err(), "cut at {cut}");
        }

        // Trailing garbage is rejected.
        let mut bad = sealed.clone();
        bad.push(0);
        assert!(matches!(
            open_container(&bad),
            Err(SerdeError::Corrupt { .. })
        ));

        // A near-usize::MAX declared length must not overflow the
        // `declared + 4` bound check.
        let mut bad = sealed.clone();
        bad[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            open_container(&bad),
            Err(SerdeError::Corrupt { .. })
        ));
        let mut bad = sealed;
        bad[6..14].copy_from_slice(&(u64::MAX - 4).to_le_bytes());
        assert!(open_container(&bad).is_err());
    }

    #[test]
    fn generic_frames_are_isolated_by_magic_and_version() {
        let framed = seal_frame(*b"DSWP", 3, b"payload");
        assert_eq!(open_frame(*b"DSWP", 3, &framed).unwrap(), b"payload");
        // A frame sealed under one magic is not a container and vice versa.
        assert_eq!(
            open_frame(*b"DSWP", 3, &seal_container(b"payload")),
            Err(SerdeError::BadMagic)
        );
        assert_eq!(open_container(&framed), Err(SerdeError::BadMagic));
        // Same magic, different version: typed version mismatch.
        assert!(matches!(
            open_frame(*b"DSWP", 4, &framed),
            Err(SerdeError::UnsupportedVersion {
                found: 3,
                supported: 4
            })
        ));
        // Streaming header parse recovers the declared payload length.
        assert_eq!(
            parse_frame_header(*b"DSWP", 3, &framed[..FRAME_HEADER_LEN]).unwrap(),
            b"payload".len()
        );
    }

    #[test]
    fn multi_version_frames_report_the_found_version() {
        let v3 = seal_frame(*b"DSWP", 3, b"payload");
        let v4 = seal_frame(*b"DSWP", 4, b"payload");
        // Either supported version opens, reporting which one was found.
        assert_eq!(
            open_frame_versions(*b"DSWP", &[3, 4], &v3).unwrap(),
            (3, b"payload".as_slice())
        );
        assert_eq!(
            open_frame_versions(*b"DSWP", &[3, 4], &v4).unwrap(),
            (4, b"payload".as_slice())
        );
        // A version outside the set reports the highest supported one.
        assert!(matches!(
            open_frame_versions(*b"DSWP", &[3, 4], &seal_frame(*b"DSWP", 5, b"payload")),
            Err(SerdeError::UnsupportedVersion {
                found: 5,
                supported: 4
            })
        ));
        // The streaming header parse agrees with the whole-frame open.
        assert_eq!(
            parse_frame_header_versions(*b"DSWP", &[3, 4], &v4[..FRAME_HEADER_LEN]).unwrap(),
            (4, b"payload".len())
        );
        // Corruption is still caught after the version gate.
        let mut torn = v3;
        if let Some(byte) = torn.get_mut(FRAME_HEADER_LEN) {
            *byte ^= 0xFF;
        }
        assert!(matches!(
            open_frame_versions(*b"DSWP", &[3, 4], &torn),
            Err(SerdeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn save_and_load_container_round_trip() {
        let dir = std::env::temp_dir().join("dssddi-serde-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.dssd");
        save_container(&path, b"hello").unwrap();
        assert_eq!(load_container(&path).unwrap(), b"hello");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_container(dir.join("missing.dssd")),
            Err(SerdeError::Io { .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_staging_file() {
        let dir = std::env::temp_dir().join("dssddi-serde-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.bin");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let staging = dir
            .read_dir()
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("atomic.bin.tmp"))
            .count();
        assert_eq!(staging, 0, "staging files must not survive a save");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn killed_writer_never_leaves_a_torn_container() {
        let dir = std::env::temp_dir().join("dssddi-serde-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crash.dssd");
        save_container(&path, b"old payload").unwrap();

        // A save dies only in the window where bytes are on disk but the
        // rename has not happened: simulate every possible cut point of
        // the staged write and check the live artifact is untouched.
        let staged = seal_container(b"new payload");
        let tmp = format!("{}.tmp.{}", path.display(), std::process::id());
        for cut in 0..staged.len() {
            std::fs::write(&tmp, &staged[..cut]).unwrap();
            assert_eq!(
                load_container(&path).unwrap(),
                b"old payload",
                "a dead writer (cut at byte {cut}) must leave the old artifact intact"
            );
        }
        // A later save succeeds despite the stale staging file.
        save_container(&path, b"new payload").unwrap();
        assert_eq!(load_container(&path).unwrap(), b"new payload");

        // First-ever save dying pre-rename: no artifact, typed error.
        let fresh = dir.join("never-written.dssd");
        let fresh_tmp = format!("{}.tmp.{}", fresh.display(), std::process::id());
        std::fs::write(&fresh_tmp, &staged[..4]).unwrap();
        assert!(matches!(load_container(&fresh), Err(SerdeError::Io { .. })));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp).ok();
        std::fs::remove_file(&fresh_tmp).ok();
    }
}
