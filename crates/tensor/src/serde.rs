//! Versioned, dependency-free binary serialization.
//!
//! Trained DSSDDI parameter sets have to outlive the process that fitted
//! them: a service is trained once on the chronic cohort and then shipped to
//! serving hosts. This module is the byte-level substrate for that — a small
//! writer/reader pair plus one checked frame format, with no external
//! crates involved.
//!
//! ## Frame layout
//!
//! Every sealed artifact is a frame: the `DSSD` service container
//! (`dssddi-core`), the `DSKB` knowledge-base container (`dssddi-kb`) and the
//! `DSWR` wire frame (`dssddi-serving`) differ only in their magic bytes and
//! versions. [`seal_frame`] writes one and [`open_frame`] checks one.
//!
//! ```text
//! offset  size  field
//! 0       4     magic bytes, naming the format
//! 4       2     format version (little-endian u16)
//! 6       8     payload length in bytes (little-endian u64)
//! 14      n     payload
//! 14+n    4     CRC-32 (IEEE) of the payload (little-endian u32)
//! ```
//!
//! All integers are little-endian; `f32`/`f64` are stored as their IEEE-754
//! bit patterns, so values (including NaNs) round-trip bit-exactly. Reading
//! is fully bounds-checked: truncated, corrupted or version-mismatched input
//! produces a typed [`SerdeError`], never a panic, and no allocation is made
//! before the claimed element count has been checked against the bytes that
//! are actually present.

use std::path::Path;
use std::sync::OnceLock;

use crate::{Matrix, ParamId, ParamSet};

/// Errors produced while writing or reading serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SerdeError {
    /// A filesystem operation failed.
    Io {
        /// Description including the underlying error.
        what: String,
    },
    /// The input does not start with the magic bytes of the format the
    /// caller expects.
    BadMagic {
        /// The magic bytes of the expected format.
        expected: [u8; 4],
        /// The first four bytes of the input.
        found: [u8; 4],
    },
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
            SerdeError::BadMagic { expected, found } => write!(
                f,
                "bad magic bytes: expected \"{}\", found \"{}\"",
                expected.escape_ascii(),
                found.escape_ascii()
            ),
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

/// The IEEE 802.3 CRC-32 polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Bytes [`crc32`] folds per step, one lookup table each.
const CRC32_SLICES: usize = 16;

/// The slicing-by-16 tables, built on first use: entry `b` of table `k` is
/// the CRC register after byte `b` followed by `k` zero bytes, starting from
/// a zero register.
fn crc32_tables() -> &'static [[u32; 256]; CRC32_SLICES] {
    static TABLES: OnceLock<[[u32; 256]; CRC32_SLICES]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let one_byte: [u32; 256] = std::array::from_fn(|byte| {
            (0..8).fold(byte as u32, |crc, _| {
                (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg())
            })
        });
        let mut next = one_byte;
        std::array::from_fn(|_| {
            let table = next;
            next = table.map(|crc| (crc >> 8) ^ crc32_entry(&one_byte, crc as u8));
            table
        })
    })
}

/// Entry `byte` of a 256-entry table (a `u8` is always in range).
fn crc32_entry(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or_default()
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte slice.
///
/// Table-driven (slicing-by-16): each 16-byte block takes 16 table lookups
/// instead of 128 shift-and-mask steps, and the last 0–15 bytes go one at a
/// time through the one-byte table. Every input gives the value of the
/// bit-at-a-time definition, which the tests keep as the reference.
pub fn crc32(bytes: &[u8]) -> u32 {
    let tables = crc32_tables();
    let (blocks, tail) = bytes.as_chunks::<CRC32_SLICES>();
    let mut crc = !0u32;
    for block in blocks {
        // The register folds into the block's first four bytes; table
        // `15 - i` then carries byte `i` past the bytes that follow it.
        let word = u128::from_le_bytes(*block) ^ u128::from(crc);
        crc = word
            .to_le_bytes()
            .iter()
            .zip(tables.iter().rev())
            .fold(0, |acc, (&byte, table)| acc ^ crc32_entry(table, byte));
    }
    if let Some(one_byte) = tables.first() {
        for &byte in tail {
            crc = (crc >> 8) ^ crc32_entry(one_byte, crc as u8 ^ byte);
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
        let end = self.pos.checked_add(n);
        let slice = end
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or(SerdeError::Truncated { what })?;
        self.pos += n;
        Ok(slice)
    }

    /// Reads `N` bytes as an array — the fixed-width reads below.
    fn take_array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], SerdeError> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| SerdeError::Truncated { what })
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, SerdeError> {
        Ok(u8::from_le_bytes(self.take_array(what)?))
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self, what: &'static str) -> Result<u16, SerdeError> {
        Ok(u16::from_le_bytes(self.take_array(what)?))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, SerdeError> {
        Ok(u32::from_le_bytes(self.take_array(what)?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, SerdeError> {
        Ok(u64::from_le_bytes(self.take_array(what)?))
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
/// length (8).
pub const FRAME_HEADER_LEN: usize = 14;

/// Wraps a payload in a frame: `magic`, little-endian `version`, `u64`
/// payload length, payload, CRC-32 trailer.
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
/// the version it carries and its declared payload length.
///
/// Checks, in order: magic bytes, that the version is one of `supported`
/// (a version outside the set reports the highest supported one), and that
/// the declared length fits in `usize`. This is the streaming entry point:
/// a socket reader pulls the fixed-size header first, learns the payload
/// length from it, then reads exactly `length + 4` more bytes (payload plus
/// CRC) and hands the whole frame to [`open_frame`].
pub fn parse_frame_header(
    magic: [u8; 4],
    supported: &[u16],
    bytes: &[u8],
) -> Result<(u16, usize), SerdeError> {
    let mut r = ByteReader::new(bytes);
    let found = r.take_array("container magic")?;
    if found != magic {
        return Err(SerdeError::BadMagic {
            expected: magic,
            found,
        });
    }
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(SerdeError::Truncated {
            what: "container header",
        });
    }
    let version = r.take_u16("container header")?;
    if !supported.contains(&version) {
        return Err(SerdeError::UnsupportedVersion {
            found: version,
            supported: supported.iter().copied().max().unwrap_or(0),
        });
    }
    let declared = r.take_u64("container header")?;
    let declared = usize::try_from(declared).map_err(|_| SerdeError::Corrupt {
        what: format!("declared payload length {declared} does not fit in usize"),
    })?;
    Ok((version, declared))
}

/// Validates a complete frame sealed by [`seal_frame`] and returns the
/// version it carries and its payload slice.
///
/// Checks, in order: the header (via [`parse_frame_header`]), the declared
/// payload length against the actual byte count (truncated frames and
/// trailing bytes are rejected), and the CRC-32 trailer.
pub fn open_frame<'a>(
    magic: [u8; 4],
    supported: &[u16],
    bytes: &'a [u8],
) -> Result<(u16, &'a [u8]), SerdeError> {
    let (version, declared) = parse_frame_header(magic, supported, bytes)?;
    // The declared length is untrusted input: a near-usize::MAX value is
    // corrupt, not a payload-plus-CRC length that overflows.
    if declared.checked_add(4).is_none() {
        return Err(SerdeError::Corrupt {
            what: format!("declared payload length {declared} overflows"),
        });
    }
    let mut r = ByteReader::new(bytes.get(FRAME_HEADER_LEN..).unwrap_or_default());
    let payload = r.take(declared, "container payload")?;
    let stored = r.take_u32("container payload")?;
    if !r.is_exhausted() {
        return Err(SerdeError::Corrupt {
            what: format!(
                "container has {} trailing bytes after the checksum",
                r.remaining()
            ),
        });
    }
    let computed = crc32(payload);
    if stored != computed {
        return Err(SerdeError::ChecksumMismatch {
            expected: stored,
            found: computed,
        });
    }
    Ok((version, payload))
}

/// Writes `bytes` to `path` crash-safely: the bytes land in a temporary
/// sibling file first (same directory, so the rename never crosses a
/// filesystem), are synced to disk, and replace `path` in one atomic
/// `rename`, after which the directory entry is synced too (on Unix). A
/// writer killed at any instant, or a power loss, leaves either the
/// previous artifact (none, on a first save) or the new one — never a torn
/// container that would fail its CRC on the next load. The temporary name
/// carries the process id, so concurrent savers from different processes
/// cannot tear each other's staging file; last rename wins, each rename
/// installs a complete container.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), SerdeError> {
    use std::io::Write;

    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    // The data must be on disk before the rename is, or a power loss can
    // persist the new name over bytes that never arrived.
    let staged = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .map_err(|e| format!("writing {}: {e}", tmp.display()))
        .and_then(|()| {
            std::fs::rename(&tmp, path).map_err(|e| {
                format!(
                    "renaming {} into place as {}: {e}",
                    tmp.display(),
                    path.display()
                )
            })
        });
    if let Err(what) = staged {
        // Do not leave the staging file behind on failure.
        std::fs::remove_file(&tmp).ok();
        return Err(SerdeError::Io { what });
    }
    sync_parent_dir(path)
}

/// Syncs the directory holding `path`, so a rename into it survives a power
/// loss.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> Result<(), SerdeError> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(|e| SerdeError::Io {
            what: format!("syncing directory {}: {e}", dir.display()),
        })
}

/// Directories cannot be opened for syncing outside Unix.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> Result<(), SerdeError> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The bit-at-a-time CRC-32 that [`crc32`] replaced, kept as the
    /// reference the table-driven kernel must match on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
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

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        // Every length up to 256 at every start offset within a 16-byte
        // block: whole blocks, tails and both together, at every alignment.
        let buffer = seeded_bytes(256 + 16, 22);
        for offset in 0..16 {
            for len in 0..=256 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
        // A suggestion answer, a 16-request batch answer and a `chronic`
        // model container are about 1 KB, 32 KB and 70 KB.
        for (len, seed) in [(1 << 10, 1), (32 << 10, 32), (70 << 10, 70)] {
            let bytes = seeded_bytes(len, seed);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
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
        w.put_param_set(&params);
        w.put_param_id(b_id);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_matrix("m").unwrap(), m);
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

    /// Magic bytes of the frames these tests seal.
    const TEST_MAGIC: [u8; 4] = *b"TEST";

    fn open_test_frame(bytes: &[u8]) -> Result<&[u8], SerdeError> {
        open_frame(TEST_MAGIC, &[1], bytes).map(|(_, payload)| payload)
    }

    #[test]
    fn container_round_trip_and_validation() {
        let payload = b"the parameter bytes";
        let sealed = seal_frame(TEST_MAGIC, 1, payload);
        assert_eq!(open_test_frame(&sealed).unwrap(), payload);

        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            open_test_frame(&bad),
            Err(SerdeError::BadMagic {
                expected: TEST_MAGIC,
                found: *b"\xABEST",
            })
        );

        // Unsupported version.
        let mut bad = sealed.clone();
        bad[4] = 99;
        assert!(matches!(
            open_test_frame(&bad),
            Err(SerdeError::UnsupportedVersion { found: 99, .. })
        ));

        // Flipped payload byte -> checksum mismatch.
        let mut bad = sealed.clone();
        bad[15] ^= 0x01;
        assert!(matches!(
            open_test_frame(&bad),
            Err(SerdeError::ChecksumMismatch { .. })
        ));

        // Truncation anywhere -> error, never panic.
        for cut in 0..sealed.len() {
            assert!(open_test_frame(&sealed[..cut]).is_err(), "cut at {cut}");
        }

        // Trailing garbage is rejected.
        let mut bad = sealed.clone();
        bad.push(0);
        assert!(matches!(
            open_test_frame(&bad),
            Err(SerdeError::Corrupt { .. })
        ));

        // A near-usize::MAX declared length must not overflow the
        // `declared + 4` bound check.
        let mut bad = sealed.clone();
        bad[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            open_test_frame(&bad),
            Err(SerdeError::Corrupt { .. })
        ));
        let mut bad = sealed;
        bad[6..14].copy_from_slice(&(u64::MAX - 4).to_le_bytes());
        assert!(open_test_frame(&bad).is_err());
    }

    #[test]
    fn generic_frames_are_isolated_by_magic_and_version() {
        let framed = seal_frame(*b"DSWP", 3, b"payload");
        assert_eq!(
            open_frame(*b"DSWP", &[3], &framed).unwrap(),
            (3, b"payload".as_slice())
        );
        // A frame sealed under one magic does not open under another, and
        // the error names both.
        let other = seal_frame(TEST_MAGIC, 3, b"payload");
        let error = open_frame(*b"DSWP", &[3], &other).unwrap_err();
        assert_eq!(
            error,
            SerdeError::BadMagic {
                expected: *b"DSWP",
                found: TEST_MAGIC,
            }
        );
        assert_eq!(
            error.to_string(),
            "bad magic bytes: expected \"DSWP\", found \"TEST\""
        );
        // Unprintable magic bytes are escaped.
        let binary = seal_frame([0, 1, 0xFE, b'x'], 3, b"payload");
        assert_eq!(
            open_frame(*b"DSWP", &[3], &binary).unwrap_err().to_string(),
            r#"bad magic bytes: expected "DSWP", found "\x00\x01\xfex""#
        );
        // Same magic, different version: typed version mismatch.
        assert!(matches!(
            open_frame(*b"DSWP", &[4], &framed),
            Err(SerdeError::UnsupportedVersion {
                found: 3,
                supported: 4
            })
        ));
        // Streaming header parse recovers the declared payload length.
        assert_eq!(
            parse_frame_header(*b"DSWP", &[3], &framed[..FRAME_HEADER_LEN]).unwrap(),
            (3, b"payload".len())
        );
    }

    #[test]
    fn multi_version_frames_report_the_found_version() {
        let v3 = seal_frame(*b"DSWP", 3, b"payload");
        let v4 = seal_frame(*b"DSWP", 4, b"payload");
        // Either supported version opens, reporting which one was found.
        assert_eq!(
            open_frame(*b"DSWP", &[3, 4], &v3).unwrap(),
            (3, b"payload".as_slice())
        );
        assert_eq!(
            open_frame(*b"DSWP", &[3, 4], &v4).unwrap(),
            (4, b"payload".as_slice())
        );
        // A version outside the set reports the highest supported one.
        assert!(matches!(
            open_frame(*b"DSWP", &[3, 4], &seal_frame(*b"DSWP", 5, b"payload")),
            Err(SerdeError::UnsupportedVersion {
                found: 5,
                supported: 4
            })
        ));
        // The streaming header parse agrees with the whole-frame open.
        assert_eq!(
            parse_frame_header(*b"DSWP", &[3, 4], &v4[..FRAME_HEADER_LEN]).unwrap(),
            (4, b"payload".len())
        );
        // Corruption is still caught after the version gate.
        let mut torn = v3;
        if let Some(byte) = torn.get_mut(FRAME_HEADER_LEN) {
            *byte ^= 0xFF;
        }
        assert!(matches!(
            open_frame(*b"DSWP", &[3, 4], &torn),
            Err(SerdeError::ChecksumMismatch { .. })
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
        let load = || open_test_frame(&std::fs::read(&path).unwrap()).map(<[u8]>::to_vec);
        atomic_write(&path, &seal_frame(TEST_MAGIC, 1, b"old payload")).unwrap();

        // A save dies only in the window where bytes are on disk but the
        // rename has not happened: simulate every possible cut point of
        // the staged write and check the live artifact is untouched.
        let staged = seal_frame(TEST_MAGIC, 1, b"new payload");
        let tmp = format!("{}.tmp.{}", path.display(), std::process::id());
        for cut in 0..staged.len() {
            std::fs::write(&tmp, &staged[..cut]).unwrap();
            assert_eq!(
                load().unwrap(),
                b"old payload",
                "a dead writer (cut at byte {cut}) must leave the old artifact intact"
            );
        }
        // A later save succeeds despite the stale staging file.
        atomic_write(&path, &staged).unwrap();
        assert_eq!(load().unwrap(), b"new payload");

        // First-ever save dying pre-rename: no artifact.
        let fresh = dir.join("never-written.dssd");
        let fresh_tmp = format!("{}.tmp.{}", fresh.display(), std::process::id());
        std::fs::write(&fresh_tmp, &staged[..4]).unwrap();
        assert!(!fresh.exists());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp).ok();
        std::fs::remove_file(&fresh_tmp).ok();
    }
}
