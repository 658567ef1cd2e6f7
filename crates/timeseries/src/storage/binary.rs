//! Versioned, checksummed binary series format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      : [u8; 4] = b"PPMS"
//! version    : u32     = 1
//! n_names    : u32                     catalog size
//! names      : n_names * (u32 len, bytes)
//! n_instants : u64
//! n_features : u64                     total feature occurrences
//! offsets    : (n_instants + 1) * u64
//! features   : n_features * u32
//! checksum   : u64                     FNV-1a over everything above
//! ```
//!
//! The checksum catches truncation and bit rot; it is not cryptographic.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::catalog::{FeatureCatalog, FeatureId};
use crate::error::{Error, Result};
use crate::series::FeatureSeries;

const MAGIC: &[u8; 4] = b"PPMS";
const VERSION: u32 = 1;

/// Streaming FNV-1a, 64-bit: the checksum of `.ppms`, `.ppmstream` and
/// version-1 `.ppmc` files.
#[derive(Debug, Clone)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a, 64-bit, over `bytes` in one call — the storage checksum for
/// callers that hash small self-contained records (cache and checkpoint
/// lines).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Serializes a series (and its catalog) into a byte buffer.
pub fn encode_series(series: &FeatureSeries, catalog: &FeatureCatalog) -> Vec<u8> {
    let (offsets, features) = series.raw_parts();
    let mut buf = Vec::with_capacity(
        64 + catalog.iter().map(|(_, n)| n.len() + 4).sum::<usize>()
            + offsets.len() * 8
            + features.len() * 4,
    );
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
    for (_, name) in catalog.iter() {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    buf.extend_from_slice(&(series.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(features.len() as u64).to_le_bytes());
    for &o in offsets {
        buf.extend_from_slice(&(o as u64).to_le_bytes());
    }
    for &f in features {
        buf.extend_from_slice(&f.raw().to_le_bytes());
    }
    let mut h = Fnv64::new();
    h.update(&buf);
    buf.extend_from_slice(&h.finish().to_le_bytes());
    buf
}

/// A bounds-checked little-endian cursor over a byte slice (the tiny
/// subset of `bytes::Buf` this format needs).
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        head
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }
}

/// Deserializes a series (and its catalog) from a byte buffer produced by
/// [`encode_series`].
pub fn decode_series(bytes: &[u8]) -> Result<(FeatureSeries, FeatureCatalog)> {
    if bytes.len() < 4 + 4 + 4 + 8 + 8 + 8 {
        return Err(Error::Corrupt {
            detail: "file too short for header".into(),
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored_sum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let mut h = Fnv64::new();
    h.update(body);
    if h.finish() != stored_sum {
        return Err(Error::Corrupt {
            detail: "checksum mismatch".into(),
        });
    }

    let mut cur = Cursor(body);
    let magic: [u8; 4] = cur.take(4).try_into().expect("4 bytes");
    if &magic != MAGIC {
        return Err(Error::Corrupt {
            detail: format!("bad magic {magic:?}"),
        });
    }
    let version = cur.get_u32_le();
    if version != VERSION {
        return Err(Error::Corrupt {
            detail: format!("unsupported version {version}"),
        });
    }
    let n_names = cur.get_u32_le() as usize;
    let mut catalog = FeatureCatalog::new();
    for i in 0..n_names {
        if cur.remaining() < 4 {
            return Err(Error::Corrupt {
                detail: format!("truncated catalog at entry {i}"),
            });
        }
        let len = cur.get_u32_le() as usize;
        if cur.remaining() < len {
            return Err(Error::Corrupt {
                detail: format!("truncated name at entry {i}"),
            });
        }
        let name = std::str::from_utf8(cur.take(len))
            .map_err(|_| Error::Corrupt {
                detail: format!("non-utf8 name at entry {i}"),
            })?
            .to_owned();
        catalog.intern(&name);
    }

    if cur.remaining() < 16 {
        return Err(Error::Corrupt {
            detail: "truncated series header".into(),
        });
    }
    let n_instants = cur.get_u64_le() as usize;
    let n_features = cur.get_u64_le() as usize;
    let need = (n_instants + 1) * 8 + n_features * 4;
    if cur.remaining() != need {
        return Err(Error::Corrupt {
            detail: format!(
                "payload size mismatch: have {}, need {need}",
                cur.remaining()
            ),
        });
    }
    let mut offsets = Vec::with_capacity(n_instants + 1);
    for _ in 0..=n_instants {
        offsets.push(cur.get_u64_le() as usize);
    }
    let mut features = Vec::with_capacity(n_features);
    for _ in 0..n_features {
        features.push(FeatureId::from_raw(cur.get_u32_le()));
    }
    let series = FeatureSeries::from_raw_parts(offsets, features)?;
    Ok((series, catalog))
}

/// Writes a series (and its catalog) to `path`.
pub fn write_series(
    path: impl AsRef<Path>,
    series: &FeatureSeries,
    catalog: &FeatureCatalog,
) -> Result<()> {
    let bytes = encode_series(series, catalog);
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads a series (and its catalog) from `path`.
pub fn read_series(path: impl AsRef<Path>) -> Result<(FeatureSeries, FeatureCatalog)> {
    let mut r = BufReader::new(File::open(path)?);
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode_series(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesBuilder;

    fn sample() -> (FeatureSeries, FeatureCatalog) {
        let mut cat = FeatureCatalog::new();
        let a = cat.intern("alpha");
        let b = cat.intern("beta");
        let c = cat.intern("gamma");
        let mut builder = SeriesBuilder::new();
        builder.push_instant([a, c]);
        builder.push_instant([]);
        builder.push_instant([b]);
        builder.push_instant([a, b, c]);
        (builder.finish(), cat)
    }

    #[test]
    fn encode_decode_round_trip() {
        let (s, cat) = sample();
        let bytes = encode_series(&s, &cat);
        let (s2, cat2) = decode_series(&bytes).unwrap();
        assert_eq!(s, s2);
        assert_eq!(cat2.name(cat.get("alpha").unwrap()), Some("alpha"));
        assert_eq!(cat2.len(), 3);
    }

    #[test]
    fn empty_series_round_trips() {
        let s = FeatureSeries::empty();
        let cat = FeatureCatalog::new();
        let bytes = encode_series(&s, &cat);
        let (s2, cat2) = decode_series(&bytes).unwrap();
        assert_eq!(s2.len(), 0);
        assert_eq!(cat2.len(), 0);
    }

    #[test]
    fn detects_truncation() {
        let (s, cat) = sample();
        let bytes = encode_series(&s, &cat);
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(
                decode_series(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn detects_corruption() {
        let (s, cat) = sample();
        let bytes = encode_series(&s, &cat).to_vec();
        for idx in [0, 5, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0xff;
            assert!(decode_series(&bad).is_err(), "flip at {idx} accepted");
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let (s, cat) = sample();
        let mut bytes = encode_series(&s, &cat).to_vec();
        bytes[4] = 99; // version field
                       // Re-stamp the checksum so only the version check can fire.
        let body_len = bytes.len() - 8;
        let mut h = Fnv64::new();
        h.update(&bytes[..body_len]);
        let sum = h.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = decode_series(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn file_round_trip() {
        let (s, cat) = sample();
        let dir = std::env::temp_dir().join(format!("ppm-storage-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ppms");
        write_series(&path, &s, &cat).unwrap();
        let (s2, _cat2) = read_series(&path).unwrap();
        assert_eq!(s, s2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_series("/nonexistent/definitely/missing.ppms").unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}
