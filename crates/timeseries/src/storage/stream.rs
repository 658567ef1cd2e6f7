//! Streaming (record-oriented) series format and its disk scan source.
//!
//! The block format of [`super::binary`] stores all offsets, then all
//! features — ideal for loading whole, useless for streaming. This format
//! (`.ppmstream`, magic `PPMS2`) writes one self-delimiting record per
//! instant so a scan is a single buffered forward read:
//!
//! ```text
//! magic      : [u8; 5] = b"PPMS2"
//! version    : u32     = 1
//! n_names    : u32                      catalog
//! names      : n_names * (u32 len, bytes)
//! records    : per instant: u16 count, count * u32 feature ids
//! trailer    : u8 = 0xFF marker, u64 n_instants, u64 FNV-1a of records
//! ```
//!
//! A `count` of `u16::MAX` is the trailer sentinel (a real instant holds at
//! most `u16::MAX − 1` features, enforced at write time).
//!
//! Integrity: every full pass — [`FileSource::open`], every
//! [`SeriesSource::scan`], and [`FileSource::materialize`] — recomputes the
//! running FNV-1a checksum and verifies it against the trailer, reporting
//! [`Error::Corrupt`] on mismatch and the typed [`Error::Truncated`] when
//! the file ends mid-record. [`salvage_series`] recovers the valid record
//! prefix of a truncated file.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::catalog::{FeatureCatalog, FeatureId};
use crate::error::{Error, Result};
use crate::series::FeatureSeries;
use crate::source::SeriesSource;
use crate::storage::binary::Fnv64;

const MAGIC: &[u8; 5] = b"PPMS2";
const VERSION: u32 = 1;
const TRAILER_SENTINEL: u16 = u16::MAX;

/// Incremental writer for the streaming format.
pub struct StreamWriter {
    out: BufWriter<File>,
    hash: Fnv64,
    instants: u64,
}

impl StreamWriter {
    /// Creates `path` and writes the header with `catalog`.
    pub fn create(path: impl AsRef<Path>, catalog: &FeatureCatalog) -> Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&(catalog.len() as u32).to_le_bytes())?;
        for (_, name) in catalog.iter() {
            out.write_all(&(name.len() as u32).to_le_bytes())?;
            out.write_all(name.as_bytes())?;
        }
        Ok(StreamWriter {
            out,
            hash: Fnv64::new(),
            instants: 0,
        })
    }

    /// Appends one instant. Features may arrive unsorted; they are written
    /// sorted and deduplicated.
    pub fn write_instant(&mut self, features: &[FeatureId]) -> Result<()> {
        let mut sorted: Vec<u32> = features.iter().map(|f| f.raw()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() >= TRAILER_SENTINEL as usize {
            return Err(Error::Corrupt {
                detail: format!(
                    "instant with {} features exceeds format limit",
                    sorted.len()
                ),
            });
        }
        let count = (sorted.len() as u16).to_le_bytes();
        self.out.write_all(&count)?;
        self.hash.update(&count);
        for raw in sorted {
            let bytes = raw.to_le_bytes();
            self.out.write_all(&bytes)?;
            self.hash.update(&bytes);
        }
        self.instants += 1;
        Ok(())
    }

    /// Writes a whole series and finishes the file.
    pub fn write_series(mut self, series: &FeatureSeries) -> Result<()> {
        for instant in series.iter() {
            self.write_instant(instant)?;
        }
        self.finish()
    }

    /// Writes the trailer and flushes.
    pub fn finish(mut self) -> Result<()> {
        self.out.write_all(&TRAILER_SENTINEL.to_le_bytes())?;
        self.out.write_all(&[0xFFu8][..1])?; // marker byte inside trailer
        self.out.write_all(&self.instants.to_le_bytes())?;
        self.out.write_all(&self.hash.finish().to_le_bytes())?;
        self.out.flush()?;
        Ok(())
    }
}

/// A disk-backed [`SeriesSource`]: every [`SeriesSource::scan`] re-opens
/// the file and streams it front to back, so the number of physical passes
/// over the data equals `scans_performed()` — exactly the paper's cost
/// model for disk-resident series.
#[derive(Debug)]
pub struct FileSource {
    path: PathBuf,
    catalog: FeatureCatalog,
    instants: u64,
    scans: usize,
}

impl FileSource {
    /// Opens `path`, reading the header and trailer metadata (one pass to
    /// locate and verify the trailer).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut source = FileSource {
            path,
            catalog: FeatureCatalog::new(),
            instants: 0,
            scans: 0,
        };
        // Validation pass: parse header + all records + trailer.
        let (catalog, instants) = source.verify()?;
        source.catalog = catalog;
        source.instants = instants;
        Ok(source)
    }

    /// The embedded catalog.
    pub fn catalog(&self) -> &FeatureCatalog {
        &self.catalog
    }

    /// One full integrity pass: returns (catalog, instant count) or a
    /// corruption error.
    fn verify(&self) -> Result<(FeatureCatalog, u64)> {
        let mut reader = RecordReader::open(&self.path)?;
        let mut n = 0u64;
        let mut buf = Vec::new();
        while reader.next_instant(&mut buf)?.is_some() {
            n += 1;
        }
        let (stated, ok, catalog) = reader.finish()?;
        if !ok {
            return Err(Error::Corrupt {
                detail: "record checksum mismatch".into(),
            });
        }
        if stated != n {
            return Err(Error::Corrupt {
                detail: format!("trailer states {stated} instants, read {n}"),
            });
        }
        Ok((catalog, n))
    }

    /// Loads the whole file into an in-memory [`FeatureSeries`], verifying
    /// the trailer checksum like any other full pass.
    pub fn materialize(&self) -> Result<FeatureSeries> {
        let mut reader = RecordReader::open(&self.path)?;
        let mut builder = crate::series::SeriesBuilder::new();
        let mut buf = Vec::new();
        while reader.next_instant(&mut buf)?.is_some() {
            builder.push_instant(buf.iter().copied());
        }
        let (_, ok, _) = reader.finish()?;
        if !ok {
            return Err(Error::Corrupt {
                detail: "record checksum mismatch".into(),
            });
        }
        Ok(builder.finish())
    }
}

/// What [`salvage_series`] managed to recover from a damaged stream file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Complete records recovered (a prefix of the original series).
    pub recovered_instants: usize,
    /// `true` when the file was actually intact: trailer present, checksum
    /// verified, stated count matching. A clean salvage is a plain read.
    pub clean: bool,
    /// Description of the damage when `clean` is `false`.
    pub detail: String,
}

/// Best-effort recovery of a damaged `.ppmstream` file: reads the valid
/// prefix of complete records and stops at the first sign of damage instead
/// of failing.
///
/// The header (magic, version, catalog) must parse — without it there is
/// no catalog to interpret records against, so header damage is still a
/// hard error. Past the header:
///
/// * truncation mid-record → every complete record before the cut is kept;
/// * a missing or damaged trailer → records are kept, flagged not-clean;
/// * a checksum mismatch → records are returned but flagged, because a bit
///   flip *within* the recovered range cannot be localized.
pub fn salvage_series(
    path: impl AsRef<Path>,
) -> Result<(FeatureSeries, FeatureCatalog, SalvageReport)> {
    let mut reader = RecordReader::open(path.as_ref())?;
    let catalog = reader.catalog.clone();
    let mut builder = crate::series::SeriesBuilder::new();
    let mut buf = Vec::new();
    let mut n = 0usize;
    let damage: Option<String> = loop {
        match reader.next_instant(&mut buf) {
            Ok(Some(())) => {
                builder.push_instant(buf.iter().copied());
                n += 1;
            }
            Ok(None) => break None,
            Err(e) => break Some(e.to_string()),
        }
    };
    let report = match damage {
        Some(detail) => SalvageReport {
            recovered_instants: n,
            clean: false,
            detail,
        },
        None => match reader.finish() {
            Ok((stated, true, _)) if stated == n as u64 => SalvageReport {
                recovered_instants: n,
                clean: true,
                detail: String::new(),
            },
            Ok((stated, ok, _)) => SalvageReport {
                recovered_instants: n,
                clean: false,
                detail: if ok {
                    format!("trailer states {stated} instants, read {n}")
                } else {
                    "record checksum mismatch".into()
                },
            },
            Err(e) => SalvageReport {
                recovered_instants: n,
                clean: false,
                detail: e.to_string(),
            },
        },
    };
    Ok((builder.finish(), catalog, report))
}

impl SeriesSource for FileSource {
    fn instant_count(&self) -> usize {
        self.instants as usize
    }

    /// One full pass. The running FNV-1a checksum is re-verified against
    /// the trailer on *every* scan — not just at open — so corruption that
    /// appears while a multi-scan mine is in flight (a concurrent writer, a
    /// failing disk) surfaces as [`Error::Corrupt`] instead of silently
    /// skewing counts.
    fn scan(&mut self, visit: &mut dyn FnMut(usize, &[FeatureId])) -> Result<()> {
        let _span = ppm_observe::span("storage.scan");
        self.scans += 1;
        let mut reader = RecordReader::open(&self.path)?;
        let mut buf = Vec::new();
        let mut t = 0usize;
        while reader.next_instant(&mut buf)?.is_some() {
            visit(t, &buf);
            t += 1;
        }
        let (stated, ok, _) = reader.finish()?;
        if !ok {
            return Err(Error::Corrupt {
                detail: format!("record checksum mismatch on scan {}", self.scans),
            });
        }
        if stated != t as u64 {
            return Err(Error::Corrupt {
                detail: format!("trailer states {stated} instants, scan read {t}"),
            });
        }
        Ok(())
    }

    fn scans_performed(&self) -> usize {
        self.scans
    }
}

/// Low-level record cursor over an open stream file.
struct RecordReader {
    input: BufReader<File>,
    catalog: FeatureCatalog,
    hash: Fnv64,
    done: bool,
}

impl RecordReader {
    fn open(path: &Path) -> Result<Self> {
        let mut input = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 5];
        read_exact_or(&mut input, &mut magic, "magic")?;
        if &magic != MAGIC {
            return Err(Error::Corrupt {
                detail: format!("bad magic {magic:?}"),
            });
        }
        let version = read_u32(&mut input, "version")?;
        if version != VERSION {
            return Err(Error::Corrupt {
                detail: format!("unsupported version {version}"),
            });
        }
        let n_names = read_u32(&mut input, "catalog size")? as usize;
        let mut catalog = FeatureCatalog::new();
        for i in 0..n_names {
            let len = read_u32(&mut input, "name length")? as usize;
            if len > 1 << 20 {
                return Err(Error::Corrupt {
                    detail: format!("name {i} too long ({len})"),
                });
            }
            let mut bytes = vec![0u8; len];
            read_exact_or(&mut input, &mut bytes, "catalog name")?;
            let name = String::from_utf8(bytes).map_err(|_| Error::Corrupt {
                detail: format!("non-utf8 name {i}"),
            })?;
            catalog.intern(&name);
        }
        Ok(RecordReader {
            input,
            catalog,
            hash: Fnv64::new(),
            done: false,
        })
    }

    /// Reads the next instant into `buf`; `None` at the trailer.
    fn next_instant(&mut self, buf: &mut Vec<FeatureId>) -> Result<Option<()>> {
        if self.done {
            return Ok(None);
        }
        let mut count_bytes = [0u8; 2];
        read_exact_or(&mut self.input, &mut count_bytes, "record count")?;
        let count = u16::from_le_bytes(count_bytes);
        if count == TRAILER_SENTINEL {
            self.done = true;
            return Ok(None);
        }
        self.hash.update(&count_bytes);
        buf.clear();
        for _ in 0..count {
            let mut raw = [0u8; 4];
            read_exact_or(&mut self.input, &mut raw, "record body")?;
            self.hash.update(&raw);
            buf.push(FeatureId::from_raw(u32::from_le_bytes(raw)));
        }
        Ok(Some(()))
    }

    /// Consumes the trailer after the sentinel; returns (stated instant
    /// count, checksum ok, embedded catalog).
    fn finish(mut self) -> Result<(u64, bool, FeatureCatalog)> {
        debug_assert!(self.done, "finish before trailer");
        let mut marker = [0u8; 1];
        read_exact_or(&mut self.input, &mut marker, "trailer marker")?;
        if marker[0] != 0xFF {
            return Err(Error::Corrupt {
                detail: "bad trailer marker".into(),
            });
        }
        let mut n = [0u8; 8];
        read_exact_or(&mut self.input, &mut n, "trailer instant count")?;
        let mut sum = [0u8; 8];
        read_exact_or(&mut self.input, &mut sum, "trailer checksum")?;
        Ok((
            u64::from_le_bytes(n),
            u64::from_le_bytes(sum) == self.hash.finish(),
            self.catalog,
        ))
    }
}

/// `read_exact` with the end-of-file case reported as the typed
/// [`Error::Truncated`] (everything before the cut is intact) instead of a
/// generic I/O error.
fn read_exact_or(input: &mut impl Read, buf: &mut [u8], what: &str) -> Result<()> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Error::Truncated {
                detail: format!("file ends mid-{what}"),
            }
        } else {
            Error::Io(e)
        }
    })
}

fn read_u32(input: &mut impl Read, what: &str) -> Result<u32> {
    let mut b = [0u8; 4];
    read_exact_or(input, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesBuilder;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn temp(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "ppm-stream-{}-{tag}-{}.ppmstream",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    }

    fn sample() -> (FeatureSeries, FeatureCatalog) {
        let mut cat = FeatureCatalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let mut builder = SeriesBuilder::new();
        builder.push_instant([a, b]);
        builder.push_instant([]);
        builder.push_instant([b]);
        builder.push_instant([a]);
        (builder.finish(), cat)
    }

    #[test]
    fn write_then_stream_round_trips() {
        let (series, cat) = sample();
        let path = temp("roundtrip");
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&series)
            .unwrap();
        let src = FileSource::open(&path).unwrap();
        assert_eq!(src.instant_count(), 4);
        assert_eq!(src.catalog().len(), 2);
        assert_eq!(src.materialize().unwrap(), series);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_visits_in_order_and_counts() {
        let (series, cat) = sample();
        let path = temp("scan");
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&series)
            .unwrap();
        let mut src = FileSource::open(&path).unwrap();
        let mut seen = Vec::new();
        src.scan(&mut |t, feats| seen.push((t, feats.len())))
            .unwrap();
        assert_eq!(seen, vec![(0, 2), (1, 0), (2, 1), (3, 1)]);
        src.scan(&mut |_, _| {}).unwrap();
        assert_eq!(src.scans_performed(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn writer_sorts_and_dedups() {
        let path = temp("sort");
        let cat = FeatureCatalog::new();
        let mut w = StreamWriter::create(&path, &cat).unwrap();
        w.write_instant(&[fid(5), fid(1), fid(5)]).unwrap();
        w.finish().unwrap();
        let src = FileSource::open(&path).unwrap();
        let series = src.materialize().unwrap();
        assert_eq!(series.instant(0), &[fid(1), fid(5)]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn detects_truncation_and_corruption() {
        let (series, cat) = sample();
        let path = temp("corrupt");
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&series)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncations.
        for cut in [3usize, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(FileSource::open(&path).is_err(), "cut {cut} accepted");
        }
        // Bit flip in a record (after the header): find a record byte.
        let mut bad = bytes.clone();
        let flip = bytes.len() - 20; // inside records/trailer region
        bad[flip] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(FileSource::open(&path).is_err(), "bit flip accepted");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_series_streams() {
        let path = temp("empty");
        let cat = FeatureCatalog::new();
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&FeatureSeries::empty())
            .unwrap();
        let mut src = FileSource::open(&path).unwrap();
        assert_eq!(src.instant_count(), 0);
        let mut visited = 0;
        src.scan(&mut |_, _| visited += 1).unwrap();
        assert_eq!(visited, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(FileSource::open("/no/such/file.ppmstream").is_err());
    }

    #[test]
    fn scan_reverifies_checksum_every_pass() {
        // Open a clean file, then corrupt it *behind* the open source: the
        // next scan must detect the flip, not deliver skewed data.
        let (series, cat) = sample();
        let path = temp("midflight");
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&series)
            .unwrap();
        let mut src = FileSource::open(&path).unwrap();
        src.scan(&mut |_, _| {}).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.len() - 20; // a record byte, before the trailer
        bytes[flip] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let err = src.scan(&mut |_, _| {}).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "got {err}");
        assert!(err.to_string().contains("checksum"), "got {err}");
        assert!(!err.is_transient());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncation_yields_typed_error() {
        let (series, cat) = sample();
        let path = temp("typed-trunc");
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&series)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = FileSource::open(&path).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }), "got {err}");
        assert!(!err.is_transient());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn record_claiming_many_features_with_short_body_is_truncation() {
        // A record header claiming u16::MAX - 1 features followed by almost
        // no body: the reader must report typed truncation, not hang or
        // mis-parse.
        let path = temp("shortbody");
        let cat = FeatureCatalog::new();
        let mut w = StreamWriter::create(&path, &cat).unwrap();
        w.write_instant(&[fid(1)]).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Header for an empty catalog: magic(5) + version(4) + n_names(4).
        let records_at = 13;
        let mut forged = bytes[..records_at].to_vec();
        forged.extend_from_slice(&(u16::MAX - 1).to_le_bytes());
        forged.extend_from_slice(&[0xAB; 6]); // far fewer than (MAX-1)*4 bytes
        bytes = forged;
        std::fs::write(&path, &bytes).unwrap();
        let err = FileSource::open(&path).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }), "got {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_file() {
        let (series, cat) = sample();
        let path = temp("salvage");
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&series)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the last record/trailer region: drop the trailer and a
        // bit more so at least one record is lost.
        std::fs::write(&path, &bytes[..bytes.len() - 19]).unwrap();
        assert!(FileSource::open(&path).is_err(), "strict open must refuse");

        let (recovered, catalog, report) = salvage_series(&path).unwrap();
        assert!(!report.clean);
        assert!(report.recovered_instants >= 1);
        assert_eq!(recovered.len(), report.recovered_instants);
        assert_eq!(catalog.len(), cat.len());
        // The recovered records are a true prefix.
        for t in 0..recovered.len() {
            assert_eq!(recovered.instant(t), series.instant(t), "instant {t}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn salvage_of_intact_file_is_clean() {
        let (series, cat) = sample();
        let path = temp("salvage-clean");
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&series)
            .unwrap();
        let (recovered, _, report) = salvage_series(&path).unwrap();
        assert!(report.clean, "{report:?}");
        assert_eq!(recovered, series);
        assert_eq!(report.recovered_instants, 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn salvage_flags_checksum_mismatch() {
        let (series, cat) = sample();
        let path = temp("salvage-flip");
        StreamWriter::create(&path, &cat)
            .unwrap()
            .write_series(&series)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.len() - 20;
        bytes[flip] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, _, report) = salvage_series(&path).unwrap();
        assert!(!report.clean);
        assert!(report.detail.contains("checksum"), "{report:?}");
        std::fs::remove_file(path).ok();
    }
}
