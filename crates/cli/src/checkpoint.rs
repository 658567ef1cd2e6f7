//! Checkpoint files for resumable multi-period sweeps.
//!
//! A long `ppm sweep` over a big series mines one period at a time; losing
//! the whole run to a crash (or a resource-guard abort) at period 58 of 60
//! is needless. With `--checkpoint FILE` the sweep records one line per
//! *completed* period — enough to reprint its summary row without
//! re-mining — and rewrites the file (via a temp file and rename, so a
//! crash mid-write cannot corrupt it) after every period. A rerun with the
//! same input, range, and threshold skips every period already recorded.
//!
//! The format is line-oriented text, human-inspectable:
//!
//! ```text
//! ppm-sweep-checkpoint v3
//! input data.ppmc
//! fingerprint 5f0e3d2c1b0a9988
//! min_conf 0.6
//! range 40 60
//! period 40 12 5 3 2 c=a1b2c3d4e5f60718
//! period 41 9 4 2 2 c=0918273645fedcba
//! ```
//!
//! where each `period` line is `period patterns |F1| max_len scans` plus
//! (since v2) an FNV-1a checksum of the row body, so a damaged or edited
//! row is rejected by name instead of silently resuming from a wrong
//! count. Since v3 the header records the input's content fingerprint
//! (a `.ppmc` store's own, or the FNV-1a of a text file's bytes), so an
//! input that changed under the same path — an append, say — does not
//! resume rows mined from its old content. v1 (no checksums) and v2 (no
//! fingerprint) files still load, and match on the path alone. A
//! checkpoint written by a *different* sweep (mismatched input,
//! threshold, or range) is rejected rather than silently ignored, so stale
//! files cannot masquerade as progress.

use std::fmt::Write as _;
use std::io::Write as _;

use ppm_timeseries::fnv64;

use crate::error::CliError;

/// First line of every checkpoint file this version writes.
const MAGIC_V3: &str = "ppm-sweep-checkpoint v3";

/// The previous format: identical except the header records no input
/// fingerprint. Still accepted on load so an upgrade never invalidates
/// progress.
const MAGIC_V2: &str = "ppm-sweep-checkpoint v2";

/// The first format: no fingerprint, and period rows carry no checksum.
const MAGIC_V1: &str = "ppm-sweep-checkpoint v1";

/// Summary of one fully mined period — everything the sweep report prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodRow {
    /// The mined period.
    pub period: usize,
    /// Number of frequent patterns found.
    pub patterns: usize,
    /// Frequent-letter count `|F1|`.
    pub f1: usize,
    /// Longest frequent pattern's L-length.
    pub max_len: usize,
    /// Series scans the mine performed.
    pub scans: usize,
}

/// The persistent state of a checkpointed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// The series file the sweep reads.
    pub input: String,
    /// The content fingerprint of that file when the sweep began; `None`
    /// for a v1 or v2 checkpoint, which did not record one.
    pub fingerprint: Option<u64>,
    /// The confidence threshold.
    pub min_conf: f64,
    /// Low end of the period range (inclusive).
    pub from: usize,
    /// High end of the period range (inclusive).
    pub to: usize,
    /// Completed periods, in ascending period order.
    pub rows: Vec<PeriodRow>,
}

impl SweepCheckpoint {
    /// An empty checkpoint for a fresh sweep of `input`, whose content
    /// fingerprint is `fingerprint`.
    pub fn new(input: &str, fingerprint: u64, min_conf: f64, from: usize, to: usize) -> Self {
        SweepCheckpoint {
            input: input.to_owned(),
            fingerprint: Some(fingerprint),
            min_conf,
            from,
            to,
            rows: Vec::new(),
        }
    }

    /// Whether this checkpoint belongs to the sweep described by the
    /// arguments: same input path, threshold, and range, and the same
    /// input content where the checkpoint recorded a fingerprint.
    pub fn matches(
        &self,
        input: &str,
        fingerprint: u64,
        min_conf: f64,
        from: usize,
        to: usize,
    ) -> bool {
        self.input == input
            && self.fingerprint.is_none_or(|f| f == fingerprint)
            && self.min_conf == min_conf
            && self.from == from
            && self.to == to
    }

    /// The recorded row for `period`, if that period already completed.
    pub fn row_for(&self, period: usize) -> Option<&PeriodRow> {
        self.rows.iter().find(|r| r.period == period)
    }

    /// Records a completed period, replacing any previous row for it and
    /// keeping the rows sorted by period.
    pub fn record(&mut self, row: PeriodRow) {
        self.rows.retain(|r| r.period != row.period);
        self.rows.push(row);
        self.rows.sort_by_key(|r| r.period);
    }

    /// Serializes to the v3 checkpoint text format, or to v2 for a
    /// checkpoint that records no fingerprint.
    pub fn render(&self) -> String {
        let mut s = String::new();
        match self.fingerprint {
            Some(f) => {
                let _ = writeln!(s, "{MAGIC_V3}");
                let _ = writeln!(s, "input {}", self.input);
                let _ = writeln!(s, "fingerprint {f:016x}");
            }
            None => {
                let _ = writeln!(s, "{MAGIC_V2}");
                let _ = writeln!(s, "input {}", self.input);
            }
        }
        let _ = writeln!(s, "min_conf {}", self.min_conf);
        let _ = writeln!(s, "range {} {}", self.from, self.to);
        for r in &self.rows {
            let body = format!(
                "{} {} {} {} {}",
                r.period, r.patterns, r.f1, r.max_len, r.scans
            );
            let _ = writeln!(s, "period {body} c={:016x}", fnv64(body.as_bytes()));
        }
        s
    }

    /// Parses the checkpoint text format (v3, the fingerprint-less v2,
    /// or the checksum-less v1). Corrupt checkpoints are an error —
    /// resuming from garbage would silently skip unmined periods.
    pub fn parse(text: &str) -> Result<Self, CliError> {
        let bad = |detail: &str| CliError::Usage(format!("corrupt checkpoint: {detail}"));
        let mut lines = text.lines();
        let (fingerprinted, checksummed) = match lines.next() {
            Some(MAGIC_V3) => (true, true),
            Some(MAGIC_V2) => (false, true),
            Some(MAGIC_V1) => (false, false),
            _ => return Err(bad("missing header (is this a ppm sweep checkpoint?)")),
        };
        let field = |line: Option<&str>, key: &str| -> Result<String, CliError> {
            line.and_then(|l| l.strip_prefix(key))
                .and_then(|v| v.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| bad(&format!("expected `{key} ...` line")))
        };
        let input = field(lines.next(), "input")?;
        let fingerprint = if fingerprinted {
            let hex = field(lines.next(), "fingerprint")?;
            Some(u64::from_str_radix(&hex, 16).map_err(|_| bad("unparsable fingerprint"))?)
        } else {
            None
        };
        let min_conf: f64 = field(lines.next(), "min_conf")?
            .parse()
            .map_err(|_| bad("unparsable min_conf"))?;
        let range = field(lines.next(), "range")?;
        let mut range_parts = range.split_whitespace().map(str::parse::<usize>);
        let (from, to) = match (range_parts.next(), range_parts.next(), range_parts.next()) {
            (Some(Ok(a)), Some(Ok(b)), None) => (a, b),
            _ => return Err(bad("unparsable range")),
        };
        let mut rows = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let full = line
                .strip_prefix("period ")
                .ok_or_else(|| bad(&format!("unexpected line {line:?}")))?;
            let body = if checksummed {
                let (body, sum) = full
                    .rsplit_once(" c=")
                    .ok_or_else(|| bad(&format!("period row {full:?} missing checksum")))?;
                let sum = u64::from_str_radix(sum, 16)
                    .map_err(|_| bad(&format!("period row {body:?} has unparsable checksum")))?;
                if fnv64(body.as_bytes()) != sum {
                    return Err(bad(&format!(
                        "checksum mismatch on period row {body:?} — \
                         the row was modified or damaged"
                    )));
                }
                body
            } else {
                full
            };
            let nums: Vec<usize> = body
                .split_whitespace()
                .map(|n| {
                    n.parse()
                        .map_err(|_| bad(&format!("unparsable period row {line:?}")))
                })
                .collect::<Result<_, _>>()?;
            let [period, patterns, f1, max_len, scans] = nums[..] else {
                return Err(bad(&format!(
                    "period row needs 5 fields, got {}",
                    nums.len()
                )));
            };
            rows.push(PeriodRow {
                period,
                patterns,
                f1,
                max_len,
                scans,
            });
        }
        Ok(SweepCheckpoint {
            input,
            fingerprint,
            min_conf,
            from,
            to,
            rows,
        })
    }

    /// Loads the checkpoint at `path`; `Ok(None)` when the file does not
    /// exist yet (a fresh sweep).
    pub fn load(path: &str) -> Result<Option<Self>, CliError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Atomically and durably writes the checkpoint to `path`: the text
    /// goes to a sibling temp file (fsynced) which is then renamed over the
    /// target, so a crash mid-save leaves either the old checkpoint or the
    /// new one — never a torn file. After the rename the parent directory
    /// is fsynced best-effort, since on some filesystems the new name
    /// itself is not durable until the directory is flushed. A failed
    /// rename removes the temp file rather than leaving it to shadow the
    /// next save.
    pub fn save(&self, path: &str) -> Result<(), CliError> {
        let tmp = format!("{path}.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.render().as_bytes())?;
            f.sync_all()?;
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        let parent = match std::path::Path::new(path).parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_owned(),
            _ => std::path::PathBuf::from("."),
        };
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().ok();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FINGERPRINT: u64 = 0x5f0e_3d2c_1b0a_9988;

    fn sample() -> SweepCheckpoint {
        let mut cp = SweepCheckpoint::new("data.ppmc", FINGERPRINT, 0.6, 40, 60);
        cp.record(PeriodRow {
            period: 41,
            patterns: 9,
            f1: 4,
            max_len: 2,
            scans: 2,
        });
        cp.record(PeriodRow {
            period: 40,
            patterns: 12,
            f1: 5,
            max_len: 3,
            scans: 2,
        });
        cp
    }

    #[test]
    fn render_parse_round_trip() {
        let cp = sample();
        let parsed = SweepCheckpoint::parse(&cp.render()).unwrap();
        assert_eq!(parsed, cp);
        assert_eq!(parsed.rows[0].period, 40, "rows stay sorted");
    }

    #[test]
    fn record_replaces_existing_period() {
        let mut cp = sample();
        cp.record(PeriodRow {
            period: 40,
            patterns: 99,
            f1: 5,
            max_len: 3,
            scans: 4,
        });
        assert_eq!(cp.rows.len(), 2);
        assert_eq!(cp.row_for(40).unwrap().patterns, 99);
    }

    #[test]
    fn matches_checks_all_parameters() {
        let cp = sample();
        let f = FINGERPRINT;
        assert!(cp.matches("data.ppmc", f, 0.6, 40, 60));
        assert!(!cp.matches("other.ppmc", f, 0.6, 40, 60));
        assert!(!cp.matches("data.ppmc", f + 1, 0.6, 40, 60));
        assert!(!cp.matches("data.ppmc", f, 0.5, 40, 60));
        assert!(!cp.matches("data.ppmc", f, 0.6, 41, 60));
        assert!(!cp.matches("data.ppmc", f, 0.6, 40, 61));
    }

    /// `cp` rendered as a v2 (`checksums`) or v1 file: no fingerprint line.
    fn legacy(cp: &SweepCheckpoint, checksums: bool) -> String {
        cp.render()
            .lines()
            .filter(|l| !l.starts_with("fingerprint "))
            .map(|l| match l.split_once(" c=") {
                Some((body, _)) if !checksums => body.to_owned(),
                _ => l.to_owned(),
            })
            .collect::<Vec<_>>()
            .join("\n")
            .replace(MAGIC_V3, if checksums { MAGIC_V2 } else { MAGIC_V1 })
    }

    #[test]
    fn v2_checkpoints_without_a_fingerprint_load_and_match_on_the_path() {
        let old = SweepCheckpoint::parse(&legacy(&sample(), true)).unwrap();
        assert_eq!(old.fingerprint, None);
        assert_eq!(old.rows, sample().rows);
        assert!(old.matches("data.ppmc", 1, 0.6, 40, 60));
        assert!(!old.matches("other.ppmc", 1, 0.6, 40, 60));
        // It renders back as v2, and a recorded fingerprint makes it v3.
        assert_eq!(SweepCheckpoint::parse(&old.render()).unwrap(), old);
        assert!(old.render().starts_with(MAGIC_V2));
        assert!(sample().render().starts_with(MAGIC_V3));
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        assert!(SweepCheckpoint::parse("not a checkpoint").is_err());
        let truncated_header = "ppm-sweep-checkpoint v1\ninput x\n";
        assert!(SweepCheckpoint::parse(truncated_header).is_err());
        let bad_row = format!("{}period 3 nonsense\n", sample().render());
        assert!(SweepCheckpoint::parse(&bad_row).is_err());
        let short_row = format!("{}period 3 1 2\n", sample().render());
        assert!(SweepCheckpoint::parse(&short_row).is_err());
    }

    #[test]
    fn v1_checkpoints_without_checksums_still_load() {
        let cp = SweepCheckpoint {
            fingerprint: None,
            ..sample()
        };
        assert_eq!(
            SweepCheckpoint::parse(&legacy(&sample(), false)).unwrap(),
            cp
        );
    }

    #[test]
    fn damaged_row_is_rejected_by_name() {
        let cp = sample();
        // Flip one digit inside the first period row's data.
        let tampered = cp.render().replace("period 40 12", "period 40 13");
        let err = SweepCheckpoint::parse(&tampered).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("checksum mismatch"), "{msg}");
        assert!(msg.contains("40 13"), "error must name the row: {msg}");
        // A checksummed row with the checksum chopped off is also rejected.
        let render = cp.render();
        let headless: String = render
            .lines()
            .map(|l| match l.split_once(" c=") {
                Some((body, _)) => body.to_owned(),
                None => l.to_owned(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = SweepCheckpoint::parse(&headless).unwrap_err();
        assert!(err.to_string().contains("missing checksum"), "{err}");
    }

    #[test]
    fn byte_flip_fuzz_never_panics_and_rarely_passes() {
        let cp = sample();
        let render = cp.render();
        let bytes = render.as_bytes();
        let mut rejected = 0usize;
        for i in 0..bytes.len() {
            for flip in [1u8, 0x20, 0x80] {
                let mut damaged = bytes.to_vec();
                damaged[i] ^= flip;
                let Ok(text) = String::from_utf8(damaged) else {
                    continue; // fs::read_to_string would reject it anyway
                };
                // Typed error or a successful parse — never a panic.
                if SweepCheckpoint::parse(&text).is_err() {
                    rejected += 1;
                }
            }
        }
        // The checksums make most row damage detectable.
        assert!(rejected > bytes.len(), "only {rejected} flips rejected");
    }

    #[test]
    fn truncation_fuzz_never_panics() {
        let render = sample().render();
        for cut in 0..render.len() {
            if !render.is_char_boundary(cut) {
                continue;
            }
            // Every prefix either parses or errors; no partial row may
            // survive as a row.
            if let Ok(cp) = SweepCheckpoint::parse(&render[..cut]) {
                for row in &cp.rows {
                    assert!(sample().rows.contains(row), "fabricated row {row:?}");
                }
            }
        }
    }

    #[test]
    fn failed_rename_cleans_up_the_temp_file() {
        // A non-empty directory at the target path makes rename fail.
        let dir = crate::cmd::testutil::temp_path("checkpoint-dir", "d");
        std::fs::create_dir(&dir).unwrap();
        std::fs::write(dir.join("occupant"), "x").unwrap();
        let path = dir.to_str().unwrap().to_owned();
        let err = sample().save(&path);
        assert!(err.is_err());
        assert!(
            !std::path::Path::new(&format!("{path}.tmp")).exists(),
            "stale temp file left behind"
        );
        std::fs::remove_file(dir.join("occupant")).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn save_load_round_trip_and_missing_file() {
        let path = crate::cmd::testutil::temp_path("checkpoint", "ckpt");
        let path = path.to_str().unwrap().to_owned();
        assert!(SweepCheckpoint::load(&path).unwrap().is_none());
        let cp = sample();
        cp.save(&path).unwrap();
        assert_eq!(SweepCheckpoint::load(&path).unwrap().unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }
}
