//! `ppm` — a command-line partial periodic pattern miner.
//!
//! Thin, testable command layer over the workspace libraries:
//!
//! ```text
//! ppm generate --length 100000 --period 50 --max-pat-length 6 --f1 12 --out data.ppmc
//! ppm info     --input data.ppmc
//! ppm mine     --input data.ppmc --period 50 --min-conf 0.6 [--engine vertical] [--limit 20]
//! ppm sweep    --input data.ppmc --from 40 --to 60 --min-conf 0.6 [--engine vertical]
//! ppm perfect  --input data.ppmc --from 40 --to 60
//! ppm convert  --input data.txt --out data.ppmc
//! ```
//!
//! Series files are the columnar `.ppmc` store of
//! [`ppm_timeseries::columnar`], or the line-oriented text format of
//! [`ppm_timeseries::storage::text`]; the extension names which, and any
//! other extension is a usage error.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod checkpoint;
pub mod cmd;
mod error;
pub mod obs;

pub use error::CliError;

use std::io::Write;

/// Entry point shared by the binary and the tests: parses `argv` (without
/// the program name) and runs the selected command, writing human output
/// to `out`.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = args::Parsed::parse(argv)?;
    if matches!(parsed.command.as_str(), "help" | "--help" | "-h") {
        writeln!(out, "{}", usage())?;
        return Ok(());
    }
    let Some((command, flags)) = command(&parsed.command) else {
        return Err(CliError::Usage(format!(
            "unknown command {:?}\n{}",
            parsed.command,
            usage()
        )));
    };
    parsed.reject_unknown(flags)?;
    command(&parsed, out)
}

/// A command's entry point.
type Command = fn(&args::Parsed, &mut dyn Write) -> Result<(), CliError>;

/// The entry point of command `name` and the flags it declares.
fn command(name: &str) -> Option<(Command, &'static [&'static str])> {
    Some(match name {
        "generate" => (cmd::generate::run, cmd::generate::FLAGS),
        "info" => (cmd::info::run, cmd::info::FLAGS),
        "mine" => (cmd::mine::run, cmd::mine::FLAGS),
        "sweep" => (cmd::sweep::run, cmd::sweep::FLAGS),
        "perfect" => (cmd::perfect::run, cmd::perfect::FLAGS),
        "convert" => (cmd::convert::run, cmd::convert::FLAGS),
        "rules" => (cmd::rules::run, cmd::rules::FLAGS),
        "evolve" => (cmd::evolve::run, cmd::evolve::FLAGS),
        "verify" => (cmd::verify::run, cmd::verify::FLAGS),
        "serve" => (cmd::serve::run, cmd::serve::FLAGS),
        "query" => (cmd::query::run, cmd::query::FLAGS),
        "chaos" => (cmd::chaos::run, cmd::chaos::FLAGS),
        "append" => (cmd::append::run, cmd::append::FLAGS),
        _ => return None,
    })
}

/// The top-level usage text. Engine lists come from
/// [`ppm_core::Engine::ALL`], so help and usage errors always agree.
pub fn usage() -> String {
    format!(
        "ppm — partial periodic pattern mining (Han, Dong & Yin, ICDE 1999)

USAGE:
  ppm generate --length N --period P --max-pat-length L --f1 K --out FILE [--seed S]
  ppm info     --input FILE [--period P [--min-conf C]]
  ppm mine     --input FILE --period P --min-conf C
               [--engine {engines}] [--stream]
               [--max-letters M] [--offsets 1,2,3] [--limit N] [--tsv]
               [--maximal | --closed]
               [--audit [full|sample|N]] [--quarantine] [--strict]
               [--retries N] [--deadline-ms MS] [--max-tree-nodes N]
               [--trace] [--metrics-out FILE]
               [--progress [--progress-interval-ms MS]]
               [--follow [--window N] [--follow-poll-ms MS]
                [--follow-max-updates N]]
  ppm append   --input FILE.ppmc --rows \"a b;c;-\" [--repeat N]
  ppm verify   --input FILE --patterns FILE.tsv --period P --min-conf C
               [--sample [N]]
  ppm sweep    --input FILE --from P1 --to P2 --min-conf C
               [--engine {engines}] [--workers N]
               [--checkpoint FILE] [--deadline-ms MS] [--max-tree-nodes N]
               [--trace] [--metrics-out FILE]
  ppm perfect  --input FILE --from P1 --to P2
  ppm rules    --input FILE --period P --min-conf C [--min-rule-conf R] [--tsv]
  ppm evolve   --input FILE --period P --min-conf C --window W [--stride S]
  ppm convert  --input FILE --out FILE [--to text|columnar]
  ppm serve    --stores A.ppmc,B.ppmc [--port P | --socket PATH]
               [--workers N] [--queue N] [--cache FILE]
               [--cache-max-entries N] [--cache-max-bytes B]
               [--deadline-ms MS] [--max-tree-nodes N]
               [--drain-ms MS] [--retry-after-ms MS] [--test-faults]
               [--idle-timeout-ms MS] [--frame-deadline-ms MS]
               [--max-requests-per-conn N] [--verify-interval-ms MS]
  ppm query    [--port P | --socket PATH | --endpoints A,B,C]
               [--op mine|rules|verify|append|info|health|stats|shutdown]
               [--store NAME --period P --min-conf C]
               [--rows \"a b;c;-\" [--repeat N]]
               [--engine {engines}|incremental]
               [--limit N] [--no-cache]
               [--quarantine [--inject-garbage T]] [--show-cached]
               [--deadline-ms MS] [--max-tree-nodes N] [--min-rule-conf R]
               [--retries N] [--backoff-ms MS] [--backoff-max-ms MS]
               [--io-timeout-ms MS] [--hedge-ms MS] [--seed S] [--recheck]
  ppm chaos    --upstream HOST:PORT [--port P] [--seed S]
               [--fault-percent PCT] [--delay-ms MS]
  ppm help

Series files by extension: .txt (one instant per line, features
space-separated, '-' = empty) or .ppmc (columnar bitmap store whose
on-disk layout is the miners' encoded layout, checksummed — mine, sweep,
and verify open it straight into a borrowed view with no re-encoding,
and mine --stream mines it out of core, re-reading the file on every
scan). Any other extension is a usage error; generate and convert write
.ppmc by extension or with --to columnar.

Serving: ppm serve keeps every --stores .ppmc open as one shared
zero-copy view and answers concurrent queries over a length-prefixed
JSON protocol (TCP or Unix socket). Admission control sheds queries
beyond --queue with an explicit retry-after response; a panicking query
is contained to an error response; mined results land in a crash-safe
cache (--cache FILE, checksummed entries, atomic publish) keyed by
store fingerprint + period + min_conf, where a lower-confidence entry
also answers higher-confidence queries by anti-monotone filtering. The
two-scan engines share each entry; Apriori answers bypass the cache.
SIGTERM drains in-flight queries under --drain-ms, flushes the cache,
and exits cleanly. ppm query is the matching client; its mine output is
byte-identical to direct ppm mine on the same store.

Continuous ingestion: ppm append grows a .ppmc in place (atomic
publish; version-3 stores only: convert an older one first); mine
--follow tails a growing store, re-mining only the
patterns an appended segment could have changed through an incremental
vertical index (bit-identical to a cold mine at every state); ppm query
--op append sends rows to a daemon, which feeds its live indexes and
selectively migrates provably-unchanged cache entries to the new store
fingerprint instead of dropping them.

Replication: run several `ppm serve` daemons over the same .ppmc files
and point `ppm query --endpoints a,b,c` at all of them. The client
retries transients (connect failures, truncated responses, overload,
quarantined stores) in rounds over the replicas with exponential
backoff + seeded jitter, honors overload retry_after_ms hints, and with
--hedge-ms T duplicates a request still unanswered after T ms to the
next replica — first answer wins, and when both answer they must match
byte-for-byte (minus cache provenance). The daemon re-verifies store
checksums every --verify-interval-ms and quarantines a store whose file
went bad (healthy stores keep serving; `--op health [--recheck]`
reports per-store status and exits 4 when degraded). The result cache
is bounded (--cache-max-entries / --cache-max-bytes, second-chance
eviction, crash-safe). Connections are hardened: --idle-timeout-ms
reaps idle peers, --frame-deadline-ms bounds one frame end to end (slow
feeders can't hold workers), --max-requests-per-conn closes chatty
connections. ppm chaos is a deterministic seeded proxy that delays,
truncates, corrupts, duplicates, and severs responses — the harness the
soak tests use to prove all of the above.

Exit codes (shared between direct commands and the daemon): 0 success;
1 internal failure; 2 usage; 3 partial result (a --deadline-ms /
--max-tree-nodes guard tripped; partial progress was reported); 4 input
quarantined (counts are sound lower bounds); 5 transient-I/O retries
exhausted; 6 daemon overloaded (retry after the hinted backoff).

Resilience: mine --stream --retries N re-scans a .ppmc up to N extra
times on transient I/O errors; --deadline-ms / --max-tree-nodes abort
runaway mines with a typed error carrying partial statistics; sweep
--checkpoint FILE records each completed period and resumes after a
crash or abort without re-mining (never across a changed input: the
checkpoint records the input's fingerprint). A damaged .ppmc is refused,
never partly read: an append that did not commit is ignored, and a torn
commit opens the commit before it.

Engines: --engine picks the counting strategy ({engines}; default
hitset). hitset is the paper's two-scan max-subpattern method; apriori is
the level-wise Alg 3.1; vertical replaces the tree with per-letter
bitmaps over the distinct segment hits — counting a candidate is a k-way
AND + weighted popcount. query --engine incremental asks ppm serve to
answer from the store's live vertical index, maintained as segments
append (mine --follow tails a store through the same index). Every
sweep engine shares ONE encode/load (a .ppmc input opens directly as the
bitmap rows). sweep --workers N mines the range with a shared-counter
scheduler (N workers, each idle one claims the next unmined period) off
that one shared load. Performance races live
outside ppm, in the ppm-bench crate's `races` binary.

Verification: mine --audit checks the result against the paper's
invariants (anti-monotone counts, downward closure, confidence bounds,
Property 3.2 bookkeeping), recounts patterns with an independent oracle
(full, or a deterministic sample), and diffs the hit-set (its tree
counted by bitmap and by the paper's tree walk), Apriori, streaming, and
vertical engines against each other; violations exit non-zero.
mine --quarantine skips malformed instants at the scan boundary and
reports them (counts become sound lower bounds); --strict fails fast on
the first one instead. verify re-audits an exported `mine --tsv` file
against its input series.

Observability: --trace prints a live span tree to stderr; --metrics-out
FILE streams structured events as JSON lines and appends a final summary
(per-phase timings, counters, retry/guard counts, mining stats);
mine --progress prints a segments/ETA heartbeat to stderr;
info --period P reports the Property 3.2 hit-set buffer bound for that
period. Every command rejects a flag it does not declare (exit 2).",
        engines = ppm_core::Engine::names()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag the usage text shows under a command is one that command
    /// declares, so help never advertises a flag the parser rejects.
    #[test]
    fn usage_shows_only_declared_flags() {
        let text = usage();
        let mut current = None;
        let mut checked = 0;
        let block = text.lines().skip_while(|l| *l != "USAGE:");
        for line in block.take_while(|l| !l.is_empty()) {
            if let Some(rest) = line.trim_start().strip_prefix("ppm ") {
                let name = rest.split_whitespace().next().unwrap();
                current = command(name).map(|(_, flags)| (name, flags));
            }
            let Some((name, flags)) = current else {
                continue;
            };
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(flag) = word.strip_prefix("--") {
                    let declared = args::declares(flags, flag);
                    assert!(declared, "usage shows --{flag} under `ppm {name}`");
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "only {checked} flags checked");
    }

    /// A misspelled flag, and every flag of the benchmarking modes that
    /// moved to the `races` binary, is a usage error naming the flag,
    /// raised before the command reads its input.
    #[test]
    fn undeclared_flags_exit_2_before_any_work() {
        for (line, flag) in [
            ("mine --period 10 --min-conf 0.5 --egine apriori", "--egine"),
            (
                "mine --period 10 --min-conf 0.5 --compare-incremental 5",
                "--compare-incremental",
            ),
            (
                "mine --period 10 --min-conf 0.5 --bench-report x",
                "--bench-report",
            ),
            (
                "sweep --from 2 --to 4 --min-conf 0.5 --compare-tree",
                "--compare-tree",
            ),
            (
                "sweep --from 2 --to 4 --min-conf 0.5 --compare-kernel",
                "--compare-kernel",
            ),
            (
                "sweep --from 2 --to 4 --min-conf 0.5 --compare-ingest a.txt",
                "--compare-ingest",
            ),
            (
                "sweep --from 2 --to 4 --min-conf 0.5 --bench-report x",
                "--bench-report",
            ),
            (
                "sweep --from 2 --to 4 --min-conf 0.5 --threads 2",
                "--threads",
            ),
            (
                "sweep --from 2 --to 4 --min-conf 0.5 --looping",
                "--looping",
            ),
        ] {
            let argv: Vec<String> = format!("{line} --input missing-input.ppmc")
                .split_whitespace()
                .map(str::to_owned)
                .collect();
            let mut out = Vec::new();
            let err = run(&argv, &mut out).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}: {err}");
            assert!(err.to_string().contains(flag), "{line}: {err}");
            assert!(out.is_empty(), "{line}");
        }
    }
}
