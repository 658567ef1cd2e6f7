//! The wire protocol: length-prefixed JSON frames, version 1.
//!
//! ## Framing
//!
//! Every message — request or response, either direction — is one frame:
//!
//! ```text
//! offset 0  length   u32 LE   byte length of the JSON payload
//! offset 4  payload  [u8]     one UTF-8 JSON object
//! ```
//!
//! Frames larger than [`MAX_FRAME`] are rejected before allocation, so a
//! hostile length prefix cannot balloon the daemon. A clean EOF *before*
//! the first length byte means the peer is done; EOF mid-frame is an
//! error.
//!
//! ## Shapes
//!
//! Requests carry `{"v": 1, "op": "<name>", ...}`. Responses are one of:
//!
//! * `{"v": 1, "type": "result", "op": "<name>", ...}` — success payload;
//! * `{"v": 1, "type": "error", "code": N, "message": "..."}` — failure,
//!   with `code` drawn from [`crate::ErrorCode`];
//! * `{"v": 1, "type": "overload", "retry_after_ms": N}` — the admission
//!   queue was full; no work was attempted.
//!
//! ## Versioning
//!
//! `v` is checked on every request; a mismatch yields a `usage` error
//! naming the supported version rather than a silent misparse. New fields
//! may be added to any shape without a version bump — readers ignore
//! unknown fields — while changes to existing fields require bumping
//! [`VERSION`].

use std::io::{self, Read, Write};

use ppm_observe::Json;

use crate::error::ErrorCode;

/// Protocol version spoken by this build.
pub const VERSION: u64 = 1;

/// Hard ceiling on a frame's JSON payload, in bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Writes one frame: header and payload go out in a single `write_all`,
/// so a TCP stream never holds a lone 4-byte header back waiting for the
/// peer's delayed ACK (Nagle).
pub fn write_frame(w: &mut impl Write, message: &Json) -> io::Result<()> {
    let payload = message.render();
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds MAX_FRAME {MAX_FRAME}",
                bytes.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` means the peer closed the connection
/// cleanly before starting a frame; truncation mid-frame, an oversized
/// length prefix, or unparseable JSON are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-length-prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))?;
    let json = Json::parse(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame JSON: {e}")))?;
    Ok(Some(json))
}

/// Builds a `result` response for `op` with the given extra fields.
pub fn result_response(op: &str, fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![
        ("v".to_owned(), Json::from_u64(VERSION)),
        ("type".to_owned(), Json::Str("result".to_owned())),
        ("op".to_owned(), Json::Str(op.to_owned())),
    ];
    obj.extend(fields);
    Json::Obj(obj)
}

/// Builds an `error` response with the given taxonomy code.
pub fn error_response(code: ErrorCode, message: String, extras: Vec<(String, Json)>) -> Json {
    let mut obj = vec![
        ("v".to_owned(), Json::from_u64(VERSION)),
        ("type".to_owned(), Json::Str("error".to_owned())),
        ("code".to_owned(), Json::from_u64(code.wire())),
        ("message".to_owned(), Json::Str(message)),
    ];
    obj.extend(extras);
    Json::Obj(obj)
}

/// Builds an `overload` response with the retry hint.
pub fn overload_response(retry_after_ms: u64) -> Json {
    Json::Obj(vec![
        ("v".to_owned(), Json::from_u64(VERSION)),
        ("type".to_owned(), Json::Str("overload".to_owned())),
        ("retry_after_ms".to_owned(), Json::from_u64(retry_after_ms)),
    ])
}

/// Pulls a required string field out of a request.
pub fn req_str<'a>(req: &'a Json, field: &str) -> Result<&'a str, String> {
    req.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request is missing string field {field:?}"))
}

/// Pulls a required integer field out of a request.
pub fn req_u64(req: &Json, field: &str) -> Result<u64, String> {
    req.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("request is missing integer field {field:?}"))
}

/// Pulls a required float field out of a request.
pub fn req_f64(req: &Json, field: &str) -> Result<f64, String> {
    req.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("request is missing number field {field:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let msg = result_response("info", vec![("x".to_owned(), Json::from_u64(7))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let mut r = io::Cursor::new(buf);
        let back = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(back.get("op").unwrap().as_str(), Some("info"));
        assert_eq!(back.get("x").unwrap().as_u64(), Some(7));
        // A second read sees the clean EOF.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Records the size of every `write` call it receives.
        #[derive(Default)]
        struct CountingWriter {
            writes: Vec<usize>,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes.push(buf.len());
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let msg = result_response("info", vec![("x".to_owned(), Json::from_u64(7))]);
        let mut w = CountingWriter::default();
        write_frame(&mut w, &msg).unwrap();
        assert_eq!(w.writes, [w.bytes.len()], "header and body in one write");
        let back = read_frame(&mut io::Cursor::new(w.bytes)).unwrap().unwrap();
        assert_eq!(back.get("x").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(b"whatever");
        let err = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("MAX_FRAME"), "{err}");
    }

    #[test]
    fn truncation_mid_frame_is_an_error_not_a_hang() {
        let msg = overload_response(50);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut io::Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    #[test]
    fn bad_json_is_invalid_data() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"{{{");
        let err = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn response_builders_stamp_the_version() {
        for msg in [
            result_response("mine", Vec::new()),
            error_response(ErrorCode::Usage, "nope".into(), Vec::new()),
            overload_response(10),
        ] {
            assert_eq!(msg.get("v").unwrap().as_u64(), Some(VERSION));
        }
        let err = error_response(ErrorCode::PartialResult, "slow".into(), Vec::new());
        assert_eq!(err.get("code").unwrap().as_u64(), Some(3));
    }
}
