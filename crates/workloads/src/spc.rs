//! Parser for SPC-format trace files (the UMass/SPC "Financial1" and
//! "Financial2" traces use it).
//!
//! Each line: `ASU,LBA,SIZE,OPCODE,TIMESTAMP` — application storage unit,
//! logical block address (in 512-byte sectors), request size in bytes,
//! `r`/`R` or `w`/`W`, and a float timestamp in seconds. If you have the
//! real SPC trace files, this parser feeds them straight into the
//! simulator; otherwise the synthetic generators in [`crate::synth`]
//! stand in.

use crate::trace::Trace;
use dloop_ftl_kit::request::{HostOp, HostRequest};
use dloop_simkit::SimTime;
use std::fmt;

/// Sector size SPC LBAs are expressed in.
const SPC_SECTOR: u64 = 512;

/// A line-level parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpcParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for SpcParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for SpcParseError {}

/// Parse SPC trace text into a page-aligned [`Trace`].
///
/// * `page_size` — device page size for alignment.
/// * `asu_filter` — keep only this ASU (the paper "only uses requests
///   going to one device"); `None` keeps everything.
pub fn parse_spc(
    text: &str,
    name: &str,
    page_size: u32,
    asu_filter: Option<u32>,
) -> Result<Trace, SpcParseError> {
    let mut requests = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',').map(str::trim);
        let err = |reason: &str| SpcParseError {
            line: i + 1,
            reason: reason.to_string(),
        };
        let asu: u32 = parts
            .next()
            .ok_or_else(|| err("missing ASU"))?
            .parse()
            .map_err(|_| err("bad ASU"))?;
        let lba: u64 = parts
            .next()
            .ok_or_else(|| err("missing LBA"))?
            .parse()
            .map_err(|_| err("bad LBA"))?;
        let size: u64 = parts
            .next()
            .ok_or_else(|| err("missing size"))?
            .parse()
            .map_err(|_| err("bad size"))?;
        let op = match parts.next().ok_or_else(|| err("missing opcode"))? {
            "r" | "R" => HostOp::Read,
            "w" | "W" => HostOp::Write,
            other => return Err(err(&format!("bad opcode {other:?}"))),
        };
        let ts: f64 = parts
            .next()
            .ok_or_else(|| err("missing timestamp"))?
            .parse()
            .map_err(|_| err("bad timestamp"))?;
        if let Some(want) = asu_filter {
            if asu != want {
                continue;
            }
        }
        requests.push(
            HostRequest::from_bytes(
                SimTime::from_secs_f64(ts),
                lba * SPC_SECTOR,
                size,
                op,
                page_size,
            )
            // The ASU is the natural tenant boundary in SPC traces: each
            // application storage unit is a distinct host stream, so QoS
            // policies can arbitrate between them directly.
            .with_tenant(asu as u16),
        );
    }
    requests.sort_by_key(|r| r.arrival);
    Ok(Trace::new(name, requests))
}

/// Serialise a trace back to SPC text (inverse of [`parse_spc`] up to
/// page alignment), so synthetic workloads can be exported and replayed
/// by other tools.
pub fn write_spc(trace: &Trace, page_size: u32) -> String {
    let mut out = String::with_capacity(trace.len() * 32);
    for r in &trace.requests {
        let lba = r.lpn * page_size as u64 / SPC_SECTOR;
        let bytes = r.pages as u64 * page_size as u64;
        let op = match r.op {
            HostOp::Read => 'R',
            HostOp::Write => 'W',
        };
        out.push_str(&format!(
            "{},{lba},{bytes},{op},{:.6}\n",
            r.tenant,
            r.arrival.as_secs_f64()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
0,20941264,8192,W,0.551706
0,20939840,8192,W,0.554041
1,3436288,15872,r,1.129403
# comment line
0,6447161,4096,R,2.000000
";

    #[test]
    fn parses_ops_sizes_and_times() {
        let t = parse_spc(SAMPLE, "sample", 2048, None).unwrap();
        assert_eq!(t.len(), 4);
        let s = t.stats(2048);
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 2);
        // 8192-byte request = 4 pages of 2 KB.
        assert_eq!(t.requests[0].pages, 4);
        assert_eq!(t.requests[0].arrival, SimTime::from_secs_f64(0.551706));
        // LBA 20941264 sectors * 512 / 2048 = page 5235316.
        assert_eq!(t.requests[0].lpn, 20941264 * 512 / 2048);
        // ASU becomes the tenant id.
        assert_eq!(t.requests[0].tenant, 0);
        assert_eq!(t.requests[2].tenant, 1);
    }

    #[test]
    fn asu_filter_drops_other_units() {
        let t = parse_spc(SAMPLE, "sample", 2048, Some(0)).unwrap();
        assert_eq!(t.len(), 3);
        let t1 = parse_spc(SAMPLE, "sample", 2048, Some(1)).unwrap();
        assert_eq!(t1.len(), 1);
    }

    #[test]
    fn rejects_garbage_with_line_number() {
        let e = parse_spc("0,xyz,8,W,0.1", "bad", 2048, None).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.reason.contains("LBA"));
    }

    #[test]
    fn rejects_unknown_opcode() {
        let e = parse_spc("0,1,8,Q,0.1", "bad", 2048, None).unwrap_err();
        assert!(e.reason.contains("opcode"));
    }

    #[test]
    fn write_then_parse_round_trips() {
        let t = parse_spc(SAMPLE, "sample", 2048, None).unwrap();
        let text = write_spc(&t, 2048);
        let t2 = parse_spc(&text, "again", 2048, None).unwrap();
        assert_eq!(t.requests, t2.requests);
    }

    #[test]
    fn unsorted_timestamps_are_sorted() {
        let text = "0,100,512,W,2.0\n0,200,512,W,1.0\n";
        let t = parse_spc(text, "s", 2048, None).unwrap();
        assert!(t.requests[0].arrival < t.requests[1].arrival);
    }
}
