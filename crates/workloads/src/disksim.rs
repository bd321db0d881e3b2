//! Parser for DiskSim 3.0 ASCII trace files — the native input format of
//! the simulator the paper extends (Fig. 7: "DiskSim first reads the trace
//! file").
//!
//! Each line: `TIME DEVNO BLKNO BCOUNT FLAGS`, whitespace-separated —
//! arrival time in milliseconds (float), device number, starting block
//! (512-byte sectors), block count, and flags where bit 0 set means READ.

use crate::trace::Trace;
use dloop_ftl_kit::request::{HostOp, HostRequest};
use dloop_simkit::SimTime;
use std::fmt;

/// Sector size DiskSim block numbers are expressed in.
const DISKSIM_SECTOR: u64 = 512;

/// A line-level parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskSimParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for DiskSimParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for DiskSimParseError {}

/// Parse DiskSim ASCII trace text into a page-aligned [`Trace`].
///
/// `dev_filter` keeps only one device's requests (the paper: "We only use
/// requests going to one device"); `None` keeps everything.
pub fn parse_disksim(
    text: &str,
    name: &str,
    page_size: u32,
    dev_filter: Option<u32>,
) -> Result<Trace, DiskSimParseError> {
    let mut requests = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |reason: &str| DiskSimParseError {
            line: i + 1,
            reason: reason.to_string(),
        };
        let mut parts = line.split_whitespace();
        let time_ms: f64 = parts
            .next()
            .ok_or_else(|| err("missing time"))?
            .parse()
            .map_err(|_| err("bad time"))?;
        let devno: u32 = parts
            .next()
            .ok_or_else(|| err("missing devno"))?
            .parse()
            .map_err(|_| err("bad devno"))?;
        let blkno: u64 = parts
            .next()
            .ok_or_else(|| err("missing blkno"))?
            .parse()
            .map_err(|_| err("bad blkno"))?;
        let bcount: u64 = parts
            .next()
            .ok_or_else(|| err("missing bcount"))?
            .parse()
            .map_err(|_| err("bad bcount"))?;
        let flags: u32 = parts
            .next()
            .ok_or_else(|| err("missing flags"))?
            .parse()
            .map_err(|_| err("bad flags"))?;
        if let Some(want) = dev_filter {
            if devno != want {
                continue;
            }
        }
        let op = if flags & 1 == 1 {
            HostOp::Read
        } else {
            HostOp::Write
        };
        requests.push(
            HostRequest::from_bytes(
                SimTime::from_secs_f64(time_ms / 1e3),
                blkno * DISKSIM_SECTOR,
                bcount * DISKSIM_SECTOR,
                op,
                page_size,
            )
            // Device number doubles as the tenant id: multi-device
            // DiskSim traces replayed without a filter become multi-tenant
            // host streams for the QoS policies.
            .with_tenant(devno as u16),
        );
    }
    requests.sort_by_key(|r| r.arrival);
    Ok(Trace::new(name, requests))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
0.000000 0 10240 8 0
5.250000 0 512 16 1
7.000000 1 99 4 1
";

    #[test]
    fn parses_times_ops_and_extents() {
        let t = parse_disksim(SAMPLE, "ds", 2048, None).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.requests[0].op, HostOp::Write);
        assert_eq!(t.requests[1].op, HostOp::Read);
        // 8 sectors of 512 B = 4 KB = 2 pages of 2 KB from sector 10240.
        assert_eq!(t.requests[0].pages, 2);
        assert_eq!(t.requests[0].lpn, 10240 * 512 / 2048);
        assert_eq!(t.requests[1].arrival, SimTime::from_secs_f64(0.00525));
        // Device number becomes the tenant id.
        assert_eq!(t.requests[0].tenant, 0);
        assert_eq!(t.requests[2].tenant, 1);
    }

    #[test]
    fn device_filter() {
        let t = parse_disksim(SAMPLE, "ds", 2048, Some(0)).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn error_carries_line() {
        let e = parse_disksim("1.0 0 x 8 0", "ds", 2048, None).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.reason.contains("blkno"));
    }
}
