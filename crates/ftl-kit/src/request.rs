//! Host request model.
//!
//! The host issues byte-addressed requests; the controller aligns them on
//! page boundaries and splits them into single-page operations (§III.B:
//! "DLOOP always aligns each request on page boundary, the request will be
//! divided into four individual one-page write requests … the last request
//! is padded with zeros"). All FTLs in this workspace receive page-level
//! operations.

use dloop_nand::Lpn;
use dloop_simkit::{SimDuration, SimTime};

/// Direction of a host request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostOp {
    /// Read data.
    Read,
    /// Write (or update) data.
    Write,
}

/// Host stream / tenant identifier.
///
/// A production device multiplexes many host streams (NVMe submission
/// queues, cgroups, virtual machines); the QoS scheduling policies
/// ([`crate::sched`]) arbitrate between them inside the NCQ reorder
/// window. Tenant `0` is the conventional "untagged" stream — a trace
/// whose requests all carry tenant `0` behaves exactly like a
/// single-stream trace.
pub type TenantId = u16;

/// A page-aligned host request.
///
/// Beyond the classic trace fields (arrival, address, size, direction) a
/// request carries two QoS tags consumed only by the scheduling policies
/// in [`crate::sched`]: the [`tenant`](HostRequest::tenant) stream it
/// belongs to and an optional absolute completion
/// [`deadline`](HostRequest::deadline). Both default to the neutral
/// values (`0`, `None`), so `..HostRequest::default()` keeps untagged
/// construction terse and replay behaviour identical to the pre-QoS
/// request model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRequest {
    /// Arrival time at the flash controller.
    pub arrival: SimTime,
    /// First logical page touched.
    pub lpn: Lpn,
    /// Number of consecutive pages touched (≥ 1).
    pub pages: u32,
    /// Read or write.
    pub op: HostOp,
    /// The host stream this request belongs to (`0` = untagged).
    pub tenant: TenantId,
    /// Absolute completion deadline, if the stream has one. It rides on
    /// [`QosCandidate::deadline`](crate::sched::QosCandidate::deadline)
    /// for policies that rank by it; no shipped policy does. `None` means
    /// best-effort.
    pub deadline: Option<SimTime>,
}

impl Default for HostRequest {
    /// The neutral "blank" request: a zero-page untagged read at time
    /// zero. Exists so literals can splat the QoS tags —
    /// `HostRequest { arrival, lpn, pages, op, ..Default::default() }`.
    fn default() -> Self {
        HostRequest {
            arrival: SimTime::ZERO,
            lpn: 0,
            pages: 0,
            op: HostOp::Read,
            tenant: 0,
            deadline: None,
        }
    }
}

impl HostRequest {
    /// Build a request from byte-level trace fields, aligning to pages.
    ///
    /// `offset_bytes` is the starting byte address, `len_bytes` the request
    /// size (zero-length requests become one page — a bare command still
    /// touches the device). A request covering any part of a page touches
    /// the whole page.
    pub fn from_bytes(
        arrival: SimTime,
        offset_bytes: u64,
        len_bytes: u64,
        op: HostOp,
        page_size: u32,
    ) -> Self {
        let ps = page_size as u64;
        let first = offset_bytes / ps;
        let last = if len_bytes == 0 {
            first
        } else {
            (offset_bytes + len_bytes - 1) / ps
        };
        HostRequest {
            arrival,
            lpn: first,
            pages: (last - first + 1) as u32,
            op,
            ..HostRequest::default()
        }
    }

    /// Tag this request with a tenant/stream id (builder style).
    pub fn with_tenant(self, tenant: TenantId) -> Self {
        HostRequest { tenant, ..self }
    }

    /// Give this request an absolute completion deadline `rel` after its
    /// arrival (builder style).
    pub fn with_deadline_after(self, rel: SimDuration) -> Self {
        HostRequest {
            deadline: Some(self.arrival + rel),
            ..self
        }
    }

    /// Iterate the single-page operations this request splits into.
    pub fn page_ops(&self) -> impl Iterator<Item = Lpn> + '_ {
        (0..self.pages as u64).map(move |i| self.lpn + i)
    }

    /// Wrap all touched LPNs into `[0, lpn_space)` — traces address larger
    /// devices than some simulated capacities, so the device folds them.
    pub fn wrapped(&self, lpn_space: u64) -> HostRequest {
        debug_assert!(lpn_space > 0);
        HostRequest {
            lpn: self.lpn % lpn_space,
            ..*self
        }
    }

    /// Iterate the single-page operations with every LPN folded into
    /// `[0, lpn_space)`. This is what the replay drivers actually consume:
    /// folding only the base LPN ([`HostRequest::wrapped`]) is not enough,
    /// because `lpn + i` can cross the space boundary mid-request, so each
    /// page op needs its own fold.
    pub fn wrapped_page_ops(&self, lpn_space: u64) -> impl Iterator<Item = Lpn> + '_ {
        debug_assert!(lpn_space > 0);
        (0..self.pages as u64).map(move |i| (self.lpn + i) % lpn_space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_alignment_splits_to_pages() {
        // 12 KB write starting at byte 0, 2 KB pages -> LPNs 0..=5.
        let r = HostRequest::from_bytes(SimTime::ZERO, 0, 12 * 1024, HostOp::Write, 2048);
        assert_eq!(r.lpn, 0);
        assert_eq!(r.pages, 6);
        assert_eq!(r.page_ops().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn unaligned_request_touches_straddled_pages() {
        // 1 byte at offset 2047 touches only page 0; 2 bytes touch pages 0-1.
        let a = HostRequest::from_bytes(SimTime::ZERO, 2047, 1, HostOp::Read, 2048);
        assert_eq!((a.lpn, a.pages), (0, 1));
        let b = HostRequest::from_bytes(SimTime::ZERO, 2047, 2, HostOp::Read, 2048);
        assert_eq!((b.lpn, b.pages), (0, 2));
    }

    #[test]
    fn zero_length_is_one_page() {
        let r = HostRequest::from_bytes(SimTime::ZERO, 4096, 0, HostOp::Read, 2048);
        assert_eq!((r.lpn, r.pages), (2, 1));
    }

    #[test]
    fn mid_page_start() {
        // 4 KB at offset 3 KB with 2 KB pages: touches pages 1,2,3.
        let r = HostRequest::from_bytes(SimTime::ZERO, 3 * 1024, 4 * 1024, HostOp::Write, 2048);
        assert_eq!((r.lpn, r.pages), (1, 3));
    }

    #[test]
    fn wrapped_page_ops_fold_each_page() {
        // Base LPN 998 with 4 pages in a 1000-page space: the request
        // crosses the boundary mid-stream, so per-page folding matters.
        let r = HostRequest {
            arrival: SimTime::ZERO,
            lpn: 998,
            pages: 4,
            op: HostOp::Write,
            ..HostRequest::default()
        };
        assert_eq!(
            r.wrapped_page_ops(1000).collect::<Vec<_>>(),
            [998, 999, 0, 1]
        );
        // Folding the base first makes no difference.
        assert_eq!(
            r.wrapped(1000).wrapped_page_ops(1000).collect::<Vec<_>>(),
            [998, 999, 0, 1]
        );
    }

    #[test]
    fn wrapping_folds_lpn() {
        let r = HostRequest {
            arrival: SimTime::ZERO,
            lpn: 1_000_005,
            pages: 2,
            op: HostOp::Write,
            ..HostRequest::default()
        };
        let w = r.wrapped(1000);
        assert_eq!(w.lpn, 5);
        assert_eq!(w.pages, 2);
    }

    #[test]
    fn qos_tags_default_to_neutral_and_survive_wrapping() {
        let r = HostRequest::from_bytes(SimTime::ZERO, 0, 4096, HostOp::Write, 2048);
        assert_eq!(r.tenant, 0);
        assert_eq!(r.deadline, None);
        let tagged = r
            .with_tenant(7)
            .with_deadline_after(SimDuration::from_micros(500));
        assert_eq!(tagged.tenant, 7);
        assert_eq!(
            tagged.deadline,
            Some(SimTime::ZERO + SimDuration::from_micros(500))
        );
        // Address folding keeps the QoS tags intact.
        let w = tagged.wrapped(1);
        assert_eq!((w.tenant, w.deadline), (tagged.tenant, tagged.deadline));
    }
}
