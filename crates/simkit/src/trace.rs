//! Op-level flight recorder: a zero-dependency, opt-in tracing layer.
//!
//! Credible SSD simulation needs inspectable accounting of every internal
//! resource (Amber, SimpleSSD): not just *how long* a request took but
//! *where* each microsecond went — queueing behind a plane, queueing behind
//! a bus, the cell operation itself, the transfer, a read-retry ladder, or
//! GC charged to the triggering write. This module provides the recording
//! substrate: the hardware model emits one [`Span`] per flash operation at
//! reservation time into a pluggable [`TraceSink`], and the exporters turn
//! the spans into
//!
//! * a Chrome `trace_event` JSON timeline ([`chrome_trace_json`]) with one
//!   track per plane and per channel, loadable in `chrome://tracing` or
//!   Perfetto — including `flow` events that stitch every span of one host
//!   request together across planes and channels (follow a request from its
//!   translation read through its data write into the GC it triggered);
//! * per-plane and per-channel utilization timeline CSVs
//!   ([`plane_utilization_csv`], [`channel_utilization_csv`]);
//! * an aggregated latency-attribution table ([`attribution`]) splitting
//!   residence time into plane-wait / channel-wait / bus / cell / retry
//!   per phase (host, GC, scan) — derived from the spans themselves, not
//!   from ad-hoc accumulators.
//!
//! One sink ships in-tree: [`RingSink`], the flight-recorder ring
//! (drop-oldest when full, with a loud [`RingSink::dropped`] counter;
//! `RingSink::new(usize::MAX)` never evicts, so a full-length replay keeps
//! every span). [`span_jsonl`] renders any retained span as one JSONL line.
//!
//! Recording is pure observation: it never touches the resource timelines,
//! so a run with tracing enabled is bit-identical (in every report field)
//! to the same run with tracing disabled.
//!
//! Beyond the span pipeline, the module hosts [`QueueDepthProbe`], a host
//! queue-occupancy recorder the replay drivers feed with one
//! `(arrival, issue, done)` triple per unit of work; its
//! [`QueueDepthProbe::csv`] exporter renders the queue-depth-over-time
//! timeline (in-flight / pending counts plus admitted / completed deltas
//! per sim-time bucket).
//!
//! The module also ships [`json_lint`], a minimal JSON syntax validator, so
//! the exported timeline can be checked hermetically (no serde, no Python).

use crate::time::SimTime;
use std::any::Any;
use std::fmt::Write as _;
use std::{io, iter};

/// Flash operation kind of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Page read (array + bus out).
    Read,
    /// Page read that needed the read-retry ladder.
    ReadRetry,
    /// Page program (bus in + array).
    Write,
    /// Block erase (array only).
    Erase,
    /// Intra-plane copy-back (array only — no bus traffic).
    CopyBack,
    /// Traditional inter-plane copy (source array, bus twice, dest array).
    InterPlaneCopy,
}

impl SpanKind {
    /// Short display name (also the Chrome event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Read => "read",
            SpanKind::ReadRetry => "read_retry",
            SpanKind::Write => "write",
            SpanKind::Erase => "erase",
            SpanKind::CopyBack => "copyback",
            SpanKind::InterPlaneCopy => "interplane_copy",
        }
    }
}

/// Which logical phase of request service an operation belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Work the host response waits for.
    Host,
    /// Reclamation charged to (or triggered by) the current operation.
    Gc,
    /// Background housekeeping for unrelated planes.
    Scan,
    /// Host-side submission queueing (doorbell batching and, under a
    /// finite per-queue depth, waiting for a free SQ slot). Emitted by
    /// the `dloop-host` stack, never by the device: these spans hold no
    /// device resource.
    HostQueue,
    /// Host page-cache service (hits and write-back acknowledgements).
    /// Emitted by the `dloop-host` stack, never by the device.
    Cache,
    /// Completion-side wait: the done→deliver interval a finished command
    /// spends aggregating under interrupt coalescing before its interrupt
    /// reaches the host. Emitted by the `dloop-host` stack, never by the
    /// device.
    Completion,
}

impl SpanPhase {
    /// Short display name (also the Chrome event category).
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Host => "host",
            SpanPhase::Gc => "gc",
            SpanPhase::Scan => "scan",
            SpanPhase::HostQueue => "host_queue",
            SpanPhase::Cache => "cache",
            SpanPhase::Completion => "completion",
        }
    }

    /// Every phase, in the locked row order of [`Attribution::csv`]: the
    /// three device phases first (the pre-host-stack table), then the
    /// host-stack phases appended under the schema-extension rule
    /// (`completion` came after `host_queue`/`cache`, so it sits last).
    pub fn all() -> [SpanPhase; 6] {
        [
            SpanPhase::Host,
            SpanPhase::Gc,
            SpanPhase::Scan,
            SpanPhase::HostQueue,
            SpanPhase::Cache,
            SpanPhase::Completion,
        ]
    }
}

/// A device resource a span segment occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// A plane's cell array.
    Plane(u32),
    /// A channel's external bus.
    Channel(u32),
}

/// One contiguous resource hold within a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    /// The resource held.
    pub resource: Resource,
    /// Hold start.
    pub start: SimTime,
    /// Hold end (release).
    pub end: SimTime,
}

/// One flash operation, as reserved on the hardware timelines.
///
/// The span stores its holds (`segs`) and derives everything else from
/// them: when it started, how long it waited for each resource class and
/// how long it held each. Each hold's wait runs from the previous hold's
/// release (or `issue`), so for an operation whose holds run back to back
/// the attribution buckets tile the residence time by construction:
/// `plane_wait + channel_wait + cell + bus + retry == end - issue`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Operation kind.
    pub kind: SpanKind,
    /// Logical service phase (host / GC / scan).
    pub phase: SpanPhase,
    /// Logical page whose service emitted this operation, when known.
    pub lpn: Option<u64>,
    /// Stable host-request id whose service emitted this operation, when
    /// known: every span a request causes — translation reads, the data
    /// operation itself, and GC charged to it — carries the same id, which
    /// is what lets the Chrome export stitch a request across planes and
    /// channels with flow events.
    pub req: Option<u64>,
    /// Primary plane.
    pub plane: u32,
    /// Destination plane of an inter-plane copy.
    pub dst_plane: Option<u32>,
    /// When the operation was handed to the hardware.
    pub issue: SimTime,
    /// When the last resource was released.
    pub end: SimTime,
    /// Nanoseconds of read-retry ladder work, carved out of the plane
    /// holds.
    pub retry_ns: u64,
    /// Read-retry ladder steps executed.
    pub retry_steps: u32,
    /// The individual resource holds (ordered; `None` entries are unused).
    pub segs: [Option<Seg>; 4],
}

impl Span {
    /// Total residence: issue to last release.
    pub fn residence_ns(&self) -> u64 {
        self.end.saturating_since(self.issue).as_nanos()
    }

    /// When the first resource was acquired (`issue` for a span that held
    /// none).
    pub fn start(&self) -> SimTime {
        self.segments().next().map_or(self.issue, |seg| seg.start)
    }

    /// This span's latency attribution, as a one-span row: each hold's
    /// wait since the previous release (or `issue`) is charged to the
    /// class of the resource held and the hold itself to cell or bus
    /// time, with the retry ladder carved out of the cell share.
    pub fn attribution(&self) -> AttributionRow {
        let mut row = AttributionRow {
            spans: 1,
            retry_ns: self.retry_ns,
            residence_ns: self.residence_ns(),
            ..AttributionRow::default()
        };
        let mut prev = self.issue;
        for seg in self.segments() {
            let wait = seg.start.saturating_since(prev).as_nanos();
            let hold = seg.end.saturating_since(seg.start).as_nanos();
            let (waited, held) = match seg.resource {
                Resource::Plane(_) => (&mut row.plane_wait_ns, &mut row.cell_ns),
                Resource::Channel(_) => (&mut row.channel_wait_ns, &mut row.bus_ns),
            };
            *waited += wait;
            *held += hold;
            prev = seg.end;
        }
        row.cell_ns = row.cell_ns.saturating_sub(self.retry_ns);
        row
    }

    /// Sum of the attribution buckets; equals [`Span::residence_ns`] for
    /// spans whose holds ran back to back (every device span in this
    /// workspace). A host-stack span holds nothing, so its buckets are
    /// zero.
    pub fn buckets_ns(&self) -> u64 {
        let a = self.attribution();
        a.plane_wait_ns + a.channel_wait_ns + a.cell_ns + a.bus_ns + a.retry_ns
    }

    /// The resource-hold segments actually present.
    pub fn segments(&self) -> impl Iterator<Item = &Seg> {
        self.segs.iter().flatten()
    }
}

/// Anywhere recorded [`Span`]s can go.
///
/// The hardware model emits spans through a `Box<dyn TraceSink>`; which
/// sink is attached decides the retention policy ([`RingSink`] is the
/// in-tree one; a timing decorator can wrap it). Implementations must be
/// pure observers: recording a span may never influence simulation state.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Observe one span. Must never fail loudly — sinks that can lose a
    /// span (a full ring, a failed write) count the loss in
    /// [`TraceSink::dropped`] instead.
    fn record(&mut self, span: &Span);

    /// Total spans ever offered to this sink.
    fn recorded(&self) -> u64;

    /// Spans the sink failed to retain (ring evictions, write errors).
    /// Exports built on a sink with `dropped() > 0` are incomplete and
    /// callers are expected to say so loudly.
    fn dropped(&self) -> u64;

    /// Flush any buffered output; the first deferred write error (if any)
    /// surfaces here.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Mark a measurement boundary: discard retained history where the
    /// sink can (a ring clears).
    fn reset(&mut self);

    /// Downcast support (sinks travel as `Box<dyn TraceSink>`).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Consuming downcast support.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// A bounded ring buffer of [`Span`]s.
///
/// When full, the oldest span is dropped (flight-recorder semantics: the
/// most recent history survives) and [`RingSink::dropped`] counts the
/// loss — exports never silently pretend to be complete.
#[derive(Debug, Clone)]
pub struct RingSink {
    spans: Vec<Span>,
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl RingSink {
    /// A recorder holding at most `capacity` spans (at least 1). Storage
    /// grows as spans arrive, so `usize::MAX` is a ring that never evicts.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            spans: Vec::new(),
            head: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total spans ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.len() as u64 + self.dropped
    }

    /// Append a span, evicting the oldest if the ring is full.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        let (newer, older) = self.spans.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Forget everything recorded (capacity is kept).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, span: &Span) {
        self.push(span.clone());
    }

    fn recorded(&self) -> u64 {
        RingSink::recorded(self)
    }

    fn dropped(&self) -> u64 {
        RingSink::dropped(self)
    }

    fn reset(&mut self) {
        self.clear();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Render one span as a single JSONL line (no trailing newline).
///
/// A flat object with every [`Span`] field, segments as
/// `["p"|"c", id, start_ns, end_ns]` arrays. Each line passes [`json_lint`]
/// on its own, so a JSONL file can be validated line by line without a
/// JSON library.
pub fn span_jsonl(s: &Span) -> String {
    let mut out = String::with_capacity(256);
    let a = s.attribution();
    let opt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "null".into());
    let _ = write!(
        out,
        "{{\"kind\":\"{}\",\"phase\":\"{}\",\"req\":{},\"lpn\":{},\"plane\":{},\"dst_plane\":{},\
         \"issue_ns\":{},\"start_ns\":{},\"end_ns\":{},\"cell_ns\":{},\"bus_ns\":{},\
         \"plane_wait_ns\":{},\"channel_wait_ns\":{},\"retry_ns\":{},\"retry_steps\":{},\"segs\":[",
        s.kind.name(),
        s.phase.name(),
        opt(s.req),
        opt(s.lpn),
        s.plane,
        opt(s.dst_plane.map(u64::from)),
        s.issue.as_nanos(),
        s.start().as_nanos(),
        s.end.as_nanos(),
        a.cell_ns,
        a.bus_ns,
        a.plane_wait_ns,
        a.channel_wait_ns,
        s.retry_ns,
        s.retry_steps,
    );
    for (i, seg) in s.segments().enumerate() {
        let (tag, id) = match seg.resource {
            Resource::Plane(p) => ("p", p),
            Resource::Channel(c) => ("c", c),
        };
        let _ = write!(
            out,
            "{}[\"{tag}\",{id},{},{}]",
            if i == 0 { "" } else { "," },
            seg.start.as_nanos(),
            seg.end.as_nanos(),
        );
    }
    out.push_str("]}");
    out
}

/// One row of the latency-attribution table (nanosecond sums).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionRow {
    /// Spans aggregated into this row.
    pub spans: u64,
    /// Waiting for a busy plane / serialized die.
    pub plane_wait_ns: u64,
    /// Waiting for a busy channel bus.
    pub channel_wait_ns: u64,
    /// Bus transfer time.
    pub bus_ns: u64,
    /// Cell (array) operation time, excluding retries.
    pub cell_ns: u64,
    /// Read-retry ladder time.
    pub retry_ns: u64,
    /// Total residence (issue → release).
    pub residence_ns: u64,
}

impl AttributionRow {
    fn add(&mut self, s: &Span) {
        let a = s.attribution();
        self.spans += a.spans;
        self.plane_wait_ns += a.plane_wait_ns;
        self.channel_wait_ns += a.channel_wait_ns;
        self.bus_ns += a.bus_ns;
        self.cell_ns += a.cell_ns;
        self.retry_ns += a.retry_ns;
        self.residence_ns += a.residence_ns;
    }
}

/// The aggregated latency-attribution table, one row per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Host-phase operations (the response-gating work).
    pub host: AttributionRow,
    /// GC-phase operations (synchronous mode charges these to requests).
    pub gc: AttributionRow,
    /// Scan-phase housekeeping (contends for resources, never gates).
    pub scan: AttributionRow,
    /// Host-side submission-queueing spans (doorbell batching and SQ
    /// backpressure waits from the `dloop-host` stack). Pure residence:
    /// the hardware bucket columns stay zero.
    pub host_queue: AttributionRow,
    /// Host page-cache service spans from the `dloop-host` stack.
    pub cache: AttributionRow,
    /// Interrupt-coalescing (done→deliver) spans from the `dloop-host`
    /// stack. Pure residence, like the other host rows.
    pub completion: AttributionRow,
}

impl Attribution {
    /// The row for `phase`.
    pub fn row(&self, phase: SpanPhase) -> &AttributionRow {
        match phase {
            SpanPhase::Host => &self.host,
            SpanPhase::Gc => &self.gc,
            SpanPhase::Scan => &self.scan,
            SpanPhase::HostQueue => &self.host_queue,
            SpanPhase::Cache => &self.cache,
            SpanPhase::Completion => &self.completion,
        }
    }

    /// Nanoseconds of request-visible time: host + GC residence. For a
    /// replay of non-overlapping single-page requests in synchronous-GC
    /// mode this reconciles exactly with the run's summed response time.
    pub fn request_visible_ns(&self) -> u64 {
        self.host.residence_ns + self.gc.residence_ns
    }

    /// The locked CSV header of [`Attribution::csv`].
    pub fn csv_header() -> &'static str {
        "phase,spans,plane_wait_ms,channel_wait_ms,bus_ms,cell_ms,retry_ms,total_ms"
    }

    /// Render as CSV (header + one row per phase). The three device
    /// phases keep their original row positions; the host-stack phases
    /// append after them (rows extend the same way locked columns do).
    pub fn csv(&self) -> String {
        let mut out = String::from(Self::csv_header());
        out.push('\n');
        for phase in SpanPhase::all() {
            let r = self.row(phase);
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                phase.name(),
                r.spans,
                r.plane_wait_ns as f64 / 1e6,
                r.channel_wait_ns as f64 / 1e6,
                r.bus_ns as f64 / 1e6,
                r.cell_ns as f64 / 1e6,
                r.retry_ns as f64 / 1e6,
                r.residence_ns as f64 / 1e6,
            );
        }
        out
    }
}

/// Aggregate the retained spans into the latency-attribution table.
pub fn attribution(rec: &RingSink) -> Attribution {
    let mut a = Attribution::default();
    for s in rec.spans() {
        match s.phase {
            SpanPhase::Host => a.host.add(s),
            SpanPhase::Gc => a.gc.add(s),
            SpanPhase::Scan => a.scan.add(s),
            SpanPhase::HostQueue => a.host_queue.add(s),
            SpanPhase::Cache => a.cache.add(s),
            SpanPhase::Completion => a.completion.add(s),
        }
    }
    a
}

fn push_json_event(
    out: &mut String,
    pid: u32,
    tid: u32,
    name: &str,
    cat: &str,
    ts_ns: u64,
    dur_ns: u64,
    span: &Span,
) {
    let wait = span.attribution();
    let lpn = span
        .lpn
        .map(|l| l.to_string())
        .unwrap_or_else(|| "null".to_string());
    let req = span
        .req
        .map(|r| r.to_string())
        .unwrap_or_else(|| "null".to_string());
    let _ = write!(
        out,
        ",\n{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"{cat}\",\
         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"lpn\":{lpn},\"req\":{req},\"retry_steps\":{},\
         \"issue_us\":{:.3},\"wait_us\":{:.3}}}}}",
        ts_ns as f64 / 1e3,
        dur_ns as f64 / 1e3,
        span.retry_steps,
        span.issue.as_micros_f64(),
        (wait.plane_wait_ns + wait.channel_wait_ns) as f64 / 1e3,
    );
}

/// Process id used for plane tracks in the Chrome export.
const CHROME_PID_PLANES: u32 = 1;
/// Process id used for channel tracks in the Chrome export.
const CHROME_PID_CHANNELS: u32 = 2;

/// Export the retained spans as Chrome `trace_event` JSON.
///
/// Layout: one process per resource class (`planes`, `channels`), one
/// thread (track) per plane / channel id, one complete (`"X"`) event per
/// resource hold, named after the operation and categorized by phase.
/// Timestamps are microseconds, as `chrome://tracing` and Perfetto expect.
///
/// Spans carrying a request id ([`Span::req`]) are additionally stitched
/// with flow events: each request that produced two or more spans gets one
/// `"s"` (start) arrow at its first span, `"t"` steps at intermediate
/// spans, and a terminating `"f"` at its last span, all sharing the
/// request id as flow id. In `chrome://tracing` / Perfetto this draws the
/// request's path across plane and channel tracks — translation read →
/// data op → the GC it triggered — even when those ops landed on different
/// resources.
pub fn chrome_trace_json(rec: &RingSink) -> String {
    let mut planes: Vec<u32> = Vec::new();
    let mut channels: Vec<u32> = Vec::new();
    for s in rec.spans() {
        for seg in s.segments() {
            match seg.resource {
                Resource::Plane(p) => {
                    if !planes.contains(&p) {
                        planes.push(p);
                    }
                }
                Resource::Channel(c) => {
                    if !channels.contains(&c) {
                        channels.push(c);
                    }
                }
            }
        }
    }
    planes.sort_unstable();
    channels.sort_unstable();

    let mut out = String::from("{\"traceEvents\":[");
    let _ = write!(
        out,
        "\n{{\"ph\":\"M\",\"pid\":{CHROME_PID_PLANES},\"name\":\"process_name\",\
         \"args\":{{\"name\":\"planes\"}}}}"
    );
    let _ = write!(
        out,
        ",\n{{\"ph\":\"M\",\"pid\":{CHROME_PID_CHANNELS},\"name\":\"process_name\",\
         \"args\":{{\"name\":\"channels\"}}}}"
    );
    for &p in &planes {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":{CHROME_PID_PLANES},\"tid\":{p},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"plane {p}\"}}}}"
        );
    }
    for &c in &channels {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":{CHROME_PID_CHANNELS},\"tid\":{c},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"channel {c}\"}}}}"
        );
    }
    for s in rec.spans() {
        for seg in s.segments() {
            let (pid, tid) = match seg.resource {
                Resource::Plane(p) => (CHROME_PID_PLANES, p),
                Resource::Channel(c) => (CHROME_PID_CHANNELS, c),
            };
            push_json_event(
                &mut out,
                pid,
                tid,
                s.kind.name(),
                s.phase.name(),
                seg.start.as_nanos(),
                seg.end.saturating_since(seg.start).as_nanos(),
                s,
            );
        }
    }
    // Flow stitching: group spans by request id (preserving first-seen
    // order for determinism) and arrow each multi-span request across the
    // tracks its operations landed on.
    let mut order: Vec<u64> = Vec::new();
    let mut groups: std::collections::HashMap<u64, Vec<&Span>> = std::collections::HashMap::new();
    for s in rec.spans() {
        if let Some(id) = s.req {
            let g = groups.entry(id).or_default();
            if g.is_empty() {
                order.push(id);
            }
            g.push(s);
        }
    }
    for id in order {
        let spans = &groups[&id];
        if spans.len() < 2 {
            continue;
        }
        let last = spans.len() - 1;
        for (i, s) in spans.iter().enumerate() {
            let Some(seg) = s.segments().next() else {
                continue;
            };
            let (pid, tid) = match seg.resource {
                Resource::Plane(p) => (CHROME_PID_PLANES, p),
                Resource::Channel(c) => (CHROME_PID_CHANNELS, c),
            };
            let (ph, bp) = if i == 0 {
                ("s", "")
            } else if i == last {
                ("f", ",\"bp\":\"e\"")
            } else {
                ("t", "")
            };
            let _ = write!(
                out,
                ",\n{{\"ph\":\"{ph}\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{:.3},\"name\":\"req\",\"cat\":\"flow\"{bp}}}",
                seg.start.as_nanos() as f64 / 1e3,
            );
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{}}}}}",
        rec.dropped()
    );
    out
}

/// The one window grid behind every timeline export (utilization, power,
/// queue depth): `buckets` windows `[i·width, (i+1)·width)`, `width` being
/// `end` over `buckets` (at least 1 ns), except the last, which stretches
/// to `end` so the windows cover the run exactly and no tail ns escapes.
struct Grid {
    buckets: usize,
    width: u64,
    end: u64,
}

impl Grid {
    fn new(end: u64, buckets: usize) -> Self {
        let buckets = buckets.max(1);
        Grid {
            buckets,
            width: (end / buckets as u64).max(1),
            end,
        }
    }

    /// The grid over the time the retained segments cover.
    fn over(rec: &RingSink, buckets: usize) -> Self {
        let end = rec
            .spans()
            .flat_map(Span::segments)
            .map(|seg| seg.end.as_nanos())
            .max()
            .unwrap_or(0);
        Grid::new(end, buckets)
    }

    fn start(&self, i: usize) -> u64 {
        i as u64 * self.width
    }

    fn end(&self, i: usize) -> u64 {
        let nominal = (i as u64 + 1) * self.width;
        if i + 1 == self.buckets {
            nominal.max(self.end)
        } else {
            nominal
        }
    }

    /// Integer busy-ns per window and column: each retained segment that
    /// `column` maps below `cols` adds its overlap with every window.
    fn busy(
        &self,
        rec: &RingSink,
        cols: usize,
        column: impl Fn(Resource) -> Option<usize>,
    ) -> Vec<Vec<u64>> {
        let mut busy = vec![vec![0u64; cols]; self.buckets];
        let last_window = self.buckets as u64 - 1;
        for seg in rec.spans().flat_map(Span::segments) {
            let Some(col) = column(seg.resource).filter(|&c| c < cols) else {
                continue;
            };
            let (a, b) = (seg.start.as_nanos(), seg.end.as_nanos());
            let first = (a / self.width).min(last_window) as usize;
            let last = (b.saturating_sub(1) / self.width).min(last_window) as usize;
            for (i, row) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                row[col] += b.min(self.end(i)).saturating_sub(a.max(self.start(i)));
            }
        }
        busy
    }

    /// The `bucket_start_ms,bucket_end_ms` cells of row `i`.
    fn write_window(&self, out: &mut String, i: usize) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = write!(out, "{:.6},{:.6}", ms(self.start(i)), ms(self.end(i)));
    }
}

/// Shared implementation of the utilization timeline CSVs: per selected
/// resource, the fraction of each [`Grid`] window it was busy.
fn utilization_csv(
    rec: &RingSink,
    count: usize,
    buckets: usize,
    column_prefix: &str,
    select: impl Fn(Resource) -> Option<usize>,
) -> String {
    let grid = Grid::over(rec, buckets);
    let busy = grid.busy(rec, count, select);
    let mut out = String::from("bucket_start_ms,bucket_end_ms");
    for r in 0..count {
        let _ = write!(out, ",{column_prefix}_{r}");
    }
    out.push('\n');
    for (i, row) in busy.iter().enumerate() {
        grid.write_window(&mut out, i);
        let len = (grid.end(i) - grid.start(i)) as f64;
        for &b in row {
            let _ = write!(out, ",{:.4}", b as f64 / len);
        }
        out.push('\n');
    }
    out
}

/// Export a per-plane utilization timeline as CSV.
///
/// The simulated time covered by the retained spans is divided into
/// `buckets` windows of equal width, the last stretching to the final
/// release so the windows cover the run exactly; each row reports, per
/// plane, the fraction of that window the plane's array was busy. Columns:
/// `bucket_start_ms,bucket_end_ms,plane_0,plane_1,…` (planes `0..planes`).
pub fn plane_utilization_csv(rec: &RingSink, planes: usize, buckets: usize) -> String {
    utilization_csv(rec, planes, buckets, "plane", |r| match r {
        Resource::Plane(p) => Some(p as usize),
        Resource::Channel(_) => None,
    })
}

/// Export a per-channel bus-utilization timeline as CSV, the channel twin
/// of [`plane_utilization_csv`]: same bucketing, one `channel_N` column per
/// channel. Side by side the two timelines show DLOOP's core effect — GC
/// copy-backs keep planes busy while the channel rows stay host-only.
pub fn channel_utilization_csv(rec: &RingSink, channels: usize, buckets: usize) -> String {
    utilization_csv(rec, channels, buckets, "channel", |r| match r {
        Resource::Plane(_) => None,
        Resource::Channel(c) => Some(c as usize),
    })
}

/// Multiply a power draw (µW) by a duration (ns) into femtojoules,
/// panicking on overflow rather than wrapping — the same fixed-point rule
/// as `dloop-nand`'s energy module (which this crate cannot depend on).
fn power_fj(uw: u64, ns: u64) -> u64 {
    uw.checked_mul(ns)
        .expect("power timeline overflow: uW * ns exceeds u64 femtojoules")
}

/// Export a per-plane/per-channel power timeline as CSV, the energy twin
/// of [`plane_utilization_csv`] / [`channel_utilization_csv`], on the same
/// windows. Every retained plane segment charges `array_active_uw`, every
/// channel segment `bus_active_uw`, and each row reports integer
/// femtojoules per resource plus a row total. Columns:
/// `bucket_start_ms,bucket_end_ms,plane_0_fj,…,channel_0_fj,…,total_fj`.
///
/// **Integer identity:** provided the recorder dropped nothing, summing any
/// column over all rows reproduces `draw × busy-ns` for that resource
/// bit-exactly, and the `total_fj` column sums to the run's total energy —
/// the same integers a `RunReport` carries. All arithmetic is
/// overflow-checked; nothing is rounded.
pub fn power_csv(
    rec: &RingSink,
    planes: usize,
    channels: usize,
    buckets: usize,
    array_active_uw: u64,
    bus_active_uw: u64,
) -> String {
    let grid = Grid::over(rec, buckets);
    let busy = grid.busy(rec, planes + channels, |r| match r {
        Resource::Plane(p) => Some(p as usize).filter(|&p| p < planes),
        Resource::Channel(c) => Some(planes + c as usize),
    });
    let mut out = String::from("bucket_start_ms,bucket_end_ms");
    for p in 0..planes {
        let _ = write!(out, ",plane_{p}_fj");
    }
    for c in 0..channels {
        let _ = write!(out, ",channel_{c}_fj");
    }
    out.push_str(",total_fj\n");
    for (i, row) in busy.iter().enumerate() {
        grid.write_window(&mut out, i);
        let mut total = 0u64;
        let draws = iter::repeat_n(array_active_uw, planes).chain(iter::repeat(bus_active_uw));
        for (&ns, uw) in row.iter().zip(draws) {
            let fj = power_fj(uw, ns);
            total = total
                .checked_add(fj)
                .expect("power timeline overflow: row total exceeds u64");
            let _ = write!(out, ",{fj}");
        }
        let _ = write!(out, ",{total}");
        out.push('\n');
    }
    out
}

/// Host-queue occupancy probe: one `(tenant, arrival, issue, done)` record
/// per tracked unit of work (a host request in open replay and behind the
/// host stack's SQ windows, a page operation in the gated and NCQ/QoS
/// drivers).
///
/// The replay drivers record into the probe as they admit and complete
/// work; [`QueueDepthProbe::csv`] then renders the queue-depth-over-time
/// timeline the records imply. A unit is *pending* from `arrival` until
/// `issue` (waiting in the host queue) and *in flight* from `issue` until
/// `done` (occupying the device). Recording is pure observation — the
/// probe never feeds back into scheduling, and an unused probe is an empty
/// `Vec`.
///
/// The tenant tag identifies the host stream the unit belongs to (`0` =
/// untagged). Untagged runs render exactly the legacy aggregate CSV;
/// multi-tenant runs additionally get one per-tenant gauge block appended
/// after the locked aggregate columns (see [`QueueDepthProbe::csv`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueDepthProbe {
    /// `(tenant, arrival, issue, done)` per tracked unit, in tracking
    /// order.
    tracked: Vec<(u16, SimTime, SimTime, SimTime)>,
}

impl QueueDepthProbe {
    /// An empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty probe with room for `units` records (a replay driver knows
    /// how many it will track before it starts).
    pub fn with_capacity(units: usize) -> Self {
        QueueDepthProbe {
            tracked: Vec::with_capacity(units),
        }
    }

    /// Make room for `units` more records.
    pub fn reserve(&mut self, units: usize) {
        self.tracked.reserve(units);
    }

    /// Track one unit of work for `tenant` that arrived at `arrival`, was
    /// admitted (issued to the device) at `issue`, and completed at `done`.
    /// Times may be recorded out of order across units; the CSV export
    /// sorts its sweep internally. Drivers with no stream information pass
    /// tenant `0`.
    pub fn track(&mut self, tenant: u16, arrival: SimTime, issue: SimTime, done: SimTime) {
        debug_assert!(
            arrival <= issue && issue <= done,
            "queue probe times must be ordered: {arrival} <= {issue} <= {done}"
        );
        self.tracked.push((tenant, arrival, issue, done));
    }

    /// Number of tracked units.
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// Whether nothing was tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }

    /// The raw `(tenant, arrival, issue, done)` records, in tracking order.
    pub fn tracked(&self) -> &[(u16, SimTime, SimTime, SimTime)] {
        &self.tracked
    }

    /// Distinct tenant ids seen by the probe, ascending.
    pub fn tenants(&self) -> Vec<u16> {
        let mut ids: Vec<u16> = self.tracked.iter().map(|t| t.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of units tracked for one tenant.
    pub fn tenant_len(&self, tenant: u16) -> usize {
        self.tracked.iter().filter(|t| t.0 == tenant).count()
    }

    /// Mean turnaround (`done - arrival`, queueing plus service) across
    /// all tracked units, in milliseconds; `0.0` for an empty probe. This
    /// is the probe-side mean response time the QoS claims compare across
    /// policies.
    pub fn mean_turnaround_ms(&self) -> f64 {
        Self::mean_ms(self.tracked.iter())
    }

    /// Mean turnaround in milliseconds for a single tenant's units; `0.0`
    /// when the tenant tracked nothing.
    pub fn tenant_mean_turnaround_ms(&self, tenant: u16) -> f64 {
        Self::mean_ms(self.tracked.iter().filter(|t| t.0 == tenant))
    }

    /// Peak in-flight occupancy across all tracked units: the maximum
    /// number of `[issue, done)` intervals overlapping any instant. At a
    /// shared boundary the completion counts before the admission (a slot
    /// freed at `t` can be reused by a unit issued at `t`), matching how
    /// the bounded drivers recycle queue slots — so a driver honouring a
    /// depth bound shows `max_in_flight() <= depth` exactly.
    pub fn max_in_flight(&self) -> u64 {
        Self::max_overlap(self.tracked.iter())
    }

    /// Peak in-flight occupancy for one tenant's units (same boundary
    /// rule as [`QueueDepthProbe::max_in_flight`]).
    pub fn tenant_max_in_flight(&self, tenant: u16) -> u64 {
        Self::max_overlap(self.tracked.iter().filter(|t| t.0 == tenant))
    }

    fn max_overlap<'a>(units: impl Iterator<Item = &'a (u16, SimTime, SimTime, SimTime)>) -> u64 {
        // Event sweep: +1 at issue, -1 at done; at equal times departures
        // are processed first (the second key orders -1 before +1).
        let mut events: Vec<(SimTime, i8)> = Vec::new();
        for &(_, _, issue, done) in units {
            events.push((issue, 1));
            events.push((done, -1));
        }
        events.sort_unstable_by_key(|&(t, d)| (t, d));
        let (mut gauge, mut max) = (0i64, 0i64);
        for (_, d) in events {
            gauge += d as i64;
            max = max.max(gauge);
        }
        max as u64
    }

    fn mean_ms<'a>(units: impl Iterator<Item = &'a (u16, SimTime, SimTime, SimTime)>) -> f64 {
        let (mut sum_ns, mut n) = (0u128, 0u64);
        for &(_, arrival, _, done) in units {
            sum_ns += (done.as_nanos() - arrival.as_nanos()) as u128;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum_ns as f64 / n as f64 / 1e6
        }
    }

    /// The locked CSV header *prefix* of [`QueueDepthProbe::csv`].
    /// `in_flight` and `pending` are the queue occupancies at the *end* of
    /// each bucket; `admitted` and `completed` are the deltas within it.
    /// Multi-tenant runs append per-tenant column blocks strictly *after*
    /// these five columns (the workspace schema-extension rule), so
    /// downstream tooling must match this as a prefix, not the whole
    /// header. Changing the prefix itself is a breaking change — update
    /// the schema note in EXPERIMENTS.md if you must.
    pub fn csv_header() -> &'static str {
        "bucket_start_ms,in_flight,pending,admitted,completed"
    }

    /// Render the queue-depth-over-time timeline: simulated time from zero
    /// through the last completion is divided into the span timelines'
    /// `buckets` windows, and each row reports the in-flight and pending
    /// counts at the end of the window plus the number of admissions and
    /// completions inside it.
    ///
    /// When every tracked unit is untagged (tenant `0`) the output is
    /// exactly the legacy five-column aggregate. When any unit carries a
    /// non-zero tenant id, each distinct tenant (ascending) appends a
    /// four-column gauge block `t{id}_in_flight,t{id}_pending,
    /// t{id}_admitted,t{id}_completed` after the locked prefix; the
    /// aggregate columns always equal the sum of the per-tenant blocks.
    ///
    /// Fully deterministic; always exactly `buckets` rows (all-zero rows
    /// for an empty probe), so consumers can rely on the shape.
    pub fn csv(&self, buckets: usize) -> String {
        // One event sweep per rendered column block: sorted event arrays
        // plus a cursor triple advanced bucket by bucket.
        struct Sweep {
            arrivals: Vec<u64>,
            issues: Vec<u64>,
            dones: Vec<u64>,
            ai: usize,
            ii: usize,
            di: usize,
        }
        impl Sweep {
            fn new<'a>(units: impl Iterator<Item = &'a (u16, SimTime, SimTime, SimTime)>) -> Self {
                let (mut arrivals, mut issues, mut dones) = (Vec::new(), Vec::new(), Vec::new());
                for &(_, a, i, d) in units {
                    arrivals.push(a.as_nanos());
                    issues.push(i.as_nanos());
                    dones.push(d.as_nanos());
                }
                arrivals.sort_unstable();
                issues.sort_unstable();
                dones.sort_unstable();
                Sweep {
                    arrivals,
                    issues,
                    dones,
                    ai: 0,
                    ii: 0,
                    di: 0,
                }
            }
            /// Advance to bucket end; returns
            /// `(in_flight, pending, admitted, completed)`.
            fn advance(&mut self, end: u64) -> (usize, usize, usize, usize) {
                let (issued_before, done_before) = (self.ii, self.di);
                while self.ai < self.arrivals.len() && self.arrivals[self.ai] < end {
                    self.ai += 1;
                }
                while self.ii < self.issues.len() && self.issues[self.ii] < end {
                    self.ii += 1;
                }
                while self.di < self.dones.len() && self.dones[self.di] < end {
                    self.di += 1;
                }
                (
                    self.ii - self.di,
                    self.ai - self.ii,
                    self.ii - issued_before,
                    self.di - done_before,
                )
            }
        }

        let tenants = self.tenants();
        // Per-tenant blocks only exist once a real (non-zero) stream id
        // shows up — untagged runs keep the legacy aggregate-only schema.
        let per_tenant: Vec<u16> = if tenants.iter().any(|&t| t != 0) {
            tenants
        } else {
            Vec::new()
        };
        let mut aggregate = Sweep::new(self.tracked.iter());
        let mut tenant_sweeps: Vec<Sweep> = per_tenant
            .iter()
            .map(|&t| Sweep::new(self.tracked.iter().filter(move |u| u.0 == t)))
            .collect();

        let grid = Grid::new(aggregate.dones.last().copied().unwrap_or(0), buckets);
        let mut out = String::from(Self::csv_header());
        for t in &per_tenant {
            let _ = write!(
                out,
                ",t{t}_in_flight,t{t}_pending,t{t}_admitted,t{t}_completed"
            );
        }
        out.push('\n');
        for b in 0..grid.buckets {
            // The final window is closed on the right so the event at
            // exactly the grid's end (the last completion) is counted.
            let end = grid.end(b) + u64::from(b + 1 == grid.buckets);
            let (fl, pe, ad, co) = aggregate.advance(end);
            let _ = write!(out, "{:.6},{fl},{pe},{ad},{co}", grid.start(b) as f64 / 1e6);
            for sweep in &mut tenant_sweeps {
                let (fl, pe, ad, co) = sweep.advance(end);
                let _ = write!(out, ",{fl},{pe},{ad},{co}");
            }
            out.push('\n');
        }
        out
    }
}

/// Minimal JSON syntax validator (hermetic substitute for `python -m
/// json.tool` in the verify pipeline). Accepts exactly one JSON value plus
/// surrounding whitespace; reports the byte offset of the first error.
pub fn json_lint(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(b, i);
        let Some(&c) = b.get(*i) else {
            return Err(format!("unexpected end of input at byte {i}"));
        };
        match c {
            b'{' => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, i);
                    string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at byte {i}"));
                    }
                    *i += 1;
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(&b',') => *i += 1,
                        Some(&b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                    }
                }
            }
            b'[' => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(&b',') => *i += 1,
                        Some(&b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {i}")),
                    }
                }
            }
            b'"' => string(b, i),
            b't' => literal(b, i, b"true"),
            b'f' => literal(b, i, b"false"),
            b'n' => literal(b, i, b"null"),
            b'-' | b'0'..=b'9' => number(b, i),
            _ => Err(format!("unexpected byte {c:#04x} at {i}")),
        }
    }
    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
        if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
            *i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {i}"))
        }
    }
    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected string at byte {i}"));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                        Some(b'u') => {
                            for k in 1..=4 {
                                if !b.get(*i + k).is_some_and(u8::is_ascii_hexdigit) {
                                    return Err(format!("bad \\u escape at byte {i}"));
                                }
                            }
                            *i += 5;
                        }
                        _ => return Err(format!("bad escape at byte {i}")),
                    }
                }
                0x00..=0x1f => return Err(format!("raw control char in string at byte {i}")),
                _ => *i += 1,
            }
        }
        Err("unterminated string".to_string())
    }
    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        let digits = |b: &[u8], i: &mut usize| -> usize {
            let s = *i;
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
            *i - s
        };
        if digits(b, i) == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            if digits(b, i) == 0 {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(b.get(*i), Some(&b'e') | Some(&b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(&b'+') | Some(&b'-')) {
                *i += 1;
            }
            if digits(b, i) == 0 {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        Ok(())
    }
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(plane: u32, start_us: u64, end_us: u64, phase: SpanPhase) -> Span {
        let start = SimTime::from_micros(start_us);
        let end = SimTime::from_micros(end_us);
        Span {
            kind: SpanKind::Read,
            phase,
            lpn: Some(7),
            req: None,
            plane,
            dst_plane: None,
            issue: start,
            end,
            retry_ns: 0,
            retry_steps: 0,
            segs: [
                Some(Seg {
                    resource: Resource::Plane(plane),
                    start,
                    end,
                }),
                None,
                None,
                None,
            ],
        }
    }

    #[test]
    fn ring_buffer_bounds_and_drops_oldest() {
        let mut rec = RingSink::new(3);
        for i in 0..5 {
            rec.push(span(i, i as u64 * 10, i as u64 * 10 + 5, SpanPhase::Host));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.recorded(), 5);
        // Oldest-first iteration yields spans 2, 3, 4.
        let planes: Vec<u32> = rec.spans().map(|s| s.plane).collect();
        assert_eq!(planes, vec![2, 3, 4]);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn queue_probe_csv_shape_and_conservation() {
        let mut probe = QueueDepthProbe::new();
        // Three units: arrivals at 0/10/20 µs, issues at 0/15/30, dones at
        // 40/50/60 — recorded out of order to exercise the internal sort.
        let t = SimTime::from_micros;
        probe.track(0, t(10), t(15), t(50));
        probe.track(0, t(0), t(0), t(40));
        probe.track(0, t(20), t(30), t(60));
        assert_eq!(probe.len(), 3);
        assert!(!probe.is_empty());
        assert_eq!(probe.tracked().len(), 3);

        let csv = probe.csv(6);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(QueueDepthProbe::csv_header()));
        let rows: Vec<Vec<String>> = lines
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        assert_eq!(rows.len(), 6);
        let col = |r: &[String], c: usize| r[c].parse::<i64>().unwrap();
        let (mut admitted, mut completed) = (0, 0);
        for r in &rows {
            assert_eq!(r.len(), 5);
            assert!(col(r, 1) >= 0 && col(r, 2) >= 0);
            admitted += col(r, 3);
            completed += col(r, 4);
        }
        // Everything admitted and completed exactly once; queues drain.
        assert_eq!(admitted, 3);
        assert_eq!(completed, 3);
        let last = rows.last().unwrap();
        assert_eq!(col(last, 1), 0);
        assert_eq!(col(last, 2), 0);
        // Bucket width = 60 µs / 6 = 10 µs; bucket boundaries are
        // end-exclusive, so unit 1's arrival at exactly 10 µs falls in
        // bucket 1. End of bucket 0: unit 0 in flight, nothing pending.
        assert_eq!(col(&rows[0], 1), 1);
        assert_eq!(col(&rows[0], 2), 0);
        // End of bucket 2 (t < 30 µs): units 0,1 issued, unit 2 pending.
        assert_eq!(col(&rows[2], 1), 2);
        assert_eq!(col(&rows[2], 2), 1);
    }

    #[test]
    fn queue_probe_empty_still_emits_shape() {
        let probe = QueueDepthProbe::new();
        let csv = probe.csv(4);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], QueueDepthProbe::csv_header());
        for row in &lines[1..] {
            assert!(row.ends_with(",0,0,0,0"), "expected all-zero row: {row}");
        }
    }

    #[test]
    fn queue_probe_tenant_blocks_extend_the_locked_prefix() {
        let mut probe = QueueDepthProbe::new();
        let t = SimTime::from_micros;
        probe.track(1, t(0), t(0), t(40));
        probe.track(2, t(10), t(15), t(50));
        probe.track(1, t(20), t(30), t(60));
        assert_eq!(probe.tenants(), vec![1, 2]);
        assert_eq!(probe.tenant_len(1), 2);
        assert_eq!(probe.tenant_len(2), 1);
        // Turnarounds: tenant 1 has 40 µs and 40 µs, tenant 2 has 40 µs.
        assert!((probe.tenant_mean_turnaround_ms(1) - 0.040).abs() < 1e-12);
        assert!((probe.mean_turnaround_ms() - 0.040).abs() < 1e-12);
        assert_eq!(probe.tenant_mean_turnaround_ms(9), 0.0);

        let csv = probe.csv(3);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with(QueueDepthProbe::csv_header()));
        assert_eq!(
            header,
            "bucket_start_ms,in_flight,pending,admitted,completed,\
             t1_in_flight,t1_pending,t1_admitted,t1_completed,\
             t2_in_flight,t2_pending,t2_admitted,t2_completed"
        );
        for row in lines {
            let cols: Vec<i64> = row.split(',').skip(1).map(|c| c.parse().unwrap()).collect();
            assert_eq!(cols.len(), 12);
            // Aggregate columns are the sum of the per-tenant blocks.
            for g in 0..4 {
                assert_eq!(cols[g], cols[4 + g] + cols[8 + g], "gauge {g}: {row}");
            }
        }
    }

    #[test]
    fn attribution_sums_by_phase() {
        let mut rec = RingSink::new(16);
        rec.push(span(0, 0, 10, SpanPhase::Host));
        rec.push(span(1, 0, 30, SpanPhase::Gc));
        rec.push(span(0, 40, 45, SpanPhase::Host));
        let a = attribution(&rec);
        assert_eq!(a.host.spans, 2);
        assert_eq!(a.host.residence_ns, 15_000);
        assert_eq!(a.gc.spans, 1);
        assert_eq!(a.gc.residence_ns, 30_000);
        assert_eq!(a.scan.spans, 0);
        assert_eq!(a.request_visible_ns(), 45_000);
        let csv = a.csv();
        assert!(csv.starts_with(Attribution::csv_header()));
        // Header + one row per phase (device rows first, then the
        // host-stack rows appended).
        assert_eq!(csv.lines().count(), 1 + SpanPhase::all().len());
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert!(rows[0].starts_with("host,"));
        assert!(rows[3].starts_with("host_queue,"));
        assert!(rows[4].starts_with("cache,"));
        assert!(rows[5].starts_with("completion,"));
    }

    #[test]
    fn attribution_accumulates_host_stack_phases() {
        let mut rec = RingSink::new(16);
        rec.push(span(0, 0, 10, SpanPhase::HostQueue));
        rec.push(span(0, 10, 25, SpanPhase::Host));
        rec.push(span(0, 25, 27, SpanPhase::Cache));
        rec.push(span(0, 27, 31, SpanPhase::Completion));
        let a = attribution(&rec);
        assert_eq!(a.host_queue.spans, 1);
        assert_eq!(a.host_queue.residence_ns, 10_000);
        assert_eq!(a.cache.spans, 1);
        assert_eq!(a.cache.residence_ns, 2_000);
        assert_eq!(a.completion.spans, 1);
        assert_eq!(a.completion.residence_ns, 4_000);
        // Host-stack phases never count into the device-visible sum.
        assert_eq!(a.request_visible_ns(), 15_000);
        assert_eq!(a.row(SpanPhase::HostQueue).residence_ns, 10_000);
        assert_eq!(a.row(SpanPhase::Cache).residence_ns, 2_000);
        assert_eq!(a.row(SpanPhase::Completion).residence_ns, 4_000);
    }

    #[test]
    fn probe_max_in_flight_sweeps_per_tenant_with_boundary_reuse() {
        let mut p = QueueDepthProbe::new();
        let us = SimTime::from_micros;
        // Tenant 1: two overlapping units, then one reusing the slot the
        // first freed at exactly its issue instant (boundary: -1 first).
        p.track(1, us(0), us(0), us(10));
        p.track(1, us(2), us(4), us(12));
        p.track(1, us(10), us(10), us(20));
        // Tenant 2: strictly sequential.
        p.track(2, us(0), us(0), us(5));
        p.track(2, us(5), us(6), us(9));
        assert_eq!(p.tenant_max_in_flight(1), 2);
        assert_eq!(p.tenant_max_in_flight(2), 1);
        assert_eq!(p.max_in_flight(), 3);
        assert_eq!(QueueDepthProbe::new().max_in_flight(), 0);
    }

    #[test]
    fn buckets_tile_residence() {
        let s = span(2, 5, 17, SpanPhase::Host);
        assert_eq!(s.buckets_ns(), s.residence_ns());
    }

    /// Plane 0 busy 0–13 µs, plane 1 5–29 µs, plane 2 3–7 µs then channel
    /// 1 7–11 µs: 29 µs of covered time, which 7 buckets do not divide.
    fn tail_fixture() -> RingSink {
        let mut rec = RingSink::new(16);
        rec.push(span(0, 0, 13, SpanPhase::Host));
        rec.push(span(1, 5, 29, SpanPhase::Gc));
        let mut with_bus = span(2, 3, 7, SpanPhase::Host);
        with_bus.segs[1] = Some(Seg {
            resource: Resource::Channel(1),
            start: SimTime::from_micros(7),
            end: SimTime::from_micros(11),
        });
        with_bus.end = SimTime::from_micros(11);
        rec.push(with_bus);
        rec
    }

    /// The exact `(array_fj, bus_fj)` energy the retained segments imply —
    /// the reference value [`power_csv`]'s bucket grid must sum to, and (when
    /// the recorder saw every span of a run) the run report's energy totals.
    fn power_totals_fj(rec: &RingSink, array_active_uw: u64, bus_active_uw: u64) -> (u64, u64) {
        let mut array = 0u64;
        let mut bus = 0u64;
        for s in rec.spans() {
            for seg in s.segments() {
                let ns = seg.end.saturating_since(seg.start).as_nanos();
                match seg.resource {
                    Resource::Plane(_) => {
                        array = array
                            .checked_add(power_fj(array_active_uw, ns))
                            .expect("power totals overflow")
                    }
                    Resource::Channel(_) => {
                        bus = bus
                            .checked_add(power_fj(bus_active_uw, ns))
                            .expect("power totals overflow")
                    }
                }
            }
        }
        (array, bus)
    }

    /// The power timeline's integer-identity contract: every column (and
    /// the row totals) sums over all buckets to exactly `draw × busy-ns`,
    /// even when the covered time does not divide evenly into windows —
    /// the last window stretches to the final release.
    #[test]
    fn power_csv_buckets_sum_exactly_to_totals() {
        let rec = tail_fixture();
        let (array_uw, bus_uw) = (82_500, 16_500);
        // 29 000 ns over 7 buckets: width 4142 ns, 7×4142 = 28 994 — the
        // 6 ns tail must land in the stretched last window.
        let csv = power_csv(&rec, 4, 2, 7, array_uw, bus_uw);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "bucket_start_ms,bucket_end_ms,plane_0_fj,plane_1_fj,plane_2_fj,plane_3_fj,\
             channel_0_fj,channel_1_fj,total_fj"
        );
        assert_eq!(lines.len(), 1 + 7);
        let mut sums = vec![0u64; 7];
        for row in &lines[1..] {
            for (i, v) in row.split(',').skip(2).enumerate() {
                sums[i] += v.parse::<u64>().unwrap();
            }
        }
        // Row totals are the sum of their resource columns.
        assert_eq!(sums[6], sums[..6].iter().sum::<u64>());
        // Column identities: plane 0 held 13 µs, plane 1 24 µs, plane 2
        // 4 µs, channel 1 4 µs; nothing else ran.
        assert_eq!(sums[0], 13_000 * array_uw);
        assert_eq!(sums[1], 24_000 * array_uw);
        assert_eq!(sums[2], 4_000 * array_uw);
        assert_eq!(sums[3], 0);
        assert_eq!(sums[4], 0);
        assert_eq!(sums[5], 4_000 * bus_uw);
        // And the grid total equals the reference seg-sum totals exactly.
        let (array_fj, bus_fj) = power_totals_fj(&rec, array_uw, bus_uw);
        assert_eq!(sums[6], array_fj + bus_fj);
        // The last window's end is the final release, not a truncation.
        let last = lines.last().unwrap();
        let end_ms: f64 = last.split(',').nth(1).unwrap().parse().unwrap();
        assert!((end_ms - 0.029).abs() < 1e-9, "last window end: {end_ms}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_tracks() {
        let mut rec = RingSink::new(8);
        rec.push(span(0, 0, 10, SpanPhase::Host));
        rec.push(span(3, 5, 25, SpanPhase::Gc));
        let json = chrome_trace_json(&rec);
        json_lint(&json).expect("export must be valid JSON");
        assert!(json.contains("\"plane 0\""));
        assert!(json.contains("\"plane 3\""));
        assert!(json.contains("\"cat\":\"gc\""));
        assert!(json.contains("\"dropped_spans\":0"));
    }

    #[test]
    fn chrome_export_of_empty_recorder_is_valid() {
        let rec = RingSink::new(4);
        json_lint(&chrome_trace_json(&rec)).unwrap();
    }

    #[test]
    fn utilization_csv_shape_and_values() {
        let mut rec = RingSink::new(8);
        // Plane 0 busy the whole first half, idle the second.
        rec.push(span(0, 0, 50, SpanPhase::Host));
        rec.push(span(1, 99, 100, SpanPhase::Host));
        let csv = plane_utilization_csv(&rec, 2, 2);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "bucket_start_ms,bucket_end_ms,plane_0,plane_1");
        assert_eq!(lines.len(), 3);
        let first: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(first[2], "1.0000"); // plane 0 fully busy in bucket 0
        let second: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(second[2], "0.0000"); // and idle in bucket 1

        // The windows cover the run exactly: the last one ends at the
        // final release, and Σ fraction × window length gives back each
        // plane's busy time at the printed precision (±0.5e-4 of a window).
        let csv = plane_utilization_csv(&tail_fixture(), 3, 7);
        let rows: Vec<Vec<f64>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|v| v.parse().unwrap()).collect())
            .collect();
        assert_eq!(rows.last().unwrap()[1], 0.029, "last window end");
        for (plane, busy_ns) in [13_000.0, 24_000.0, 4_000.0].into_iter().enumerate() {
            let sum: f64 = rows
                .iter()
                .map(|r| r[2 + plane] * (r[1] - r[0]) * 1e6)
                .sum();
            assert!(
                (sum - busy_ns).abs() <= 0.5e-4 * 29_000.0,
                "plane {plane}: {sum} ns vs {busy_ns} ns"
            );
        }
    }

    fn req_span(plane: u32, start_us: u64, end_us: u64, req: u64) -> Span {
        Span {
            req: Some(req),
            ..span(plane, start_us, end_us, SpanPhase::Host)
        }
    }

    #[test]
    fn span_jsonl_renders_request_and_gc_fields() {
        let host = span_jsonl(&req_span(0, 0, 10, 1));
        let gc = span_jsonl(&span(3, 5, 25, SpanPhase::Gc));
        for line in [&host, &gc] {
            json_lint(line).expect("each JSONL line must be valid JSON");
            assert!(!line.contains('\n'), "one span, one line: {line}");
        }
        assert!(host.contains("\"req\":1,"), "{host}");
        assert!(host.contains("\"phase\":\"host\""), "{host}");
        assert!(host.contains("\"end_ns\":10000,"), "{host}");
        assert!(host.contains("\"segs\":[[\"p\",0,0,10000]]"), "{host}");
        assert!(gc.contains("\"req\":null"), "{gc}");
        assert!(gc.contains("\"phase\":\"gc\""), "{gc}");
        assert!(gc.contains("\"plane\":3,"), "{gc}");
        assert!(gc.contains("\"start_ns\":5000,"), "{gc}");
    }

    #[test]
    fn flow_events_stitch_multi_span_requests() {
        let mut rec = RingSink::new(16);
        // Request 7: two spans on different planes; request 8: one span
        // (no flow emitted); an anonymous span (no req id).
        rec.push(req_span(0, 0, 10, 7));
        rec.push(req_span(3, 12, 20, 7));
        rec.push(req_span(1, 30, 40, 8));
        rec.push(span(2, 50, 60, SpanPhase::Scan));
        let json = chrome_trace_json(&rec);
        json_lint(&json).expect("flow export must stay valid JSON");
        assert!(json.contains("\"ph\":\"s\",\"id\":7"));
        assert!(json.contains("\"ph\":\"f\",\"id\":7"));
        assert!(json.contains("\"bp\":\"e\""));
        // Single-span requests are not stitched.
        assert!(!json.contains("\"id\":8"));
        // Slices carry the request id for hovering.
        assert!(json.contains("\"req\":7"));
    }

    #[test]
    fn flow_events_span_three_or_more_ops_with_steps() {
        let mut rec = RingSink::new(16);
        rec.push(req_span(0, 0, 10, 5));
        rec.push(req_span(1, 12, 20, 5));
        rec.push(req_span(2, 22, 30, 5));
        let json = chrome_trace_json(&rec);
        json_lint(&json).unwrap();
        assert!(json.contains("\"ph\":\"s\",\"id\":5"));
        assert!(json.contains("\"ph\":\"t\",\"id\":5"));
        assert!(json.contains("\"ph\":\"f\",\"id\":5"));
    }

    #[test]
    fn channel_utilization_csv_shape_and_values() {
        let mut rec = RingSink::new(8);
        // A channel-only segment: fabricate a span holding channel 1 for
        // the whole first half of the covered window.
        let mut s = span(0, 0, 50, SpanPhase::Host);
        s.segs[0] = Some(Seg {
            resource: Resource::Channel(1),
            start: SimTime::from_micros(0),
            end: SimTime::from_micros(50),
        });
        rec.push(s);
        rec.push(span(1, 99, 100, SpanPhase::Host));
        let csv = channel_utilization_csv(&rec, 2, 2);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "bucket_start_ms,bucket_end_ms,channel_0,channel_1"
        );
        assert_eq!(lines.len(), 3);
        let first: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(first[3], "1.0000"); // channel 1 fully busy in bucket 0
        assert_eq!(first[2], "0.0000"); // channel 0 idle throughout
        let second: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(second[3], "0.0000");
    }

    #[test]
    fn json_lint_accepts_and_rejects() {
        json_lint("{\"a\":[1,2.5,-3e2,true,false,null,\"x\\n\"]}").unwrap();
        json_lint("  [ ]  ").unwrap();
        assert!(json_lint("{\"a\":1,}").is_err());
        assert!(json_lint("[1 2]").is_err());
        assert!(json_lint("{\"a\"}").is_err());
        assert!(json_lint("01a").is_err());
        assert!(json_lint("\"unterminated").is_err());
        assert!(json_lint("[1] trailing").is_err());
    }
}
