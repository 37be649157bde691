//! The length-prefixed, checksummed wire protocol for the broker's TCP
//! transport.
//!
//! Every message on a transport connection is one **frame**:
//!
//! ```text
//! offset  size  field
//!      0     2  magic      0xB55A, little-endian ("5AB5" = slab)
//!      2     1  version    protocol version, currently 1
//!      3     1  kind       1 = request, 2 = reply, 3 = reject
//!      4     4  len        payload length in bytes, little-endian
//!      8     4  crc32      IEEE CRC-32 over version‖kind‖len‖payload
//!     12   len  payload    kind-specific body
//! ```
//!
//! The checksum covers the header fields *after* the magic as well as the
//! payload, so a single flipped bit anywhere in a frame is detected either
//! as [`WireError::BadMagic`] or as [`WireError::ChecksumMismatch`] — a torn
//! or corrupted frame can never silently decode into a different request.
//! Decoding is incremental: [`decode_frame`] answers `Ok(None)` ("need more
//! bytes") until a full frame is buffered, which is what lets the server
//! read in timeout-bounded slices without ever blocking on a half-frame.
//!
//! All integers are little-endian. Payload bodies are fixed layouts per
//! kind (variable length only for `SEARCHALL` result lists), so there is no
//! in-band schema and no allocation on the happy decode path beyond the
//! reply's value list.

use std::io::{self, Read, Write};
use std::time::Duration;

use slab_alloc::AllocError;
use slab_hash::{OpKind, OpResult, Request, TableError};

use crate::error::IngressError;

/// Frame magic: "5AB5" — a slab, on the wire.
pub const MAGIC: u16 = 0xB55A;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed frame-header size in bytes (magic + version + kind + len + crc32).
pub const HEADER_LEN: usize = 12;
/// Upper bound on a frame payload. Anything larger is a protocol violation
/// (or a corrupted length field) and is rejected before buffering.
pub const MAX_PAYLOAD: usize = 1 << 20;

const KIND_REQUEST: u8 = 1;
const KIND_REPLY: u8 = 2;
const KIND_REJECT: u8 = 3;

/// Why a byte sequence failed to decode as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The first two bytes are not the frame magic; the stream is not
    /// speaking this protocol (or lost framing).
    BadMagic,
    /// The version byte names a protocol this decoder does not speak.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The length field claims a payload above [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The CRC-32 over version‖kind‖len‖payload does not match the header;
    /// the frame was corrupted in flight.
    ChecksumMismatch,
    /// The kind byte names no known frame kind (checksum valid — a peer
    /// speaking a newer protocol).
    UnknownKind(u8),
    /// A payload tag byte (op kind, result tag, error code) names no known
    /// variant.
    UnknownTag(u8),
    /// The payload ended before its fixed layout was fully read.
    Truncated,
    /// The payload contained bytes past the end of its layout.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            WireError::Oversized { len } => {
                write!(f, "payload length {len} exceeds {MAX_PAYLOAD} bytes")
            }
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::UnknownTag(t) => write!(f, "unknown payload tag {t}"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBytes => write!(f, "payload has trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, no dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Feeds `bytes` into a running CRC-32 state (start from `!0`, finish by
/// inverting).
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

fn frame_crc(version: u8, kind: u8, len: u32, payload: &[u8]) -> u32 {
    let mut crc = !0u32;
    crc = crc32_update(crc, &[version, kind]);
    crc = crc32_update(crc, &len.to_le_bytes());
    crc = crc32_update(crc, payload);
    !crc
}

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

/// A client request on the wire: the table operation plus the client-chosen
/// correlation id and deadline budget the server maps onto the broker's
/// per-request deadline machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed verbatim on the reply.
    pub req_id: u64,
    /// The table operation to submit.
    pub req: Request,
    /// Deadline budget for the request (server-side admission starts a
    /// fresh clock on receipt; wire latency is the client's to budget).
    pub budget: Duration,
}

/// How a server declined to *execute* an individual request. Unlike
/// [`IngressError`], these refusals never reached the broker: the transport
/// itself turned the request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The connection's inflight window is full; retry after replies drain.
    InflightCap {
        /// The configured per-connection inflight limit.
        limit: u64,
    },
    /// The server is drain-shutting-down and no longer accepts new work
    /// (requests already in flight are still answered).
    Draining,
}

/// The body of a reply frame: exactly one of the table's result, a typed
/// ingress error, or a transport-level refusal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// The table executed the operation.
    Result(OpResult),
    /// The ingress layer refused or failed the request (typed).
    Ingress(IngressError),
    /// The transport refused the request before it reached the broker.
    Refused(Refusal),
}

/// A reply frame: the correlation id of the request it answers plus the
/// outcome. Every accepted request yields exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReply {
    /// The request's correlation id, echoed back.
    pub req_id: u64,
    /// The outcome.
    pub body: ReplyBody,
}

/// Why a server rejected the *connection* (not an individual request).
/// Sent best-effort before close so the peer sees a typed reason instead of
/// a silent RST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The server is at its connection cap.
    MaxConnections {
        /// The configured connection limit.
        max: u64,
    },
    /// The server is drain-shutting-down and not accepting connections.
    Draining,
    /// The peer sent an undecodable frame; the connection is poisoned
    /// (framing is lost) and will be closed.
    BadFrame,
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: execute this operation.
    Request(WireRequest),
    /// Server → client: the outcome of one request.
    Reply(WireReply),
    /// Server → client: the connection itself is being refused or closed.
    Reject(RejectReason),
}

// ---------------------------------------------------------------------------
// Payload encode/decode helpers
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over one payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

// Tags 2, 4, 5 and 6 are retired (they named op kinds that no longer
// exist) and decode as `UnknownTag`; the remaining numbers never move, so
// `VERSION` stays put.
fn op_kind_tag(op: OpKind) -> u8 {
    match op {
        OpKind::None => 0,
        OpKind::Insert => 1,
        OpKind::Replace => 3,
        OpKind::Delete => 7,
        OpKind::DeleteAll => 8,
        OpKind::Search => 9,
        OpKind::SearchAll => 10,
    }
}

fn op_kind_from(tag: u8) -> Result<OpKind, WireError> {
    Ok(match tag {
        0 => OpKind::None,
        1 => OpKind::Insert,
        3 => OpKind::Replace,
        7 => OpKind::Delete,
        8 => OpKind::DeleteAll,
        9 => OpKind::Search,
        10 => OpKind::SearchAll,
        t => return Err(WireError::UnknownTag(t)),
    })
}

// Error tag 3 is retired (it named a maintenance-busy error that no longer
// exists) and decodes as `UnknownTag`, so `VERSION` stays put.
fn encode_table_error(buf: &mut Vec<u8>, e: TableError) {
    match e {
        TableError::OutOfSlabs(AllocError::OutOfSlabs {
            allocated,
            capacity,
        }) => {
            buf.push(0);
            put_u64(buf, allocated);
            put_u64(buf, capacity);
        }
        TableError::OutOfSlabs(AllocError::Injected) => buf.push(1),
        TableError::RetryBudgetExhausted { budget } => {
            buf.push(2);
            put_u32(buf, budget);
        }
    }
}

fn decode_table_error(r: &mut Reader<'_>) -> Result<TableError, WireError> {
    Ok(match r.u8()? {
        0 => TableError::OutOfSlabs(AllocError::OutOfSlabs {
            allocated: r.u64()?,
            capacity: r.u64()?,
        }),
        1 => TableError::OutOfSlabs(AllocError::Injected),
        2 => TableError::RetryBudgetExhausted { budget: r.u32()? },
        t => return Err(WireError::UnknownTag(t)),
    })
}

fn encode_op_result(buf: &mut Vec<u8>, res: &OpResult) {
    match res {
        OpResult::Pending => buf.push(0),
        OpResult::Inserted => buf.push(1),
        OpResult::Replaced(v) => {
            buf.push(2);
            put_u32(buf, *v);
        }
        OpResult::Found(v) => {
            buf.push(3);
            put_u32(buf, *v);
        }
        OpResult::NotFound => buf.push(4),
        OpResult::Deleted(v) => {
            buf.push(5);
            put_u32(buf, *v);
        }
        OpResult::DeletedCount(n) => {
            buf.push(6);
            put_u32(buf, *n);
        }
        OpResult::FoundAll(values) => {
            buf.push(7);
            put_u32(buf, values.len() as u32);
            for v in values {
                put_u32(buf, *v);
            }
        }
        OpResult::Failed(e) => {
            buf.push(8);
            encode_table_error(buf, *e);
        }
    }
}

fn decode_op_result(r: &mut Reader<'_>) -> Result<OpResult, WireError> {
    Ok(match r.u8()? {
        0 => OpResult::Pending,
        1 => OpResult::Inserted,
        2 => OpResult::Replaced(r.u32()?),
        3 => OpResult::Found(r.u32()?),
        4 => OpResult::NotFound,
        5 => OpResult::Deleted(r.u32()?),
        6 => OpResult::DeletedCount(r.u32()?),
        7 => {
            let count = r.u32()? as usize;
            // The remaining payload bounds the count: a corrupted length
            // cannot force a huge allocation.
            if count > (r.buf.len() - r.pos) / 4 {
                return Err(WireError::Truncated);
            }
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(r.u32()?);
            }
            OpResult::FoundAll(values)
        }
        8 => OpResult::Failed(decode_table_error(r)?),
        t => return Err(WireError::UnknownTag(t)),
    })
}

// Ingress error tag 4 is retired (it named the circuit breaker's refusal,
// which no longer exists) and decodes as `UnknownTag`; the remaining numbers
// never move, so `VERSION` stays put.
fn encode_ingress_error(buf: &mut Vec<u8>, e: IngressError) {
    match e {
        IngressError::EmptyRequest => buf.push(0),
        IngressError::QueueFull { capacity } => {
            buf.push(1);
            put_u64(buf, capacity as u64);
        }
        IngressError::DeadlineExceeded { budget } => {
            buf.push(2);
            put_u64(buf, duration_to_ns(budget));
        }
        IngressError::ShedWrite => buf.push(3),
        IngressError::Table(te) => {
            buf.push(5);
            encode_table_error(buf, te);
        }
        IngressError::BrokerGone => buf.push(6),
    }
}

fn decode_ingress_error(r: &mut Reader<'_>) -> Result<IngressError, WireError> {
    Ok(match r.u8()? {
        0 => IngressError::EmptyRequest,
        1 => IngressError::QueueFull {
            capacity: r.u64()? as usize,
        },
        2 => IngressError::DeadlineExceeded {
            budget: Duration::from_nanos(r.u64()?),
        },
        3 => IngressError::ShedWrite,
        5 => IngressError::Table(decode_table_error(r)?),
        6 => IngressError::BrokerGone,
        t => return Err(WireError::UnknownTag(t)),
    })
}

fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn encode_payload(frame: &Frame, buf: &mut Vec<u8>) -> u8 {
    match frame {
        Frame::Request(req) => {
            put_u64(buf, req.req_id);
            buf.push(op_kind_tag(req.req.op));
            put_u32(buf, req.req.key);
            put_u32(buf, req.req.value);
            // Reserved slot: it carried a comparand for a retired op kind.
            // It is still written (as 0) and read (and ignored) so frames
            // keep their size and decode stays total under this `VERSION`.
            put_u32(buf, 0);
            put_u64(buf, duration_to_ns(req.budget));
            KIND_REQUEST
        }
        Frame::Reply(reply) => {
            put_u64(buf, reply.req_id);
            match &reply.body {
                ReplyBody::Result(res) => {
                    buf.push(0);
                    encode_op_result(buf, res);
                }
                ReplyBody::Ingress(e) => {
                    buf.push(1);
                    encode_ingress_error(buf, *e);
                }
                ReplyBody::Refused(refusal) => {
                    buf.push(2);
                    match refusal {
                        Refusal::InflightCap { limit } => {
                            buf.push(0);
                            put_u64(buf, *limit);
                        }
                        Refusal::Draining => buf.push(1),
                    }
                }
            }
            KIND_REPLY
        }
        Frame::Reject(reason) => {
            match reason {
                RejectReason::MaxConnections { max } => {
                    buf.push(0);
                    put_u64(buf, *max);
                }
                RejectReason::Draining => buf.push(1),
                RejectReason::BadFrame => buf.push(2),
            }
            KIND_REJECT
        }
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(payload);
    let frame = match kind {
        KIND_REQUEST => {
            let req_id = r.u64()?;
            let op = op_kind_from(r.u8()?)?;
            let key = r.u32()?;
            let value = r.u32()?;
            let _reserved = r.u32()?;
            let budget = Duration::from_nanos(r.u64()?);
            Frame::Request(WireRequest {
                req_id,
                req: Request {
                    op,
                    key,
                    value,
                    result: OpResult::Pending,
                },
                budget,
            })
        }
        KIND_REPLY => {
            let req_id = r.u64()?;
            let body = match r.u8()? {
                0 => ReplyBody::Result(decode_op_result(&mut r)?),
                1 => ReplyBody::Ingress(decode_ingress_error(&mut r)?),
                2 => ReplyBody::Refused(match r.u8()? {
                    0 => Refusal::InflightCap { limit: r.u64()? },
                    1 => Refusal::Draining,
                    t => return Err(WireError::UnknownTag(t)),
                }),
                t => return Err(WireError::UnknownTag(t)),
            };
            Frame::Reply(WireReply { req_id, body })
        }
        KIND_REJECT => Frame::Reject(match r.u8()? {
            0 => RejectReason::MaxConnections { max: r.u64()? },
            1 => RejectReason::Draining,
            2 => RejectReason::BadFrame,
            t => return Err(WireError::UnknownTag(t)),
        }),
        k => return Err(WireError::UnknownKind(k)),
    };
    r.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

/// Appends `frame`, fully framed (header + checksum + payload), to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let header_at = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(0); // kind, patched below
    out.extend_from_slice(&[0; 8]); // len + crc, patched below
    let payload_at = out.len();
    let kind = encode_payload(frame, out);
    let len = (out.len() - payload_at) as u32;
    out[header_at + 3] = kind;
    out[header_at + 4..header_at + 8].copy_from_slice(&len.to_le_bytes());
    let crc = frame_crc(VERSION, kind, len, &out[payload_at..]);
    out[header_at + 8..header_at + 12].copy_from_slice(&crc.to_le_bytes());
}

/// Attempts to decode one frame from the front of `buf`.
///
/// - `Ok(Some((frame, consumed)))`: a full, checksum-valid frame; the caller
///   should drain `consumed` bytes.
/// - `Ok(None)`: `buf` holds only a prefix of a frame; read more bytes.
/// - `Err(_)`: the stream is corrupt at the front of `buf`; framing is lost
///   and the connection should be torn down (there is no resynchronization).
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        // Reject a wrong magic as soon as both bytes are present: no point
        // buffering toward a frame that can never validate.
        if buf.len() >= 2 && buf[..2] != MAGIC.to_le_bytes() {
            return Err(WireError::BadMagic);
        }
        return Ok(None);
    }
    if buf[..2] != MAGIC.to_le_bytes() {
        return Err(WireError::BadMagic);
    }
    let version = buf[2];
    let kind = buf[3];
    let len = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let payload = &buf[HEADER_LEN..total];
    if frame_crc(version, kind, len, payload) != crc {
        return Err(WireError::ChecksumMismatch);
    }
    let frame = decode_payload(kind, payload)?;
    Ok(Some((frame, total)))
}

// ---------------------------------------------------------------------------
// Stream helpers
// ---------------------------------------------------------------------------

/// A carry buffer for incremental frame decoding off a byte stream.
///
/// Feed raw reads in with [`extend`](Self::extend), pop decoded frames with
/// [`next_frame`](Self::next_frame). The buffer owns the partial-frame tail
/// between reads, which is what makes timeout-sliced socket reads safe: a
/// half-frame simply waits for the next slice.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty carry buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match decode_frame(&self.buf)? {
            Some((frame, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// True when no partial frame is buffered — an EOF here is a clean
    /// close, an EOF with bytes pending is a torn frame.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Why a stream read failed to produce a frame.
#[derive(Debug)]
pub enum FrameIoError {
    /// The underlying socket read failed (includes torn EOF mid-frame,
    /// surfaced as [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The bytes read do not decode as a frame.
    Wire(WireError),
}

impl std::fmt::Display for FrameIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameIoError::Io(e) => write!(f, "socket error: {e}"),
            FrameIoError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameIoError {}

impl From<io::Error> for FrameIoError {
    fn from(e: io::Error) -> Self {
        FrameIoError::Io(e)
    }
}

impl From<WireError> for FrameIoError {
    fn from(e: WireError) -> Self {
        FrameIoError::Wire(e)
    }
}

/// Writes one frame to `w` and flushes. `scratch` is reused across calls to
/// avoid re-allocating the encode buffer.
pub fn write_frame(w: &mut impl Write, frame: &Frame, scratch: &mut Vec<u8>) -> io::Result<()> {
    scratch.clear();
    encode_frame(frame, scratch);
    w.write_all(scratch)?;
    w.flush()
}

/// Reads whole frames from `r` until one is complete.
///
/// `Ok(None)` means the peer closed cleanly *at a frame boundary*; an EOF
/// with a partial frame buffered is a torn frame and surfaces as
/// [`io::ErrorKind::UnexpectedEof`]. Read timeouts configured on the
/// underlying socket pass through as their io errors (`WouldBlock` /
/// `TimedOut`), with any partial frame preserved in `carry` for the next
/// call.
pub fn read_frame(
    r: &mut impl Read,
    carry: &mut FrameBuffer,
) -> Result<Option<Frame>, FrameIoError> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = carry.next_frame()? {
            return Ok(Some(frame));
        }
        match r.read(&mut chunk) {
            Ok(0) => {
                return if carry.is_empty() {
                    Ok(None)
                } else {
                    Err(FrameIoError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    )))
                };
            }
            Ok(n) => carry.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameIoError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        let mut frames = vec![
            Frame::Request(WireRequest {
                req_id: 1,
                req: Request::replace(7, 70),
                budget: Duration::from_millis(25),
            }),
            Frame::Request(WireRequest {
                req_id: u64::MAX,
                req: Request::delete_all(9),
                budget: Duration::from_secs(3600),
            }),
            Frame::Request(WireRequest {
                req_id: 0,
                req: Request::search_all(1234),
                budget: Duration::ZERO,
            }),
            Frame::Reject(RejectReason::MaxConnections { max: 64 }),
            Frame::Reject(RejectReason::Draining),
            Frame::Reject(RejectReason::BadFrame),
        ];
        let results = [
            OpResult::Pending,
            OpResult::Inserted,
            OpResult::Replaced(17),
            OpResult::Found(u32::MAX),
            OpResult::NotFound,
            OpResult::Deleted(0),
            OpResult::DeletedCount(11),
            OpResult::FoundAll(vec![]),
            OpResult::FoundAll(vec![1, 2, 3, u32::MAX]),
            OpResult::Failed(TableError::OutOfSlabs(AllocError::OutOfSlabs {
                allocated: 1024,
                capacity: 1024,
            })),
            OpResult::Failed(TableError::OutOfSlabs(AllocError::Injected)),
            OpResult::Failed(TableError::RetryBudgetExhausted { budget: 64 }),
        ];
        for (i, res) in results.into_iter().enumerate() {
            frames.push(Frame::Reply(WireReply {
                req_id: i as u64,
                body: ReplyBody::Result(res),
            }));
        }
        let errors = [
            IngressError::EmptyRequest,
            IngressError::QueueFull { capacity: 4096 },
            IngressError::DeadlineExceeded {
                budget: Duration::from_millis(100),
            },
            IngressError::ShedWrite,
            IngressError::Table(TableError::RetryBudgetExhausted { budget: 8 }),
            IngressError::BrokerGone,
        ];
        for (i, e) in errors.into_iter().enumerate() {
            frames.push(Frame::Reply(WireReply {
                req_id: 100 + i as u64,
                body: ReplyBody::Ingress(e),
            }));
        }
        frames.push(Frame::Reply(WireReply {
            req_id: 200,
            body: ReplyBody::Refused(Refusal::InflightCap { limit: 64 }),
        }));
        frames.push(Frame::Reply(WireReply {
            req_id: 201,
            body: ReplyBody::Refused(Refusal::Draining),
        }));
        frames
    }

    #[test]
    fn every_frame_variant_round_trips() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let (decoded, consumed) = decode_frame(&buf)
                .expect("valid frame must decode")
                .expect("full frame must be complete");
            assert_eq!(consumed, buf.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn frames_decode_back_to_back_from_one_buffer() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut stream);
        }
        let mut carry = FrameBuffer::new();
        carry.extend(&stream);
        for expected in &frames {
            let got = carry.next_frame().unwrap().expect("frame expected");
            assert_eq!(&got, expected);
        }
        assert!(carry.is_empty());
        assert!(carry.next_frame().unwrap().is_none());
    }

    #[test]
    fn every_strict_prefix_is_incomplete_not_an_error() {
        // A truncated frame must read as "need more bytes" — the streaming
        // decoder sees every prefix of every valid frame at some point.
        for frame in sample_frames() {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            for cut in 0..buf.len() {
                match decode_frame(&buf[..cut]) {
                    Ok(None) => {}
                    other => panic!("prefix of {cut}/{} bytes decoded as {other:?}", buf.len()),
                }
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // Flip every bit of every byte of every sample frame: the decoder
        // must never return a successfully decoded frame, and never panic.
        // (Ok(None) is acceptable for length-field corruption that claims a
        // longer frame — the stream just waits for bytes that never
        // validate.)
        for frame in sample_frames() {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            for i in 0..buf.len() {
                for bit in 0..8 {
                    let mut corrupt = buf.clone();
                    corrupt[i] ^= 1 << bit;
                    if let Ok(Some((decoded, _))) = decode_frame(&corrupt) {
                        panic!("flip of byte {i} bit {bit} decoded as {decoded:?} (was {frame:?})");
                    }
                }
            }
        }
    }

    #[test]
    fn random_garbage_never_panics() {
        // Seeded SplitMix64 garbage: decode must always return, never panic
        // or overallocate.
        let mut state = 0x5AB5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..2000 {
            let len = (next() % 64) as usize;
            let mut buf = vec![0u8; len];
            for b in buf.iter_mut() {
                *b = next() as u8;
            }
            let _ = decode_frame(&buf);
            // Also exercise garbage behind a valid magic+version, which
            // reaches deeper decode paths.
            if buf.len() >= 3 {
                buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
                buf[2] = VERSION;
                let _ = decode_frame(&buf);
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Reject(RejectReason::Draining), &mut buf);
        buf[4..8].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn wrong_magic_fails_fast_even_on_short_buffers() {
        assert!(matches!(decode_frame(b"GE"), Err(WireError::BadMagic)));
        assert!(matches!(
            decode_frame(b"GET / HTTP/1.1\r\n"),
            Err(WireError::BadMagic)
        ));
        // A single byte can't be judged yet.
        assert!(matches!(decode_frame(b"G"), Ok(None)));
    }

    #[test]
    fn foundall_count_is_bounded_by_payload() {
        // A corrupted FOUNDALL count must not drive a huge allocation: the
        // decoder caps the count by the bytes actually present. Build the
        // corrupt payload by hand (encode, bump count, re-checksum).
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // req_id
        payload.push(0); // body: result
        payload.push(7); // tag: FoundAll
        put_u32(&mut payload, u32::MAX); // claimed count
        let len = payload.len() as u32;
        let crc = frame_crc(VERSION, KIND_REPLY, len, &payload);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.push(KIND_REPLY);
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&buf), Err(WireError::Truncated)));
    }

    #[test]
    fn retired_op_tags_decode_as_unknown_tag() {
        for tag in [2u8, 4, 5, 6] {
            let mut buf = Vec::new();
            encode_frame(
                &Frame::Request(WireRequest {
                    req_id: 5,
                    req: Request::replace(1, 2),
                    budget: Duration::ZERO,
                }),
                &mut buf,
            );
            // Patch the op tag (after the 8-byte req_id) and re-checksum.
            buf[HEADER_LEN + 8] = tag;
            let len = (buf.len() - HEADER_LEN) as u32;
            let crc = frame_crc(VERSION, KIND_REQUEST, len, &buf[HEADER_LEN..]);
            buf[8..12].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(decode_frame(&buf), Err(WireError::UnknownTag(tag)));
        }
    }

    #[test]
    fn retired_table_error_tag_decodes_as_unknown_tag() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Reply(WireReply {
                req_id: 5,
                body: ReplyBody::Result(OpResult::Failed(TableError::OutOfSlabs(
                    AllocError::Injected,
                ))),
            }),
            &mut buf,
        );
        // Patch the error tag (after the 8-byte req_id, the body tag and
        // the `Failed` tag) and re-checksum.
        assert_eq!(buf[HEADER_LEN + 10], 1);
        buf[HEADER_LEN + 10] = 3;
        let len = (buf.len() - HEADER_LEN) as u32;
        let crc = frame_crc(VERSION, KIND_REPLY, len, &buf[HEADER_LEN..]);
        buf[8..12].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&buf), Err(WireError::UnknownTag(3)));
    }

    #[test]
    fn retired_ingress_error_tag_decodes_as_unknown_tag() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Reply(WireReply {
                req_id: 5,
                body: ReplyBody::Ingress(IngressError::ShedWrite),
            }),
            &mut buf,
        );
        // Patch the error tag (after the 8-byte req_id and the body tag) to
        // the circuit breaker's retired tag 4, and re-checksum.
        assert_eq!(buf[HEADER_LEN + 9], 3);
        buf[HEADER_LEN + 9] = 4;
        let len = (buf.len() - HEADER_LEN) as u32;
        let crc = frame_crc(VERSION, KIND_REPLY, len, &buf[HEADER_LEN..]);
        buf[8..12].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&buf), Err(WireError::UnknownTag(4)));
    }

    #[test]
    fn trailing_bytes_inside_payload_are_rejected() {
        // Reject::Draining plus trailing junk, checksummed so CRC passes.
        let payload = vec![1u8, 0xEE];
        let len = payload.len() as u32;
        let crc = frame_crc(VERSION, KIND_REJECT, len, &payload);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.push(KIND_REJECT);
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&buf), Err(WireError::TrailingBytes)));
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_torn_frame() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Reject(RejectReason::Draining), &mut buf);
        // Clean close at a frame boundary → Ok(None).
        let mut carry = FrameBuffer::new();
        let mut cursor = io::Cursor::new(buf.clone());
        assert!(read_frame(&mut cursor, &mut carry).unwrap().is_some());
        assert!(read_frame(&mut cursor, &mut carry).unwrap().is_none());
        // EOF mid-frame → UnexpectedEof.
        let mut carry = FrameBuffer::new();
        let mut torn = io::Cursor::new(buf[..buf.len() - 1].to_vec());
        match read_frame(&mut torn, &mut carry) {
            Err(FrameIoError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof)
            }
            other => panic!("torn stream returned {other:?}"),
        }
    }
}
