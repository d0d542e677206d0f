//! `GPCKPT04`-framed messages between the shard supervisor and its
//! worker processes.
//!
//! Every frame shares the checkpoint format's magic + version prefix and
//! its integrity [`checksum`](crate::tdg::checksum()), so a truncated
//! pipe, an interleaved foreign write, or a worker killed mid-frame is
//! detected as corruption rather than parsed as garbage, and a frame of
//! another format version is refused as such:
//!
//! ```text
//! magic "GPCKPT" + version "04"     8 bytes
//! frame kind                        u8
//! payload length                    u64 LE
//! payload                           length bytes
//! checksum of the payload           u64 LE
//! ```
//!
//! Frames flow in both directions. A worker sends [`Frame::Hello`] up its
//! stdout once, after its rebuild; from then on every shard it serves is
//! one *round*: the supervisor sends [`Frame::Assign`] and
//! [`Frame::Boundary`] (the shard's boundary inputs) down the child's
//! stdin, and the worker answers with [`Frame::Heartbeat`]s,
//! [`Frame::Delta`] and [`Frame::Done`]. Values travel as raw `f32` bit
//! patterns inside [`BoundaryValues`], never as rounded text, so a value
//! that crossed the pipe is bit-identical to one computed locally.
//!
//! Frames are streamed: the length follows from the array lengths, so the
//! payload goes out and comes in [`CHUNK`] by `CHUNK`, hashed on the way,
//! and a frame is returned only once its trailer matches.

use crate::checkpoint::{check_format, put_u32, put_u64, put_words, FORMAT};
use crate::sta::{BoundaryValues, ValueSet};
use crate::tdg::Checksum;
use std::io::{self, Read, Write};

/// Refuse a frame that claims more than this.
const MAX_PAYLOAD: u64 = 1 << 30;

/// The bytes a frame crosses the pipe in, and an array is read and
/// reserved in: a corrupt count under [`MAX_PAYLOAD`] costs what was
/// sent, not what it claims.
const CHUNK: usize = 32 << 10;

const KIND_HELLO: u8 = 1;
const KIND_BOUNDARY: u8 = 2;
const KIND_HEARTBEAT: u8 = 3;
const KIND_DELTA: u8 = 4;
const KIND_DONE: u8 = 5;
const KIND_ASSIGN: u8 = 6;

/// How an assigned round must fail (deterministic fault injection; the
/// supervisor only ever observes the symptom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// `SIGKILL` self.
    Die,
    /// `exit(1)`.
    Exit,
    /// Go silent without exiting, for the heartbeat watchdog to reap.
    Stall,
}

/// A message between supervisor and shard worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → supervisor: plan agreement, sent once per process after
    /// the worker rebuilt the design and its shard plan and before it
    /// reads its first [`Frame::Assign`].
    Hello {
        /// Shards in the worker's plan.
        num_shards: u32,
        /// Tasks in the worker's whole-design update.
        num_tasks: u64,
        /// Combined timing-graph + shard-plan fingerprint; both sides must
        /// agree before values are exchanged.
        fingerprint: u64,
    },
    /// Supervisor → worker: serve one attempt of one shard; opens a round
    /// and is always followed by that shard's [`Frame::Boundary`].
    Assign {
        /// The shard to execute.
        shard: u32,
        /// Which attempt of the shard this round is.
        attempt: u32,
        /// Check the heartbeat clock every this many tasks (min 1).
        beat_every: u64,
        /// Minimum microseconds between heartbeat frames; `0` beats at
        /// every check point. Throttling by *time* matters on small
        /// machines: each frame wakes the supervisor's reader thread,
        /// and on one core that preempts the task loop itself.
        beat_interval_micros: u64,
        /// Injected fault and the number of executed tasks it fires
        /// after: `0` before the first task, the shard's task count after
        /// the last one (before the delta is sent).
        fault: Option<(InjectedFault, u64)>,
    },
    /// Supervisor → worker: the boundary inputs (values the shard reads
    /// but does not compute, less those the worker already holds).
    Boundary(BoundaryValues),
    /// Worker → supervisor: liveness plus progress.
    Heartbeat {
        /// Tasks executed so far.
        done: u64,
    },
    /// Worker → supervisor: the shard's write set (its delta).
    Delta(BoundaryValues),
    /// Worker → supervisor: the shard finished; always follows its
    /// [`Frame::Delta`] and closes the round.
    Done {
        /// Nanoseconds spent in the task-execution loop only (excludes
        /// design rebuild), for overhead accounting.
        exec_nanos: u64,
        /// Tasks executed.
        tasks: u64,
    },
}

/// Reading or decoding a frame failed.
#[derive(Debug)]
pub enum WireError {
    /// The pipe failed outright.
    Io(std::io::Error),
    /// The peer closed the pipe cleanly between frames.
    Eof,
    /// The bytes are not a `GPCKPT04` frame (an earlier version's is an
    /// "unsupported format version"), the pipe closed mid-frame, the
    /// checksum disagrees, or a section is malformed; the string names
    /// the defect.
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o failed: {e}"),
            WireError::Eof => write!(f, "peer closed the pipe"),
            WireError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Frame bytes on their way in: read from `inner` never past the declared
/// length, and hashed as they pass.
pub(crate) struct Reader<R> {
    inner: R,
    /// Declared bytes not read yet.
    left: u64,
    hash: Checksum,
}

impl<R: Read> Reader<R> {
    pub(crate) fn new(inner: R, len: u64) -> Self {
        Reader {
            inner,
            left: len,
            hash: Checksum::default(),
        }
    }

    fn need(&self, n: usize, what: &str) -> Result<(), WireError> {
        if self.left < n as u64 {
            return Err(WireError::Corrupt(format!(
                "truncated while reading {what} ({} bytes left, {n} needed)",
                self.left
            )));
        }
        Ok(())
    }

    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<(), WireError> {
        self.need(buf.len(), what)?;
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::Corrupt("pipe closed mid-frame".into()),
            _ => WireError::Io(e),
        })?;
        self.left -= buf.len() as u64;
        self.hash.update(buf);
        Ok(())
    }

    fn bytes<const N: usize>(&mut self, what: &str) -> Result<[u8; N], WireError> {
        let mut b = [0u8; N];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    /// `n` raw bytes, allocated only once the declared length covers them.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<Vec<u8>, WireError> {
        self.need(n, what)?;
        let mut b = vec![0; n];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        self.bytes(what).map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        self.bytes(what).map(u64::from_le_bytes)
    }

    pub(crate) fn arr(&mut self, what: &str) -> Result<Vec<u32>, WireError> {
        self.arr_of(None, what)
    }

    /// A counted array; given `want`, another count is refused before
    /// anything is allocated.
    pub(crate) fn arr_of(&mut self, want: Option<u32>, what: &str) -> Result<Vec<u32>, WireError> {
        let len = self.u32(what)?;
        if let Some(want) = want.filter(|&want| want != len) {
            return Err(WireError::Corrupt(format!(
                "{what} holds {len} entries but the design shape says {want}"
            )));
        }
        let len = len as usize;
        if self.left < 4 * len as u64 {
            return Err(WireError::Corrupt(format!(
                "{what} claims {len} entries but only {} bytes remain",
                self.left
            )));
        }
        let mut out = Vec::new();
        let mut piece = [0u8; CHUNK];
        let mut todo = 4 * len;
        while todo > 0 {
            let n = todo.min(CHUNK);
            self.fill(&mut piece[..n], what)?;
            // Room for this piece once it is here: at most double what
            // arrived, never past the claimed count.
            if out.capacity() - out.len() < n / 4 {
                out.reserve_exact(out.len().max(n / 4).min(len - out.len()));
            }
            out.extend(
                piece[..n]
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
            todo -= n;
        }
        Ok(out)
    }

    /// The hash of the whole payload, once every declared byte was read.
    pub(crate) fn done(&self) -> Result<u64, WireError> {
        if self.left != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after the last section",
                self.left
            )));
        }
        Ok(self.hash.finish())
    }
}

/// A frame on its way out: staged in a buffer that is written whenever it
/// passes [`CHUNK`], the payload hashed as it leaves.
struct Sink<'w, W> {
    w: &'w mut W,
    buf: Vec<u8>,
    /// Where the payload not hashed yet starts in `buf`.
    from: usize,
    hash: Checksum,
}

impl<W: Write> Sink<'_, W> {
    fn spill(&mut self) -> io::Result<()> {
        self.hash.update(&self.buf[self.from..]);
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        self.from = 0;
        Ok(())
    }

    /// A counted array, encoded in pieces that fill the buffer to
    /// [`CHUNK`].
    fn arr(&mut self, mut arr: &[u32]) -> io::Result<()> {
        put_u32(&mut self.buf, arr.len() as u32);
        loop {
            if self.buf.len() >= CHUNK {
                self.spill()?;
            }
            if arr.is_empty() {
                return Ok(());
            }
            let room = (CHUNK - self.buf.len()).div_ceil(4);
            let (piece, rest) = arr.split_at(room.min(arr.len()));
            put_words(&mut self.buf, piece);
            arr = rest;
        }
    }

    /// Hash and write what is staged, then the trailer, and flush.
    fn finish(mut self) -> io::Result<()> {
        self.hash.update(&self.buf[self.from..]);
        put_u64(&mut self.buf, self.hash.finish());
        self.w.write_all(&self.buf)?;
        self.w.flush()
    }
}

/// A values frame's arrays, in wire order.
fn arrays(v: &BoundaryValues) -> [&[u32]; 6] {
    [
        &v.set.fprop_nodes,
        &v.set.req_nodes,
        &v.set.arcs,
        &v.fprop_bits,
        &v.req_bits,
        &v.arc_bits,
    ]
}

fn decode_values<R: Read>(r: &mut Reader<R>) -> Result<BoundaryValues, WireError> {
    let clock_period_bits = r.u32("clock period")?;
    let set = ValueSet {
        fprop_nodes: r.arr("fprop node set")?,
        req_nodes: r.arr("required node set")?,
        arcs: r.arr("arc set")?,
    };
    let values = BoundaryValues {
        clock_period_bits,
        fprop_bits: r.arr("fprop values")?,
        req_bits: r.arr("required values")?,
        arc_bits: r.arr("arc values")?,
        set,
    };
    if values.fprop_bits.len() != values.set.fprop_nodes.len() * 8
        || values.req_bits.len() != values.set.req_nodes.len() * 4
        || values.arc_bits.len() != values.set.arcs.len() * 4
    {
        return Err(WireError::Corrupt(
            "value array lengths disagree with the cell sets".into(),
        ));
    }
    Ok(values)
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Assign { .. } => KIND_ASSIGN,
            Frame::Boundary(_) => KIND_BOUNDARY,
            Frame::Heartbeat { .. } => KIND_HEARTBEAT,
            Frame::Delta(_) => KIND_DELTA,
            Frame::Done { .. } => KIND_DONE,
        }
    }

    /// Payload bytes, known before the first one is written.
    fn payload_len(&self) -> u64 {
        match self {
            Frame::Hello { .. } => 4 + 8 + 8,
            Frame::Assign { .. } => 4 + 4 + 8 + 8 + 1 + 8,
            Frame::Boundary(v) | Frame::Delta(v) => {
                4 + arrays(v)
                    .iter()
                    .map(|a| 4 + 4 * a.len() as u64)
                    .sum::<u64>()
            }
            Frame::Heartbeat { .. } => 8,
            Frame::Done { .. } => 8 + 8,
        }
    }

    fn encode_payload<W: Write>(&self, s: &mut Sink<'_, W>) -> io::Result<()> {
        let buf = &mut s.buf;
        match self {
            Frame::Hello {
                num_shards,
                num_tasks,
                fingerprint,
            } => {
                put_u32(buf, *num_shards);
                put_u64(buf, *num_tasks);
                put_u64(buf, *fingerprint);
            }
            Frame::Assign {
                shard,
                attempt,
                beat_every,
                beat_interval_micros,
                fault,
            } => {
                put_u32(buf, *shard);
                put_u32(buf, *attempt);
                put_u64(buf, *beat_every);
                put_u64(buf, *beat_interval_micros);
                let (code, point) = match fault {
                    None => (0, 0),
                    Some((InjectedFault::Die, at)) => (1, *at),
                    Some((InjectedFault::Exit, at)) => (2, *at),
                    Some((InjectedFault::Stall, at)) => (3, *at),
                };
                buf.push(code);
                put_u64(buf, point);
            }
            Frame::Boundary(v) | Frame::Delta(v) => {
                put_u32(buf, v.clock_period_bits);
                for arr in arrays(v) {
                    s.arr(arr)?;
                }
            }
            Frame::Heartbeat { done } => put_u64(buf, *done),
            Frame::Done { exec_nanos, tasks } => {
                put_u64(buf, *exec_nanos);
                put_u64(buf, *tasks);
            }
        }
        Ok(())
    }

    /// Decode a payload of `kind`; the caller checks that `r` is done.
    fn decode<R: Read>(kind: u8, r: &mut Reader<R>) -> Result<Frame, WireError> {
        Ok(match kind {
            KIND_HELLO => Frame::Hello {
                num_shards: r.u32("shard count")?,
                num_tasks: r.u64("task count")?,
                fingerprint: r.u64("fingerprint")?,
            },
            KIND_ASSIGN => Frame::Assign {
                shard: r.u32("shard")?,
                attempt: r.u32("attempt")?,
                beat_every: r.u64("beat cadence")?,
                beat_interval_micros: r.u64("beat interval")?,
                fault: {
                    let [code] = r.bytes("fault kind")?;
                    let point = r.u64("fault point")?;
                    match code {
                        0 => None,
                        1 => Some((InjectedFault::Die, point)),
                        2 => Some((InjectedFault::Exit, point)),
                        3 => Some((InjectedFault::Stall, point)),
                        other => {
                            return Err(WireError::Corrupt(format!("unknown fault kind {other}")));
                        }
                    }
                },
            },
            KIND_BOUNDARY => Frame::Boundary(decode_values(r)?),
            KIND_HEARTBEAT => Frame::Heartbeat {
                done: r.u64("progress")?,
            },
            KIND_DELTA => Frame::Delta(decode_values(r)?),
            KIND_DONE => Frame::Done {
                exec_nanos: r.u64("exec nanos")?,
                tasks: r.u64("task count")?,
            },
            other => {
                return Err(WireError::Corrupt(format!("unknown frame kind {other}")));
            }
        })
    }

    /// Serialize this frame — magic, kind, length, payload, checksum:
    /// [`write_to`](Self::write_to) into a `Vec`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf).expect("a Vec takes every byte");
        buf
    }

    /// Write this frame to `w` in [`CHUNK`]-sized pieces and flush it
    /// (frames cross pipes; an unflushed frame would deadlock both sides).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the pipe fails.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), WireError> {
        let len = self.payload_len();
        let mut buf = Vec::with_capacity((17 + len as usize + 8).min(CHUNK + 16));
        buf.extend_from_slice(FORMAT);
        buf.push(self.kind());
        put_u64(&mut buf, len);
        let mut sink = Sink {
            w,
            from: buf.len(),
            buf,
            hash: Checksum::default(),
        };
        self.encode_payload(&mut sink)
            .and_then(|()| sink.finish())
            .map_err(WireError::Io)
    }

    /// Read one frame from `r`, verifying magic, version, length, and
    /// checksum.
    /// The payload is decoded as it arrives; the frame is returned only
    /// once its trailer matches.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] on a clean close before the first byte,
    /// [`WireError::Io`] on a pipe failure, and [`WireError::Corrupt`]
    /// for malformed bytes or a close mid-frame.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, WireError> {
        let mut head = [0u8; 8 + 1 + 8];
        if r.read(&mut head[..1]).map_err(WireError::Io)? == 0 {
            return Err(WireError::Eof);
        }
        Reader::new(&mut *r, 16).fill(&mut head[1..], "frame header")?;
        check_format(&head).map_err(|e| WireError::Corrupt(e.to_string()))?;
        let kind = head[8];
        let len = u64::from_le_bytes(head[9..17].try_into().expect("8 bytes"));
        if len > MAX_PAYLOAD {
            return Err(WireError::Corrupt(format!(
                "frame claims {len} payload bytes (cap {MAX_PAYLOAD})"
            )));
        }
        let mut body = Reader::new(r, len);
        let frame = Frame::decode(kind, &mut body)?;
        let computed = body.done()?;
        body.left = 8;
        let stored = body.u64("checksum")?;
        if stored != computed {
            return Err(WireError::Corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            )));
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample_checkpoint;
    use super::super::{ShardCheckpoint, ShardError};
    use super::*;
    use proptest::prelude::*;

    fn sample_values() -> BoundaryValues {
        BoundaryValues {
            clock_period_bits: 1000.0f32.to_bits(),
            set: ValueSet {
                fprop_nodes: vec![1, 4],
                req_nodes: vec![2],
                arcs: vec![0, 3, 9],
            },
            fprop_bits: (0..16).collect(),
            req_bits: vec![100, 101, 102, 103],
            arc_bits: (200..212).collect(),
        }
    }

    /// One frame of every kind (and every fault code).
    fn sample_frames() -> Vec<Frame> {
        let assign = |fault| Frame::Assign {
            shard: 3,
            attempt: 1,
            beat_every: 64,
            beat_interval_micros: 1_250_000,
            fault,
        };
        vec![
            Frame::Hello {
                num_shards: 4,
                num_tasks: 1000,
                fingerprint: 0xDEAD_BEEF,
            },
            assign(None),
            assign(Some((InjectedFault::Die, 0))),
            assign(Some((InjectedFault::Exit, 17))),
            assign(Some((InjectedFault::Stall, u64::MAX))),
            Frame::Boundary(sample_values()),
            Frame::Heartbeat { done: 42 },
            Frame::Delta(sample_values()),
            Frame::Done {
                exec_nanos: 123_456,
                tasks: 500,
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let frames = sample_frames();
        let mut pipe = Vec::new();
        for f in &frames {
            f.write_to(&mut pipe).expect("write");
        }
        let mut cursor = std::io::Cursor::new(pipe);
        for f in &frames {
            let got = Frame::read_from(&mut cursor).expect("read");
            assert_eq!(&got, f);
        }
        assert!(matches!(Frame::read_from(&mut cursor), Err(WireError::Eof)));
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = Frame::Heartbeat { done: 7 }.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = Frame::read_from(&mut std::io::Cursor::new(bad))
                .expect_err("every single-bit flip must be detected");
            assert!(
                matches!(err, WireError::Corrupt(_) | WireError::Io(_)),
                "byte {i}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn truncation_is_corruption_not_eof() {
        let bytes = Frame::Done {
            exec_nanos: 1,
            tasks: 2,
        }
        .to_bytes();
        for cut in 1..bytes.len() {
            let err = Frame::read_from(&mut std::io::Cursor::new(&bytes[..cut]))
                .expect_err("truncated frame must fail");
            assert!(
                matches!(err, WireError::Corrupt(_)),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut bytes = Frame::Heartbeat { done: 7 }.to_bytes();
        bytes[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Frame::read_from(&mut std::io::Cursor::new(bytes)).expect_err("cap");
        assert!(matches!(err, WireError::Corrupt(_)));
    }

    /// Counts what `read_from` pulled out of a stream that stays open
    /// but never delivers the payload its header promised.
    struct Trickle<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_lying_length_under_the_cap_costs_only_what_was_sent() {
        let mut bytes = Frame::Heartbeat { done: 7 }.to_bytes();
        bytes[9..17].copy_from_slice(&(MAX_PAYLOAD - 1).to_le_bytes());
        let mut r = Trickle {
            bytes: &bytes,
            reads: 0,
        };
        let err = Frame::read_from(&mut r).expect_err("the payload never arrives");
        assert!(matches!(err, WireError::Corrupt(_)), "got {err:?}");
        assert!(
            r.reads < 8,
            "{} reads for a {}-byte stream: the claimed length was not pre-filled",
            r.reads,
            bytes.len()
        );
    }

    #[test]
    fn unknown_fault_codes_are_rejected() {
        let frame = Frame::Assign {
            shard: 0,
            attempt: 0,
            beat_every: 1,
            beat_interval_micros: 0,
            fault: None,
        };
        let bytes = frame.to_bytes();
        let mut payload = bytes[17..bytes.len() - 8].to_vec();
        payload[24] = 9;
        let mut r = Reader::new(&payload[..], payload.len() as u64);
        let err = Frame::decode(KIND_ASSIGN, &mut r).expect_err("fault code 9");
        assert!(matches!(err, WireError::Corrupt(_)));
    }

    /// Apply a script of hostile edits to a valid byte image.
    fn mangle(mut bytes: Vec<u8>, edits: &[(u8, u32, u8)], other: &[u8]) -> Vec<u8> {
        for &(op, at, val) in edits {
            let at = at as usize;
            match op {
                // Truncate anywhere.
                0 => bytes.truncate(at % (bytes.len() + 1)),
                // Flip bits anywhere.
                1 if !bytes.is_empty() => {
                    let i = at % bytes.len();
                    bytes[i] ^= val | 1;
                }
                // A hostile length: huge, just under the cap, or small.
                2 if bytes.len() >= 17 => {
                    let len = match val % 4 {
                        0 => u64::MAX,
                        1 => MAX_PAYLOAD - u64::from(val),
                        2 => MAX_PAYLOAD + 1,
                        _ => u64::from(val),
                    };
                    bytes[9..17].copy_from_slice(&len.to_le_bytes());
                }
                // An unknown kind.
                3 if bytes.len() > 8 => bytes[8] = val,
                // Another image glued on.
                4 => bytes.extend_from_slice(other),
                // Raw noise inserted.
                5 => {
                    let i = at % (bytes.len() + 1);
                    bytes.splice(i..i, std::iter::repeat_n(val, at % 23));
                }
                _ => {}
            }
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever arrives on the pipe, `read_from` yields frames or one
        /// typed error — never a panic, never an endless read — and an
        /// unedited stream of concatenated frames reads back exactly.
        #[test]
        fn frame_byte_soup_decodes_or_fails_typed(
            picks in proptest::collection::vec(0usize..64, 1..4),
            edits in proptest::collection::vec((0u8..6, any::<u32>(), any::<u8>()), 0..4),
        ) {
            let samples = sample_frames();
            let frames: Vec<&Frame> = picks.iter().map(|&i| &samples[i % samples.len()]).collect();
            let clean: Vec<u8> = frames.iter().flat_map(|f| f.to_bytes()).collect();
            let other = samples[picks[0] % samples.len()].to_bytes();
            let bytes = mangle(clean.clone(), &edits, &other);
            let mut cursor = std::io::Cursor::new(&bytes);
            let mut read = Vec::new();
            let end = loop {
                match Frame::read_from(&mut cursor) {
                    Ok(f) => read.push(f),
                    Err(e) => break e,
                }
                prop_assert!(read.len() <= bytes.len() / 25, "frames out of thin air");
            };
            if bytes == clean {
                prop_assert!(matches!(end, WireError::Eof), "got {end:?}");
                prop_assert!(read.iter().eq(frames.iter().copied()));
            } else {
                prop_assert!(matches!(end, WireError::Eof | WireError::Corrupt(_)), "got {end:?}");
            }
        }

        /// The same adversary against the supervisor hand-off file.
        #[test]
        fn checkpoint_byte_soup_decodes_or_fails_typed(
            edits in proptest::collection::vec((0u8..6, any::<u32>(), any::<u8>()), 0..4),
        ) {
            let ck = sample_checkpoint();
            let clean = ck.encode();
            let bytes = mangle(clean.clone(), &edits, &clean);
            match ShardCheckpoint::decode(&bytes) {
                Ok(back) => prop_assert!(bytes == clean && back == ck),
                Err(e) => {
                    prop_assert!(bytes != clean);
                    prop_assert!(matches!(e, ShardError::Checkpoint(_)), "got {e:?}");
                }
            }
        }
    }

    #[test]
    fn mismatched_value_lengths_are_rejected() {
        let mut v = sample_values();
        v.fprop_bits.pop();
        let bytes = Frame::Delta(v).to_bytes();
        let err = Frame::read_from(&mut std::io::Cursor::new(bytes)).expect_err("length check");
        assert!(matches!(err, WireError::Corrupt(_)));
    }

    /// A values frame whose arrays together span several chunks.
    fn large_delta() -> Frame {
        let nodes = (3 * CHUNK / 4 / 8) as u32;
        let words = |n: u32, salt: u32| (0..n).map(move |i| i.wrapping_mul(2_654_435_761) ^ salt);
        Frame::Delta(BoundaryValues {
            clock_period_bits: 1000.0f32.to_bits(),
            set: ValueSet {
                fprop_nodes: (0..nodes).collect(),
                req_nodes: (0..nodes).map(|v| 2 * v).collect(),
                arcs: (0..nodes).map(|a| 3 * a).collect(),
            },
            fprop_bits: words(8 * nodes, 1).collect(),
            req_bits: words(4 * nodes, 2).collect(),
            arc_bits: words(4 * nodes, 3).collect(),
        })
    }

    /// Accepts at most `most` bytes per call and records each request.
    struct Dribble {
        bytes: Vec<u8>,
        most: usize,
        largest: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.most);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streamed_bytes_equal_to_bytes_for_every_kind() {
        for frame in sample_frames().into_iter().chain([large_delta()]) {
            let mut w = Dribble {
                bytes: Vec::new(),
                most: 4093,
                largest: 0,
            };
            frame.write_to(&mut w).expect("write");
            assert_eq!(w.bytes, frame.to_bytes(), "{:?}", frame.kind());
            // A chunk plus a count, a value and the trailer, at most.
            assert!(
                w.largest <= CHUNK + 16,
                "a {}-byte frame went out in a {}-byte write",
                w.bytes.len(),
                w.largest
            );
        }
    }

    #[test]
    fn a_delta_spanning_several_chunks_round_trips() {
        let frame = large_delta();
        let bytes = frame.to_bytes();
        assert!(bytes.len() > 4 * CHUNK, "{} bytes", bytes.len());
        // Small, uneven reads: every array piece straddles read calls.
        let mut r = std::io::BufReader::with_capacity(1021, &bytes[..]);
        assert_eq!(Frame::read_from(&mut r).expect("read"), frame);
        assert!(matches!(Frame::read_from(&mut r), Err(WireError::Eof)));
    }

    #[test]
    fn the_delta_layout_and_its_trailer_are_pinned() {
        // Magic, kind 4, u64 length, clock bits, six counted u32 arrays,
        // then the checksum of the payload: pinned, and re-derived by an
        // independent transcription of the lane rule.
        let bytes = Frame::Delta(sample_values()).to_bytes();
        assert_eq!(bytes.len(), 205);
        assert_eq!(&bytes[..9], b"GPCKPT04\x04");
        let (payload, trailer) = bytes[17..].split_at(bytes.len() - 17 - 8);
        let step = |h: u64, lane: u64| ((h ^ lane).wrapping_mul(0x100_0000_01b3)).rotate_left(23);
        let mut h = 0xcbf2_9ce4_8422_2325;
        for lane in payload.chunks(8) {
            let mut padded = [0u8; 8];
            padded[..lane.len()].copy_from_slice(lane);
            h = step(h, u64::from_le_bytes(padded));
        }
        h = step(h, payload.len() as u64);
        assert_eq!(u64::from_le_bytes(trailer.try_into().unwrap()), h);
        assert_eq!(h, 0xeb07_027d_581d_9baf);
    }

    #[test]
    fn a_gpckpt02_frame_is_refused_as_another_format_version() {
        for frame in sample_frames() {
            let mut old = frame.to_bytes();
            old[..8].copy_from_slice(b"GPCKPT02");
            let err = Frame::read_from(&mut std::io::Cursor::new(old)).expect_err("old format");
            assert!(
                matches!(&err, WireError::Corrupt(why) if why.contains("format version \"02\"")),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn every_byte_flip_of_a_multi_chunk_delta_is_detected() {
        let frame = Frame::Delta(BoundaryValues {
            clock_period_bits: 7,
            set: ValueSet {
                fprop_nodes: (0..1100).collect(),
                req_nodes: vec![],
                arcs: vec![],
            },
            fprop_bits: (0..8800u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            req_bits: vec![],
            arc_bits: vec![],
        });
        let bytes = frame.to_bytes();
        assert!(bytes.len() > CHUNK, "{} bytes", bytes.len());
        let (payload, trailer) = bytes[17..].split_at(bytes.len() - 17 - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        // The hash state before each lane, so a flip rehashes only what
        // follows it.
        let mut before = vec![Checksum::default()];
        for lane in payload.chunks(8) {
            let mut h = *before.last().unwrap();
            h.update(lane);
            before.push(h);
        }
        let mut lane = [0u8; 8];
        for at in 0..payload.len() {
            let start = at / 8 * 8;
            let end = (start + 8).min(payload.len());
            lane[..end - start].copy_from_slice(&payload[start..end]);
            lane[at - start] ^= 0xFF;
            let mut h = before[at / 8];
            h.update(&lane[..end - start]);
            h.update(&payload[end..]);
            assert_ne!(
                h.finish(),
                stored,
                "a flip of payload byte {at} went unseen"
            );
        }
    }

    #[test]
    fn a_lying_inner_count_reads_only_what_was_sent() {
        // A Delta that claims a payload just under the cap and a first
        // array filling it, then stops after a few hundred bytes.
        let claimed = MAX_PAYLOAD - 1;
        let mut bytes = FORMAT.to_vec();
        bytes.push(KIND_DELTA);
        put_u64(&mut bytes, claimed);
        put_u32(&mut bytes, 1000.0f32.to_bits());
        put_u32(&mut bytes, ((claimed - 8) / 4) as u32);
        bytes.extend(std::iter::repeat_n(0xA5, 300));
        let mut r = Trickle {
            bytes: &bytes,
            reads: 0,
        };
        let err = Frame::read_from(&mut r).expect_err("the array never arrives");
        assert!(matches!(err, WireError::Corrupt(_)), "got {err:?}");
        assert!(
            r.reads < 8,
            "{} reads for a {}-byte stream: the claimed count was not pre-filled",
            r.reads,
            bytes.len()
        );
    }

    #[test]
    fn a_flip_in_the_last_chunk_of_a_large_delta_is_a_checksum_error() {
        let bytes = large_delta().to_bytes();
        let mut bad = bytes.clone();
        // Inside the last value array, well past the first chunk.
        let at = bytes.len() - 8 - 5;
        assert!(at > 3 * CHUNK);
        bad[at] ^= 0x10;
        let err = Frame::read_from(&mut std::io::Cursor::new(bad)).expect_err("flip");
        assert!(
            matches!(&err, WireError::Corrupt(why) if why.contains("checksum")),
            "got {err:?}"
        );
    }
}
