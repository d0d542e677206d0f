//! `GPCKPT01`-framed messages between the shard supervisor and its
//! worker processes.
//!
//! Every frame shares the checkpoint format's magic + version prefix and
//! its FNV-1a 64 integrity checksum, so a truncated pipe, an interleaved
//! foreign write, or a worker killed mid-frame is detected as corruption
//! rather than parsed as garbage:
//!
//! ```text
//! magic "GPCKPT" + version "01"     8 bytes
//! frame kind                        u8
//! payload length                    u64 LE
//! payload                           length bytes
//! FNV-1a 64 of the payload          u64 LE
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

use crate::checkpoint::fnv1a64;
use crate::sta::{BoundaryValues, ValueSet};
use std::io::{Read, Write};

const MAGIC: &[u8; 8] = b"GPCKPT01";

/// Refuse a frame that claims more than this.
const MAX_PAYLOAD: u64 = 1 << 30;

/// What a frame body may reserve before its bytes arrive: a corrupt
/// length under [`MAX_PAYLOAD`] must cost what was sent, not what it
/// claims.
const BODY_RESERVE: u64 = 64 << 10;

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
        /// Tasks in the worker's update TDG.
        num_tasks: u64,
        /// Combined TDG + shard-plan fingerprint; both sides must agree
        /// before values are exchanged.
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
    /// but does not compute).
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
    /// The pipe closed mid-frame or failed outright.
    Io(std::io::Error),
    /// The peer closed the pipe cleanly between frames.
    Eof,
    /// The bytes are not a `GPCKPT01` frame, the checksum disagrees, or a
    /// section is malformed; the string names the defect.
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

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_arr(buf: &mut Vec<u8>, arr: &[u32]) {
    put_u32(buf, arr.len() as u32);
    for &v in arr {
        put_u32(buf, v);
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Corrupt(format!(
                "truncated while reading {what} ({} bytes left, {n} needed)",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn arr(&mut self, what: &str) -> Result<Vec<u32>, WireError> {
        let len = self.u32(what)? as usize;
        if self.buf.len() - self.pos < len * 4 {
            return Err(WireError::Corrupt(format!(
                "{what} claims {len} entries but only {} bytes remain",
                self.buf.len() - self.pos
            )));
        }
        (0..len).map(|_| self.u32(what)).collect()
    }

    pub(crate) fn done(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after the last section",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn encode_values(buf: &mut Vec<u8>, values: &BoundaryValues) {
    put_u32(buf, values.clock_period_bits);
    put_arr(buf, &values.set.fprop_nodes);
    put_arr(buf, &values.set.req_nodes);
    put_arr(buf, &values.set.arcs);
    put_arr(buf, &values.fprop_bits);
    put_arr(buf, &values.req_bits);
    put_arr(buf, &values.arc_bits);
}

fn decode_values(r: &mut Reader<'_>) -> Result<BoundaryValues, WireError> {
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

    fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Frame::Hello {
                num_shards,
                num_tasks,
                fingerprint,
            } => {
                put_u32(&mut buf, *num_shards);
                put_u64(&mut buf, *num_tasks);
                put_u64(&mut buf, *fingerprint);
            }
            Frame::Assign {
                shard,
                attempt,
                beat_every,
                beat_interval_micros,
                fault,
            } => {
                put_u32(&mut buf, *shard);
                put_u32(&mut buf, *attempt);
                put_u64(&mut buf, *beat_every);
                put_u64(&mut buf, *beat_interval_micros);
                let (code, point) = match fault {
                    None => (0, 0),
                    Some((InjectedFault::Die, at)) => (1, *at),
                    Some((InjectedFault::Exit, at)) => (2, *at),
                    Some((InjectedFault::Stall, at)) => (3, *at),
                };
                buf.push(code);
                put_u64(&mut buf, point);
            }
            Frame::Boundary(v) | Frame::Delta(v) => encode_values(&mut buf, v),
            Frame::Heartbeat { done } => put_u64(&mut buf, *done),
            Frame::Done { exec_nanos, tasks } => {
                put_u64(&mut buf, *exec_nanos);
                put_u64(&mut buf, *tasks);
            }
        }
        buf
    }

    fn decode(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(payload);
        let frame = match kind {
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
                    let code = r.take(1, "fault kind")?[0];
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
            KIND_BOUNDARY => Frame::Boundary(decode_values(&mut r)?),
            KIND_HEARTBEAT => Frame::Heartbeat {
                done: r.u64("progress")?,
            },
            KIND_DELTA => Frame::Delta(decode_values(&mut r)?),
            KIND_DONE => Frame::Done {
                exec_nanos: r.u64("exec nanos")?,
                tasks: r.u64("task count")?,
            },
            other => {
                return Err(WireError::Corrupt(format!("unknown frame kind {other}")));
            }
        };
        r.done()?;
        Ok(frame)
    }

    /// Serialize this frame — magic, kind, length, payload, checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut buf = Vec::with_capacity(MAGIC.len() + 1 + 8 + payload.len() + 8);
        buf.extend_from_slice(MAGIC);
        buf.push(self.kind());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        buf
    }

    /// Write this frame to `w` and flush it (frames cross pipes; an
    /// unflushed frame would deadlock both sides).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the pipe fails.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.to_bytes()).map_err(WireError::Io)?;
        w.flush().map_err(WireError::Io)
    }

    /// Read one frame from `r`, verifying magic, length, and checksum.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] on a clean close before the first byte,
    /// [`WireError::Io`] on a mid-frame close or pipe failure, and
    /// [`WireError::Corrupt`] for malformed bytes.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, WireError> {
        let mut head = [0u8; 8 + 1 + 8];
        let mut filled = 0;
        while filled < head.len() {
            let n = r.read(&mut head[filled..]).map_err(WireError::Io)?;
            if n == 0 {
                return if filled == 0 {
                    Err(WireError::Eof)
                } else {
                    Err(WireError::Corrupt(format!(
                        "pipe closed {filled} bytes into a frame header"
                    )))
                };
            }
            filled += n;
        }
        if &head[..8] != MAGIC {
            return Err(WireError::Corrupt("bad frame magic".into()));
        }
        let kind = head[8];
        let len = u64::from_le_bytes(head[9..17].try_into().expect("8 bytes"));
        if len > MAX_PAYLOAD {
            return Err(WireError::Corrupt(format!(
                "frame claims {len} payload bytes (cap {MAX_PAYLOAD})"
            )));
        }
        // `read_to_end` grows the buffer as bytes arrive, so a lying
        // length reserves no more than about twice what the peer sent.
        let want = len + 8;
        let mut body = Vec::with_capacity(want.min(BODY_RESERVE) as usize);
        r.by_ref()
            .take(want)
            .read_to_end(&mut body)
            .map_err(WireError::Io)?;
        if (body.len() as u64) < want {
            return Err(WireError::Corrupt("pipe closed mid-payload".into()));
        }
        let (payload, sum_bytes) = body.split_at(len as usize);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(WireError::Corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            )));
        }
        Frame::decode(kind, payload)
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
        let mut payload = frame.encode_payload();
        payload[24] = 9;
        let err = Frame::decode(KIND_ASSIGN, &payload).expect_err("fault code 9");
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
}
