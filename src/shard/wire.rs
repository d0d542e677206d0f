//! Messages between the shard supervisor and its worker processes.
//!
//! Every frame is a record of the one checkpoint-and-frame format, whose
//! envelope, checksum and table of kinds are in `src/record.rs`: a
//! truncated pipe, an interleaved foreign write, or a worker killed
//! mid-frame is detected as corruption rather than parsed as garbage, and
//! a frame of another format version is refused as such.
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
//! payload goes out and comes in 32 KiB by 32 KiB, hashed on the way, and
//! a frame is returned only once its trailer matches.

use crate::record::{self, put_u32, put_u64, Reader, RecordError, Sink};
use crate::sta::{BoundaryValues, ValueSet};
use std::io::{self, Read, Write};

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
    /// The bytes are not a `GPCKPT05` frame (an earlier version's is an
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

impl From<RecordError> for WireError {
    fn from(e: RecordError) -> Self {
        match e {
            RecordError::Io(e) => WireError::Io(e),
            other => WireError::Corrupt(other.to_string()),
        }
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

fn decode_values<R: Read>(r: &mut Reader<R>) -> Result<BoundaryValues, RecordError> {
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
        return Err(RecordError::Corrupt(
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

    /// Decode a payload of `kind`.
    fn decode<R: Read>(kind: u8, r: &mut Reader<R>) -> Result<Frame, RecordError> {
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
                            return Err(RecordError::Corrupt(format!(
                                "unknown fault kind {other}"
                            )));
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
                return Err(RecordError::Corrupt(format!("unknown frame kind {other}")));
            }
        })
    }

    /// Write this frame to `w` in 32 KiB pieces and flush it (frames
    /// cross pipes; an unflushed frame would deadlock both sides).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the pipe fails.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), WireError> {
        let mut sink = Sink::new(w, self.kind(), self.payload_len());
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
        record::open_from(r, Frame::decode)?.ok_or(WireError::Eof)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::tests::sample_checkpoint;
    use super::super::ShardCheckpoint;
    use super::*;
    use crate::record::tests::{cases, mangle, Trickle};
    use crate::record::{CHUNK, FORMAT, MAX_PAYLOAD};
    use crate::tdg::Checksum;
    use proptest::prelude::*;

    impl Frame {
        /// The frame's bytes: [`write_to`](Self::write_to) into a `Vec`.
        pub(crate) fn to_bytes(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            self.write_to(&mut buf).expect("a Vec takes every byte");
            buf
        }
    }

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
    pub(crate) fn sample_frames() -> Vec<Frame> {
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
        let bytes = record::seal(KIND_ASSIGN, &payload);
        let err = Frame::read_from(&mut &bytes[..]).expect_err("fault code 9");
        assert!(
            matches!(&err, WireError::Corrupt(why) if why.contains("fault kind 9")),
            "{err:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Whatever arrives on the pipe, `read_from` yields frames or one
        /// typed error — never a panic, never an endless read — and an
        /// unedited stream of concatenated frames reads back exactly.
        #[test]
        fn frame_byte_soup_decodes_or_fails_typed(
            picks in proptest::collection::vec(0usize..64, 1..4),
            edits in proptest::collection::vec((0u8..8, any::<u32>(), any::<u8>()), 0..4),
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

        /// The same adversary against the supervisor hand-off file: it
        /// decodes to exactly its bytes or fails typed.
        #[test]
        fn checkpoint_byte_soup_decodes_or_fails_typed(
            edits in proptest::collection::vec((0u8..8, any::<u32>(), any::<u8>()), 0..4),
        ) {
            let ck = sample_checkpoint();
            let clean = ck.encode();
            let bytes = mangle(clean.clone(), &edits, &clean);
            match ShardCheckpoint::decode(&bytes) {
                Ok(back) => {
                    prop_assert!(back.encode() == bytes);
                    prop_assert!(bytes != clean || back == ck);
                }
                Err(e) => {
                    prop_assert!(bytes != clean);
                    prop_assert!(!matches!(e, RecordError::Io(_)), "got {e:?}");
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
        assert_eq!(&bytes[..9], b"GPCKPT05\x04");
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

    /// What the pipe reader makes of another format version: a corrupt
    /// frame that says which version it met.
    #[test]
    fn a_gpckpt02_frame_is_refused_as_another_format_version() {
        for (frame, version) in sample_frames().into_iter().zip([2, 3, 4].iter().cycle()) {
            let mut old = frame.to_bytes();
            old[..8].copy_from_slice(format!("GPCKPT0{version}").as_bytes());
            let err = Frame::read_from(&mut &old[..]).expect_err("old format");
            let said = format!("format version \"0{version}\"");
            assert!(
                matches!(&err, WireError::Corrupt(why) if why.contains(&said)),
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
