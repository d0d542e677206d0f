//! The one record format: every checkpoint file and every shard frame is a
//! record, sealed and opened here.
//!
//! A record is a little-endian binary envelope around a kinded payload:
//!
//! ```text
//! magic "GPCKPT" + version "05"     8 bytes
//! kind                              u8
//! payload length                    u64
//! payload                           length bytes
//! checksum of the payload           u64
//! ```
//!
//! | kind | record                                                   |
//! |------|----------------------------------------------------------|
//! | 1–6  | shard frames ([`Frame`](crate::shard::wire::Frame)): `Hello`, `Boundary`, `Heartbeat`, `Delta`, `Done`, `Assign` |
//! | 19   | shard hand-off checkpoint ([`ShardCheckpoint`](crate::shard::ShardCheckpoint)) |
//! | 20   | session checkpoint ([`UpdateCheckpoint`](crate::checkpoint::UpdateCheckpoint)) |
//!
//! A payload is a run of `u32` / `u64` scalars, counted byte strings and
//! counted `u32` arrays (a `u32` count, then the words); the checksum is
//! [`checksum`](crate::tdg::checksum()). Another format version is refused
//! as such, another kind by whoever expected its own, and a length over
//! [`MAX_PAYLOAD`] before a payload byte is read.
//!
//! Files are [`seal`]ed whole and written by [`write_atomically`]; frames
//! are streamed out through a [`Sink`] in [`CHUNK`]-sized pieces, hashed as
//! they leave, to the same bytes. Every record is read by [`open_from`] (a
//! file by [`open`], which also wants its kind and nothing after it): the
//! payload is decoded as it arrives through a hashing [`Reader`] that
//! checks every count against the bytes the header still promises before
//! it allocates, and a value is returned only once every declared byte
//! was read and the trailer matches.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::tdg::{checksum, Checksum};

/// The magic and format version every record starts with.
pub(crate) const FORMAT: &[u8; 8] = b"GPCKPT05";

/// Magic + version, kind, payload length.
pub(crate) const HEADER: usize = 8 + 1 + 8;

/// A streamed record that claims more payload than this is refused.
pub(crate) const MAX_PAYLOAD: u64 = 1 << 30;

/// The bytes a streamed record crosses the pipe in, and an array is read
/// and reserved in: a corrupt count under [`MAX_PAYLOAD`] costs what was
/// sent, not what it claims.
pub(crate) const CHUNK: usize = 32 << 10;

/// Opening or reading a record failed.
#[derive(Debug)]
pub(crate) enum RecordError {
    /// The stream under a streamed record failed.
    Io(io::Error),
    /// The bytes do not start with the record magic.
    BadMagic,
    /// A record of another format version: the version bytes found.
    BadVersion([u8; 2]),
    /// Truncation, a length that disagrees, a checksum mismatch, a kind
    /// other than the one expected, or a malformed section.
    Corrupt(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io(e) => write!(f, "i/o failed: {e}"),
            RecordError::BadMagic => write!(f, "not a gpasta checkpoint or frame (bad magic)"),
            RecordError::BadVersion(found) => write!(
                f,
                "unsupported format version {:?} (expected {:?})",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(&FORMAT[6..])
            ),
            RecordError::Corrupt(why) => write!(f, "{why}"),
        }
    }
}

fn corrupt<T>(why: impl Into<String>) -> Result<T, RecordError> {
    Err(RecordError::Corrupt(why.into()))
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// `words` as little-endian bytes, in bulk.
fn put_words(buf: &mut Vec<u8>, words: &[u32]) {
    let at = buf.len();
    buf.resize(at + 4 * words.len(), 0);
    for (b, w) in buf[at..].chunks_exact_mut(4).zip(words) {
        b.copy_from_slice(&w.to_le_bytes());
    }
}

/// A counted array: the length, then [`put_words`].
pub(crate) fn put_arr(buf: &mut Vec<u8>, arr: &[u32]) {
    put_u32(buf, arr.len() as u32);
    put_words(buf, arr);
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

fn put_head(buf: &mut Vec<u8>, kind: u8, len: u64) {
    buf.extend_from_slice(FORMAT);
    buf.push(kind);
    put_u64(buf, len);
}

/// A record of `kind` around `payload`.
pub(crate) fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER + payload.len() + 8);
    put_head(&mut buf, kind, payload.len() as u64);
    buf.extend_from_slice(payload);
    put_u64(&mut buf, checksum(payload));
    buf
}

/// The next record on `r`, its payload decoded by `read(kind, payload)`
/// as it arrives: the value, returned only once `read` consumed every
/// declared byte and the trailer matches, or `None` when `r` ends cleanly
/// before the record's first byte.
pub(crate) fn open_from<R: Read, T>(
    mut r: R,
    read: impl FnOnce(u8, &mut Reader<R>) -> Result<T, RecordError>,
) -> Result<Option<T>, RecordError> {
    let mut head = [0u8; HEADER];
    if r.read(&mut head[..1]).map_err(RecordError::Io)? == 0 {
        return Ok(None);
    }
    Reader::new(&mut r, HEADER as u64 - 1).fill(&mut head[1..], "record header")?;
    let [magic @ .., kind, l0, l1, l2, l3, l4, l5, l6, l7] = head;
    if magic[..6] != FORMAT[..6] {
        return Err(RecordError::BadMagic);
    }
    if magic[6..] != FORMAT[6..] {
        return Err(RecordError::BadVersion([magic[6], magic[7]]));
    }
    let len = u64::from_le_bytes([l0, l1, l2, l3, l4, l5, l6, l7]);
    if len > MAX_PAYLOAD {
        return corrupt(format!(
            "record claims {len} payload bytes (cap {MAX_PAYLOAD})"
        ));
    }
    let mut payload = Reader::new(r, len);
    let value = read(kind, &mut payload)?;
    if payload.left != 0 {
        return corrupt(format!(
            "{} trailing bytes after the last section",
            payload.left
        ));
    }
    let computed = payload.hash.finish();
    payload.left = 8;
    let stored = payload.u64("checksum")?;
    if stored != computed {
        return corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    Ok(Some(value))
}

/// `bytes`, one whole record of `kind`, decoded by `read` as
/// [`open_from`] does.
pub(crate) fn open<'b, T>(
    bytes: &'b [u8],
    kind: u8,
    read: impl FnOnce(&mut Reader<&'b [u8]>) -> Result<T, RecordError>,
) -> Result<T, RecordError> {
    let mut size = 0;
    let value = open_from(bytes, |found, r| {
        if found != kind {
            return corrupt(format!("a record of kind {found}, not {kind}"));
        }
        size = HEADER as u64 + r.left + 8;
        read(r)
    })?;
    match value {
        Some(_) if size != bytes.len() as u64 => corrupt("bytes after the record"),
        Some(value) => Ok(value),
        None => corrupt("no record"),
    }
}

/// Payload bytes on their way in: read from `inner` never past the declared
/// length, and hashed as they pass.
pub(crate) struct Reader<R> {
    inner: R,
    /// Declared bytes not read yet.
    left: u64,
    hash: Checksum,
}

impl<R: Read> Reader<R> {
    fn new(inner: R, len: u64) -> Self {
        Reader {
            inner,
            left: len,
            hash: Checksum::default(),
        }
    }

    fn need(&self, n: usize, what: &str) -> Result<(), RecordError> {
        if self.left < n as u64 {
            return corrupt(format!(
                "truncated while reading {what} ({} bytes left, {n} needed)",
                self.left
            ));
        }
        Ok(())
    }

    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<(), RecordError> {
        self.need(buf.len(), what)?;
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => RecordError::Corrupt("the bytes end mid-record".into()),
            _ => RecordError::Io(e),
        })?;
        self.left -= buf.len() as u64;
        self.hash.update(buf);
        Ok(())
    }

    pub(crate) fn bytes<const N: usize>(&mut self, what: &str) -> Result<[u8; N], RecordError> {
        let mut b = [0u8; N];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    /// A counted byte string, allocated only once the declared length
    /// covers it.
    pub(crate) fn counted_bytes(&mut self, what: &str) -> Result<Vec<u8>, RecordError> {
        let n = self.u32(what)? as usize;
        self.need(n, what)?;
        let mut b = vec![0; n];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, RecordError> {
        self.bytes(what).map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, RecordError> {
        self.bytes(what).map(u64::from_le_bytes)
    }

    pub(crate) fn arr(&mut self, what: &str) -> Result<Vec<u32>, RecordError> {
        self.arr_of(None, what)
    }

    /// A counted array; given `want`, another count is refused before
    /// anything is allocated.
    pub(crate) fn arr_of(
        &mut self,
        want: Option<u32>,
        what: &str,
    ) -> Result<Vec<u32>, RecordError> {
        let len = self.u32(what)?;
        if let Some(want) = want.filter(|&want| want != len) {
            return corrupt(format!(
                "{what} holds {len} entries but the design shape says {want}"
            ));
        }
        let len = len as usize;
        if self.left < 4 * len as u64 {
            return corrupt(format!(
                "{what} claims {len} entries but only {} bytes remain",
                self.left
            ));
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
}

/// A record on its way out: staged in a buffer that is written whenever it
/// passes [`CHUNK`], the payload hashed as it leaves.
pub(crate) struct Sink<'w, W> {
    w: &'w mut W,
    /// Staged bytes; the payload's scalars are put straight in here.
    pub(crate) buf: Vec<u8>,
    /// Where the payload not hashed yet starts in `buf`.
    from: usize,
    hash: Checksum,
}

impl<'w, W: Write> Sink<'w, W> {
    /// Stage the header of a record of `kind` whose payload will be `len`
    /// bytes.
    pub(crate) fn new(w: &'w mut W, kind: u8, len: u64) -> Self {
        let mut buf = Vec::with_capacity((HEADER + len as usize + 8).min(CHUNK + 16));
        put_head(&mut buf, kind, len);
        Sink {
            w,
            from: buf.len(),
            buf,
            hash: Checksum::default(),
        }
    }

    fn spill(&mut self) -> io::Result<()> {
        self.hash.update(&self.buf[self.from..]);
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        self.from = 0;
        Ok(())
    }

    /// A counted array, encoded in pieces that fill the buffer to
    /// [`CHUNK`].
    pub(crate) fn arr(&mut self, mut arr: &[u32]) -> io::Result<()> {
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
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.hash.update(&self.buf[self.from..]);
        put_u64(&mut self.buf, self.hash.finish());
        self.w.write_all(&self.buf)?;
        self.w.flush()
    }
}

/// The sibling temp file [`write_atomically`] stages `path` in: the file
/// name with `.tmp` appended. Appending rather than swapping the extension
/// keeps it distinct from `path` for every name (`x.tmp` stages in
/// `x.tmp.tmp`) and distinct between `a.ckpt` and `a.json`.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `bytes` to `path` crash-safely: write [`temp_path`], flush with
/// `sync_all`, and atomically rename into place. A crash at any point
/// leaves either the previous file or the complete new one.
///
/// # Errors
///
/// `fail(file, op, error)` of the first operation (`create`, `write`,
/// `sync`, `rename`) that failed and the file it touched.
pub(crate) fn write_atomically<E>(
    path: &Path,
    bytes: &[u8],
    fail: impl Fn(&Path, &'static str, io::Error) -> E,
) -> Result<(), E> {
    let tmp = temp_path(path);
    let mut f = File::create(&tmp).map_err(|e| fail(&tmp, "create", e))?;
    f.write_all(bytes).map_err(|e| fail(&tmp, "write", e))?;
    f.sync_all().map_err(|e| fail(&tmp, "sync", e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| fail(path, "rename", e))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::checkpoint::{self, read_checkpoint, write_checkpoint, CheckpointError};
    use crate::shard::wire::{tests::sample_frames, Frame, WireError};
    use crate::shard::{tests::sample_checkpoint, ShardCheckpoint, ShardError};
    use proptest::prelude::*;

    /// Cases per proptest here and in the records' byte-soup tests:
    /// `PROPTEST_CASES`, else 512.
    pub(crate) fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(512)
    }

    /// Set the length and recompute the trailer of whatever follows the
    /// header, so an edit reaches the section reader instead of stopping
    /// at the envelope's checks.
    pub(crate) fn reseal(bytes: &mut Vec<u8>) {
        if bytes.len() >= HEADER + 8 {
            bytes.truncate(bytes.len() - 8);
            let len = (bytes.len() - HEADER) as u64;
            bytes[9..HEADER].copy_from_slice(&len.to_le_bytes());
            put_u64(bytes, checksum(&bytes[HEADER..]));
        }
    }

    /// Apply a script of hostile edits to a byte image.
    pub(crate) fn mangle(mut bytes: Vec<u8>, edits: &[(u8, u32, u8)], other: &[u8]) -> Vec<u8> {
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
                // A hostile record length: huge, over or under the cap, small.
                2 if bytes.len() >= HEADER => {
                    let len = [u64::MAX, MAX_PAYLOAD + 1, MAX_PAYLOAD - 1, u64::from(val)];
                    bytes[9..HEADER].copy_from_slice(&len[at % 4].to_le_bytes());
                }
                // A hostile count over any four bytes: huge, just past
                // what is left, or small.
                3 if bytes.len() >= 4 => {
                    let i = at % (bytes.len() - 3);
                    let left = (bytes.len() - i) as u32;
                    let len = [u32::MAX, left / 4 + u32::from(val), left, u32::from(val)];
                    bytes[i..i + 4].copy_from_slice(&len[usize::from(val) % 4].to_le_bytes());
                }
                // Another kind.
                4 if bytes.len() > 8 => bytes[8] = val,
                // Another image glued on.
                5 => bytes.extend_from_slice(other),
                // Raw noise inserted.
                6 => {
                    let i = at % (bytes.len() + 1);
                    bytes.splice(i..i, std::iter::repeat_n(val, at % 23));
                }
                // Seal whatever the edits so far left.
                7 => reseal(&mut bytes),
                _ => {}
            }
        }
        bytes
    }

    /// A stream that stays open but holds only `bytes`; counts the reads
    /// made of it.
    pub(crate) struct Trickle<'a> {
        pub(crate) bytes: &'a [u8],
        pub(crate) reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// A sealed record of every kind: each frame kind, the hand-off
    /// checkpoint and the session checkpoint.
    fn images() -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = sample_frames().iter().map(Frame::to_bytes).collect();
        out.push(sample_checkpoint().encode());
        out.push(checkpoint::encode(&checkpoint::tests::sample_checkpoint()));
        out
    }

    /// The payload, read a piece at a time.
    fn drain<R: Read>(r: &mut Reader<R>) -> Result<Vec<u8>, RecordError> {
        let mut out = Vec::new();
        let mut piece = [0u8; 4096];
        while r.left > 0 {
            let n = r.left.min(piece.len() as u64) as usize;
            r.fill(&mut piece[..n], "payload")?;
            out.extend_from_slice(&piece[..n]);
        }
        Ok(out)
    }

    #[test]
    fn every_record_kind_opens_and_reseals_to_its_bytes() {
        let images = images();
        let kinds: Vec<u8> = images.iter().map(|b| b[8]).collect();
        assert_eq!(kinds, [1, 6, 6, 6, 6, 2, 3, 4, 5, 19, 20]);
        for bytes in &images {
            let payload = open(bytes, bytes[8], drain).expect("intact");
            assert_eq!(seal(bytes[8], &payload), *bytes);
        }
    }

    #[test]
    fn every_truncation_of_every_record_is_corrupt() {
        assert!(matches!(open_from(&[][..], |_, _| Ok(())), Ok(None)));
        for bytes in images() {
            for cut in 0..bytes.len() {
                let got = open(&bytes[..cut], bytes[8], drain);
                assert!(
                    matches!(got, Err(RecordError::Corrupt(_))),
                    "cut at {cut}: {got:?}"
                );
            }
        }
    }

    /// A flip in the magic is foreign bytes, one in the version another
    /// format, any other one damage: the kind, the length, the payload or
    /// the trailer.
    #[test]
    fn every_bit_flip_of_every_record_is_refused() {
        for bytes in images() {
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let got = open(&bad, bytes[8], drain);
                let typed = match bit {
                    0..48 => matches!(got, Err(RecordError::BadMagic)),
                    48..64 => matches!(got, Err(RecordError::BadVersion(_))),
                    _ => matches!(got, Err(RecordError::Corrupt(_))),
                };
                assert!(typed, "kind {} bit {bit}: {got:?}", bytes[8]);
            }
        }
    }

    #[test]
    fn earlier_format_versions_are_refused_as_such() {
        for bytes in images() {
            for version in [*b"02", *b"03", *b"04"] {
                let mut old = bytes.clone();
                old[6..8].copy_from_slice(&version);
                let err = open(&old, bytes[8], drain).expect_err("another version");
                assert!(matches!(err, RecordError::BadVersion(v) if v == version));
                let said = format!("format version {:?}", String::from_utf8_lossy(&version));
                assert!(err.to_string().contains(&said), "{err}");
            }
        }
    }

    /// A file opens only as its own kind, and the pipe reader refuses
    /// every kind that is not a frame's.
    #[test]
    fn an_unknown_kind_is_refused() {
        for bytes in images() {
            for kind in (0..=u8::MAX).filter(|&k| k != bytes[8]) {
                let mut other = bytes.clone();
                other[8] = kind;
                let got = open(&other, bytes[8], drain);
                assert!(matches!(got, Err(RecordError::Corrupt(_))), "{got:?}");
                if !(1..=6).contains(&kind) {
                    let err = Frame::read_from(&mut &other[..]).expect_err("no frame");
                    assert!(
                        matches!(&err, WireError::Corrupt(why) if why.contains("unknown frame kind")),
                        "{err:?}"
                    );
                }
            }
        }
    }

    /// Over the cap a record is refused from its header alone; under it,
    /// a lying length costs what was sent, not what it claims.
    #[test]
    fn a_lying_length_is_refused_and_costs_only_what_was_sent() {
        for bytes in images() {
            let len = (bytes.len() - HEADER - 8) as u64;
            for lie in [u64::MAX, MAX_PAYLOAD + 1, MAX_PAYLOAD - 1, len + 1, len - 1] {
                let mut bad = bytes.clone();
                bad[9..HEADER].copy_from_slice(&lie.to_le_bytes());
                let mut r = Trickle {
                    bytes: &bad,
                    reads: 0,
                };
                let got = open_from(&mut r, |_, payload| drain(payload));
                assert!(
                    matches!(got, Err(RecordError::Corrupt(_))),
                    "{lie}: {got:?}"
                );
                let most = if lie > MAX_PAYLOAD { 2 } else { 7 };
                assert!(r.reads <= most, "{lie}: {} reads", r.reads);
            }
        }
    }

    /// No record's reader takes another record's bytes: each refuses them
    /// with its own typed error, by kind.
    #[test]
    fn no_record_is_read_as_another_kind() {
        let dir = std::env::temp_dir().join(format!("gpasta-record-kinds-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let (session, hand_off, frame) = (dir.join("a.ckpt"), dir.join("b.ckpt"), dir.join("c"));
        write_checkpoint(&session, &checkpoint::tests::sample_checkpoint()).expect("write");
        sample_checkpoint().write_to_path(&hand_off).expect("write");
        let shard_err = |p: &Path| match ShardCheckpoint::read_from_path(p) {
            Err(ShardError::Checkpoint(why)) => why,
            other => panic!("{other:?}"),
        };
        let session_err = |p: &Path| match read_checkpoint(p) {
            Err(CheckpointError::Corrupt(why)) => why,
            other => panic!("{other:?}"),
        };
        assert!(shard_err(&session).contains("kind 20, not 19"));
        assert!(session_err(&hand_off).contains("kind 19, not 20"));
        for file in [&session, &hand_off] {
            let got = Frame::read_from(&mut &fs::read(file).expect("read")[..]);
            let unknown = |why: &String| why.contains("unknown frame kind");
            assert!(
                matches!(&got, Err(WireError::Corrupt(why)) if unknown(why)),
                "{got:?}"
            );
        }
        for f in sample_frames() {
            fs::write(&frame, f.to_bytes()).expect("write");
            assert!(session_err(&frame).contains("not 20") && shard_err(&frame).contains("not 19"));
        }
        fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Whatever the edits, a record opens to a payload that seals back
        /// to exactly its bytes, or fails with one typed error — never a
        /// panic, never an I/O error from bytes in memory.
        #[test]
        fn record_byte_soup_opens_exactly_or_fails_typed(
            pick in 0usize..64,
            edits in proptest::collection::vec((0u8..8, any::<u32>(), any::<u8>()), 0..5),
        ) {
            let images = images();
            let clean = &images[pick % images.len()];
            let bytes = mangle(clean.clone(), &edits, &images[edits.len() % images.len()]);
            match open(&bytes, clean[8], drain) {
                Ok(payload) => prop_assert_eq!(seal(clean[8], &payload), bytes),
                Err(e) => {
                    prop_assert!(bytes != *clean);
                    prop_assert!(!matches!(e, RecordError::Io(_)), "{e:?}");
                }
            }
        }
    }
}
