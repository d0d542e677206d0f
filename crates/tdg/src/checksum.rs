//! The one 64-bit checksum behind every structural fingerprint, checkpoint
//! trailer and shard frame trailer.
//!
//! Lane-wise FNV-1a with a rotate: each 8-byte little-endian lane is
//! folded in as `h = ((h ^ lane) * PRIME).rotate_left(ROTATE)`, then the
//! zero-padded 1–7 tail bytes (if any) and the byte count. Every step is a
//! bijection of the state, so inputs of one length that differ in a single
//! lane always hash apart; the rotate brings the multiply's top bits back
//! down, where plain lane-wise FNV lets two bit-63 flips cancel.
//! [`Checksum`] keeps up to seven pending bytes between pieces, so any
//! split of the input gives the one-shot [`checksum`].

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
const ROTATE: u32 = 23;

#[inline]
fn mix(h: u64, lane: u64) -> u64 {
    ((h ^ lane).wrapping_mul(PRIME)).rotate_left(ROTATE)
}

/// [`checksum`] fed in pieces: the checksum of the concatenated pieces.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    state: u64,
    /// Bytes fed so far; the last `len % 8` of them wait in `tail`.
    len: u64,
    tail: [u8; 8],
}

impl Default for Checksum {
    /// The checksum of no bytes yet.
    fn default() -> Self {
        Checksum {
            state: OFFSET,
            len: 0,
            tail: [0; 8],
        }
    }
}

impl Checksum {
    /// Feed `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        let have = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if have > 0 {
            let n = bytes.len().min(8 - have);
            self.tail[have..have + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if have + n < 8 {
                return;
            }
            self.state = mix(self.state, u64::from_le_bytes(self.tail));
        }
        let mut lanes = bytes.chunks_exact(8);
        let mut h = self.state;
        let mut word = [0u8; 8];
        for lane in &mut lanes {
            word.copy_from_slice(lane);
            h = mix(h, u64::from_le_bytes(word));
        }
        self.state = h;
        let rest = lanes.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
    }

    /// Feed `words` as their little-endian bytes. Once no byte is pending,
    /// two words make one lane, so a short slice costs a few multiplies
    /// and no buffer.
    pub fn update_words(&mut self, mut words: &[u32]) {
        while !self.len.is_multiple_of(8) {
            let Some((w, rest)) = words.split_first() else {
                return;
            };
            self.update(&w.to_le_bytes());
            words = rest;
        }
        let mut pairs = words.chunks_exact(2);
        let mut h = self.state;
        for pair in &mut pairs {
            h = mix(h, u64::from(pair[0]) | u64::from(pair[1]) << 32);
        }
        self.state = h;
        self.len += 4 * (words.len() & !1) as u64;
        if let [w] = pairs.remainder() {
            self.update(&w.to_le_bytes());
        }
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u64 {
        let have = (self.len % 8) as usize;
        let mut h = self.state;
        if have > 0 {
            let mut last = [0u8; 8];
            last[..have].copy_from_slice(&self.tail[..have]);
            h = mix(h, u64::from_le_bytes(last));
        }
        mix(h, self.len)
    }
}

/// The checksum of `bytes`.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Checksum::default();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule transcribed once more, one lane at a time.
    fn by_hand(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for lane in bytes.chunks(8) {
            let mut padded = [0u8; 8];
            padded[..lane.len()].copy_from_slice(lane);
            h = ((h ^ u64::from_le_bytes(padded)).wrapping_mul(0x100_0000_01b3)).rotate_left(23);
        }
        ((h ^ bytes.len() as u64).wrapping_mul(0x100_0000_01b3)).rotate_left(23)
    }

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn one_shot_matches_the_rule() {
        for n in 0..40 {
            let bytes = sample(n);
            assert_eq!(checksum(&bytes), by_hand(&bytes), "{n} bytes");
        }
    }

    #[test]
    fn every_split_of_a_100_byte_input_gives_the_one_shot_hash() {
        let bytes = sample(100);
        let whole = checksum(&bytes);
        for a in 0..=bytes.len() {
            let mut h = Checksum::default();
            h.update(&bytes[..a]);
            h.update(&bytes[a..]);
            assert_eq!(h.finish(), whole, "split at {a}");
            for b in a..=bytes.len() {
                let mut h = Checksum::default();
                for piece in [&bytes[..a], &bytes[a..b], &bytes[b..]] {
                    h.update(piece);
                }
                assert_eq!(h.finish(), whole, "split at {a} and {b}");
            }
        }
    }

    /// Words hash as their little-endian bytes, fed whole or in pieces of
    /// any length, behind any count of pending bytes.
    #[test]
    fn words_hash_as_their_little_endian_bytes() {
        let words: Vec<u32> = (0..700u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        for lead in 0..8 {
            let mut whole = sample(lead);
            whole.extend(words.iter().flat_map(|w| w.to_le_bytes()));
            for piece in [1, 2, 3, 5, 8, 255, 700] {
                let mut h = Checksum::default();
                h.update(&sample(lead));
                for chunk in words.chunks(piece) {
                    h.update_words(chunk);
                }
                assert_eq!(
                    h.finish(),
                    checksum(&whole),
                    "{lead} bytes, pieces of {piece}"
                );
            }
        }
    }

    #[test]
    fn lengths_and_zero_tails_hash_apart() {
        let hashes: Vec<u64> = (0..24).map(|n| checksum(&vec![0; n])).collect();
        for (i, a) in hashes.iter().enumerate() {
            assert!(!hashes[i + 1..].contains(a), "{i} zero bytes collide");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample(45);
        let good = checksum(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&bad), good, "bit {bit}");
        }
    }

    #[test]
    fn bit_63_flips_in_two_lanes_do_not_cancel() {
        let bytes = sample(16 * 8);
        let good = checksum(&bytes);
        for i in 0..16 {
            for j in i + 1..16 {
                let mut bad = bytes.clone();
                bad[8 * i + 7] ^= 0x80;
                bad[8 * j + 7] ^= 0x80;
                assert_ne!(checksum(&bad), good, "lanes {i} and {j}");
            }
        }
    }
}
