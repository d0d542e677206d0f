//! An atomic `f32` cell.
//!
//! Timing values (arrival, required, slew) are written by exactly one
//! propagation task and read by downstream tasks; the scheduler's
//! dependency countdown provides the happens-before edge, so relaxed
//! bit-level atomics are sufficient and keep the engine free of `unsafe`.

use gpasta_check::sync::{AtomicU32, Ordering};

/// An `f32` stored in an `AtomicU32` via bit transmutation.
#[derive(Debug, Default)]
pub struct AtomicF32(AtomicU32);

impl AtomicF32 {
    /// Create a cell holding `v`.
    pub fn new(v: f32) -> Self {
        AtomicF32(AtomicU32::new(v.to_bits()))
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, v: f32) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Relaxed load of the raw bit pattern — the checkpoint path snapshots
    /// whole arrays and must not round-trip through an `f32` value (which
    /// could quiet a signalling NaN on some targets).
    #[inline]
    pub fn load_bits(&self) -> u32 {
        self.0.load(Ordering::Relaxed)
    }

    /// Relaxed store of a raw bit pattern (restore counterpart of
    /// [`load_bits`](Self::load_bits)).
    #[inline]
    pub fn store_bits(&self, bits: u32) {
        self.0.store(bits, Ordering::Relaxed);
    }

    /// Lower the cell to `min(current, v)`, treating NaN as absorbing: if
    /// either side is NaN the cell becomes NaN, so a poisoned slack is
    /// never masked by a later finite contribution (IEEE `min` would drop
    /// the NaN and hide the corruption).
    ///
    /// Concurrent callers fold commutatively, so the result is the same
    /// for every interleaving — the `model_check` harness below explores
    /// all of them through this function to prove it. The reduction
    /// transfers only the value itself (no payload to publish), so
    /// `Relaxed` is sufficient.
    pub fn fetch_min_nan_preserving(&self, v: f32) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let cur_f = f32::from_bits(cur);
            let new = if cur_f.is_nan() || v.is_nan() {
                f32::NAN
            } else {
                cur_f.min(v)
            }
            .to_bits();
            if new == cur {
                return;
            }
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Clone for AtomicF32 {
    fn clone(&self) -> Self {
        AtomicF32::new(self.load())
    }
}

impl From<f32> for AtomicF32 {
    fn from(v: f32) -> Self {
        AtomicF32::new(v)
    }
}

/// Exhaustive model-check harness for
/// [`AtomicF32::fetch_min_nan_preserving`], driving the shipped CAS loop.
/// Run with `RUSTFLAGS="--cfg gpasta_model_check" cargo test -p
/// gpasta-sta --lib model_check`.
#[cfg(all(test, gpasta_model_check))]
mod model_check {
    use super::*;
    use gpasta_check::model::{assert_exhausted, check, explore, run_threads, HARNESS_BOUNDS};

    /// Two threads fold `inputs` into a cell seeded with `init`; every
    /// interleaving must end at `expected` (bitwise, so NaN compares like
    /// any value).
    fn slack_min(init: f32, inputs: [f32; 2], expected: f32) {
        let report = explore(&HARNESS_BOUNDS, || {
            let acc = AtomicF32(AtomicU32::named("slack_bits", init.to_bits()));
            let a = &acc;
            run_threads(vec![
                Box::new(move || a.fetch_min_nan_preserving(inputs[0])),
                Box::new(move || a.fetch_min_nan_preserving(inputs[1])),
            ]);
            check(
                acc.load_bits() == expected.to_bits(),
                "slack-min must be order-insensitive and NaN-preserving",
            );
        });
        assert_exhausted(&report, &[]);
    }

    #[test]
    fn slack_min_plain_values_order_insensitive() {
        slack_min(5.0, [3.5, 7.0], 3.5);
    }

    #[test]
    fn slack_min_nan_preserving_in_every_interleaving() {
        slack_min(5.0, [3.5, f32::NAN], f32::NAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let a = AtomicF32::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-3.25);
        assert_eq!(a.load(), -3.25);
    }

    #[test]
    fn preserves_infinities_and_signed_zero() {
        let a = AtomicF32::new(f32::NEG_INFINITY);
        assert_eq!(a.load(), f32::NEG_INFINITY);
        a.store(-0.0);
        assert!(a.load().is_sign_negative());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(AtomicF32::default().load(), 0.0);
    }

    #[test]
    fn bits_round_trip_exactly() {
        let a = AtomicF32::new(0.0);
        // A NaN with a non-default payload must survive untouched.
        let weird_nan = 0x7F80_0001u32;
        a.store_bits(weird_nan);
        assert_eq!(a.load_bits(), weird_nan);
        a.store_bits((-0.0f32).to_bits());
        assert!(a.load().is_sign_negative());
    }

    #[test]
    fn clone_copies_value_not_cell() {
        let a = AtomicF32::new(2.0);
        let b = a.clone();
        a.store(9.0);
        assert_eq!(b.load(), 2.0);
    }

    #[test]
    fn fetch_min_lowers_monotonically() {
        let a = AtomicF32::new(5.0);
        a.fetch_min_nan_preserving(7.0);
        assert_eq!(a.load(), 5.0, "larger value must not raise the min");
        a.fetch_min_nan_preserving(-1.5);
        assert_eq!(a.load(), -1.5);
    }

    #[test]
    fn fetch_min_nan_is_absorbing() {
        let a = AtomicF32::new(3.0);
        a.fetch_min_nan_preserving(f32::NAN);
        assert!(a.load().is_nan(), "NaN input must poison the cell");
        a.fetch_min_nan_preserving(-100.0);
        assert!(a.load().is_nan(), "finite input must not mask the NaN");
    }
}
