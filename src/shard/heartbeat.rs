//! Heartbeat supervision for externally-executing work units.
//!
//! The shard supervisor runs each shard in a separate OS process. A dead
//! child is detected by `wait`, but a *hung* child (deadlocked, stalled
//! on I/O, or stuck in a loop) exits nothing — the only signal is the
//! heartbeats it stops sending. [`HeartbeatMonitor`] tracks the last
//! beat of every unit and reports the ones whose silence exceeds the
//! stall window, so the supervisor's watchdog can kill and respawn them.
//!
//! The monitor is plain single-owner state driven by the supervisor's
//! event loop; every method takes the current time as a parameter, so
//! tests exercise stall detection with synthetic clocks and no sleeps.

use std::time::{Duration, Instant};

/// Tracks per-unit heartbeats and flags units that have gone silent.
#[derive(Debug)]
pub(crate) struct HeartbeatMonitor {
    stall_after: Duration,
    /// Last observed beat per unit; `None` while the unit is not running.
    last: Vec<Option<Instant>>,
}

impl HeartbeatMonitor {
    /// A monitor over `units` work units flagging silences longer than
    /// `stall_after`. No unit is considered running until
    /// [`start`](Self::start) is called for it.
    pub(crate) fn new(units: usize, stall_after: Duration) -> Self {
        HeartbeatMonitor {
            stall_after,
            last: vec![None; units],
        }
    }

    /// Begin supervising `unit`: its spawn counts as the first beat
    /// (spawn-to-first-beat latency is bounded by the same window).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub(crate) fn start(&mut self, unit: u32, now: Instant) {
        self.last[unit as usize] = Some(now);
    }

    /// Record a heartbeat from `unit`. Beats from units that are not
    /// running are ignored — a late beat from a child the watchdog
    /// already killed must not resurrect its supervision entry.
    pub(crate) fn beat(&mut self, unit: u32, now: Instant) {
        if let Some(slot) = self.last.get_mut(unit as usize) {
            if slot.is_some() {
                *slot = Some(now);
            }
        }
    }

    /// Stop supervising `unit` (it completed, failed, or was killed).
    pub(crate) fn stop(&mut self, unit: u32) {
        self.last[unit as usize] = None;
    }

    /// Whether `unit` is currently supervised.
    #[cfg(test)]
    pub(crate) fn is_running(&self, unit: u32) -> bool {
        self.last
            .get(unit as usize)
            .is_some_and(|slot| slot.is_some())
    }

    /// Units whose last beat is older than the stall window, in unit
    /// order.
    pub(crate) fn stalled(&self, now: Instant) -> Vec<u32> {
        self.last
            .iter()
            .enumerate()
            .filter_map(|(u, slot)| {
                let at = (*slot)?;
                (now.duration_since(at) > self.stall_after).then_some(u as u32)
            })
            .collect()
    }

    /// Time until the earliest supervised unit could cross the stall
    /// window (the supervisor's `recv_timeout` bound), or `None` when
    /// nothing is supervised. Already-stalled units yield
    /// [`Duration::ZERO`].
    pub(crate) fn next_deadline(&self, now: Instant) -> Option<Duration> {
        self.last
            .iter()
            .flatten()
            .map(|&at| {
                (at + self.stall_after)
                    .checked_duration_since(now)
                    .unwrap_or(Duration::ZERO)
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> (Instant, impl Fn(u64) -> Instant) {
        let t0 = Instant::now();
        (t0, move |ms| t0 + Duration::from_millis(ms))
    }

    #[test]
    fn silent_unit_stalls_after_the_window() {
        let (t0, at) = clock();
        let mut m = HeartbeatMonitor::new(3, Duration::from_millis(100));
        m.start(0, t0);
        m.start(2, t0);
        assert!(m.stalled(at(100)).is_empty(), "window is exclusive");
        assert_eq!(m.stalled(at(101)), vec![0, 2]);
    }

    #[test]
    fn beats_keep_a_unit_alive() {
        let (t0, at) = clock();
        let mut m = HeartbeatMonitor::new(1, Duration::from_millis(100));
        m.start(0, t0);
        m.beat(0, at(80));
        m.beat(0, at(160));
        assert!(m.stalled(at(240)).is_empty());
        assert_eq!(m.stalled(at(261)), vec![0]);
    }

    #[test]
    fn stopped_units_are_not_flagged_and_late_beats_are_ignored() {
        let (t0, at) = clock();
        let mut m = HeartbeatMonitor::new(2, Duration::from_millis(10));
        m.start(0, t0);
        m.start(1, t0);
        m.stop(0);
        assert!(!m.is_running(0));
        assert!(m.is_running(1));
        // A beat from the stopped unit must not resurrect it.
        m.beat(0, at(5));
        assert!(!m.is_running(0));
        assert_eq!(m.stalled(at(1000)), vec![1]);
    }

    #[test]
    fn deadline_tracks_the_oldest_beat() {
        let (t0, at) = clock();
        let mut m = HeartbeatMonitor::new(2, Duration::from_millis(100));
        assert_eq!(m.next_deadline(t0), None, "nothing supervised");
        m.start(0, t0);
        m.start(1, at(50));
        assert_eq!(m.next_deadline(at(60)), Some(Duration::from_millis(40)));
        // Past the window the deadline clamps to zero.
        assert_eq!(m.next_deadline(at(500)), Some(Duration::ZERO));
    }
}
