//! The seeded edit streams. Every workload input comes from here; the
//! program under test sees only the generated edits.

use gpasta::session::Edit;
use gpasta::sta::{GateId, Timer};
use serde_json::Value;

/// One generated edit, in a form every path under test can take: the
/// `Session` (typed [`Edit`]), a bare [`Timer`] (the twin), and the wire
/// (JSON).
#[derive(Debug, Clone, PartialEq)]
pub enum GenEdit {
    Repower { gate: u32, drive: f32 },
    NetCap { net: u32, cap_ff: f32 },
    Clock { period_ps: f32 },
}

impl GenEdit {
    /// As a `Session` edit; gates go by instance name, as a client's would.
    pub fn to_session(&self, timer: &Timer) -> Edit {
        match *self {
            GenEdit::Repower { gate, drive } => Edit::Repower {
                gate: timer.netlist().gates()[gate as usize].name.clone(),
                drive,
            },
            GenEdit::NetCap { net, cap_ff } => Edit::SetNetCap { net, cap_ff },
            GenEdit::Clock { period_ps } => Edit::SetClockPeriod { period_ps },
        }
    }

    pub fn apply_to_timer(&self, timer: &mut Timer) {
        match *self {
            GenEdit::Repower { gate, drive } => timer.repower_gate(GateId(gate), drive),
            GenEdit::NetCap { net, cap_ff } => timer.set_net_cap(net, cap_ff),
            GenEdit::Clock { period_ps } => timer.set_clock_period(period_ps),
        }
    }

    /// As one element of the wire protocol's `edits` array. `f32` values
    /// widen to `f64` exactly, so the daemon narrows back to the same bits.
    pub fn to_wire(&self, timer: &Timer) -> Value {
        let s = |v: &str| Value::String(v.to_string());
        let fields = match *self {
            GenEdit::Repower { gate, drive } => vec![
                ("op", s("repower")),
                ("gate", s(&timer.netlist().gates()[gate as usize].name)),
                ("drive", Value::Number(f64::from(drive))),
            ],
            GenEdit::NetCap { net, cap_ff } => vec![
                ("op", s("set_net_cap")),
                ("net", Value::Number(f64::from(net))),
                ("cap_ff", Value::Number(f64::from(cap_ff))),
            ],
            GenEdit::Clock { period_ps } => vec![
                ("op", s("set_clock_period")),
                ("period_ps", Value::Number(f64::from(period_ps))),
            ],
        };
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which edits a workload draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// The clock period alternates between 1000 ps and a seeded period in
    /// 880..=920 ps: every edit dirties the whole design.
    ClockFlip,
    /// Fig. 7's modifier stream: half gate repowers to a drive in
    /// {0.5, 1, 2, 4}, half net-capacitance changes in [0, 6) fF.
    Eco,
}

#[derive(Debug, Clone)]
pub struct EditStream {
    kind: StreamKind,
    state: u64,
    num_gates: u32,
    num_nets: u32,
    drawn: u64,
    flip_period_ps: f32,
}

impl EditStream {
    pub fn new(kind: StreamKind, seed: u64, timer: &Timer) -> Self {
        let mut state = seed;
        let flip_period_ps = 880.0 + (splitmix64(&mut state) % 41) as f32;
        EditStream {
            kind,
            state,
            num_gates: timer.netlist().num_gates() as u32,
            num_nets: timer.netlist().num_nets() as u32,
            drawn: 0,
            flip_period_ps,
        }
    }
}

impl Iterator for EditStream {
    type Item = GenEdit;

    fn next(&mut self) -> Option<GenEdit> {
        self.drawn += 1;
        Some(match self.kind {
            StreamKind::ClockFlip => GenEdit::Clock {
                period_ps: if self.drawn % 2 == 1 {
                    self.flip_period_ps
                } else {
                    1_000.0
                },
            },
            StreamKind::Eco => {
                let pick = splitmix64(&mut self.state);
                let arg = splitmix64(&mut self.state);
                if pick & 1 == 0 {
                    GenEdit::Repower {
                        gate: (pick >> 1) as u32 % self.num_gates,
                        drive: [0.5, 1.0, 2.0, 4.0][(arg % 4) as usize],
                    }
                } else {
                    GenEdit::NetCap {
                        net: (pick >> 1) as u32 % self.num_nets,
                        // 24 random bits scale exactly into an f32.
                        cap_ff: (arg >> 40) as f32 / (1u32 << 24) as f32 * 6.0,
                    }
                }
            }
        })
    }
}
