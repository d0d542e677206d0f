//! The six named designs of the paper's Table 1, calibrated by TDG size.

use crate::gen::{generate_netlist, CircuitSpec};
use gpasta_sta::Netlist;
use std::fmt;

/// One of the six industrial circuits the paper evaluates on, reproduced
/// synthetically at matching `update_timing` TDG size (see `DESIGN.md` §2).
///
/// `build(scale)` generates a design whose TDG task count is approximately
/// `scale × paper task count`; `scale = 1.0` reproduces the paper-size
/// workload (up to 4.3 M tasks — use a machine with several GB of RAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperCircuit {
    /// aes_core — 66.8 K tasks, 86.4 K deps.
    AesCore,
    /// des_perf — 303.7 K tasks, 387.3 K deps.
    DesPerf,
    /// vga_lcd — 397.8 K tasks, 498.9 K deps.
    VgaLcd,
    /// leon3mp — 3.4 M tasks, 4.1 M deps.
    Leon3mp,
    /// netcard — 4.0 M tasks, 4.9 M deps.
    Netcard,
    /// leon2 — 4.3 M tasks, 5.3 M deps.
    Leon2,
}

impl PaperCircuit {
    /// All six circuits in the paper's (size) order.
    pub fn all() -> &'static [PaperCircuit] {
        &[
            PaperCircuit::AesCore,
            PaperCircuit::DesPerf,
            PaperCircuit::VgaLcd,
            PaperCircuit::Leon3mp,
            PaperCircuit::Netcard,
            PaperCircuit::Leon2,
        ]
    }

    /// The circuit's name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            PaperCircuit::AesCore => "aes_core",
            PaperCircuit::DesPerf => "des_perf",
            PaperCircuit::VgaLcd => "vga_lcd",
            PaperCircuit::Leon3mp => "leon3mp",
            PaperCircuit::Netcard => "netcard",
            PaperCircuit::Leon2 => "leon2",
        }
    }

    /// `update_timing` TDG task count reported in Table 1.
    pub fn paper_tasks(self) -> usize {
        match self {
            PaperCircuit::AesCore => 66_800,
            PaperCircuit::DesPerf => 303_700,
            PaperCircuit::VgaLcd => 397_800,
            PaperCircuit::Leon3mp => 3_400_000,
            PaperCircuit::Netcard => 4_000_000,
            PaperCircuit::Leon2 => 4_300_000,
        }
    }

    /// Logic depth used for the synthetic stand-in (deeper for the large
    /// SoCs, matching how real designs scale).
    fn depth(self) -> usize {
        match self {
            PaperCircuit::AesCore => 30,
            PaperCircuit::DesPerf => 36,
            PaperCircuit::VgaLcd => 40,
            PaperCircuit::Leon3mp => 64,
            PaperCircuit::Netcard => 60,
            PaperCircuit::Leon2 => 70,
        }
    }

    /// The generation spec at `scale` (fraction of the paper's TDG size).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn spec(self, scale: f64) -> CircuitSpec {
        assert!(scale > 0.0, "scale must be positive");
        let tasks = ((self.paper_tasks() as f64) * scale).max(64.0) as usize;
        // Depth shrinks with sqrt(scale) so the width/depth balance (and
        // with it the span-vs-work ratio that partition quality depends
        // on) stays representative of the paper-size design.
        let depth = ((self.depth() as f64) * scale.sqrt()).clamp(4.0, 80.0) as usize;
        CircuitSpec::for_tasks(self.name(), tasks, depth, 0xC0FFEE ^ self as u64)
    }

    /// Generate the synthetic netlist at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn build(self, scale: f64) -> Netlist {
        generate_netlist(&self.spec(scale))
    }
}

impl fmt::Display for PaperCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpasta_sta::{CellLibrary, Timer};

    #[test]
    fn six_circuits_in_size_order() {
        let all = PaperCircuit::all();
        assert_eq!(all.len(), 6);
        for w in all.windows(2) {
            assert!(w[0].paper_tasks() < w[1].paper_tasks());
        }
    }

    #[test]
    fn scaled_circuit_matches_scaled_task_count() {
        let scale = 0.02;
        for &c in &[PaperCircuit::AesCore, PaperCircuit::DesPerf] {
            let netlist = c.build(scale);
            let mut timer = Timer::new(netlist, CellLibrary::typical());
            let got = timer.update_timing().tdg().num_tasks() as f64;
            let target = c.paper_tasks() as f64 * scale;
            let err = (got - target).abs() / target;
            assert!(
                err < 0.12,
                "{c}: target {target}, got {got} ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn builds_are_reproducible() {
        let a = PaperCircuit::VgaLcd.build(0.005);
        let b = PaperCircuit::VgaLcd.build(0.005);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_circuits_differ() {
        let a = PaperCircuit::AesCore.build(0.01);
        let b = PaperCircuit::DesPerf.build(0.01);
        assert_ne!(a, b);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(PaperCircuit::Leon2.to_string(), "leon2");
        assert_eq!(PaperCircuit::AesCore.name(), "aes_core");
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = PaperCircuit::Leon2.spec(0.0);
    }
}
