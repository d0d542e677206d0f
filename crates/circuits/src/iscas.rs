//! Hand-written classic benchmark circuits.
//!
//! [`c17`] is the smallest ISCAS-85 benchmark — six NAND2 gates — useful
//! for documentation, debugging, and as a known-good parser fixture. The
//! netlist follows the published structure (inputs 1, 2, 3, 6, 7; outputs
//! 22, 23).

use gpasta_sta::{parse_verilog, Netlist};

/// Structural Verilog for ISCAS-85 c17.
pub const C17_VERILOG: &str = r"// ISCAS-85 c17: 6 NAND2 gates
module c17 (n1, n2, n3, n6, n7, n22, n23);
  input n1, n2, n3, n6, n7;
  output n22, n23;
  wire w10, w11, w16, w19, wn22, wn23;

  NAND2 g10 (.a(n1),  .b(n3),  .y(w10));
  NAND2 g11 (.a(n3),  .b(n6),  .y(w11));
  NAND2 g16 (.a(n2),  .b(w11), .y(w16));
  NAND2 g19 (.a(w11), .b(n7),  .y(w19));
  NAND2 g22 (.a(w10), .b(w16), .y(wn22));
  NAND2 g23 (.a(w16), .b(w19), .y(wn23));

  assign n22 = wn22;
  assign n23 = wn23;
endmodule
";

/// The ISCAS-85 c17 benchmark as a [`Netlist`].
///
/// # Example
///
/// ```
/// use gpasta_circuits::iscas::c17;
/// use gpasta_sta::{CellLibrary, Timer};
///
/// let mut timer = Timer::new(c17(), CellLibrary::typical());
/// timer.update_timing().run_sequential();
/// assert!(timer.report(2).meets_timing());
/// ```
pub fn c17() -> Netlist {
    parse_verilog(C17_VERILOG).expect("the bundled c17 netlist is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpasta_sta::{CellKind, CellLibrary, Timer};

    #[test]
    fn c17_structure_matches_the_benchmark() {
        let n = c17();
        assert_eq!(n.num_gates(), 6);
        assert_eq!(n.num_inputs(), 5);
        assert_eq!(n.num_outputs(), 2);
        assert!(n.gates().iter().all(|g| g.cell == CellKind::Nand2));
    }

    #[test]
    fn c17_analyses_cleanly() {
        let mut timer = Timer::new(c17(), CellLibrary::typical());
        timer.update_timing().run_sequential();
        let report = timer.report(2);
        assert_eq!(report.num_endpoints, 2);
        assert!(report.meets_timing(), "c17 at 1 ns: {}", report.wns_ps);
        // Critical path: three NAND levels (e.g. n3 -> g11 -> g16 -> g23).
        let worst = &report.worst[0];
        let path = timer.worst_paths(worst.node, 1).pop().expect("traceable");
        let gate_hops = path
            .steps
            .iter()
            .filter(|s| s.location.ends_with(".out"))
            .count();
        assert_eq!(gate_hops, 3, "c17's depth is three NANDs");
    }

    #[test]
    fn c17_round_trips() {
        let n = c17();
        let back = gpasta_sta::parse_verilog(&gpasta_sta::write_verilog(&n, "c17"))
            .expect("round trip parses");
        assert_eq!(n, back);
    }
}
