//! File-based flow: write a design to Verilog + Liberty, read both back,
//! and verify the round trip preserves timing exactly.
//!
//! This is the interchange path a downstream user takes to analyse their
//! own designs (see also `gpasta sta <netlist.v> --lib <file.lib>`).
//!
//! ```text
//! cargo run --release --example netlist_io
//! ```

use gpasta::circuits::PaperCircuit;
use gpasta::sta::{parse_liberty, parse_verilog, write_liberty, write_verilog, CellLibrary, Timer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = PaperCircuit::DesPerf.build(0.003);
    let library = CellLibrary::typical();
    println!(
        "generated des_perf-class design: {} gates, {} nets",
        netlist.num_gates(),
        netlist.num_nets()
    );

    // Write both interchange files.
    let verilog = write_verilog(&netlist, "des_perf_demo");
    let liberty = write_liberty(&library, "typical");
    let (v_path, lib_path) = (
        std::env::temp_dir().join("des_perf_demo.v"),
        std::env::temp_dir().join("typical.lib"),
    );
    std::fs::write(&v_path, &verilog)?;
    std::fs::write(&lib_path, &liberty)?;
    println!(
        "wrote {} ({} lines) and {} ({} lines)",
        v_path.display(),
        verilog.lines().count(),
        lib_path.display(),
        liberty.lines().count()
    );

    // Read them back.
    let netlist_back = parse_verilog(&verilog)?;
    let library_back = parse_liberty(&liberty)?;
    assert_eq!(netlist, netlist_back, "netlist round trip is lossless");
    assert_eq!(library, library_back, "library round trip is lossless");

    // Identical timing either way.
    let mut original = Timer::new(netlist, library);
    original.update_timing().run_sequential();
    let mut round_tripped = Timer::new(netlist_back, library_back);
    round_tripped.update_timing().run_sequential();

    let (a, b) = (original.report(3), round_tripped.report(3));
    assert_eq!(a.wns_ps, b.wns_ps);
    assert_eq!(a.tns_ps, b.tns_ps);
    println!("\ntiming identical after the round trip:");
    print!("{a}");
    Ok(())
}
