//! A signoff-style analysis pass: SDC constraints, setup and hold reports,
//! and k-worst-path enumeration on a synthetic design.
//!
//! ```text
//! cargo run --release --example sta_signoff
//! ```

use gpasta::circuits::PaperCircuit;
use gpasta::sta::{apply_sdc, k_worst_paths, write_sdc, CellLibrary, Timer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = CellLibrary::typical();
    let mut timer = Timer::new(PaperCircuit::VgaLcd.build(0.005), library);

    // Constrain the design the way a signoff run would: a clock plus
    // boundary delays on the first few ports.
    let mut sdc = String::from("create_clock -name core_clk -period 700\n");
    for name in timer
        .netlist()
        .input_names()
        .iter()
        .take(3)
        .cloned()
        .collect::<Vec<_>>()
    {
        sdc.push_str(&format!("set_input_delay 90 [get_ports {name}]\n"));
    }
    for name in timer
        .netlist()
        .output_names()
        .iter()
        .take(3)
        .cloned()
        .collect::<Vec<_>>()
    {
        sdc.push_str(&format!("set_output_delay 60 [get_ports {name}]\n"));
    }
    apply_sdc(&mut timer, &sdc)?;
    timer.update_timing().run_sequential();
    println!("applied constraints:\n{}", write_sdc(&timer));

    // Setup and hold summaries.
    let setup = timer.report(5);
    let hold = timer.report_hold(3);
    println!("setup:\n{setup}");
    println!("hold:\n{hold}");

    // The three worst paths into the most critical endpoint.
    let endpoint = setup.worst.first().expect("endpoints exist");
    println!("top paths into {}:", endpoint.name);
    for (i, path) in k_worst_paths(
        timer.graph(),
        timer.netlist(),
        timer.data(),
        endpoint.node,
        3,
    )
    .into_iter()
    .enumerate()
    {
        println!(
            "\n#{} (slack {:.1} ps, {} hops)",
            i + 1,
            path.slack_ps,
            path.steps.len()
        );
        // Print only the gate-output hops to keep it readable.
        for step in path.steps.iter().filter(|s| s.location.ends_with(".out")) {
            println!(
                "   {:<20} {} arrival {:>8.1} ps",
                step.location,
                if step.rise { "^" } else { "v" },
                step.arrival_ps
            );
        }
    }
    Ok(())
}
