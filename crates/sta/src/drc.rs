//! Electrical design-rule checks.
//!
//! Alongside setup/hold slacks, STA signoff reports design-rule
//! violations: transitions slower than `max_transition` (degraded noise
//! margins, unreliable downstream delays) and nets loaded beyond
//! `max_capacitance` (drive strength exceeded). Both checks read state the
//! analysis already computed, so they are cheap post-passes.

use crate::analysis::{Mode, TimingData, Tr};
use crate::graph::{NodeId, TimingGraph};
use crate::netlist::Netlist;
use std::fmt;

/// One design-rule violation.
#[derive(Debug, Clone, PartialEq)]
pub struct DrcViolation {
    /// Where (node for slew, driving gate's output node for cap).
    pub node: NodeId,
    /// Human-readable location.
    pub location: String,
    /// The measured value (ps for slew, fF for cap).
    pub actual: f32,
    /// The limit it exceeds.
    pub limit: f32,
}

impl fmt::Display for DrcViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} {:>9.1} exceeds limit {:>9.1}",
            self.location, self.actual, self.limit
        )
    }
}

/// A design-rule report: slew and capacitance violations, worst first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DrcReport {
    /// Nodes whose worst-case (late) transition exceeds `max_transition`.
    pub slew_violations: Vec<DrcViolation>,
    /// Gates whose output load exceeds `max_capacitance`.
    pub cap_violations: Vec<DrcViolation>,
}

impl DrcReport {
    /// Whether the design is clean.
    pub fn is_clean(&self) -> bool {
        self.slew_violations.is_empty() && self.cap_violations.is_empty()
    }

    /// Total number of violations.
    pub fn num_violations(&self) -> usize {
        self.slew_violations.len() + self.cap_violations.len()
    }
}

impl fmt::Display for DrcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} slew violations, {} capacitance violations",
            self.slew_violations.len(),
            self.cap_violations.len()
        )?;
        for v in self.slew_violations.iter().chain(&self.cap_violations) {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Check every node's late-mode slew against `max_transition_ps` and every
/// gate's output load against `max_capacitance_ff`. Run after an update
/// has propagated slews.
pub fn check_design_rules(
    graph: &TimingGraph,
    netlist: &Netlist,
    data: &TimingData,
    max_transition_ps: f32,
    max_capacitance_ff: f32,
) -> DrcReport {
    let mut report = DrcReport::default();

    for v in 0..graph.num_nodes() as u32 {
        let node = NodeId(v);
        let slew = data
            .slew(node, Tr::Rise, Mode::Late)
            .max(data.slew(node, Tr::Fall, Mode::Late));
        if slew > max_transition_ps {
            report.slew_violations.push(DrcViolation {
                node,
                location: location_of(graph, netlist, node),
                actual: slew,
                limit: max_transition_ps,
            });
        }
    }
    for g in 0..netlist.num_gates() as u32 {
        let node = graph.gate_output_node(crate::GateId(g));
        let load = data.gate_load(node);
        if load > max_capacitance_ff {
            report.cap_violations.push(DrcViolation {
                node,
                location: location_of(graph, netlist, node),
                actual: load,
                limit: max_capacitance_ff,
            });
        }
    }

    report
        .slew_violations
        .sort_by(|a, b| b.actual.total_cmp(&a.actual));
    report
        .cap_violations
        .sort_by(|a, b| b.actual.total_cmp(&a.actual));
    report
}

fn location_of(graph: &TimingGraph, netlist: &Netlist, v: NodeId) -> String {
    use crate::graph::NodeKind;
    match graph.node_kind(v) {
        NodeKind::PrimaryInput(p) => netlist.input_names()[p as usize].clone(),
        NodeKind::PrimaryOutput(p) => netlist.output_names()[p as usize].clone(),
        NodeKind::GateInput(g, pin) => format!("{}.{}", netlist.gates()[g as usize].name, pin),
        NodeKind::GateOutput(g) => format!("{}.out", netlist.gates()[g as usize].name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{CellKind, CellLibrary};
    use crate::netlist::NetlistBuilder;
    use crate::timer::Timer;

    /// One inverter fanning out to `fanout` sinks: heavy load, slow slew.
    fn fanout_timer(fanout: usize) -> Timer {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let driver = nb.add_gate("drv", CellKind::Inv);
        nb.connect_to_gate(a, driver, 0).expect("valid");
        for i in 0..fanout {
            let g = nb.add_gate(format!("sink{i}"), CellKind::Inv);
            nb.connect_gates(driver, g, 0).expect("valid");
            let y = nb.add_primary_output(format!("y{i}"));
            nb.connect_to_output(g, y).expect("valid");
        }
        let mut timer = Timer::new(nb.build().expect("valid"), CellLibrary::typical());
        timer.update_timing().run_sequential();
        timer
    }

    #[test]
    fn clean_design_reports_nothing() {
        let timer = fanout_timer(2);
        let report = check_design_rules(
            timer.graph(),
            timer.netlist(),
            timer.data(),
            10_000.0,
            10_000.0,
        );
        assert!(report.is_clean());
        assert_eq!(report.num_violations(), 0);
    }

    #[test]
    fn heavy_fanout_violates_cap_limit() {
        let timer = fanout_timer(40);
        let report =
            check_design_rules(timer.graph(), timer.netlist(), timer.data(), 10_000.0, 10.0);
        assert!(!report.cap_violations.is_empty());
        assert_eq!(report.cap_violations[0].location, "drv.out");
        assert!(report.cap_violations[0].actual > 10.0);
    }

    #[test]
    fn slow_transitions_violate_slew_limit() {
        let timer = fanout_timer(40);
        // The heavily loaded driver produces a slew far above a tight limit.
        let report = check_design_rules(timer.graph(), timer.netlist(), timer.data(), 30.0, 1e9);
        assert!(!report.slew_violations.is_empty());
        // Violations are sorted worst first.
        for w in report.slew_violations.windows(2) {
            assert!(w[0].actual >= w[1].actual);
        }
    }

    #[test]
    fn display_counts_and_lists() {
        let timer = fanout_timer(40);
        let report = check_design_rules(timer.graph(), timer.netlist(), timer.data(), 30.0, 10.0);
        let s = report.to_string();
        assert!(s.contains("slew violations"));
        assert!(s.contains("drv.out"));
        assert!(s.contains("exceeds limit"));
    }
}
