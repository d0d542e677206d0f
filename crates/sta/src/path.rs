//! Timing paths: what [`Timer::worst_paths`](crate::Timer::worst_paths)
//! returns.
//!
//! After graph-based analysis, the most negative endpoint slack identifies
//! *where* timing fails; a path says *why*, step by step from a startpoint
//! to the endpoint. This is the diagnostic output every STA tool provides
//! alongside WNS/TNS.

use crate::graph::NodeId;
use std::fmt;

/// One hop of a traced path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The node reached by this step.
    pub node: NodeId,
    /// Human-readable location (port or `gate.pin`).
    pub location: String,
    /// Transition direction at this node.
    pub rise: bool,
    /// Late-mode arrival time at this node (ps).
    pub arrival_ps: f32,
    /// Delay of the arc into this node (ps); zero for the startpoint.
    pub incr_ps: f32,
}

/// A complete path from a startpoint to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Steps from startpoint (first) to endpoint (last).
    pub steps: Vec<PathStep>,
    /// Endpoint slack (ps).
    pub slack_ps: f32,
}

impl fmt::Display for TimingPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "worst path (slack {:.1} ps):", self.slack_ps)?;
        for s in &self.steps {
            writeln!(
                f,
                "  {:<24} {} arrival {:>9.1} ps (+{:.1})",
                s.location,
                if s.rise { "^" } else { "v" },
                s.arrival_ps,
                s.incr_ps
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Mode, Tr};
    use crate::library::{CellKind, CellLibrary};
    use crate::netlist::NetlistBuilder;
    use crate::timer::Timer;

    fn worst_path(timer: &Timer, endpoint: NodeId) -> TimingPath {
        let mut paths = timer.worst_paths(endpoint, 1);
        assert_eq!(paths.len(), 1, "the endpoint has fan-in");
        paths.remove(0)
    }

    fn traced_chain(len: usize) -> (Timer, TimingPath) {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y = nb.add_primary_output("y");
        let mut prev = None;
        for i in 0..len {
            let g = nb.add_gate(format!("u{i}"), CellKind::Buf);
            match prev {
                None => nb.connect_to_gate(a, g, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g, 0).expect("valid"),
            }
            prev = Some(g);
        }
        nb.connect_to_output(prev.expect("len > 0"), y)
            .expect("valid");
        let mut timer = Timer::new(nb.build().expect("valid"), CellLibrary::typical());
        timer.update_timing().run_sequential();
        let endpoint = NodeId(timer.graph().endpoints()[0]);
        let path = worst_path(&timer, endpoint);
        (timer, path)
    }

    #[test]
    fn chain_path_visits_every_stage() {
        let (_timer, path) = traced_chain(4);
        // PI, 4x (gate in, gate out), PO = 10 nodes.
        assert_eq!(path.steps.len(), 10);
        assert_eq!(path.steps[0].location, "a");
        assert_eq!(path.steps.last().expect("non-empty").location, "y");
    }

    #[test]
    fn arrivals_are_monotone_along_the_path() {
        let (_timer, path) = traced_chain(6);
        for w in path.steps.windows(2) {
            assert!(
                w[1].arrival_ps >= w[0].arrival_ps,
                "arrival dropped along the worst path"
            );
        }
        assert_eq!(path.steps[0].incr_ps, 0.0, "startpoint has no incr");
    }

    #[test]
    fn increments_sum_to_the_endpoint_arrival() {
        let (timer, path) = traced_chain(5);
        let sum: f32 = path.steps.iter().map(|s| s.incr_ps).sum();
        let last = path.steps.last().expect("non-empty");
        let start = path.steps[0].arrival_ps;
        assert!(
            (start + sum - last.arrival_ps).abs() < 1e-3,
            "increments {sum} + start {start} must reach {}",
            last.arrival_ps
        );
        let tr = if last.rise { Tr::Rise } else { Tr::Fall };
        let reported = timer.data().arrival(last.node, tr, Mode::Late);
        assert_eq!(last.arrival_ps.to_bits(), reported.to_bits());
    }

    #[test]
    fn worst_path_follows_the_slower_branch() {
        // Fork: a -> u_fast(BUF) -> y ; a -> u_s0 -> u_s1 -> u_s2 -> y2.
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y_fast = nb.add_primary_output("y_fast");
        let y_slow = nb.add_primary_output("y_slow");
        let fast = nb.add_gate("fast", CellKind::Buf);
        nb.connect_to_gate(a, fast, 0).expect("valid");
        nb.connect_to_output(fast, y_fast).expect("valid");
        let mut prev = None;
        for i in 0..3 {
            let g = nb.add_gate(format!("slow{i}"), CellKind::Buf);
            match prev {
                None => nb.connect_to_gate(a, g, 0).expect("valid"),
                Some(p) => nb.connect_gates(p, g, 0).expect("valid"),
            }
            prev = Some(g);
        }
        nb.connect_to_output(prev.expect("built"), y_slow)
            .expect("valid");

        let mut timer = Timer::new(nb.build().expect("valid"), CellLibrary::typical());
        timer.update_timing().run_sequential();
        let report = timer.report(1);
        assert_eq!(report.worst[0].name, "y_slow");
        let path = worst_path(&timer, report.worst[0].node);
        let locations: Vec<&str> = path.steps.iter().map(|s| s.location.as_str()).collect();
        assert!(
            locations.contains(&"slow2.out"),
            "path must go through the slow chain"
        );
        assert!(
            !locations.contains(&"fast.out"),
            "path must avoid the fast branch"
        );
    }

    #[test]
    fn display_renders_steps() {
        let (_timer, path) = traced_chain(2);
        let s = path.to_string();
        assert!(s.contains("worst path"));
        assert!(s.contains("arrival"));
    }

    #[test]
    fn negative_unate_path_alternates_transitions() {
        // INV chain: the worst path alternates rise/fall through inverters.
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let y = nb.add_primary_output("y");
        let g0 = nb.add_gate("i0", CellKind::Inv);
        let g1 = nb.add_gate("i1", CellKind::Inv);
        nb.connect_to_gate(a, g0, 0).expect("valid");
        nb.connect_gates(g0, g1, 0).expect("valid");
        nb.connect_to_output(g1, y).expect("valid");
        let mut timer = Timer::new(nb.build().expect("valid"), CellLibrary::typical());
        timer.update_timing().run_sequential();
        let endpoint = NodeId(timer.graph().endpoints()[0]);
        let path = worst_path(&timer, endpoint);
        // Transitions flip across each inverter's cell arc: i0.0 -> i0.out.
        let at = |loc: &str| {
            path.steps
                .iter()
                .find(|s| s.location == loc)
                .unwrap_or_else(|| panic!("{loc} on path"))
                .rise
        };
        assert_ne!(at("i0.0"), at("i0.out"), "inverter flips the edge");
        assert_ne!(at("i1.0"), at("i1.out"), "inverter flips the edge");
    }
}
