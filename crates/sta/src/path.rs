//! Critical-path tracing.
//!
//! After graph-based analysis, the most negative endpoint slack identifies
//! *where* timing fails; path tracing reconstructs *why*, walking backward
//! from an endpoint along the arcs that produced the late arrival. This is
//! the diagnostic output every STA tool provides alongside WNS/TNS.

use crate::analysis::{Mode, TimingData, Tr};
use crate::graph::{ArcKind, NodeId, NodeKind, TimingGraph};
use crate::library::CellLibrary;
use crate::netlist::Netlist;
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

/// A complete worst path from a startpoint to an endpoint.
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

/// Trace the late-mode worst path ending at `endpoint`.
///
/// Walks backward choosing, at each node, the fan-in arc and input
/// transition whose `arrival + delay` reproduces the node's recorded late
/// arrival (within rounding), i.e. the path the max-merge actually took.
///
/// Returns `None` if `endpoint` has no fan-in (an isolated node).
pub fn trace_worst_path(
    graph: &TimingGraph,
    netlist: &Netlist,
    library: &CellLibrary,
    data: &TimingData,
    endpoint: NodeId,
) -> Option<TimingPath> {
    // Pick the endpoint's worst transition.
    let (mut tr, _) = [Tr::Rise, Tr::Fall]
        .into_iter()
        .map(|tr| {
            let slack =
                data.required(endpoint, tr, Mode::Late) - data.arrival(endpoint, tr, Mode::Late);
            (tr, slack)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    let slack_ps = data.required(endpoint, tr, Mode::Late) - data.arrival(endpoint, tr, Mode::Late);

    let mut rev_steps = Vec::new();
    let mut node = endpoint;
    let mut incr_out = 0.0f32;
    loop {
        rev_steps.push(PathStep {
            node,
            location: location_of(graph, netlist, node),
            rise: matches!(tr, Tr::Rise),
            arrival_ps: data.arrival(node, tr, Mode::Late),
            incr_ps: incr_out,
        });
        if rev_steps.len() > graph.num_nodes() {
            debug_assert!(false, "path longer than the graph");
            break;
        }

        // Find the fan-in arc that realised this arrival.
        let arrival = data.arrival(node, tr, Mode::Late);
        let mut best: Option<(NodeId, Tr, f32, f32)> = None; // (from, tr_in, err, delay)
        for a in graph.fanin(node) {
            let arc = graph.arc(a);
            let from = arc.from;
            let sense = match arc.kind {
                ArcKind::Net { .. } => crate::library::TimingSense::Positive,
                ArcKind::Cell { gate } => netlist.gates()[gate as usize].cell.sense(),
            };
            let candidates: &[Tr] = match sense {
                crate::library::TimingSense::Positive => &[tr],
                crate::library::TimingSense::Negative => match tr {
                    Tr::Rise => &[Tr::Fall],
                    Tr::Fall => &[Tr::Rise],
                },
                crate::library::TimingSense::NonUnate => &[Tr::Rise, Tr::Fall],
            };
            for &tr_in in candidates {
                let delay = arc_delay_late(data, a, tr);
                let err = (data.arrival(from, tr_in, Mode::Late) + delay - arrival).abs();
                if best.is_none_or(|(_, _, e, _)| err < e) {
                    best = Some((from, tr_in, err, delay));
                }
            }
        }
        match best {
            Some((from, tr_in, _err, delay)) => {
                node = from;
                tr = tr_in;
                incr_out = delay;
            }
            None => break, // startpoint reached
        }
    }

    let _ = library; // names come from the netlist; library kept for future per-arc annotation

    // The walk recorded, at each node, the delay of the arc *leaving* it
    // towards the endpoint; shift so each step carries the delay of the
    // arc *entering* it (the startpoint has none).
    for i in 0..rev_steps.len() {
        rev_steps[i].incr_ps = if i + 1 < rev_steps.len() {
            rev_steps[i + 1].incr_ps
        } else {
            0.0
        };
    }
    rev_steps.reverse();
    Some(TimingPath {
        steps: rev_steps,
        slack_ps,
    })
}

/// Late-mode cached delay of arc `a` at output transition `tr`.
fn arc_delay_late(data: &TimingData, a: u32, tr: Tr) -> f32 {
    data.arc_delay_public(a, tr)
}

fn location_of(graph: &TimingGraph, netlist: &Netlist, v: NodeId) -> String {
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
    use crate::library::CellKind;
    use crate::netlist::NetlistBuilder;
    use crate::timer::Timer;

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
        let path = trace_worst_path(
            timer.graph(),
            timer.netlist(),
            &CellLibrary::typical(),
            timer.data(),
            endpoint,
        )
        .expect("endpoint has fan-in");
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
        let (_timer, path) = traced_chain(5);
        let sum: f32 = path.steps.iter().map(|s| s.incr_ps).sum();
        let end = path.steps.last().expect("non-empty").arrival_ps;
        let start = path.steps[0].arrival_ps;
        assert!(
            (start + sum - end).abs() < 0.5,
            "increments {sum} + start {start} must reach {end}"
        );
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
        let path = trace_worst_path(
            timer.graph(),
            timer.netlist(),
            &CellLibrary::typical(),
            timer.data(),
            report.worst[0].node,
        )
        .expect("traceable");
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
        let path = trace_worst_path(
            timer.graph(),
            timer.netlist(),
            &CellLibrary::typical(),
            timer.data(),
            endpoint,
        )
        .expect("traceable");
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
