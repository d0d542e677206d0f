//! K-worst-path enumeration (path-based-analysis lite).
//!
//! Graph-based analysis keeps one worst arrival per node; signoff flows
//! also want the *next* most critical paths per endpoint (ECO targeting,
//! common-path analysis). This module enumerates the `k` latest-arriving
//! paths into an endpoint with a lazy best-first search over the fan-in
//! options — the Recursive Enumeration Algorithm shape, run on the arc
//! delays the forward propagation already cached.

use crate::analysis::{Mode, TimingData, Tr};
use crate::graph::{ArcKind, NodeId, TimingGraph};
use crate::library::TimingSense;
use crate::netlist::Netlist;
use crate::path::{PathStep, TimingPath};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// A reverse-linked partial path: the head node plus the suffix towards
/// the endpoint.
struct Suffix {
    node: NodeId,
    tr: Tr,
    /// Delay of the arc from this node towards the next suffix element.
    incr_out: f32,
    next: Option<Rc<Suffix>>,
}

/// Heap entry: a partial path ranked by the arrival it can still achieve.
struct Candidate {
    /// `arrival(head) + suffix delays`: the exact total arrival of the
    /// best completion of this partial path.
    potential: f32,
    suffix: Rc<Suffix>,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.potential == other.potential
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.potential.total_cmp(&other.potential)
    }
}

/// Enumerate the `k` latest-arriving late-mode paths ending at `endpoint`,
/// most critical first.
///
/// Requires a completed forward propagation (the search consumes the
/// cached arc delays). Paths are maximal: they start at a task with no
/// fan-in (primary input or sequential output). Returns fewer than `k`
/// paths when the endpoint's fan-in cone has fewer distinct paths.
pub fn k_worst_paths(
    graph: &TimingGraph,
    netlist: &Netlist,
    data: &TimingData,
    endpoint: NodeId,
    k: usize,
) -> Vec<TimingPath> {
    if k == 0 {
        return Vec::new();
    }

    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    // Seed with both endpoint transitions.
    for tr in [Tr::Rise, Tr::Fall] {
        heap.push(Candidate {
            potential: data.arrival(endpoint, tr, Mode::Late),
            suffix: Rc::new(Suffix {
                node: endpoint,
                tr,
                incr_out: 0.0,
                next: None,
            }),
        });
    }

    let mut out = Vec::with_capacity(k);
    // Cap expansions to keep adversarial graphs bounded.
    let mut expansions = 0usize;
    let max_expansions = 10_000 + 200 * k * graph.num_nodes().max(1).ilog2() as usize;

    while let Some(Candidate { potential, suffix }) = heap.pop() {
        expansions += 1;
        if expansions > max_expansions {
            break;
        }
        let head = suffix.node;
        let head_tr = suffix.tr;
        let fanin = graph.fanin(head);
        if fanin.is_empty() {
            // Complete maximal path; materialise front-to-back.
            out.push(materialise(
                graph, netlist, data, &suffix, potential, endpoint,
            ));
            if out.len() == k {
                break;
            }
            continue;
        }
        for a in fanin {
            let arc = graph.arc(a);
            let from = arc.from;
            let sense = match arc.kind {
                ArcKind::Net { .. } => TimingSense::Positive,
                ArcKind::Cell { gate } => netlist.gates()[gate as usize].cell.sense(),
            };
            let candidates: &[Tr] = match sense {
                TimingSense::Positive => &[head_tr],
                TimingSense::Negative => match head_tr {
                    Tr::Rise => &[Tr::Fall],
                    Tr::Fall => &[Tr::Rise],
                },
                TimingSense::NonUnate => &[Tr::Rise, Tr::Fall],
            };
            let delay = data.arc_delay_public(a, head_tr);
            // Suffix delay accumulated so far = potential - arrival(head).
            let suffix_delay = potential - data.arrival(head, head_tr, Mode::Late);
            for &tr_in in candidates {
                let new_potential = data.arrival(from, tr_in, Mode::Late) + delay + suffix_delay;
                heap.push(Candidate {
                    potential: new_potential,
                    suffix: Rc::new(Suffix {
                        node: from,
                        tr: tr_in,
                        incr_out: delay,
                        next: Some(Rc::clone(&suffix)),
                    }),
                });
            }
        }
    }
    out
}

fn materialise(
    graph: &TimingGraph,
    netlist: &Netlist,
    data: &TimingData,
    suffix: &Rc<Suffix>,
    total_arrival: f32,
    endpoint: NodeId,
) -> TimingPath {
    let mut steps = Vec::new();
    let mut cursor = Some(Rc::clone(suffix));
    let mut arrival = data.arrival(suffix.node, suffix.tr, Mode::Late);
    let mut incr_in = 0.0f32;
    while let Some(s) = cursor {
        steps.push(PathStep {
            node: s.node,
            location: location_of(graph, netlist, s.node),
            rise: matches!(s.tr, Tr::Rise),
            arrival_ps: arrival,
            incr_ps: incr_in,
        });
        arrival += s.incr_out;
        incr_in = s.incr_out;
        cursor = s.next.clone();
    }
    // Endpoint slack against this specific path's arrival.
    let worst_required = [Tr::Rise, Tr::Fall]
        .into_iter()
        .map(|tr| data.required(endpoint, tr, Mode::Late))
        .fold(f32::INFINITY, f32::min);
    TimingPath {
        steps,
        slack_ps: worst_required - total_arrival,
    }
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

    /// Two parallel arms of different lengths into one AND gate.
    fn two_arm_timer() -> Timer {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let y = nb.add_primary_output("y");
        // Slow arm: three buffers; fast arm: one buffer.
        let s0 = nb.add_gate("s0", CellKind::Buf);
        let s1 = nb.add_gate("s1", CellKind::Buf);
        let s2 = nb.add_gate("s2", CellKind::Buf);
        let f0 = nb.add_gate("f0", CellKind::Buf);
        let join = nb.add_gate("join", CellKind::And2);
        nb.connect_to_gate(a, s0, 0).expect("valid");
        nb.connect_gates(s0, s1, 0).expect("valid");
        nb.connect_gates(s1, s2, 0).expect("valid");
        nb.connect_to_gate(b, f0, 0).expect("valid");
        nb.connect_gates(s2, join, 0).expect("valid");
        nb.connect_gates(f0, join, 1).expect("valid");
        nb.connect_to_output(join, y).expect("valid");
        let mut timer = Timer::new(nb.build().expect("valid"), CellLibrary::typical());
        timer.update_timing().run_sequential();
        timer
    }

    fn endpoint(timer: &Timer) -> NodeId {
        NodeId(timer.graph().endpoints()[0])
    }

    #[test]
    fn first_path_matches_gba_worst_arrival() {
        let timer = two_arm_timer();
        let ep = endpoint(&timer);
        let paths = k_worst_paths(timer.graph(), timer.netlist(), timer.data(), ep, 1);
        assert_eq!(paths.len(), 1);
        let gba_worst = timer.data().slack_late(ep);
        assert!(
            (paths[0].slack_ps - gba_worst).abs() < 0.5,
            "PBA worst {} vs GBA {}",
            paths[0].slack_ps,
            gba_worst
        );
        // The worst path goes through the slow arm.
        assert!(paths[0].steps.iter().any(|s| s.location == "s2.out"));
    }

    #[test]
    fn paths_come_out_sorted_and_distinct() {
        let timer = two_arm_timer();
        let ep = endpoint(&timer);
        let paths = k_worst_paths(timer.graph(), timer.netlist(), timer.data(), ep, 8);
        assert!(paths.len() >= 2, "two arms yield at least two paths");
        for w in paths.windows(2) {
            assert!(
                w[0].slack_ps <= w[1].slack_ps + 1e-3,
                "paths must rank worst-first"
            );
        }
        // The second-ranked family of paths uses the fast arm eventually.
        assert!(paths
            .iter()
            .any(|p| p.steps.iter().any(|s| s.location == "f0.out")));
        // All paths are maximal: start at a PI.
        for p in &paths {
            assert!(p.steps[0].location == "a" || p.steps[0].location == "b");
            assert_eq!(p.steps.last().expect("non-empty").location, "y");
        }
    }

    #[test]
    fn increments_reconstruct_arrivals() {
        let timer = two_arm_timer();
        let ep = endpoint(&timer);
        for p in k_worst_paths(timer.graph(), timer.netlist(), timer.data(), ep, 4) {
            let mut acc = p.steps[0].arrival_ps;
            for s in &p.steps[1..] {
                acc += s.incr_ps;
                assert!(
                    (acc - s.arrival_ps).abs() < 0.5,
                    "arrival chain broken at {}: {} vs {}",
                    s.location,
                    acc,
                    s.arrival_ps
                );
            }
        }
    }

    #[test]
    fn k_zero_and_large_k() {
        let timer = two_arm_timer();
        let ep = endpoint(&timer);
        assert!(k_worst_paths(timer.graph(), timer.netlist(), timer.data(), ep, 0).is_empty());
        let many = k_worst_paths(timer.graph(), timer.netlist(), timer.data(), ep, 1000);
        // The two-arm cone has a handful of transition-variant paths, far
        // fewer than 1000.
        assert!(many.len() < 64);
    }

    #[test]
    fn xor_cone_expands_both_transitions() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_primary_input("a");
        let b = nb.add_primary_input("b");
        let y = nb.add_primary_output("y");
        let x = nb.add_gate("x0", CellKind::Xor2);
        nb.connect_to_gate(a, x, 0).expect("valid");
        nb.connect_to_gate(b, x, 1).expect("valid");
        nb.connect_to_output(x, y).expect("valid");
        let mut timer = Timer::new(nb.build().expect("valid"), CellLibrary::typical());
        timer.update_timing().run_sequential();
        let ep = NodeId(timer.graph().endpoints()[0]);
        let paths = k_worst_paths(timer.graph(), timer.netlist(), timer.data(), ep, 16);
        // Non-unate XOR: input a via rise and fall are distinct paths.
        assert!(paths.len() >= 4, "got {}", paths.len());
    }
}
