//! The path engine: the `k` latest-arriving paths into an endpoint.
//!
//! Graph-based analysis keeps one worst arrival per node; the paths say
//! *why* an endpoint fails (its worst path) and which paths an ECO must
//! fix next (the `k` worst). [`Timer::worst_paths`] enumerates them with a
//! lazy best-first search over the fan-in options — the Recursive
//! Enumeration Algorithm shape — on the arrivals and delays the forward
//! propagation left.

use crate::analysis::{Mode, Tr};
use crate::graph::{NodeId, NodeKind, TimingGraph};
use crate::netlist::Netlist;
use crate::path::{PathStep, TimingPath};
use crate::timer::Timer;
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

/// Heap entry: a partial path ranked by how much earlier than the
/// endpoint's worst arrival its best completion arrives, deeper suffixes
/// first among equals.
struct Candidate {
    /// The endpoint's worst arrival less its arrival at the suffix's last
    /// transition, plus what each arc of the suffix gives up:
    /// `arrival(to) − (arrival(from) + delay)`, exactly zero on an arc that
    /// set the arrival. A completion along such arcs gives up nothing
    /// more, so this is exact, and the worst path, the one with no loss,
    /// reproduces every arrival it passes bit for bit.
    loss: f32,
    /// Nodes in the suffix: among equal losses the longest is the closest
    /// to a startpoint, so each path completes in at most the graph's
    /// depth of pops.
    len: u32,
    suffix: Rc<Suffix>,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        (other.loss.total_cmp(&self.loss)).then(self.len.cmp(&other.len))
    }
}

impl Timer {
    /// The `k` latest-arriving late-mode paths ending at `endpoint`, most
    /// critical first.
    ///
    /// Requires a completed forward propagation. Paths are maximal: they
    /// start at a node with no fan-in (primary input or sequential
    /// output). A step's increment is the delay of the transition the path
    /// takes (through a non-unate arc, its own input transition's delay),
    /// and its arrival is the previous step's plus that increment. The
    /// first path's arrivals are the nodes' reported late arrivals, so its
    /// slack is the endpoint's reported slack. Returns fewer than `k` paths
    /// when the endpoint's fan-in cone has fewer.
    pub fn worst_paths(&self, endpoint: NodeId, k: usize) -> Vec<TimingPath> {
        let (prop, data) = (self.propagator(), self.data());
        let at = |v, tr| data.arrival(v, tr, Mode::Late);
        let worst = at(endpoint, Tr::Rise).max(at(endpoint, Tr::Fall));
        let mut heap: BinaryHeap<Candidate> = [Tr::Rise, Tr::Fall]
            .into_iter()
            .map(|tr| Candidate {
                loss: worst - at(endpoint, tr),
                len: 1,
                suffix: Rc::new(Suffix {
                    node: endpoint,
                    tr,
                    incr_out: 0.0,
                    next: None,
                }),
            })
            .collect();
        let mut out = Vec::new();
        while out.len() < k {
            let Some(Candidate { loss, len, suffix }) = heap.pop() else {
                break;
            };
            let (head, head_tr) = (suffix.node, suffix.tr);
            let fanin = self.graph().fanin(head);
            if fanin.is_empty() {
                out.push(self.materialise(&suffix));
                continue;
            }
            let arrival = at(head, head_tr);
            for a in fanin {
                let from = self.graph().arc(a).from;
                for (tr_in, delay) in prop.late_delays(a, head_tr) {
                    heap.push(Candidate {
                        loss: loss + (arrival - (at(from, tr_in) + delay)),
                        len: len + 1,
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

    /// The path `suffix` spells, front to back: arrivals accumulate from
    /// the startpoint's, and the slack is the endpoint's required time at
    /// the path's transition less the path's arrival.
    fn materialise(&self, suffix: &Suffix) -> TimingPath {
        let data = self.data();
        let (mut steps, mut incr_in) = (Vec::new(), 0.0f32);
        let mut arrival = data.arrival(suffix.node, suffix.tr, Mode::Late);
        let mut s = suffix;
        loop {
            steps.push(PathStep {
                node: s.node,
                location: location_of(self.graph(), self.netlist(), s.node),
                rise: matches!(s.tr, Tr::Rise),
                arrival_ps: arrival,
                incr_ps: incr_in,
            });
            let Some(next) = &s.next else {
                let slack_ps = data.required(s.node, s.tr, Mode::Late) - arrival;
                return TimingPath { steps, slack_ps };
            };
            (arrival, incr_in) = (arrival + s.incr_out, s.incr_out);
            s = next;
        }
    }
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
        let paths = timer.worst_paths(ep, 1);
        assert_eq!(paths.len(), 1);
        let gba_worst = timer.data().slack_late(ep);
        assert_eq!(
            paths[0].slack_ps.to_bits(),
            gba_worst.to_bits(),
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
        let paths = timer.worst_paths(ep, 8);
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
        for p in timer.worst_paths(ep, 4) {
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
        assert!(timer.worst_paths(ep, 0).is_empty());
        // Every maximal path once: two inputs × two transitions.
        assert_eq!(timer.worst_paths(ep, 1000).len(), 4);
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
        let paths = timer.worst_paths(ep, 16);
        // Non-unate XOR: each input reaches each output transition from
        // both of its own, so two inputs × two × two transitions.
        assert_eq!(paths.len(), 8);
    }
}
