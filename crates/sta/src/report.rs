//! Timing reports: WNS/TNS and critical endpoints.

use crate::graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Slack of a single timing endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSlack {
    /// The endpoint node.
    pub node: NodeId,
    /// Human-readable endpoint name (port name or `instance/D`).
    pub name: String,
    /// Late-mode (setup) slack in ps; negative means a violation.
    pub slack_ps: f32,
}

/// Design-level timing summary produced by
/// [`Timer::report`](crate::Timer::report).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Worst negative slack (ps) — the minimum endpoint slack. Positive if
    /// the design meets timing; `+inf` if there are no endpoints.
    pub wns_ps: f32,
    /// Total negative slack (ps) — sum of negative endpoint slacks, added
    /// pairwise in endpoint order: halves of the endpoint list padded to a
    /// power of two, each half summed the same way
    /// ([`EndpointSummary`]), not left to right.
    pub tns_ps: f32,
    /// Number of endpoints analysed.
    pub num_endpoints: usize,
    /// The `k` most critical endpoints, worst first.
    pub worst: Vec<EndpointSlack>,
}

impl TimingReport {
    /// Whether every endpoint meets timing.
    pub fn meets_timing(&self) -> bool {
        self.wns_ps >= 0.0
    }
}

/// What a report reads, kept so that one changed slack costs `log₂ E`: a
/// complete binary tree over the endpoints *in endpoint-index order*, padded
/// to a power of two, each node holding the worst `(slack, endpoint index)`
/// of its subtree — slacks ordered as `f32::total_cmp` orders them — and the
/// sum of its two children's negative slack. WNS and TNS are the root.
///
/// The shape depends on the endpoint count alone, so every node is a
/// function of the slack vector: a summary reached by any sequence of
/// [`set`](EndpointSummary::set)s equals, bit for bit, a
/// [`build`](EndpointSummary::build) of the same slacks (`==` compares bit
/// patterns). That makes the from-scratch path the oracle of the incremental
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSummary {
    len: usize,
    /// Heap layout: the root at 1, the children of `n` at `2n` and `2n + 1`,
    /// leaf `i` at `nodes.len() / 2 + i`; slot 0 is unused.
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// `(total_order(slack), endpoint index)` of the subtree's worst endpoint.
    min: (i32, u32),
    tns: f32,
}

impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        self.min == other.min && self.tns.to_bits() == other.tns.to_bits()
    }
}

/// A leaf beyond the last endpoint: after every slack (a NaN included) in
/// the order, nothing in the sum.
const PADDING: Node = Node {
    min: (i32::MAX, u32::MAX),
    tns: 0.0,
};

/// The map `f32::total_cmp` compares through: bit patterns to integers in
/// the same order. Its own inverse.
fn total_order(bits: u32) -> i32 {
    let bits = bits as i32;
    bits ^ ((bits >> 31) as u32 >> 1) as i32
}

fn slack_of(order: i32) -> f32 {
    f32::from_bits(total_order(order as u32) as u32)
}

/// `min(slack, 0.0)` spelled so that the sign of a zero does not depend on
/// how `f32::min` is lowered: an unknown (NaN) slack adds nothing.
fn leaf(i: u32, slack: f32) -> Node {
    Node {
        min: (total_order(slack.to_bits()), i),
        tns: if slack < 0.0 { slack } else { 0.0 },
    }
}

impl EndpointSummary {
    /// The summary of `slacks`, given in endpoint-index order: one pass, no
    /// sort.
    pub fn build(slacks: impl ExactSizeIterator<Item = f32>) -> Self {
        let len = slacks.len();
        let leaves = len.next_power_of_two();
        let mut nodes = vec![PADDING; 2 * leaves];
        for (i, slack) in slacks.enumerate() {
            nodes[leaves + i] = leaf(i as u32, slack);
        }
        let mut summary = EndpointSummary { len, nodes };
        (1..leaves).rev().for_each(|n| summary.fold(n));
        summary
    }

    fn fold(&mut self, n: usize) {
        let (a, b) = (self.nodes[2 * n], self.nodes[2 * n + 1]);
        self.nodes[n] = Node {
            min: a.min.min(b.min),
            tns: a.tns + b.tns,
        };
    }

    /// Endpoint `i` now has `slack`: rewrite its leaf and the leaf's
    /// ancestors. Returns whether the bit pattern differed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an endpoint index.
    pub fn set(&mut self, i: usize, slack: f32) -> bool {
        assert!(i < self.len, "endpoint {i} of {}", self.len);
        let mut n = self.nodes.len() / 2 + i;
        let new = leaf(i as u32, slack);
        if self.nodes[n] == new {
            return false;
        }
        self.nodes[n] = new;
        while n > 1 {
            n /= 2;
            self.fold(n);
        }
        true
    }

    /// Number of endpoints summarised.
    pub fn num_endpoints(&self) -> usize {
        self.len
    }

    /// The minimum slack; `+inf` with no endpoints.
    pub fn wns_ps(&self) -> f32 {
        match self.len {
            0 => f32::INFINITY,
            _ => slack_of(self.nodes[1].min.0),
        }
    }

    /// See [`TimingReport::tns_ps`]; `0.0` with no endpoints.
    pub fn tns_ps(&self) -> f32 {
        self.nodes[1].tns
    }

    /// The `k` worst endpoints as `(slack, endpoint index)`, worst first and
    /// ties in index order — the first `k` of a stable sort by slack —
    /// found best-first from the root in `k log E` steps.
    pub fn worst(&self, k: usize) -> Vec<(f32, u32)> {
        let k = k.min(self.len);
        let mut worst = Vec::with_capacity(k);
        let mut frontier = BinaryHeap::from([Reverse((self.nodes[1].min, 1))]);
        while worst.len() < k {
            let Some(Reverse((min, mut n))) = frontier.pop() else {
                break;
            };
            // Down to the leaf `min` came from; the other side of every
            // fork waits on the frontier.
            while n < self.nodes.len() / 2 {
                let (towards, other) = if self.nodes[2 * n].min == min {
                    (2 * n, 2 * n + 1)
                } else {
                    (2 * n + 1, 2 * n)
                };
                frontier.push(Reverse((self.nodes[other].min, other)));
                n = towards;
            }
            worst.push((slack_of(min.0), min.1));
        }
        worst
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "WNS {:.1} ps, TNS {:.1} ps over {} endpoints",
            self.wns_ps, self.tns_ps, self.num_endpoints
        )?;
        for e in &self.worst {
            writeln!(f, "  {:<24} slack {:>10.1} ps", e.name, e.slack_ps)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TimingReport {
        TimingReport {
            wns_ps: -12.5,
            tns_ps: -20.0,
            num_endpoints: 3,
            worst: vec![
                EndpointSlack {
                    node: NodeId(9),
                    name: "y1".into(),
                    slack_ps: -12.5,
                },
                EndpointSlack {
                    node: NodeId(7),
                    name: "y0".into(),
                    slack_ps: 4.0,
                },
            ],
        }
    }

    /// Every kind of value a slack can be, ties included.
    const SLACKS: [f32; 11] = [
        -3.5,
        f32::NAN,
        0.0,
        7.25,
        -0.0,
        -3.5,
        f32::NEG_INFINITY,
        -f32::NAN,
        f32::INFINITY,
        -1.0e-3,
        7.25,
    ];

    /// `(slack bits, index)` of a stable sort by `total_cmp`.
    fn sorted(slacks: &[f32]) -> Vec<(u32, u32)> {
        let mut ranked: Vec<(f32, u32)> = slacks.iter().copied().zip(0..).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked.into_iter().map(|(s, i)| (s.to_bits(), i)).collect()
    }

    fn worst_bits(summary: &EndpointSummary, k: usize) -> Vec<(u32, u32)> {
        let worst = summary.worst(k);
        worst.into_iter().map(|(s, i)| (s.to_bits(), i)).collect()
    }

    #[test]
    fn total_order_orders_as_total_cmp_and_inverts_itself() {
        for a in SLACKS {
            assert_eq!(slack_of(total_order(a.to_bits())).to_bits(), a.to_bits());
            for b in SLACKS {
                let (x, y) = (total_order(a.to_bits()), total_order(b.to_bits()));
                assert_eq!(x.cmp(&y), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        assert_eq!(total_order(0x7FFF_FFFF), PADDING.min.0, "the last NaN");
    }

    #[test]
    fn no_endpoints_read_as_an_empty_report() {
        let empty = EndpointSummary::build(std::iter::empty());
        assert_eq!(empty.wns_ps(), f32::INFINITY);
        assert_eq!(empty.tns_ps().to_bits(), 0.0f32.to_bits());
        assert_eq!(empty.num_endpoints(), 0);
        assert!(empty.worst(0).is_empty() && empty.worst(3).is_empty());
    }

    #[test]
    fn worst_is_a_stable_sort_and_padding_never_surfaces() {
        // Every prefix: lengths on, below and above a power of two, with
        // NaNs that order after `+inf` — and so after nothing but padding.
        for len in 0..=SLACKS.len() {
            let slacks = &SLACKS[..len];
            let summary = EndpointSummary::build(slacks.iter().copied());
            let want = sorted(slacks);
            for k in 0..=len + 1 {
                assert_eq!(worst_bits(&summary, k), want[..k.min(len)], "{len}, {k}");
            }
            assert_eq!(worst_bits(&summary, usize::MAX), want);
            let wns = want.first().map_or(f32::INFINITY.to_bits(), |e| e.0);
            assert_eq!(summary.wns_ps().to_bits(), wns, "{len}");
        }
    }

    #[test]
    fn tns_is_the_pairwise_sum_of_the_negative_slacks() {
        let summary = EndpointSummary::build([-1.0, 2.0, -4.0, f32::NAN, -16.0].into_iter());
        // Eight leaves: ((-1 + 0) + (-4 + 0)) + ((-16 + 0) + (0 + 0)).
        assert_eq!(summary.tns_ps(), -21.0);
        // In endpoint order, not in slack order: the small terms meet
        // first and survive; summed after the large one they would not.
        let big = -16_777_216.0f32; // -2^24: one more is lost to rounding
        let summary = EndpointSummary::build([big, 0.0, -1.0, -1.0].into_iter());
        assert_eq!(summary.tns_ps(), big - 2.0);
        assert_ne!((big - 1.0) - 1.0, big - 2.0);
        // Zeros of either sign, and nothing else, sum to +0.0.
        let zeros = EndpointSummary::build([-0.0, 0.0, -0.0].into_iter());
        assert_eq!(zeros.tns_ps().to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn any_sequence_of_sets_is_a_build_of_the_same_slacks() {
        let mut slacks = SLACKS[..9].to_vec();
        let mut summary = EndpointSummary::build(slacks.iter().copied());
        // A walk that revisits endpoints and rewrites some with what they hold.
        for step in 0..60usize {
            let (i, slack) = (step * 7 % slacks.len(), SLACKS[step * 5 % SLACKS.len()]);
            let moved = slack.to_bits() != slacks[i].to_bits();
            slacks[i] = slack;
            assert_eq!(summary.set(i, slack), moved, "step {step}");
            assert!(summary == EndpointSummary::build(slacks.iter().copied()));
        }
    }

    #[test]
    #[should_panic(expected = "endpoint 3 of 3")]
    fn set_rejects_a_padding_leaf() {
        EndpointSummary::build([1.0, 2.0, 3.0].into_iter()).set(3, 0.0);
    }

    #[test]
    fn meets_timing_logic() {
        let mut r = report();
        assert!(!r.meets_timing());
        r.wns_ps = 0.0;
        assert!(r.meets_timing());
    }

    #[test]
    fn display_lists_endpoints() {
        let s = report().to_string();
        assert!(s.contains("WNS -12.5 ps"));
        assert!(s.contains("y1"));
        assert!(s.contains("3 endpoints"));
    }
}
