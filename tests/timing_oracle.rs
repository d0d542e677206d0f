//! An independent timing oracle: a deliberately naive static timing
//! analysis of the same model, compared with the timer's reports.
//!
//! The oracle shares no code with the timer. It walks the `Netlist` in its
//! own Kahn order, interpolates the `CellLibrary` tables with its own
//! bilinear lookup over their axes and values, and derives net capacitance,
//! net delay and slew itself, in f64: forward arrival and slew, backward
//! required time, then slack. The model, as the timer documents it:
//!
//! - A primary input arrives at its input delay, a flip-flop output at
//!   clock-to-Q ÷ drive; both launch the library's input slew.
//! - A net's capacitance is its wire cap plus, per sink, the sink cell's
//!   input cap × the sink gate's drive, or the library's output load at a
//!   primary output. Its delay is `wire_res × cap` at every sink; a sink
//!   arrives the driver's arrival + delay with slew + 0.1 × delay. A gate's
//!   output load is the capacitance of the net it drives.
//! - A combinational gate, per output transition and mode, looks up
//!   `table(input slew, load) ÷ drive` for every input pin and every input
//!   transition that causes the output transition (the cell's sense), and
//!   keeps the worst arrival + delay and the worst slew: max when late, min
//!   when early. Per arc, the delay of an output transition is the worst
//!   over its causing input transitions; required times go back through it.
//! - A primary output requires `period − output delay` late, a flip-flop D
//!   pin `period − setup`; both require 0 early. A pin with no fan-out that
//!   is neither is unconstrained. Late slack is the worst over transitions
//!   of required − arrival, early slack of arrival − required.
//!
//! The timer is read through `Timer::report` / `report_hold` (every
//! endpoint, matched by name, plus WNS and TNS) and through the setup and
//! hold slack at each primary input and gate output pin, which only a
//! correct backward pass gets right.
//!
//! Paths are checked against a brute-force walk of every maximal late path
//! into an endpoint: a path arrives at its startpoint's arrival plus, per
//! arc, the delay of the transition it takes — through a cell arc,
//! `table(input slew at the path's input transition, load) ÷ drive`, for
//! the output transition that input transition causes. `Timer::worst_paths`
//! must return the latest of them, step by step.

use gpasta::circuits::{generate_netlist, CircuitSpec, PaperCircuit};
use gpasta::sta::{
    CellKind, CellLibrary, GateId, Lut2D, Netlist, NodeKind, PinRef, PortId, Timer, TimingPath,
    TimingSense,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// How far the timer's f32 slack may sit from the oracle's f64 one: the
/// timer rounds every add, divide and interpolation to f32, and a slack
/// carries that rounding from every pin of its path. The widest gap seen
/// on the paper suite and 64 random designs was 4.3 × 10⁻⁴ ps, on a slack
/// of 830 ps; seeded model bugs (a dropped wire cap, swapped rise / fall
/// tables) moved slacks by 0.4 ps and more.
const TOL_PS: f64 = 0.001;
const TOL_REL: f64 = 1e-5;

const LATE: usize = 1;
const EARLY: usize = 0;

/// A value per `[transition (rise, fall)][mode (early, late)]`.
type Corners = [[f64; 2]; 2];

/// The design the oracle times: the netlist and every edit made since.
struct Design {
    netlist: Netlist,
    library: CellLibrary,
    drive: Vec<f64>,
    wire_cap: Vec<f64>,
    input_delay: Vec<f64>,
    output_delay: Vec<f64>,
    period: f64,
}

enum Edit {
    Repower(GateId, f32),
    NetCap(u32, f32),
    InputDelay(PortId, f32),
    OutputDelay(PortId, f32),
}

impl Design {
    /// A timer over `netlist` with clock `period`, and the oracle's twin.
    fn new(netlist: Netlist, library: CellLibrary, period: f32) -> (Timer, Design) {
        let mut timer = Timer::new(netlist.clone(), library.clone());
        timer.set_clock_period(period);
        let design = Design {
            drive: netlist.gates().iter().map(|g| f64::from(g.drive)).collect(),
            wire_cap: netlist
                .nets()
                .iter()
                .map(|n| f64::from(n.wire_cap_ff))
                .collect(),
            input_delay: vec![0.0; netlist.num_inputs()],
            output_delay: vec![0.0; netlist.num_outputs()],
            period: f64::from(period),
            netlist,
            library,
        };
        (timer, design)
    }

    fn apply(&mut self, edit: Edit, timer: &mut Timer) {
        match edit {
            Edit::Repower(g, x) => {
                timer.repower_gate(g, x);
                self.drive[g.index()] = f64::from(x);
            }
            Edit::NetCap(n, x) => {
                timer.set_net_cap(n, x);
                self.wire_cap[n as usize] = f64::from(x);
            }
            Edit::InputDelay(p, x) => {
                timer.set_input_delay(p, x);
                self.input_delay[p.index()] = f64::from(x);
            }
            Edit::OutputDelay(p, x) => {
                timer.set_output_delay(p, x);
                self.output_delay[p.index()] = f64::from(x);
            }
        }
    }
}

/// The input transitions that cause output transition `tr` — and, the
/// relation being symmetric, the output transitions input `tr` causes.
fn causes(sense: TimingSense, tr: usize) -> &'static [usize] {
    match (sense, tr) {
        (TimingSense::NonUnate, _) => &[0, 1],
        (TimingSense::Positive, 0) | (TimingSense::Negative, 1) => &[0],
        _ => &[1],
    }
}

fn worst(mode: usize, a: f64, b: f64) -> f64 {
    if mode == LATE {
        a.max(b)
    } else {
        a.min(b)
    }
}

/// `table` at `(slew, load)`: bilinear inside the grid, each coordinate
/// clamped to its axis outside it.
fn interpolate(table: &Lut2D, slew: f64, load: f64) -> f64 {
    let (i0, i1, ts) = segment(table.slew_axis(), slew);
    let (j0, j1, tl) = segment(table.load_axis(), load);
    let cols = table.load_axis().len();
    let at = |i: usize, j: usize| f64::from(table.values()[i * cols + j]);
    let row = |i: usize| at(i, j0) * (1.0 - tl) + at(i, j1) * tl;
    row(i0) * (1.0 - ts) + row(i1) * ts
}

/// The axis points around `x` and its fraction of the way between them.
fn segment(axis: &[f32], x: f64) -> (usize, usize, f64) {
    let last = axis.len() - 1;
    let a = |i: usize| f64::from(axis[i]);
    if x <= a(0) {
        return (0, 0, 0.0);
    }
    if x >= a(last) {
        return (last, last, 0.0);
    }
    let hi = (1..=last)
        .find(|&i| x < a(i))
        .expect("x is inside the axis");
    (hi - 1, hi, (x - a(hi - 1)) / (a(hi) - a(hi - 1)))
}

enum ArcOf {
    /// A net arc with its delay.
    Net(f64),
    /// A cell arc of a gate.
    Cell(usize),
}

struct Arc {
    from: usize,
    to: usize,
    of: ArcOf,
    delay: Corners,
}

/// `table(slew, load) ÷ drive` of gate `g`'s delay table for output
/// transition `tr`.
fn cell_delay(d: &Design, g: usize, tr: usize, slew: f64, load: f64) -> f64 {
    let t = &d.library.cell(d.netlist.gates()[g].cell).tables;
    interpolate([&t.delay_rise, &t.delay_fall][tr], slew, load) / d.drive[g]
}

/// The oracle's analysis of a design: its pins, arcs and per-pin timing,
/// and the slacks it reports.
struct Analysis {
    id: HashMap<PinRef, usize>,
    arcs: Vec<Arc>,
    fanin: Vec<Vec<usize>>,
    /// The pins in topological order.
    order: Vec<usize>,
    load: Vec<f64>,
    at: Vec<Corners>,
    slew: Vec<Corners>,
    slacks: Slacks,
}

/// What the oracle reports: `(late, early)` slack per endpoint name and
/// per primary input and gate output pin.
struct Slacks {
    endpoints: HashMap<String, [f64; 2]>,
    inputs: Vec<[f64; 2]>,
    gate_outputs: Vec<[f64; 2]>,
}

fn analyse(d: &Design) -> Analysis {
    let (netlist, lib) = (&d.netlist, &d.library);
    let gates = netlist.gates();
    // Pins: inputs, gate input pins, gate outputs, outputs.
    let mut pins: Vec<PinRef> = (0..netlist.num_inputs() as u32)
        .map(|p| PinRef::PrimaryInput(PortId(p)))
        .collect();
    for (g, gate) in gates.iter().enumerate() {
        let g = GateId(g as u32);
        pins.extend((0..gate.cell.num_inputs() as u8).map(|k| PinRef::GateInput(g, k)));
    }
    pins.extend((0..gates.len() as u32).map(|g| PinRef::GateOutput(GateId(g))));
    pins.extend((0..netlist.num_outputs() as u32).map(|p| PinRef::PrimaryOutput(PortId(p))));
    let id: HashMap<PinRef, usize> = pins.iter().enumerate().map(|(i, &p)| (p, i)).collect();

    let (mut arcs, mut load) = (Vec::new(), vec![0.0; pins.len()]);
    let mut arc = |from: &PinRef, to: &PinRef, of| {
        let delay = [[0.0; 2]; 2];
        arcs.push(Arc {
            from: id[from],
            to: id[to],
            of,
            delay,
        });
    };
    for (net, wire_cap) in netlist.nets().iter().zip(&d.wire_cap) {
        let sink_cap = |s: &PinRef| match *s {
            PinRef::GateInput(g, _) => {
                f64::from(lib.input_cap(gates[g.index()].cell)) * d.drive[g.index()]
            }
            _ => f64::from(lib.output_load_ff),
        };
        let cap = wire_cap + net.sinks.iter().map(sink_cap).sum::<f64>();
        load[id[&net.driver]] = cap;
        let delay = f64::from(lib.wire_res_ps_per_ff) * cap;
        for sink in &net.sinks {
            arc(&net.driver, sink, ArcOf::Net(delay));
        }
    }
    let combinational = gates
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.cell.is_sequential());
    for (g, gate) in combinational {
        let (id, out) = (GateId(g as u32), PinRef::GateOutput(GateId(g as u32)));
        for k in 0..gate.cell.num_inputs() as u8 {
            arc(&PinRef::GateInput(id, k), &out, ArcOf::Cell(g));
        }
    }
    let (mut fanin, mut fanout) = (vec![vec![]; pins.len()], vec![vec![]; pins.len()]);
    for (a, arc) in arcs.iter().enumerate() {
        fanin[arc.to].push(a);
        fanout[arc.from].push(a);
    }

    // Kahn's algorithm: a pin is ordered once all its fan-in is.
    let mut pending: Vec<usize> = fanin.iter().map(Vec::len).collect();
    let mut order: Vec<usize> = (0..pins.len()).filter(|&v| pending[v] == 0).collect();
    let mut next = 0;
    while next < order.len() {
        for &a in &fanout[order[next]] {
            pending[arcs[a].to] -= 1;
            if pending[arcs[a].to] == 0 {
                order.push(arcs[a].to);
            }
        }
        next += 1;
    }
    assert_eq!(order.len(), pins.len(), "the design has a loop");

    let zero: Vec<Corners> = vec![[[0.0; 2]; 2]; pins.len()];
    let (mut at, mut slew, mut req) = (zero.clone(), zero.clone(), zero);
    for &v in &order {
        if fanin[v].is_empty() {
            let arrival = match pins[v] {
                PinRef::PrimaryInput(p) => d.input_delay[p.index()],
                PinRef::GateOutput(g) => {
                    f64::from(lib.cell(gates[g.index()].cell).clk_to_q_ps) / d.drive[g.index()]
                }
                _ => 0.0,
            };
            at[v] = [[arrival; 2]; 2];
            slew[v] = [[f64::from(lib.input_slew_ps); 2]; 2];
            continue;
        }
        let init = [[f64::INFINITY, f64::NEG_INFINITY]; 2];
        let (mut a_v, mut s_v) = (init, init);
        for &a in &fanin[v] {
            let u = arcs[a].from;
            for tr in 0..2 {
                for mode in 0..2 {
                    let (arrival, out_slew, delay) = match arcs[a].of {
                        ArcOf::Net(delay) => (
                            at[u][tr][mode] + delay,
                            slew[u][tr][mode] + 0.1 * delay,
                            delay,
                        ),
                        ArcOf::Cell(g) => {
                            let (cell, drive) = (gates[g].cell, d.drive[g]);
                            let t = &lib.cell(cell).tables;
                            let st = [&t.slew_rise, &t.slew_fall][tr];
                            let mut best = [[f64::INFINITY, f64::NEG_INFINITY][mode]; 3];
                            for &tr_in in causes(cell.sense(), tr) {
                                let s_in = slew[u][tr_in][mode];
                                let delay = cell_delay(d, g, tr, s_in, load[v]);
                                best[0] = worst(mode, best[0], at[u][tr_in][mode] + delay);
                                best[1] =
                                    worst(mode, best[1], interpolate(st, s_in, load[v]) / drive);
                                best[2] = worst(mode, best[2], delay);
                            }
                            (best[0], best[1], best[2])
                        }
                    };
                    arcs[a].delay[tr][mode] = delay;
                    a_v[tr][mode] = worst(mode, a_v[tr][mode], arrival);
                    s_v[tr][mode] = worst(mode, s_v[tr][mode], out_slew);
                }
            }
        }
        (at[v], slew[v]) = (a_v, s_v);
    }

    for &v in order.iter().rev() {
        let margin = match pins[v] {
            PinRef::PrimaryOutput(p) => Some(d.output_delay[p.index()]),
            PinRef::GateInput(g, 0) if gates[g.index()].cell.is_sequential() => {
                Some(f64::from(lib.cell(gates[g.index()].cell).setup_ps))
            }
            _ => None,
        };
        req[v] = match margin {
            Some(m) => [[0.0, d.period - m]; 2],
            None => {
                // Late takes the tightest (min), early the loosest (max).
                let mut r = [[f64::NEG_INFINITY, f64::INFINITY]; 2];
                for &a in &fanout[v] {
                    let sense = match arcs[a].of {
                        ArcOf::Net(_) => TimingSense::Positive,
                        ArcOf::Cell(g) => gates[g].cell.sense(),
                    };
                    for (tr_in, r) in r.iter_mut().enumerate() {
                        for &tr in causes(sense, tr_in) {
                            let to = &req[arcs[a].to][tr];
                            r[LATE] = r[LATE].min(to[LATE] - arcs[a].delay[tr][LATE]);
                            r[EARLY] = r[EARLY].max(to[EARLY] - arcs[a].delay[tr][EARLY]);
                        }
                    }
                }
                r
            }
        };
    }

    let slack = |v: usize| {
        let late = (0..2).map(|tr| req[v][tr][LATE] - at[v][tr][LATE]);
        let early = (0..2).map(|tr| at[v][tr][EARLY] - req[v][tr][EARLY]);
        [
            late.fold(f64::INFINITY, f64::min),
            early.fold(f64::INFINITY, f64::min),
        ]
    };
    let mut endpoints = HashMap::new();
    for (v, pin) in pins.iter().enumerate() {
        let name = match *pin {
            PinRef::PrimaryOutput(p) => netlist.output_names()[p.index()].clone(),
            PinRef::GateInput(g, 0) if gates[g.index()].cell.is_sequential() => {
                format!("{}/D0", gates[g.index()].name)
            }
            _ => continue,
        };
        assert!(
            endpoints.insert(name, slack(v)).is_none(),
            "endpoint names are unique"
        );
    }
    let slacks = Slacks {
        endpoints,
        inputs: (0..netlist.num_inputs()).map(slack).collect(),
        gate_outputs: (0..gates.len())
            .map(|g| slack(id[&PinRef::GateOutput(GateId(g as u32))]))
            .collect(),
    };
    Analysis {
        id,
        arcs,
        fanin,
        order,
        load,
        at,
        slew,
        slacks,
    }
}

fn close(oracle: f64, timer: f32) -> bool {
    let timer = f64::from(timer);
    if oracle.is_infinite() || timer.is_infinite() {
        return oracle == timer;
    }
    (oracle - timer).abs() <= TOL_PS + TOL_REL * oracle.abs()
}

/// Assert that the timer's slacks and paths after its last update are the
/// oracle's for `design` (paths: [`assert_paths_agree`]). Returns the
/// endpoints whose paths were checked and the non-unate steps seen.
fn assert_agrees(timer: &Timer, design: &Design, what: &str) -> (usize, usize) {
    let analysis = analyse(design);
    let want = &analysis.slacks;
    let n = want.endpoints.len();
    for (mode, report) in [("setup", timer.report(n)), ("hold", timer.report_hold(n))] {
        let m = usize::from(mode == "hold");
        assert_eq!(report.num_endpoints, n, "{what}: endpoint count");
        let mut seen = std::collections::HashSet::new();
        for e in &report.worst {
            assert!(seen.insert(&e.name), "{what}: {} reported twice", e.name);
            let o = want.endpoints[&e.name][m];
            let t = e.slack_ps;
            assert!(
                close(o, t),
                "{what}: {mode} slack at {}: oracle {o}, timer {t}",
                e.name
            );
        }
        let slacks = want.endpoints.values().map(|s| s[m]);
        let wns = slacks.clone().fold(f64::INFINITY, f64::min);
        let tns: f64 = slacks.map(|s| s.min(0.0)).sum();
        let t = report.wns_ps;
        assert!(close(wns, t), "{what}: {mode} WNS: oracle {wns}, timer {t}");
        let (t, tol) = (
            f64::from(report.tns_ps),
            n as f64 * (TOL_PS + TOL_REL * wns.abs()),
        );
        assert!(
            (tns - t).abs() <= tol,
            "{what}: {mode} TNS: oracle {tns}, timer {t}"
        );
    }
    let (graph, data) = (timer.graph(), timer.data());
    let pins = (want.inputs.iter().enumerate())
        .map(|(p, s)| (graph.input_node(PortId(p as u32)), s, format!("input {p}")))
        .chain(want.gate_outputs.iter().enumerate().map(|(g, s)| {
            let name = &design.netlist.gates()[g].name;
            (
                graph.gate_output_node(GateId(g as u32)),
                s,
                format!("{name} output"),
            )
        }));
    for (v, [late, early], pin) in pins {
        let (tl, te) = (data.slack_late(v), data.slack_early(v));
        assert!(
            close(*late, tl),
            "{what}: setup slack at {pin}: oracle {late}, timer {tl}"
        );
        assert!(
            close(*early, te),
            "{what}: hold slack at {pin}: oracle {early}, timer {te}"
        );
    }
    assert_paths_agree(timer, &analysis, design, what)
}

/// The most maximal paths into an endpoint the brute-force walk takes on.
const MAX_PATHS: u64 = 100_000;

impl Analysis {
    fn sense(&self, d: &Design, a: usize) -> TimingSense {
        match self.arcs[a].of {
            ArcOf::Net(_) => TimingSense::Positive,
            ArcOf::Cell(g) => d.netlist.gates()[g].cell.sense(),
        }
    }

    /// The late delay a path adds on arc `a`, entering on input transition
    /// `tr_in` and leaving on `tr`.
    fn step_delay(&self, d: &Design, a: usize, tr_in: usize, tr: usize) -> f64 {
        let arc = &self.arcs[a];
        match arc.of {
            ArcOf::Net(delay) => delay,
            ArcOf::Cell(g) => cell_delay(
                d,
                g,
                tr,
                self.slew[arc.from][tr_in][LATE],
                self.load[arc.to],
            ),
        }
    }

    /// Per pin and transition, how many maximal paths end there
    /// (saturating).
    fn path_counts(&self, d: &Design) -> Vec<[u64; 2]> {
        let mut count = vec![[0u64; 2]; self.at.len()];
        for &v in &self.order {
            for tr in 0..2 {
                count[v][tr] = if self.fanin[v].is_empty() {
                    1
                } else {
                    (self.fanin[v].iter())
                        .flat_map(|&a| {
                            let from = self.arcs[a].from;
                            causes(self.sense(d, a), tr).iter().map(move |&t| (from, t))
                        })
                        .fold(0, |n, (u, t)| n.saturating_add(count[u][t]))
                };
            }
        }
        count
    }

    /// Push the late arrival of every maximal path into pin `v` at
    /// transition `tr` onto `out`, `tail` being the delay the path still
    /// adds after `v`.
    fn path_arrivals(&self, d: &Design, v: usize, tr: usize, tail: f64, out: &mut Vec<f64>) {
        if self.fanin[v].is_empty() {
            out.push(self.at[v][tr][LATE] + tail);
            return;
        }
        for &a in &self.fanin[v] {
            for &tr_in in causes(self.sense(d, a), tr) {
                let tail = tail + self.step_delay(d, a, tr_in, tr);
                self.path_arrivals(d, self.arcs[a].from, tr_in, tail, out);
            }
        }
    }
}

fn pin_of(kind: NodeKind) -> PinRef {
    match kind {
        NodeKind::PrimaryInput(p) => PinRef::PrimaryInput(PortId(p)),
        NodeKind::PrimaryOutput(p) => PinRef::PrimaryOutput(PortId(p)),
        NodeKind::GateInput(g, k) => PinRef::GateInput(GateId(g), k),
        NodeKind::GateOutput(g) => PinRef::GateOutput(GateId(g)),
    }
}

/// Assert that each step of `path` follows an arc of the oracle's on a
/// transition the arc's sense allows, and adds the oracle's delay for it.
/// Returns how many steps crossed a non-unate cell arc.
fn assert_steps(o: &Analysis, d: &Design, timer: &Timer, path: &TimingPath, what: &str) -> usize {
    let pin = |i: usize| {
        let s = &path.steps[i];
        (
            o.id[&pin_of(timer.graph().node_kind(s.node))],
            usize::from(!s.rise),
        )
    };
    let (start, tr) = pin(0);
    assert!(
        o.fanin[start].is_empty(),
        "{what}: a path starts at a startpoint"
    );
    let (want, got) = (o.at[start][tr][LATE], path.steps[0].arrival_ps);
    assert!(
        close(want, got),
        "{what}: startpoint arrival: oracle {want}, timer {got}"
    );
    let mut non_unate = 0;
    for i in 1..path.steps.len() {
        let ((u, tr_in), (v, tr), step) = (pin(i - 1), pin(i), &path.steps[i]);
        let a = (o.fanin[v].iter().copied())
            .find(|&a| o.arcs[a].from == u)
            .unwrap_or_else(|| panic!("{what}: no arc into {}", step.location));
        let sense = o.sense(d, a);
        assert!(
            causes(sense, tr).contains(&tr_in),
            "{what}: {sense:?} arc into {} taken from transition {tr_in} to {tr}",
            step.location
        );
        non_unate += usize::from(sense == TimingSense::NonUnate);
        let (want, got) = (o.step_delay(d, a, tr_in, tr), step.incr_ps);
        assert!(
            close(want, got),
            "{what}: increment into {}: oracle {want}, timer {got}",
            step.location
        );
    }
    non_unate
}

/// Assert that, into every endpoint with at most [`MAX_PATHS`] maximal
/// paths, the timer's `k` worst paths (k ∈ {1, 3, 10}) arrive as the
/// oracle's `k` latest do, each step adds the oracle's delay, and the worst
/// path's slack is the report's. Returns the endpoints checked and the
/// non-unate steps seen.
fn assert_paths_agree(timer: &Timer, o: &Analysis, design: &Design, what: &str) -> (usize, usize) {
    let counts = o.path_counts(design);
    let (mut endpoints, mut non_unate) = (0, 0);
    for e in &timer.report(timer.graph().endpoints().len()).worst {
        let v = o.id[&pin_of(timer.graph().node_kind(e.node))];
        if counts[v][0].saturating_add(counts[v][1]) > MAX_PATHS {
            continue;
        }
        endpoints += 1;
        let mut want = Vec::new();
        for tr in 0..2 {
            o.path_arrivals(design, v, tr, 0.0, &mut want);
        }
        want.sort_by(|a, b| b.total_cmp(a));
        for k in [1, 3, 10] {
            let paths = timer.worst_paths(e.node, k);
            let what = format!("{what}, {k} worst paths into {}", e.name);
            assert_eq!(paths.len(), k.min(want.len()), "{what}");
            let mut got: Vec<f32> = (paths.iter())
                .map(|p| p.steps.last().expect("a path has steps").arrival_ps)
                .collect();
            got.sort_by(|a, b| b.total_cmp(a));
            for (&w, &g) in want.iter().zip(&got) {
                assert!(close(w, g), "{what}: arrival: oracle {w}, timer {g}");
            }
            for p in &paths {
                non_unate += assert_steps(o, design, timer, p, &what);
            }
            let (got, report) = (paths[0].slack_ps, e.slack_ps);
            assert_eq!(
                got.to_bits(),
                report.to_bits(),
                "{what}: worst path slack {got}, report {report}"
            );
        }
    }
    (endpoints, non_unate)
}

const SCALE: f64 = 0.004;
const PERIOD_PS: f32 = 150.0;

/// A library whose NAND2 tables do not share one slew axis, and whose NOR2
/// tables share the slew axis but not the load axis, as a Liberty file may
/// give them: every other cell keeps the shared axes.
fn library_with_unshared_axes() -> CellLibrary {
    let mut library = CellLibrary::typical();
    let mut nand = library.cell(CellKind::Nand2).clone();
    let t = &mut nand.tables;
    let load = t.delay_fall.load_axis().to_vec();
    t.delay_fall = Lut2D::from_fn(vec![2.0, 15.0, 60.0, 240.0], load.clone(), |s, l| {
        11.0 + 2.4 * l + 0.11 * s + 0.002 * s * l
    });
    t.slew_rise = Lut2D::from_fn(vec![8.0, 30.0, 90.0, 200.0, 400.0], load, |s, l| {
        4.0 + 2.9 * l + 0.12 * s
    });
    assert!(!nand.tables.shares_slew_axis());
    library.set_cell(CellKind::Nand2, nand);
    let mut nor = library.cell(CellKind::Nor2).clone();
    let t = &mut nor.tables;
    let slew = t.slew_fall.slew_axis().to_vec();
    t.slew_fall = Lut2D::from_fn(slew, vec![0.3, 1.5, 5.0, 12.0, 40.0], |s, l| {
        (4.0 + 3.3 * l + 0.12 * s) * 0.92
    });
    assert!(nor.tables.shares_slew_axis() && !nor.tables.shares_load_axis());
    library.set_cell(CellKind::Nor2, nor);
    library
}

/// A drawn `(kind, index, x)` as an edit of `netlist`, the index wrapping:
/// a repower to drive `x`, a wire cap of 4x fF, an input or an output delay
/// of 25x ps.
fn edit((kind, i, x): (u8, u32, f32), netlist: &Netlist) -> Edit {
    let modulo = |n: usize| i % n as u32;
    match kind {
        0 => Edit::Repower(GateId(modulo(netlist.num_gates())), x),
        1 => Edit::NetCap(modulo(netlist.num_nets()), 4.0 * x),
        2 => Edit::InputDelay(PortId(modulo(netlist.num_inputs())), 25.0 * x),
        _ => Edit::OutputDelay(PortId(modulo(netlist.num_outputs())), 25.0 * x),
    }
}

/// Round `round` of a fixed schedule touching all four edit kinds.
fn round_edits(netlist: &Netlist, round: u32) -> [Edit; 4] {
    // An input delay of −30, −17.5, −5 ps: a hold violation to report.
    let early = 0.5 * round as f32 - 1.2;
    [
        (0, 7 * round + 3, 2.0),
        (1, 11 * round + 5, 0.875),
        (2, 5 * round + 1, early),
        (3, 3 * round + 2, 0.8),
    ]
    .map(|drawn| edit(drawn, netlist))
}

/// The paper suite under both libraries, settled and after three rounds of
/// edits: slacks and paths agree with the oracle, and the paths checked
/// cross non-unate arcs.
#[test]
fn the_paper_suite_agrees_with_the_oracle() {
    let libraries = [
        ("typical", CellLibrary::typical()),
        ("per-table axes", library_with_unshared_axes()),
    ];
    let (mut endpoints, mut non_unate) = (0, 0);
    let mut agrees = |timer: &Timer, design: &Design, what: &str| {
        let (e, n) = assert_agrees(timer, design, what);
        (endpoints, non_unate) = (endpoints + e, non_unate + n);
    };
    for (lib, library) in libraries {
        for &circuit in PaperCircuit::all() {
            let (mut timer, mut design) =
                Design::new(circuit.build(SCALE), library.clone(), PERIOD_PS);
            timer.dirty_cone().run_in_order();
            agrees(&timer, &design, &format!("{} ({lib})", circuit.name()));
            for round in 0..3 {
                for edit in round_edits(timer.netlist(), round) {
                    design.apply(edit, &mut timer);
                }
                timer.dirty_cone().run_in_order();
                let what = format!("{} ({lib}), round {round}", circuit.name());
                agrees(&timer, &design, &what);
            }
        }
    }
    assert!(
        endpoints > 0 && non_unate > 0,
        "paths checked into {endpoints} endpoints, {non_unate} non-unate steps"
    );
}

/// Case count, overridable via `PROPTEST_CASES` (the nightly CI job raises
/// it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn arb_spec() -> impl Strategy<Value = CircuitSpec> {
    (50usize..400, 4usize..20, 0.0f64..0.3, any::<u64>()).prop_map(
        |(gates, depth, seq_ratio, seed)| {
            let mut spec = CircuitSpec::small("prop", seed);
            spec.num_gates = gates;
            spec.depth = depth;
            spec.seq_ratio = seq_ratio;
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random designs, clocks and edits: the timer's slacks and paths
    /// agree with the oracle after the first analysis and after an
    /// incremental update.
    #[test]
    fn a_random_design_agrees_with_the_oracle(
        spec in arb_spec(),
        period in 100.0f32..1500.0,
        edits in proptest::collection::vec((0u8..4, any::<u32>(), 0.5f32..4.0), 1..6),
    ) {
        let (mut timer, mut design) = Design::new(generate_netlist(&spec), CellLibrary::typical(), period);
        timer.dirty_cone().run_in_order();
        assert_agrees(&timer, &design, "first analysis");
        for drawn in edits {
            design.apply(edit(drawn, timer.netlist()), &mut timer);
        }
        timer.dirty_cone().run_in_order();
        assert_agrees(&timer, &design, "after the edits");
    }
}
