//! OpenTimer-like static timing analysis engine for the G-PASTA
//! reproduction.
//!
//! The paper evaluates its partitioner on the TDGs that OpenTimer's
//! `update_timing` method generates for *graph-based analysis* (GBA). This
//! crate rebuilds that substrate from scratch:
//!
//! * [`CellLibrary`] — an NLDM-style cell library with 2-D
//!   (input-slew × output-load) delay/slew lookup tables and bilinear
//!   interpolation, generated programmatically ([`CellLibrary::typical`]);
//! * [`Netlist`] / [`NetlistBuilder`] — gate-level netlists with primary
//!   I/Os, combinational cells and D flip-flops, and lumped-capacitance
//!   nets;
//! * [`TimingGraph`] — the flattened pin-level graph whose nodes carry
//!   arrival/required/slew values and whose edges are cell or net timing
//!   arcs;
//! * [`Timer`] — the analysis engine: full and incremental
//!   [`update_timing`](Timer::update_timing) that emits a task dependency
//!   graph ([`TimingUpdateTdg`]) with one forward-propagation and one
//!   backward-propagation task per affected node, plus design modifiers
//!   ([`Timer::repower_gate`], [`Timer::set_net_cap`]) that drive the
//!   incremental-timing experiment (Figure 7);
//! * graceful degradation — [`TimingUpdateTdg::run_recovering_bounded`] /
//!   [`TimingUpdateTdg::run_partitioned_recovering_bounded`] execute the
//!   update through the fault-tolerant scheduler under a
//!   deadline/cancellation budget: values outside the poisoned cone are
//!   salvaged bit-exactly, poisoned endpoints and the unfinished region of
//!   an early stop read *unknown* (NaN) after
//!   [`TimingUpdateTdg::mark_unknown`], and [`TimingUpdateTdg::heal`]
//!   re-runs just that region to converge to the bit-identical complete
//!   answer ([`RecoveredUpdate`]); a [`DirtyCone`] honours the same
//!   budget on the calling thread, or a whole design level by level on a
//!   few threads ([`DirtyCone::run_bounded`]: a stop leaves a suffix of the
//!   cone unfinished, nothing is ever poisoned — a task panic unwinds);
//!   [`Timer::snapshot`] /
//!   [`Timer::restore_snapshot`] capture the whole mutable timing state
//!   bit-exactly ([`TimingSnapshot`]), and [`Timer::edit_state`] /
//!   [`Timer::set_edit_state`] only what edits wrote ([`EditState`]),
//!   from which one whole-design run derives the rest;
//! * [`TimingReport`] — setup and hold WNS/TNS and per-endpoint slack
//!   reporting, plus [`Timer::worst_paths`], the one path engine: the `k`
//!   latest-arriving paths into an endpoint as [`TimingPath`]s, whose
//!   steps add up and whose worst reproduces the endpoint's slack;
//! * file interchange: [`verilog`] (structural netlists), [`liberty`]
//!   (NLDM cell libraries), and [`sdc`] (timing constraints) readers and
//!   writers, all round-trip tested.
//!
//! Propagation tasks perform real table-interpolation arithmetic, so task
//! granularity lands in the regime the paper reports (timing tasks
//! comparable to per-task scheduling cost).
//!
//! # Example
//!
//! ```
//! use gpasta_sta::{CellKind, CellLibrary, NetlistBuilder, Timer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = CellLibrary::typical();
//! let mut nb = NetlistBuilder::new();
//! let a = nb.add_primary_input("a");
//! let b = nb.add_primary_input("b");
//! let g = nb.add_gate("u1", CellKind::Nand2);
//! let y = nb.add_primary_output("y");
//! nb.connect_to_gate(a, g, 0)?;
//! nb.connect_to_gate(b, g, 1)?;
//! nb.connect_to_output(g, y)?;
//! let netlist = nb.build()?;
//!
//! let mut timer = Timer::new(netlist, lib);
//! let update = timer.update_timing();
//! // Run it sequentially (the scheduler crate can run it in parallel).
//! update.run_sequential();
//! // Dropping the update returns its buffers to the timer for reuse.
//! drop(update);
//! let report = timer.report(1);
//! assert!(report.wns_ps.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod atomic_f32;
pub mod boundary;
mod error;
mod graph;
mod kpaths;
pub mod liberty;
mod library;
mod netlist;
mod path;
mod recover;
mod report;
pub mod sdc;
mod timer;
pub mod verilog;

pub use analysis::{
    EditState, Mode, SnapshotMismatch, TimingData, TimingPropagator, TimingSnapshot, Tr,
};
pub use atomic_f32::AtomicF32;
pub use boundary::{BoundaryValues, ValueSet};
pub use error::{BuildNetlistError, ConnectError};
pub use graph::{ArcKind, NodeId, NodeKind, TimingArcRef, TimingGraph};
pub use liberty::{parse_liberty, write_liberty, ParseLibertyError};
pub use library::{CellKind, CellLibrary, Lut2D, TimingSense};
pub use netlist::{GateId, Netlist, NetlistBuilder, PinRef, PortId};
pub use path::{PathStep, TimingPath};
pub use recover::RecoveredUpdate;
pub use report::{EndpointSlack, EndpointSummary, TimingReport};
pub use sdc::{apply_sdc, write_sdc, ParseSdcError};
pub use timer::{DirtyCone, TaskKind, Timer, TimingUpdateTdg};
pub use verilog::{
    parse_verilog, parse_verilog_indexed, write_verilog, KeyedNames, ParseVerilogError,
};
