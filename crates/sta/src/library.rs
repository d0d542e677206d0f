//! NLDM-style cell library.
//!
//! Each combinational cell has one timing arc per input pin, characterised
//! by four 2-D lookup tables (rise/fall delay, rise/fall output slew)
//! indexed by input slew and output load, evaluated with bilinear
//! interpolation — the same table discipline as Liberty NLDM data that
//! OpenTimer consumes. Tables are generated from per-cell first-order
//! coefficients, so the library is self-contained while the *lookup path*
//! (index search + interpolation arithmetic) matches production behaviour.
//!
//! Units: time in picoseconds (ps), capacitance in femtofarads (fF).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The logic function / flavour of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CellKind {
    /// Inverter (1 input, negative-unate).
    Inv,
    /// Buffer (1 input, positive-unate).
    Buf,
    /// 2-input NAND (negative-unate).
    Nand2,
    /// 2-input NOR (negative-unate).
    Nor2,
    /// 2-input AND (positive-unate).
    And2,
    /// 2-input OR (positive-unate).
    Or2,
    /// 2-input XOR (non-unate; both transitions propagate).
    Xor2,
    /// 3-input NAND (negative-unate).
    Nand3,
    /// 2:1 multiplexer (3 inputs, non-unate).
    Mux2,
    /// 1-input majority-style complex cell stand-in (AOI21, 3 inputs,
    /// negative-unate).
    Aoi21,
    /// D flip-flop: `D` is a timing endpoint (setup-checked), `Q` launches
    /// a new path with a clock-to-Q delay.
    Dff,
}

impl CellKind {
    /// Number of signal input pins (the DFF's clock pin is implicit — the
    /// engine models an ideal clock).
    pub fn num_inputs(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Nand2 | CellKind::Nor2 | CellKind::And2 | CellKind::Or2 | CellKind::Xor2 => 2,
            CellKind::Nand3 | CellKind::Mux2 | CellKind::Aoi21 => 3,
        }
    }

    /// Whether the cell is sequential (breaks timing paths).
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Timing sense of the input→output arcs.
    pub fn sense(self) -> TimingSense {
        match self {
            CellKind::Buf | CellKind::And2 | CellKind::Or2 => TimingSense::Positive,
            CellKind::Inv
            | CellKind::Nand2
            | CellKind::Nor2
            | CellKind::Nand3
            | CellKind::Aoi21 => TimingSense::Negative,
            CellKind::Xor2 | CellKind::Mux2 => TimingSense::NonUnate,
            // The D->Q "arc" is not combinational; sense is unused.
            CellKind::Dff => TimingSense::Positive,
        }
    }

    /// All cell kinds, for iteration in tests and generators.
    pub fn all() -> &'static [CellKind] {
        &[
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Xor2,
            CellKind::Nand3,
            CellKind::Mux2,
            CellKind::Aoi21,
            CellKind::Dff,
        ]
    }
}

impl CellKind {
    /// The cell's library / Verilog name (`"NAND2"`, `"DFF"`, …).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Nand3 => "NAND3",
            CellKind::Mux2 => "MUX2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Dff => "DFF",
        }
    }

    /// The kind whose [`name`](Self::name) is `name`.
    pub(crate) fn from_name(name: &str) -> Option<CellKind> {
        Some(match name {
            "INV" => CellKind::Inv,
            "BUF" => CellKind::Buf,
            "NAND2" => CellKind::Nand2,
            "NOR2" => CellKind::Nor2,
            "AND2" => CellKind::And2,
            "OR2" => CellKind::Or2,
            "XOR2" => CellKind::Xor2,
            "NAND3" => CellKind::Nand3,
            "MUX2" => CellKind::Mux2,
            "AOI21" => CellKind::Aoi21,
            "DFF" => CellKind::Dff,
            _ => return None,
        })
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Unateness of a timing arc: which input transition causes which output
/// transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimingSense {
    /// Rising input → rising output (buffer-like).
    Positive = 0,
    /// Rising input → falling output (inverter-like).
    Negative = 1,
    /// Both input transitions drive both output transitions (XOR-like);
    /// propagation takes the worst case.
    NonUnate = 2,
}

/// A 2-D NLDM lookup table: `value[i][j]` at `(slew_axis[i], load_axis[j])`,
/// bilinear interpolation inside the grid, clamped extrapolation outside
/// (the common STA-tool policy for the table corners).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lut2D {
    slew_axis: Vec<f32>,
    load_axis: Vec<f32>,
    /// Row-major `slew_axis.len() × load_axis.len()` values.
    values: Vec<f32>,
}

impl Lut2D {
    /// Build a table from axes and row-major values.
    ///
    /// # Panics
    ///
    /// Panics if the axes are empty, not strictly increasing, or the value
    /// count does not match.
    pub fn new(slew_axis: Vec<f32>, load_axis: Vec<f32>, values: Vec<f32>) -> Self {
        assert!(
            !slew_axis.is_empty() && !load_axis.is_empty(),
            "empty LUT axis"
        );
        assert!(
            slew_axis.windows(2).all(|w| w[0] < w[1]),
            "slew axis must be strictly increasing"
        );
        assert!(
            load_axis.windows(2).all(|w| w[0] < w[1]),
            "load axis must be strictly increasing"
        );
        assert_eq!(
            values.len(),
            slew_axis.len() * load_axis.len(),
            "LUT value count mismatch"
        );
        Lut2D {
            slew_axis,
            load_axis,
            values,
        }
    }

    /// Generate a table on the given axes from a closure (used by the
    /// programmatic library).
    pub fn from_fn(slew_axis: Vec<f32>, load_axis: Vec<f32>, f: impl Fn(f32, f32) -> f32) -> Self {
        let f = &f;
        let values = slew_axis
            .iter()
            .flat_map(|&s| load_axis.iter().map(move |&l| f(s, l)))
            .collect();
        Lut2D::new(slew_axis, load_axis, values)
    }

    /// The input-slew axis breakpoints (ps).
    pub fn slew_axis(&self) -> &[f32] {
        &self.slew_axis
    }

    /// The output-load axis breakpoints (fF).
    pub fn load_axis(&self) -> &[f32] {
        &self.load_axis
    }

    /// Row-major table values (`slew_axis.len() × load_axis.len()`).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Resolve the load-axis bracket of `load` for reuse across several
    /// [`lookup_at`](Self::lookup_at) calls at that output load — the hot
    /// propagation kernel evaluates up to four `(slew, mode)` combinations
    /// per table against one load, and the bracket search is the part
    /// worth hoisting.
    #[inline]
    pub fn load_bracket(&self, load: f32) -> LoadBracket {
        let (j0, j1, tl) = Self::bracket(&self.load_axis, load);
        LoadBracket { j0, j1, tl }
    }

    /// Bilinear lookup at `(slew, load)` with clamped extrapolation, where
    /// `lb` is this table's [`load_bracket`](Self::load_bracket) of `load`.
    #[inline]
    pub fn lookup_at(&self, slew: f32, lb: LoadBracket) -> f32 {
        self.lookup_bracketed(self.slew_bracket(slew), lb)
    }

    /// Resolve the slew-axis bracket once for reuse across the tables
    /// that share this table's slew axis (see
    /// [`ArcTables::shares_slew_axis`]).
    #[inline]
    pub fn slew_bracket(&self, slew: f32) -> SlewBracket {
        let (i0, i1, ts) = Self::bracket(&self.slew_axis, slew);
        SlewBracket { i0, i1, ts }
    }

    /// Bilinear lookup with both brackets pre-resolved; bit-identical to
    /// [`lookup_at`](Self::lookup_at) when `sb` came from the
    /// [`slew_bracket`](Self::slew_bracket) of a table with this table's
    /// slew axis.
    #[inline]
    pub fn lookup_bracketed(&self, sb: SlewBracket, lb: LoadBracket) -> f32 {
        let SlewBracket { i0, i1, ts } = sb;
        let LoadBracket { j0, j1, tl } = lb;
        let cols = self.load_axis.len();
        let v00 = self.values[i0 * cols + j0];
        let v01 = self.values[i0 * cols + j1];
        let v10 = self.values[i1 * cols + j0];
        let v11 = self.values[i1 * cols + j1];
        let v0 = v00 + (v01 - v00) * tl;
        let v1 = v10 + (v11 - v10) * tl;
        v0 + (v1 - v0) * ts
    }

    /// Find the bracketing indices and interpolation fraction for `x` on
    /// `axis`, clamping outside the grid. A NaN `x` (the *unknown*
    /// marker) yields a NaN fraction, so the lookup is NaN too.
    #[inline]
    fn bracket(axis: &[f32], x: f32) -> (usize, usize, f32) {
        let n = axis.len();
        if x <= axis[0] {
            return (0, 0, 0.0);
        }
        if x >= axis[n - 1] {
            return (n - 1, n - 1, 0.0);
        }
        if x.is_nan() {
            return (0, 0, f32::NAN);
        }
        // On a sorted axis the count of points ≤ x is `partition_point`'s
        // index; counting takes no data-dependent branch.
        let mut hi = 0;
        for &a in axis {
            hi += usize::from(a <= x);
        }
        let lo = hi - 1;
        let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
        (lo, hi, t)
    }
}

/// A pre-resolved load-axis position: bracketing column indices plus the
/// interpolation fraction (see [`Lut2D::load_bracket`]).
#[derive(Debug, Clone, Copy)]
pub struct LoadBracket {
    j0: usize,
    j1: usize,
    tl: f32,
}

/// A pre-resolved slew-axis position: bracketing row indices plus the
/// interpolation fraction (see [`Lut2D::slew_bracket`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SlewBracket {
    i0: usize,
    i1: usize,
    ts: f32,
}

/// The four tables of one timing arc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArcTables {
    /// Delay to a rising output edge.
    pub delay_rise: Lut2D,
    /// Delay to a falling output edge.
    pub delay_fall: Lut2D,
    /// Output slew of a rising edge.
    pub slew_rise: Lut2D,
    /// Output slew of a falling edge.
    pub slew_fall: Lut2D,
}

impl ArcTables {
    /// Whether all four tables have the same slew axis, so that one
    /// [`SlewBracket`] serves every lookup at a given input slew. The
    /// programmatic library always shares; a Liberty file may give each
    /// table its own axes.
    pub fn shares_slew_axis(&self) -> bool {
        let axis = self.delay_rise.slew_axis();
        [&self.delay_fall, &self.slew_rise, &self.slew_fall]
            .iter()
            .all(|t| t.slew_axis() == axis)
    }

    /// Whether all four tables have the same load axis, so that one
    /// [`LoadBracket`] serves every lookup at a given output load.
    pub fn shares_load_axis(&self) -> bool {
        let axis = self.delay_rise.load_axis();
        [&self.delay_fall, &self.slew_rise, &self.slew_fall]
            .iter()
            .all(|t| t.load_axis() == axis)
    }
}

/// Per-cell electrical characterisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// Input pin capacitance (fF).
    pub input_cap_ff: f32,
    /// Tables of the input→output arc (shared by all inputs of the cell;
    /// a per-pin refinement would only scale data volume, not behaviour).
    pub tables: ArcTables,
    /// Clock-to-Q delay for sequential cells (ps); zero for combinational.
    pub clk_to_q_ps: f32,
    /// Setup time for sequential cells (ps); zero for combinational.
    pub setup_ps: f32,
}

/// A complete library: characterisation for every [`CellKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    cells: Vec<CellTiming>,
    /// Per cell, [`ArcTables::shares_slew_axis`] and
    /// [`ArcTables::shares_load_axis`]: decided when the cell is set, not
    /// per lookup, and kept off the wire.
    shared_slew: Vec<bool>,
    shared_load: Vec<bool>,
    /// Default primary-input slew (ps).
    pub input_slew_ps: f32,
    /// Primary-output load (fF).
    pub output_load_ff: f32,
    /// Wire resistance factor: net delay (ps) per fF of downstream cap.
    pub wire_res_ps_per_ff: f32,
}

impl CellLibrary {
    /// Index of `kind` in the library's cell table. The discriminant *is*
    /// the index — `cells` is stored in [`CellKind::all`] order, which
    /// matches declaration order — so this is O(1). Forward propagation
    /// resolves a cell per arc per corner; the linear `position()` scan
    /// this replaces was a measurable slice of the hot loop.
    #[inline]
    pub fn cell_index(kind: CellKind) -> usize {
        kind as usize
    }

    fn index(kind: CellKind) -> usize {
        Self::cell_index(kind)
    }

    /// A typical-corner library generated from first-order coefficients
    /// with 7×7 NLDM grids, loosely calibrated to a generic 45 nm node.
    pub fn typical() -> Self {
        let slew_axis: Vec<f32> = vec![5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0];
        let load_axis: Vec<f32> = vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

        // (kind, intrinsic ps, ps/fF drive, slew sensitivity, input cap fF)
        let coeffs: &[(CellKind, f32, f32, f32, f32)] = &[
            (CellKind::Inv, 8.0, 2.0, 0.10, 1.0),
            (CellKind::Buf, 14.0, 1.6, 0.08, 1.1),
            (CellKind::Nand2, 12.0, 2.6, 0.12, 1.3),
            (CellKind::Nor2, 14.0, 3.0, 0.14, 1.3),
            (CellKind::And2, 18.0, 2.2, 0.10, 1.2),
            (CellKind::Or2, 20.0, 2.4, 0.11, 1.2),
            (CellKind::Xor2, 26.0, 3.2, 0.16, 1.8),
            (CellKind::Nand3, 16.0, 3.4, 0.15, 1.4),
            (CellKind::Mux2, 24.0, 2.8, 0.13, 1.6),
            (CellKind::Aoi21, 18.0, 3.2, 0.15, 1.5),
            (CellKind::Dff, 0.0, 2.0, 0.08, 1.2),
        ];

        let cells = coeffs
            .iter()
            .map(|&(kind, d0, dl, ds, cap)| {
                let mk = |skew: f32| {
                    Lut2D::from_fn(slew_axis.clone(), load_axis.clone(), move |s, l| {
                        d0 * skew + dl * l + ds * s + 0.002 * s * l
                    })
                };
                let mk_slew = |skew: f32| {
                    Lut2D::from_fn(slew_axis.clone(), load_axis.clone(), move |s, l| {
                        (4.0 + 1.1 * dl * l + 0.12 * s) * skew
                    })
                };
                let (clk_to_q_ps, setup_ps) = if kind.is_sequential() {
                    (45.0, 30.0)
                } else {
                    (0.0, 0.0)
                };
                CellTiming {
                    input_cap_ff: cap,
                    tables: ArcTables {
                        // Falling edges are slightly faster (NMOS pull-down),
                        // as in real libraries.
                        delay_rise: mk(1.0),
                        delay_fall: mk(0.9),
                        slew_rise: mk_slew(1.0),
                        slew_fall: mk_slew(0.92),
                    },
                    clk_to_q_ps,
                    setup_ps,
                }
            })
            .collect();

        CellLibrary::with_cells(cells, 20.0, 2.0, 0.4)
    }

    fn with_cells(
        cells: Vec<CellTiming>,
        input_slew_ps: f32,
        output_load_ff: f32,
        wire_res_ps_per_ff: f32,
    ) -> Self {
        let shared_slew = cells.iter().map(|c| c.tables.shares_slew_axis()).collect();
        let shared_load = cells.iter().map(|c| c.tables.shares_load_axis()).collect();
        CellLibrary {
            cells,
            shared_slew,
            shared_load,
            input_slew_ps,
            output_load_ff,
            wire_res_ps_per_ff,
        }
    }

    /// Characterisation of `kind`.
    pub fn cell(&self, kind: CellKind) -> &CellTiming {
        &self.cells[Self::index(kind)]
    }

    /// Characterisation by precomputed [`cell_index`](Self::cell_index) —
    /// the hot-path entry used with per-arc cached indices.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid cell index.
    #[inline]
    pub fn cell_by_index(&self, i: usize) -> &CellTiming {
        &self.cells[i]
    }

    /// Replace the characterisation of `kind` (used by the Liberty
    /// reader and by library-scaling experiments).
    pub fn set_cell(&mut self, kind: CellKind, timing: CellTiming) {
        self.shared_slew[Self::index(kind)] = timing.tables.shares_slew_axis();
        self.shared_load[Self::index(kind)] = timing.tables.shares_load_axis();
        self.cells[Self::index(kind)] = timing;
    }

    /// Whether the cell at [`cell_index`](Self::cell_index) `i` has one
    /// slew axis for its four tables ([`ArcTables::shares_slew_axis`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid cell index.
    #[inline]
    pub fn shares_slew_axis(&self, i: usize) -> bool {
        self.shared_slew[i]
    }

    /// Whether the cell at [`cell_index`](Self::cell_index) `i` has one
    /// load axis for its four tables ([`ArcTables::shares_load_axis`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid cell index.
    #[inline]
    pub fn shares_load_axis(&self, i: usize) -> bool {
        self.shared_load[i]
    }

    /// Input pin capacitance of `kind` (fF).
    pub fn input_cap(&self, kind: CellKind) -> f32 {
        self.cell(kind).input_cap_ff
    }
}

// Manual impls: `shared_slew` and `shared_load` are derived from `cells`,
// so the wire carries the same fields a derive of the other four would.
impl Serialize for CellLibrary {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(Vec::from([
            (String::from("cells"), self.cells.to_value()),
            (String::from("input_slew_ps"), self.input_slew_ps.to_value()),
            (
                String::from("output_load_ff"),
                self.output_load_ff.to_value(),
            ),
            (
                String::from("wire_res_ps_per_ff"),
                self.wire_res_ps_per_ff.to_value(),
            ),
        ]))
    }
}

impl Deserialize for CellLibrary {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::FromValueError> {
        let field = |key| v.expect_field(key);
        Ok(CellLibrary::with_cells(
            Deserialize::from_value(field("cells")?)?,
            Deserialize::from_value(field("input_slew_ps")?)?,
            Deserialize::from_value(field("output_load_ff")?)?,
            Deserialize::from_value(field("wire_res_ps_per_ff")?)?,
        ))
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_inverts_name() {
        for &kind in CellKind::all() {
            assert_eq!(CellKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CellKind::from_name("nand2"), None);
    }

    /// `lut` at `(slew, load)`.
    fn lookup(lut: &Lut2D, slew: f32, load: f32) -> f32 {
        lut.lookup_at(slew, lut.load_bracket(load))
    }

    #[test]
    fn lut_exact_on_grid_points() {
        let lut = Lut2D::new(vec![1.0, 2.0], vec![10.0, 20.0], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(lookup(&lut, 1.0, 10.0), 1.0);
        assert_eq!(lookup(&lut, 1.0, 20.0), 2.0);
        assert_eq!(lookup(&lut, 2.0, 10.0), 3.0);
        assert_eq!(lookup(&lut, 2.0, 20.0), 4.0);
    }

    #[test]
    fn lut_bilinear_midpoint() {
        let lut = Lut2D::new(vec![0.0, 2.0], vec![0.0, 2.0], vec![0.0, 2.0, 2.0, 4.0]);
        assert_eq!(lookup(&lut, 1.0, 1.0), 2.0);
    }

    #[test]
    fn lut_clamps_outside_grid() {
        let lut = Lut2D::new(vec![1.0, 2.0], vec![1.0, 2.0], vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(lookup(&lut, 0.0, 0.0), 5.0);
        assert_eq!(lookup(&lut, 99.0, 99.0), 8.0);
        assert_eq!(lookup(&lut, 0.0, 99.0), 6.0);
    }

    #[test]
    fn a_shared_slew_bracket_looks_up_what_lookup_does() {
        let lib = CellLibrary::typical();
        let t = &lib.cell(CellKind::Nand2).tables;
        assert!(t.shares_slew_axis());
        let slews = [
            5.0,
            40.0,
            320.0,
            7.5,
            33.3,
            250.0,
            1.0,
            -3.0,
            1e4,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for slew in slews {
            // One bracket, from the delay-rise table, serves all four.
            let sb = t.delay_rise.slew_bracket(slew);
            for tab in [&t.delay_rise, &t.delay_fall, &t.slew_rise, &t.slew_fall] {
                for load in [0.5, 3.0, 40.0] {
                    let lb = tab.load_bracket(load);
                    assert_eq!(
                        tab.lookup_bracketed(sb, lb).to_bits(),
                        tab.lookup_at(slew, lb).to_bits(),
                        "slew {slew}, load {load}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_nan_on_either_axis_looks_up_nan() {
        let lib = CellLibrary::typical();
        let t = &lib.cell(CellKind::Inv).tables.delay_rise;
        assert!(lookup(t, f32::NAN, 1.0).is_nan());
        assert!(lookup(t, 20.0, f32::NAN).is_nan());
        assert!(lookup(t, f32::NAN, f32::NAN).is_nan());
        // A one-point axis too: no bracket to search, still unknown.
        let point = Lut2D::new(vec![1.0], vec![1.0], vec![7.0]);
        assert!(lookup(&point, f32::NAN, 1.0).is_nan());
        assert!(lookup(&point, 1.0, f32::NAN).is_nan());
        assert_eq!(lookup(&point, -5.0, 9.0), 7.0);
    }

    #[test]
    fn the_slew_axis_decision_follows_set_cell() {
        let mut lib = CellLibrary::typical();
        let i = CellLibrary::cell_index(CellKind::Buf);
        assert!(lib.shares_slew_axis(i));
        let mut cell = lib.cell(CellKind::Buf).clone();
        let load = cell.tables.slew_fall.load_axis().to_vec();
        cell.tables.slew_fall = Lut2D::from_fn(vec![1.0, 50.0, 500.0], load, |s, l| s + l);
        assert!(!cell.tables.shares_slew_axis());
        lib.set_cell(CellKind::Buf, cell);
        assert!(!lib.shares_slew_axis(i));
        let json = serde_json::to_string(&lib).expect("serializes");
        let back: CellLibrary = serde_json::from_str(&json).expect("deserializes");
        assert!(!back.shares_slew_axis(i));
        assert_eq!(back, lib);
    }

    #[test]
    fn the_load_axis_decision_follows_set_cell() {
        let mut lib = CellLibrary::typical();
        for &kind in CellKind::all() {
            assert!(
                lib.shares_load_axis(CellLibrary::cell_index(kind)),
                "{kind}"
            );
        }
        let i = CellLibrary::cell_index(CellKind::Nor2);
        let mut cell = lib.cell(CellKind::Nor2).clone();
        let slew = cell.tables.slew_fall.slew_axis().to_vec();
        cell.tables.slew_fall = Lut2D::from_fn(slew, vec![0.3, 5.0, 40.0], |s, l| s + l);
        assert!(cell.tables.shares_slew_axis() && !cell.tables.shares_load_axis());
        lib.set_cell(CellKind::Nor2, cell);
        assert!(lib.shares_slew_axis(i) && !lib.shares_load_axis(i));
        let json = serde_json::to_string(&lib).expect("serializes");
        assert!(!json.contains("shared"), "the decision stays off the wire");
        let back: CellLibrary = serde_json::from_str(&json).expect("deserializes");
        assert!(back.shares_slew_axis(i) && !back.shares_load_axis(i));
        assert_eq!(back, lib);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn lut_rejects_unsorted_axis() {
        let _ = Lut2D::new(vec![2.0, 1.0], vec![1.0], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "value count mismatch")]
    fn lut_rejects_bad_value_count() {
        let _ = Lut2D::new(vec![1.0], vec![1.0], vec![0.0, 0.0]);
    }

    #[test]
    fn typical_library_covers_every_kind() {
        let lib = CellLibrary::typical();
        for &kind in CellKind::all() {
            let cell = lib.cell(kind);
            assert!(cell.input_cap_ff > 0.0, "{kind} has no input cap");
            let d = lookup(&cell.tables.delay_rise, 20.0, 2.0);
            assert!(d > 0.0, "{kind} has nonpositive delay {d}");
        }
    }

    #[test]
    fn delay_monotone_in_load_and_slew() {
        let lib = CellLibrary::typical();
        let t = &lib.cell(CellKind::Nand2).tables.delay_rise;
        assert!(lookup(t, 20.0, 8.0) > lookup(t, 20.0, 1.0));
        assert!(lookup(t, 160.0, 2.0) > lookup(t, 10.0, 2.0));
    }

    #[test]
    fn fall_is_faster_than_rise() {
        let lib = CellLibrary::typical();
        let tables = &lib.cell(CellKind::Inv).tables;
        assert!(lookup(&tables.delay_fall, 20.0, 2.0) < lookup(&tables.delay_rise, 20.0, 2.0));
    }

    #[test]
    fn dff_is_sequential_with_setup_and_clk_to_q() {
        let lib = CellLibrary::typical();
        assert!(CellKind::Dff.is_sequential());
        assert!(lib.cell(CellKind::Dff).setup_ps > 0.0);
        assert!(lib.cell(CellKind::Dff).clk_to_q_ps > 0.0);
        assert!(!CellKind::Nand2.is_sequential());
        assert_eq!(lib.cell(CellKind::Nand2).setup_ps, 0.0);
    }

    #[test]
    fn kind_metadata_is_consistent() {
        assert_eq!(CellKind::Inv.num_inputs(), 1);
        assert_eq!(CellKind::Mux2.num_inputs(), 3);
        assert_eq!(CellKind::Inv.sense(), TimingSense::Negative);
        assert_eq!(CellKind::Buf.sense(), TimingSense::Positive);
        assert_eq!(CellKind::Xor2.sense(), TimingSense::NonUnate);
        assert_eq!(CellKind::Nand2.to_string(), "NAND2");
        assert_eq!(CellKind::all().len(), 11);
    }

    #[test]
    fn cell_index_matches_all_order() {
        // `cell_index` relies on the discriminant equalling the position in
        // `all()`; if the two ever diverge, every by-index lookup resolves
        // the wrong cell.
        for (i, &kind) in CellKind::all().iter().enumerate() {
            assert_eq!(CellLibrary::cell_index(kind), i, "{kind}");
        }
        let lib = CellLibrary::typical();
        for &kind in CellKind::all() {
            assert_eq!(
                lib.cell(kind) as *const _,
                lib.cell_by_index(CellLibrary::cell_index(kind)) as *const _,
                "{kind}: cell() and cell_by_index() must agree"
            );
        }
    }

    #[test]
    fn library_serde_round_trip() {
        let lib = CellLibrary::typical();
        let json = serde_json::to_string(&lib).expect("serializes");
        let back: CellLibrary = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(lib, back);
    }
}
