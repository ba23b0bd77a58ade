//! The cell-library container and wire-load model.

use crate::cell::{Cell, Drive, Function};
use serde::{Deserialize, Serialize};

/// Number of cells in a full `Function × Drive` matrix.
const MATRIX_LEN: usize = Function::ALL.len() * Drive::ALL.len();

/// Position of `(function, drive)` in the canonical matrix order. Both
/// enums declare their variants in `ALL` order, so the discriminants are
/// the `ALL` indices.
#[inline]
fn matrix_slot(function: Function, drive: Drive) -> usize {
    function as usize * Drive::ALL.len() + drive as usize
}

/// Statistical wire-load model.
///
/// Real routers add capacitance per sink plus a congestion component that
/// grows with design size. We model
/// `C_wire(fanout) = cap_per_fanout · fanout · (1 + congestion · √gates)`,
/// which reproduces the paper's observation that large, wiring-heavy
/// structures (e.g. Kogge-Stone) pay a super-linear delay penalty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireModel {
    /// Capacitance added per fanout sink, fF.
    pub cap_per_fanout_ff: f64,
    /// Congestion coefficient applied as `1 + c·√gates`.
    pub congestion: f64,
}

impl WireModel {
    /// Wire capacitance for a net with `fanout` sinks in a design with
    /// `gate_count` gates.
    #[inline]
    pub fn wire_cap_ff(&self, fanout: usize, gate_count: usize) -> f64 {
        self.cap_per_fanout_ff
            * fanout as f64
            * (1.0 + self.congestion * (gate_count as f64).sqrt())
    }
}

/// A technology library: a full `Function × Drive` matrix of cells plus
/// the wire model and IO assumptions.
///
/// Not `Deserialize`: every library is built through
/// [`CellLibrary::new`], which establishes the matrix layout that
/// [`CellLibrary::cell`] indexes into.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellLibrary {
    name: String,
    /// The full matrix in canonical order: slot
    /// `function · |Drive::ALL| + drive`.
    cells: Vec<Cell>,
    wire: WireModel,
    /// Capacitance presented by a primary output, fF.
    output_load_ff: f64,
    /// Drive resistance of a primary input driver, ns/fF.
    input_drive_res: f64,
}

impl CellLibrary {
    /// Builds a library from parts. The cells may come in any order; the
    /// library stores them in canonical matrix order.
    ///
    /// # Panics
    ///
    /// Panics unless `cells` contains every `Function × Drive` combination
    /// exactly once.
    pub fn new(
        name: impl Into<String>,
        cells: Vec<Cell>,
        wire: WireModel,
        output_load_ff: f64,
        input_drive_res: f64,
    ) -> Self {
        // One pass places each cell in its slot and counts it there, so
        // validation is O(cells).
        let mut matrix = [None::<Cell>; MATRIX_LEN];
        let mut found = [0usize; MATRIX_LEN];
        for cell in cells {
            let slot = matrix_slot(cell.function, cell.drive);
            found[slot] += 1;
            matrix[slot] = Some(cell);
        }
        let cells = Function::ALL
            .into_iter()
            .flat_map(|f| Drive::ALL.into_iter().map(move |d| (f, d)))
            .map(|(f, d)| {
                let slot = matrix_slot(f, d);
                let n = found[slot];
                assert_eq!(n, 1, "library must contain exactly one {f}_{d}, found {n}");
                matrix[slot].expect("counted above")
            })
            .collect();
        CellLibrary {
            name: name.into(),
            cells,
            wire,
            output_load_ff,
            input_drive_res,
        }
    }

    /// Library name (e.g. `nangate45-like`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up the cell implementing `function` at `drive`: a direct
    /// index into the matrix [`CellLibrary::new`] laid out.
    #[inline]
    pub fn cell(&self, function: Function, drive: Drive) -> &Cell {
        &self.cells[matrix_slot(function, drive)]
    }

    /// The wire-load model.
    pub fn wire(&self) -> &WireModel {
        &self.wire
    }

    /// Capacitive load presented by each primary output, fF.
    pub fn output_load_ff(&self) -> f64 {
        self.output_load_ff
    }

    /// Drive resistance of primary-input drivers, ns/fF.
    pub fn input_drive_res(&self) -> f64 {
        self.input_drive_res
    }

    /// All cells (the full matrix, `Function::ALL`-major then
    /// `Drive::ALL`), for inspection and reports.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::techs::nangate45_like;

    #[test]
    fn wire_cap_grows_with_fanout_and_size() {
        let w = WireModel {
            cap_per_fanout_ff: 0.3,
            congestion: 0.002,
        };
        assert!(w.wire_cap_ff(4, 100) > w.wire_cap_ff(2, 100));
        assert!(w.wire_cap_ff(4, 1000) > w.wire_cap_ff(4, 100));
        assert_eq!(w.wire_cap_ff(0, 100), 0.0);
    }

    #[test]
    fn lookup_full_matrix() {
        let lib = nangate45_like();
        for f in Function::ALL {
            for d in Drive::ALL {
                let c = lib.cell(f, d);
                assert_eq!(c.function, f);
                assert_eq!(c.drive, d);
                assert!(c.area_um2 > 0.0 && c.input_cap_ff > 0.0);
            }
        }
    }

    #[test]
    fn shuffled_matrix_indexes_like_a_linear_find() {
        let lib = nangate45_like();
        let n = lib.cells().len();
        // i ↦ 7i + 3 (mod 30) is a bijection (7 is coprime to 30); the
        // reversal is a second, unrelated order.
        let rotated: Vec<Cell> = (0..n).map(|i| lib.cells()[(7 * i + 3) % n]).collect();
        let reversed: Vec<Cell> = lib.cells().iter().rev().copied().collect();
        for shuffled in [rotated, reversed] {
            let built = CellLibrary::new("shuffled", shuffled.clone(), *lib.wire(), 1.0, 0.01);
            for f in Function::ALL {
                for d in Drive::ALL {
                    let linear = shuffled
                        .iter()
                        .find(|c| c.function == f && c.drive == d)
                        .unwrap();
                    assert_eq!(built.cell(f, d), linear, "{f}_{d}");
                }
            }
            assert_eq!(built.cells(), lib.cells(), "canonical order");
        }
    }

    #[test]
    #[should_panic(expected = "exactly one INV_X1, found 2")]
    fn duplicated_cell_panics() {
        let lib = nangate45_like();
        let mut cells = lib.cells().to_vec();
        cells[1] = cells[0];
        let _ = CellLibrary::new("broken", cells, *lib.wire(), 1.0, 0.01);
    }

    #[test]
    #[should_panic(expected = "exactly one")]
    fn incomplete_library_panics() {
        let lib = nangate45_like();
        let mut cells = lib.cells().to_vec();
        cells.pop();
        let _ = CellLibrary::new("broken", cells, *lib.wire(), 1.0, 0.01);
    }
}
