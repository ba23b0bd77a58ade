//! Greedy critical-path gate sizing.

use cv_cells::CellLibrary;
use cv_netlist::{GateId, Netlist};
use cv_sta::{analyze, critical_gates, IoTiming, TimingEngine, TimingReport};

/// Greedily upsizes gates on the critical path while each move improves
/// the *cost-weighted* objective `ω·10·Δdelay + (1−ω)·Δarea/100 < 0`.
///
/// Each iteration re-times the design, walks the critical path, and
/// applies the single best upsize; it stops after `max_moves` moves or
/// when no move helps. Returns `(moves_applied, final_report)`.
///
/// The interaction between sizing and structure is what makes the true
/// cost landscape non-analytic: a structurally "deep" design can beat a
/// "shallow" one once the shallow design's fanout forces huge cells.
pub fn size_gates(
    netlist: &mut Netlist,
    lib: &CellLibrary,
    io: &IoTiming,
    delay_weight: f64,
    max_moves: usize,
) -> (usize, TimingReport) {
    let mut report = analyze(netlist, lib, io);
    let mut moves = 0usize;
    while moves < max_moves {
        let path = critical_gates(&report);
        let mut best: Option<(usize, cv_cells::Drive, f64)> = None;
        let current_score = delay_weight * 10.0 * report.delay_ns
            + (1.0 - delay_weight) * netlist.area_um2(lib) / 100.0;
        for gid in path {
            let old_drive = netlist.drive(gid);
            let Some(bigger) = old_drive.upsized() else {
                continue;
            };
            netlist.set_drive(gid, bigger);
            let trial = analyze(netlist, lib, io);
            let trial_score = delay_weight * 10.0 * trial.delay_ns
                + (1.0 - delay_weight) * netlist.area_um2(lib) / 100.0;
            let gain = current_score - trial_score;
            netlist.set_drive(gid, old_drive);
            if gain > 1e-9
                && match best {
                    None => true,
                    Some((_, _, g)) => gain > g,
                }
            {
                best = Some((gid, bigger, gain));
            }
        }
        match best {
            Some((gid, drive, _)) => {
                netlist.set_drive(gid, drive);
                report = analyze(netlist, lib, io);
                moves += 1;
            }
            None => break,
        }
    }
    (moves, report)
}

/// Caller-owned scratch of [`size_gates_resident`]: the critical-path
/// buffer and the resident per-gate areas. Reusing one across calls keeps
/// a hot evaluation loop allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SizingScratch {
    path: Vec<GateId>,
    /// Cell area of each gate at its current drive, in gate order.
    areas: Vec<f64>,
    /// `prefix[k]` = `areas[..k]` summed left to right.
    prefix: Vec<f64>,
}

impl SizingScratch {
    /// Creates empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one [`size_gates_resident`] pass did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingOutcome {
    /// Upsizing moves applied.
    pub moves: usize,
    /// Effective delay of the sized netlist, ns.
    pub delay_ns: f64,
    /// Cell area of the sized netlist, µm² — bitwise equal to
    /// [`Netlist::area_um2`].
    pub area_um2: f64,
}

/// Delta-STA twin of [`size_gates`]: the same greedy loop, with every
/// per-trial full re-analysis replaced by an incremental cone update on
/// `engine`. Because [`TimingEngine`] is bit-for-bit equal to
/// [`analyze`], this makes *exactly* the same sequence of sizing
/// decisions — "Contract 6" in `DESIGN.md` — while doing only
/// cone-of-influence work per trial.
///
/// A trial is `set_drive` then [`TimingEngine::revert`], which restores
/// the logged state instead of re-propagating. The area term comes from
/// per-gate areas and their running prefix sums, kept in `scratch`: a
/// trial on gate `g` continues from the stored sum of gates `..g`, adds
/// `g`'s upsized area, then the areas after `g`. That is the left-to-right
/// summation of [`Netlist::area_um2`], so the score is bitwise the
/// reference one, without a cell lookup per gate.
///
/// `engine` is rebuilt for `netlist` on entry.
pub fn size_gates_resident(
    netlist: &mut Netlist,
    lib: &CellLibrary,
    io: &IoTiming,
    delay_weight: f64,
    max_moves: usize,
    engine: &mut TimingEngine,
    scratch: &mut SizingScratch,
) -> SizingOutcome {
    let SizingScratch {
        path,
        areas,
        prefix,
    } = scratch;
    let score = |delay_ns: f64, area_um2: f64| {
        delay_weight * 10.0 * delay_ns + (1.0 - delay_weight) * area_um2 / 100.0
    };
    engine.rebuild(netlist, lib, io);
    areas.clear();
    areas.extend(
        netlist
            .iter_gates()
            .map(|g| lib.cell(g.function, g.drive).area_um2),
    );
    prefix.clear();
    // The empty sum: `Iterator::sum`'s own starting value, so the
    // prefix sums are bitwise those of `Netlist::area_um2`.
    prefix.push(std::iter::empty::<f64>().sum());
    sum_prefix_from(0, areas, prefix);
    let mut area_um2 = prefix[areas.len()];
    let mut delay_ns = engine.delay(netlist).delay_ns;
    let mut moves = 0usize;
    while moves < max_moves {
        engine.critical_gates_into(netlist, path);
        let mut best: Option<(GateId, cv_cells::Drive, f64)> = None;
        let current_score = score(delay_ns, area_um2);
        for &gid in path.iter() {
            let old_drive = netlist.drive(gid);
            let Some(bigger) = old_drive.upsized() else {
                continue;
            };
            let trial_area = areas[gid + 1..].iter().fold(
                prefix[gid] + lib.cell(netlist.function(gid), bigger).area_um2,
                |a, &b| a + b,
            );
            engine.set_drive(netlist, lib, gid, bigger);
            let gain = current_score - score(engine.delay(netlist).delay_ns, trial_area);
            engine.revert(netlist);
            if gain > 1e-9
                && match best {
                    None => true,
                    Some((_, _, g)) => gain > g,
                }
            {
                best = Some((gid, bigger, gain));
            }
        }
        match best {
            Some((gid, drive, _)) => {
                engine.set_drive(netlist, lib, gid, drive);
                areas[gid] = lib.cell(netlist.function(gid), drive).area_um2;
                sum_prefix_from(gid, areas, prefix);
                area_um2 = prefix[areas.len()];
                delay_ns = engine.delay(netlist).delay_ns;
                moves += 1;
            }
            None => break,
        }
    }
    SizingOutcome {
        moves,
        delay_ns,
        area_um2,
    }
}

/// Recomputes `prefix[from + 1..]` from `areas[from..]`.
fn sum_prefix_from(from: usize, areas: &[f64], prefix: &mut Vec<f64>) {
    prefix.truncate(from + 1);
    let mut acc = prefix[from];
    for &a in &areas[from..] {
        acc += a;
        prefix.push(acc);
    }
}

/// [`size_gates_resident`] for callers that keep only a path buffer:
/// returns `(moves_applied, final_delay_ns)` and allocates the per-gate
/// area buffer on each call.
pub fn size_gates_incremental(
    netlist: &mut Netlist,
    lib: &CellLibrary,
    io: &IoTiming,
    delay_weight: f64,
    max_moves: usize,
    engine: &mut TimingEngine,
    path: &mut Vec<GateId>,
) -> (usize, f64) {
    let mut scratch = SizingScratch {
        path: std::mem::take(path),
        ..SizingScratch::default()
    };
    let out = size_gates_resident(
        netlist,
        lib,
        io,
        delay_weight,
        max_moves,
        engine,
        &mut scratch,
    );
    *path = scratch.path;
    (out.moves, out.delay_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffering::buffer_high_fanout;
    use cv_cells::nangate45_like;
    use cv_netlist::map_adder;
    use cv_prefix::{mutate, topologies};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sizing_reduces_delay_at_high_delay_weight() {
        let lib = nangate45_like();
        let graph = topologies::sklansky(16).to_graph();
        let mut nl = map_adder(&graph, &lib);
        let io = IoTiming::uniform(16);
        let before = analyze(&nl, &lib, &io).delay_ns;
        let (moves, report) = size_gates(&mut nl, &lib, &io, 0.95, 50);
        assert!(moves > 0, "at ω=0.95 the sizer must act");
        assert!(
            report.delay_ns < before,
            "{} -> {}",
            before,
            report.delay_ns
        );
    }

    #[test]
    fn sizing_is_conservative_at_low_delay_weight() {
        let lib = nangate45_like();
        let graph = topologies::sklansky(16).to_graph();
        let mut nl_fast = map_adder(&graph, &lib);
        let mut nl_small = map_adder(&graph, &lib);
        let io = IoTiming::uniform(16);
        let (moves_fast, _) = size_gates(&mut nl_fast, &lib, &io, 0.95, 200);
        let (moves_small, _) = size_gates(&mut nl_small, &lib, &io, 0.05, 200);
        assert!(
            moves_small < moves_fast,
            "area-dominated weight should size less ({moves_small} vs {moves_fast})"
        );
        assert!(nl_small.area_um2(&lib) <= nl_fast.area_um2(&lib));
    }

    #[test]
    fn move_cap_respected() {
        let lib = nangate45_like();
        let mut nl = map_adder(&topologies::sklansky(32).to_graph(), &lib);
        let io = IoTiming::uniform(32);
        let (moves, _) = size_gates(&mut nl, &lib, &io, 1.0, 3);
        assert!(moves <= 3);
    }

    /// Sizes `netlist` with the reference sizer and with
    /// [`size_gates_resident`] (reusing `engine` and `scratch`, as a
    /// session does), asserts identical decisions and results, and
    /// returns the move count.
    fn assert_identical_sizing(
        netlist: &Netlist,
        io: &IoTiming,
        w: f64,
        engine: &mut TimingEngine,
        scratch: &mut SizingScratch,
        what: &str,
    ) -> usize {
        let lib = nangate45_like();
        let mut reference = netlist.clone();
        let mut incremental = netlist.clone();
        let (ref_moves, ref_report) = size_gates(&mut reference, &lib, io, w, 50);
        let out = size_gates_resident(&mut incremental, &lib, io, w, 50, engine, scratch);
        assert_eq!(ref_moves, out.moves, "{what}");
        assert_eq!(
            ref_report.delay_ns.to_bits(),
            out.delay_ns.to_bits(),
            "{what}"
        );
        assert_eq!(reference, incremental, "{what}: different drives chosen");
        assert_eq!(
            reference.area_um2(&lib).to_bits(),
            out.area_um2.to_bits(),
            "{what}"
        );
        out.moves
    }

    #[test]
    fn incremental_sizer_makes_identical_decisions() {
        let lib = nangate45_like();
        let mut engine = TimingEngine::new();
        let mut scratch = SizingScratch::new();
        // Sklansky w16, plus a w64 SA-style mutation chain whose designs
        // are buffered as the flow buffers them before sizing.
        let mut designs = vec![(16, map_adder(&topologies::sklansky(16).to_graph(), &lib))];
        let mut rng = StdRng::seed_from_u64(64);
        let mut grid = topologies::sklansky(64);
        for _ in 0..4 {
            grid = mutate::neighbour(&grid, &mut rng);
            let mut nl = map_adder(&grid.to_graph(), &lib);
            buffer_high_fanout(&mut nl, &lib, 8);
            designs.push((64, nl));
        }
        let mut moves_at = [0usize; 4];
        for (i, (n, nl)) in designs.iter().enumerate() {
            for io in [IoTiming::uniform(*n), IoTiming::datapath_profile(*n, 0.1)] {
                for (k, w) in [0.05, 0.33, 0.66, 0.95].into_iter().enumerate() {
                    let what = format!("design {i} (w{n}), ω={w}, io {:?}", &io.arrival[..2]);
                    moves_at[k] +=
                        assert_identical_sizing(nl, &io, w, &mut engine, &mut scratch, &what);
                }
            }
        }
        // The comparison only means something if the sizer acts.
        assert!(moves_at[3] > moves_at[0], "{moves_at:?}");
    }

    #[test]
    fn path_only_entry_point_matches_resident_sizer() {
        let lib = nangate45_like();
        let io = IoTiming::datapath_profile(32, 0.1);
        let mut a = map_adder(&topologies::kogge_stone(32).to_graph(), &lib);
        let mut b = a.clone();
        let out = size_gates_resident(
            &mut a,
            &lib,
            &io,
            0.66,
            24,
            &mut TimingEngine::new(),
            &mut SizingScratch::new(),
        );
        let (moves, delay_ns) = size_gates_incremental(
            &mut b,
            &lib,
            &io,
            0.66,
            24,
            &mut TimingEngine::new(),
            &mut Vec::new(),
        );
        assert_eq!(
            (out.moves, out.delay_ns.to_bits()),
            (moves, delay_ns.to_bits())
        );
        assert_eq!(a, b);
    }

    #[test]
    fn sizing_never_worsens_weighted_cost() {
        let lib = nangate45_like();
        for w in [0.33, 0.66, 0.95] {
            let mut nl = map_adder(&topologies::brent_kung(16).to_graph(), &lib);
            let io = IoTiming::uniform(16);
            let r0 = analyze(&nl, &lib, &io);
            let score0 = w * 10.0 * r0.delay_ns + (1.0 - w) * nl.area_um2(&lib) / 100.0;
            let (_, r1) = size_gates(&mut nl, &lib, &io, w, 100);
            let score1 = w * 10.0 * r1.delay_ns + (1.0 - w) * nl.area_um2(&lib) / 100.0;
            assert!(score1 <= score0 + 1e-9, "ω={w}: {score0} -> {score1}");
        }
    }
}
