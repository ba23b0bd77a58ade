//! Synthesis-stage replay: every simulated design is pushed again
//! through the stages `EvalSession::evaluate` runs — legalize, graph
//! build, incremental remap, fanout buffering, gate sizing with
//! incremental STA — each timed on its own, and the resulting PPA must
//! equal the production evaluator's record bit for bit.

use cv_netlist::{Netlist, NetlistBuilder};
use cv_prefix::PrefixGrid;
use cv_sta::TimingEngine;
use cv_synth::{buffer_high_fanout, size_gates_incremental, EvalRecord, Objective, PpaReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Replays `designs` (legalized grids with the records production
/// returned for them, in simulation order) and adds the stage metrics to
/// `layers`.
///
/// # Errors
///
/// Names the first design whose replayed PPA or cost differs.
pub fn replay(
    objective: &Objective,
    designs: &[(PrefixGrid, EvalRecord)],
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let flow = objective.flow();
    let (lib, config) = (flow.library(), flow.config());
    let mut builder = NetlistBuilder::new(flow.kind(), flow.width());
    let mut work = Netlist::new();
    let mut engine = TimingEngine::new();
    let mut path = Vec::new();
    let mut stage = [0.0f64; 5];
    let (mut reused, mut total) = (0usize, 0usize);
    let start = Instant::now();
    for (i, (grid, expected)) in designs.iter().enumerate() {
        let t = Instant::now();
        let legal = if grid.is_legal() {
            grid.clone()
        } else {
            grid.legalized()
        };
        let t1 = Instant::now();
        let graph = legal.to_graph();
        let t2 = Instant::now();
        let stats = builder.remap(&graph);
        work.copy_from(builder.netlist());
        let t3 = Instant::now();
        let buffers = buffer_high_fanout(&mut work, lib, config.max_fanout);
        let t4 = Instant::now();
        let (upsized, delay_ns) = size_gates_incremental(
            &mut work,
            lib,
            &config.io,
            config.delay_weight,
            config.sizing_moves,
            &mut engine,
            &mut path,
        );
        let t5 = Instant::now();
        for (acc, (a, b)) in stage
            .iter_mut()
            .zip([(t, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)])
        {
            *acc += (b - a).as_secs_f64();
        }
        reused += stats.reused_gates;
        total += stats.total_gates;
        let ppa = PpaReport {
            area_um2: work.area_um2(lib),
            delay_ns,
            gate_count: work.gate_count(),
            buffers_inserted: buffers,
            gates_upsized: upsized,
        };
        let cost = objective.cost_params().cost(&ppa);
        if ppa != expected.ppa || cost.to_bits() != expected.cost.to_bits() {
            return Err(format!(
                "stage replay of design {i} gave {ppa:?} (cost {cost}), production gave {:?} (cost {})",
                expected.ppa, expected.cost
            ));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let names = [
        "prefix.legalize_s",
        "prefix.to_graph_s",
        "netlist.remap_s",
        "synth.buffer_s",
        "synth.size_sta_s",
    ];
    for (name, secs) in names.into_iter().zip(stage) {
        layers.insert(name, secs);
    }
    layers.insert(
        "netlist.remap_reuse_ratio",
        reused as f64 / total.max(1) as f64,
    );
    layers.insert("synth.stage_coverage", stage.iter().sum::<f64>() / wall);
    Ok(())
}
