//! Property-based tests for static timing analysis over arbitrary
//! legalized prefix-adder netlists.

use cv_cells::{nangate45_like, CellLibrary, Drive};
use cv_netlist::{map_adder, Netlist};
use cv_prefix::bitvec;
use cv_prefix::PrefixGrid;
use cv_sta::{analyze, critical_gates, IoTiming, TimingEngine, TimingReport};
use proptest::prelude::*;

fn arb_netlist(n: usize) -> impl Strategy<Value = cv_netlist::Netlist> {
    let free = (n - 1) * (n - 2) / 2;
    prop::collection::vec(any::<bool>(), free).prop_map(move |bits| {
        let grid = bitvec::decode_bits(n, &bits)
            .expect("length matches")
            .legalized();
        map_adder(&grid.to_graph(), &nangate45_like())
    })
}

/// The engine's whole observable state as bits: every arrival and load,
/// the delay, the critical output and the critical path.
fn engine_bits(engine: &TimingEngine, nl: &Netlist) -> Vec<u64> {
    let loads = (0..nl.net_count()).map(|n| engine.load_ff(n)).collect();
    report_bits(&engine.report(nl), loads)
}

/// [`engine_bits`] of a from-scratch `analyze` and `net_loads_ff`.
fn full_bits(nl: &Netlist, lib: &CellLibrary, io: &IoTiming) -> Vec<u64> {
    report_bits(&analyze(nl, lib, io), nl.net_loads_ff(lib))
}

fn report_bits(r: &TimingReport, loads: Vec<f64>) -> Vec<u64> {
    let mut bits: Vec<u64> = r.net_arrival_ns.iter().map(|a| a.to_bits()).collect();
    bits.extend(loads.iter().map(|l| l.to_bits()));
    bits.push(r.delay_ns.to_bits());
    bits.push(r.critical_output_bit as u64);
    for step in &r.critical_path {
        bits.push(step.gate.map_or(u64::MAX, |g| g as u64));
        bits.push(step.arrival_ns.to_bits());
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trial_revert_restores_the_exact_state(
        nl in arb_netlist(10),
        skew in 0.0f64..0.3,
        ops in prop::collection::vec((0u8..4, 0usize..256, 0usize..3, 0.0f64..0.4), 1..40),
    ) {
        // Random trials (`set_drive` + `revert`) interleaved with
        // committed resizes and input-arrival edits: after every step
        // the engine equals a fresh full pass, and every revert lands on
        // the pre-trial state bit for bit.
        let lib = nangate45_like();
        let mut io = IoTiming::datapath_profile(10, skew);
        let mut nl = nl;
        let mut engine = TimingEngine::new();
        engine.rebuild(&nl, &lib, &io);
        for (kind, pick, drive, at) in ops {
            let gid = pick % nl.gate_count();
            let drive = Drive::ALL[drive];
            match kind {
                0 | 1 => {
                    let (before_nl, before) = (nl.clone(), engine_bits(&engine, &nl));
                    engine.set_drive(&mut nl, &lib, gid, drive);
                    prop_assert_eq!(engine_bits(&engine, &nl), full_bits(&nl, &lib, &io));
                    engine.revert(&mut nl);
                    prop_assert_eq!(&nl, &before_nl);
                    prop_assert_eq!(engine_bits(&engine, &nl), before);
                    // Nothing left to undo: a second revert is a no-op.
                    engine.revert(&mut nl);
                    prop_assert_eq!(&nl, &before_nl);
                }
                2 => engine.set_drive(&mut nl, &lib, gid, drive),
                _ => {
                    let bit = pick % 10;
                    engine.set_input_arrival(&nl, &lib, bit, at);
                    io.arrival[bit] = at;
                    // An IO edit leaves nothing to undo.
                    engine.revert(&mut nl);
                }
            }
            prop_assert_eq!(engine_bits(&engine, &nl), full_bits(&nl, &lib, &io));
        }
    }

    #[test]
    fn sta_total_and_positive(nl in arb_netlist(10)) {
        let lib = nangate45_like();
        let r = analyze(&nl, &lib, &IoTiming::uniform(10));
        prop_assert!(r.delay_ns.is_finite() && r.delay_ns > 0.0);
        prop_assert!(!r.critical_path.is_empty());
    }

    #[test]
    fn critical_path_arrivals_monotone(nl in arb_netlist(10)) {
        let lib = nangate45_like();
        let r = analyze(&nl, &lib, &IoTiming::uniform(10));
        for w in r.critical_path.windows(2) {
            prop_assert!(w[0].arrival_ns <= w[1].arrival_ns + 1e-12);
        }
    }

    #[test]
    fn delaying_any_input_never_speeds_up(nl in arb_netlist(10), bit in 0usize..10, extra in 0.01f64..0.5) {
        let lib = nangate45_like();
        let base = analyze(&nl, &lib, &IoTiming::uniform(10)).delay_ns;
        let mut io = IoTiming::uniform(10);
        io.arrival[bit] += extra;
        let skewed = analyze(&nl, &lib, &io).delay_ns;
        prop_assert!(skewed >= base - 1e-12, "{skewed} vs {base}");
    }

    #[test]
    fn upsizing_every_gate_never_increases_delay_under_light_load(nl in arb_netlist(10)) {
        // Upsizing *all* gates uniformly cuts every drive resistance in
        // half while doubling input caps; with the wire floor this is a
        // net win for the worst path in these small netlists.
        let lib = nangate45_like();
        let base = analyze(&nl, &lib, &IoTiming::uniform(10)).delay_ns;
        let mut big = nl.clone();
        for gid in 0..big.gate_count() {
            big.set_drive(gid, Drive::X4);
        }
        let upsized = analyze(&big, &lib, &IoTiming::uniform(10)).delay_ns;
        prop_assert!(upsized <= base * 1.05, "{upsized} vs {base}");
    }

    #[test]
    fn critical_gates_are_real_gates(nl in arb_netlist(10)) {
        let lib = nangate45_like();
        let r = analyze(&nl, &lib, &IoTiming::uniform(10));
        for gid in critical_gates(&r) {
            prop_assert!(gid < nl.gate_count());
        }
    }

    #[test]
    fn engine_rebuild_matches_analyze_bitwise(nl in arb_netlist(10), skew in 0.0f64..0.3) {
        let lib = nangate45_like();
        let io = IoTiming::datapath_profile(10, skew);
        let full = analyze(&nl, &lib, &io);
        let mut engine = TimingEngine::new();
        engine.rebuild(&nl, &lib, &io);
        let delta = engine.report(&nl);
        prop_assert_eq!(full.delay_ns.to_bits(), delta.delay_ns.to_bits());
        for (a, b) in full.net_arrival_ns.iter().zip(&delta.net_arrival_ns) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(full.critical_path, delta.critical_path);
    }

    #[test]
    fn delta_sta_raising_any_arrival_never_speeds_up(
        nl in arb_netlist(10),
        bit in 0usize..10,
        extra in 0.01f64..0.5,
    ) {
        // The incremental-engine counterpart of
        // `delaying_any_input_never_speeds_up`: the *same* resident
        // engine, edited in place, must stay monotone — and bitwise
        // equal to a full pass under the edited IO profile.
        let lib = nangate45_like();
        let mut io = IoTiming::uniform(10);
        let mut engine = TimingEngine::new();
        engine.rebuild(&nl, &lib, &io);
        let base = engine.delay(&nl).delay_ns;
        engine.set_input_arrival(&nl, &lib, bit, io.arrival[bit] + extra);
        let skewed = engine.delay(&nl).delay_ns;
        prop_assert!(skewed >= base - 1e-12, "{} vs {}", skewed, base);
        io.arrival[bit] += extra;
        let full = analyze(&nl, &lib, &io);
        prop_assert_eq!(full.delay_ns.to_bits(), skewed.to_bits());
    }

    #[test]
    fn engine_resize_matches_full_reanalysis(nl in arb_netlist(10), seed_gate in 0usize..64) {
        let lib = nangate45_like();
        let io = IoTiming::uniform(10);
        let mut resized = nl.clone();
        let mut engine = TimingEngine::new();
        engine.rebuild(&resized, &lib, &io);
        let gid = seed_gate % resized.gate_count();
        engine.set_drive(&mut resized, &lib, gid, Drive::X4);
        let full = analyze(&resized, &lib, &io);
        prop_assert_eq!(full.delay_ns.to_bits(), engine.delay(&resized).delay_ns.to_bits());
        for (a, b) in full.net_arrival_ns.iter().enumerate() {
            prop_assert_eq!(b.to_bits(), engine.arrival(a).to_bits());
        }
    }
}

#[test]
fn deeper_grids_time_slower_end_to_end() {
    // Cross-check STA against structure on the two extreme topologies.
    let lib = nangate45_like();
    let rip = map_adder(&PrefixGrid::ripple(16).to_graph(), &lib);
    let sk = map_adder(&cv_prefix::topologies::sklansky(16).to_graph(), &lib);
    let r1 = analyze(&rip, &lib, &IoTiming::uniform(16)).delay_ns;
    let r2 = analyze(&sk, &lib, &IoTiming::uniform(16)).delay_ns;
    assert!(r1 > r2);
}
