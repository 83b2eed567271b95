//! The solve path does no floating-point arithmetic on the payload of
//! an absent `Option<f64>`.
//!
//! `EnergyModel::Continuous { s_max: None }` leaves the eight bytes
//! where `Some` keeps its value undefined, and a model decoded off
//! the wire usually leaves a pointer- or integer-like pattern there,
//! which reads as a subnormal double. Code such as
//! `s_max.is_none_or(|m| s <= m * k)` compiles without a branch in a
//! release build: the multiply runs on the payload whether or not the
//! cap is present, and every multiply of a subnormal operand takes a
//! microcode assist (tens of nanoseconds instead of one). A per-task
//! loop then costs several times its clean price, with every verdict
//! still right, so no functional test can see it.
//!
//! These tests see it through MXCSR's sticky DE (denormal-operand)
//! flag: clear it, run a solve and its validation on a model whose
//! payload bytes are planted with a subnormal pattern, and assert the
//! flag stays clear. The speculation only exists in optimized code,
//! so the guard bites under `cargo test --release`; the dev profile
//! branches and passes either way.
#![cfg(target_arch = "x86_64")]

use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim::core::engine::{Engine, PreparedGraph};
use reclaim::models::{DiscreteModes, EnergyModel, IncrementalModes, PowerLaw, Schedule};
use reclaim::service::proto::{Request, RequestEnvelope};
use reclaim::taskgraph::{generators, TaskGraph};
use std::arch::asm;

/// MXCSR's denormal-operand flag: sticky, set by any SSE instruction
/// that reads a subnormal operand.
const DE: u32 = 1 << 1;

fn read_mxcsr() -> u32 {
    let mut csr = 0u32;
    // SAFETY: stores the 32-bit MXCSR into a local.
    unsafe { asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack, preserves_flags)) };
    csr
}

fn write_mxcsr(csr: u32) {
    // SAFETY: reloads MXCSR from a value read off it with only the DE
    // flag cleared; rounding, masks and DAZ/FTZ are left as they were.
    unsafe { asm!("ldmxcsr [{}]", in(reg) &csr, options(nostack, readonly, preserves_flags)) };
}

/// Run `f` with the DE flag cleared and report whether it came back
/// set (`black_box` keeps `f`'s work ahead of the second read). MXCSR
/// is per thread, so `f` must not fan out.
fn reads_subnormal<R>(f: impl FnOnce() -> R) -> (R, bool) {
    write_mxcsr(read_mxcsr() & !DE);
    let r = std::hint::black_box(f());
    (r, read_mxcsr() & DE != 0)
}

/// A user-space pointer: exponent bits all zero, so a subnormal double.
const GARBAGE: u64 = 0x0000_7f3a_1c00_4e10;

/// Write a subnormal pattern into the bytes where `Some` keeps the cap
/// of `model`, an unbounded Continuous model, as a decoder can leave
/// them. The offset is read off a capped model, not assumed.
fn plant_garbage(model: &mut EnergyModel) {
    assert!(f64::from_bits(GARBAGE).is_subnormal());
    let capped = EnergyModel::continuous(1.0);
    let EnergyModel::Continuous { s_max: Some(cap) } = &capped else {
        unreachable!("a capped Continuous model holds its cap");
    };
    let offset = std::ptr::from_ref(cap) as usize - std::ptr::from_ref(&capped) as usize;
    assert_eq!(*model, EnergyModel::Continuous { s_max: None });
    // SAFETY: the eight bytes at `offset` lie inside an `EnergyModel`
    // (they hold `capped`'s cap). In `model` they are the unused
    // payload of `None`, not a discriminant, so any bit pattern leaves
    // the value `None`, as checked below.
    unsafe {
        std::ptr::from_mut(model)
            .cast::<u8>()
            .add(offset)
            .cast::<u64>()
            .write_unaligned(GARBAGE);
    }
    assert_eq!(*model, EnergyModel::Continuous { s_max: None });
}

/// One graph of each shape the Continuous dispatch tells apart, with a
/// feasible deadline: the four closed forms and the numerical solve.
fn shapes() -> Vec<(&'static str, TaskGraph, f64)> {
    let mut rng = StdRng::seed_from_u64(31);
    let (sp, _) = generators::random_sp(200, 0.5, 1.0, 4.0, &mut rng);
    let tree = generators::random_out_tree(200, 1.0, 4.0, &mut rng);
    let chain = generators::chain(&generators::random_weights(200, 1.0, 4.0, &mut rng));
    let fork = generators::fork(2.0, &generators::random_weights(199, 1.0, 4.0, &mut rng));
    let general = generators::layered_dag(6, 5, 0.4, 1.0, 4.0, &mut rng);
    vec![
        ("series-parallel", sp, 150.0),
        ("out-tree", tree, 150.0),
        ("chain", chain, 600.0),
        ("fork", fork, 10.0),
        ("general", general, 40.0),
    ]
}

#[test]
fn absent_cap_is_never_an_operand() {
    let mut model = EnergyModel::continuous_unbounded();
    plant_garbage(&mut model);
    let engine = Engine::new(PowerLaw::CUBIC);
    for (shape, g, deadline) in shapes() {
        let prep = PreparedGraph::new(&g);
        prep.warm();
        let (sol, dirty) = reads_subnormal(|| engine.solve(&prep, &model, deadline));
        let sol = sol.unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert!(
            !dirty,
            "{shape}: the unbounded solve read a subnormal operand"
        );
        let speeds = sol.schedule.constant_speeds().expect("constant speeds");
        let schedule = Schedule::asap_from_speeds(&g, &speeds);
        let (verdict, dirty) = reads_subnormal(|| schedule.validate(&g, &model, deadline));
        verdict.unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert!(!dirty, "{shape}: validation read a subnormal operand");
        let (curve, dirty) = reads_subnormal(|| engine.energy_curve_exact(&prep, &model, 1.0, 4.0));
        curve.unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert!(!dirty, "{shape}: the exact curve read a subnormal operand");
    }
}

#[test]
fn a_decoded_frame_solves_clean() {
    let mut rng = StdRng::seed_from_u64(32);
    let (graph, _) = generators::random_sp(300, 0.5, 1.0, 4.0, &mut rng);
    let frame = RequestEnvelope::new(
        7,
        Request::Solve {
            graph,
            model: EnergyModel::continuous_unbounded(),
            deadline: 200.0,
        },
    )
    .encode();
    let Request::Solve {
        graph,
        model,
        deadline,
    } = RequestEnvelope::decode(&frame).unwrap().request
    else {
        panic!("a solve frame decodes to a solve");
    };
    let prep = PreparedGraph::new(&graph);
    prep.warm();
    let engine = Engine::new(PowerLaw::CUBIC);
    let (sol, dirty) = reads_subnormal(|| engine.solve(&prep, &model, deadline));
    sol.unwrap();
    assert!(!dirty, "solving a decoded frame read a subnormal operand");
}

#[test]
fn every_model_solves_clean() {
    let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
    let models = [
        EnergyModel::continuous(2.0),
        EnergyModel::VddHopping(modes.clone()),
        EnergyModel::Discrete(modes),
        EnergyModel::Incremental(IncrementalModes::new(0.5, 2.0, 0.25).unwrap()),
    ];
    let graphs = [
        generators::diamond([1.0, 2.0, 3.0, 1.5]),
        generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5),
        // Interleaved precedence: not series–parallel.
        TaskGraph::new(
            vec![1.0, 2.0, 1.5, 1.0],
            &[(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)],
        )
        .unwrap(),
    ];
    let engine = Engine::new(PowerLaw::CUBIC);
    for g in &graphs {
        let prep = PreparedGraph::new(g);
        prep.warm();
        let deadline = 1.5 * prep.critical_path_weight();
        for model in &models {
            let (sol, dirty) = reads_subnormal(|| engine.solve(&prep, model, deadline));
            sol.unwrap_or_else(|e| panic!("{model} on {} tasks: {e}", g.n()));
            assert!(
                !dirty,
                "{model} on {} tasks read a subnormal operand",
                g.n()
            );
        }
    }
}
