//! Snapshot round-trip properties: capture → restore → re-capture must be
//! bit-identical on every engine tier, fault-free resumes must reconverge at
//! every fence, a snapshot must restore on any engine exactly as on the one
//! that captured it, and an out-of-range snapshot must refuse to restore —
//! the invariants `crate::snapshot` documents, checked over
//! property-generated kernels and launch geometries.

use hauberk_kir::builder::KernelBuilder;
use hauberk_kir::{BinOp, Expr, KernelDef, PrimTy, Ty, Value};
use hauberk_sim::{
    Device, DeviceConfig, ExecEngine, Launch, LaunchOutcome, NullRuntime, Snapshot, SnapshotError,
    Spliced,
};
use proptest::prelude::*;

const ENGINES: [ExecEngine; 3] = [
    ExecEngine::TreeWalk,
    ExecEngine::Bytecode,
    ExecEngine::Batch,
];

/// Recipe for one generated kernel: loop trip count, accumulator coefficient
/// selector, and whether a divergent guard runs inside the loop.
#[derive(Debug, Clone)]
struct GenKernel {
    trip: u8,
    coeff: u8,
    guarded: bool,
}

fn gen_kernel() -> impl Strategy<Value = GenKernel> {
    (1u8..12, 0u8..4, any::<bool>()).prop_map(|(trip, coeff, guarded)| GenKernel {
        trip,
        coeff,
        guarded,
    })
}

/// Materialize the recipe: `out[tid] = sum over the loop of scaled input
/// reads`, with an optional thread-divergent guard so warp reconvergence is
/// exercised too.
fn materialize(g: &GenKernel) -> KernelDef {
    let mut b = KernelBuilder::new("snapshot_prop");
    let out = b.param("out", Ty::global_ptr(PrimTy::F32));
    let inp = b.param("inp", Ty::global_ptr(PrimTy::F32));
    let n = b.param("n", Ty::I32);
    let tid = b.local("tid", Ty::I32);
    b.assign(tid, b.global_thread_id_x());
    let acc = b.let_("acc", Ty::F32, Expr::f32(0.25 * (g.coeff + 1) as f32));
    let it = b.local("it", Ty::I32);
    let guarded = g.guarded;
    b.for_range(it, Expr::var(n), |b| {
        b.assign(
            acc,
            Expr::add(
                Expr::var(acc),
                Expr::mul(
                    Expr::load(
                        Expr::var(inp),
                        Expr::bin(
                            BinOp::Rem,
                            Expr::add(Expr::var(tid), Expr::var(it)),
                            Expr::i32(64),
                        ),
                    ),
                    Expr::f32(0.125),
                ),
            ),
        );
        if guarded {
            b.if_(
                Expr::lt(
                    Expr::bin(BinOp::Rem, Expr::var(tid), Expr::i32(3)),
                    Expr::i32(1),
                ),
                |b| {
                    b.assign(acc, Expr::mul(Expr::var(acc), Expr::f32(1.0625)));
                },
            );
        }
    });
    b.store(Expr::var(out), Expr::var(tid), Expr::var(acc));
    b.finish()
}

struct Setup {
    dev: Device,
    args: Vec<Value>,
    out: hauberk_kir::PtrVal,
    elems: u32,
}

/// Fresh device + buffers for one run of the generated kernel.
fn setup(engine: ExecEngine, g: &GenKernel, launch: &Launch) -> Setup {
    let mut config = DeviceConfig::small_gpu();
    config.engine = engine;
    let mut dev = Device::new(config);
    let elems = launch.total_blocks() * launch.threads_per_block();
    let out = dev.alloc(PrimTy::F32, elems);
    let inp = dev.alloc(PrimTy::F32, 64);
    let data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.31).cos() * 2.0).collect();
    dev.mem.copy_in_f32(inp, &data);
    let args = vec![Value::Ptr(out), Value::Ptr(inp), Value::I32(g.trip as i32)];
    Setup {
        dev,
        args,
        out,
        elems,
    }
}

fn out_bits(s: &Setup) -> Vec<u32> {
    s.dev
        .mem
        .copy_out_f32(s.out, s.elems)
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Everything observable about one restore of `snap` on `engine`: the
/// splice verdict (reconverged work cycles, or the launch outcome with its
/// stats) and the output memory bits. `fence: None` restores to completion
/// with `resume_launch`; `Some((fence, fp))` splices with `resume_spliced`.
fn restore_on(
    engine: ExecEngine,
    g: &GenKernel,
    kernel: &hauberk_kir::KernelDef,
    launch: &Launch,
    snap: &Snapshot,
    fence: Option<(u32, u64)>,
) -> (Result<u64, LaunchOutcome>, Vec<u32>) {
    let mut s = setup(engine, g, launch);
    let (dev, args) = (&mut s.dev, &s.args);
    let verdict = match fence {
        None => Err(dev
            .resume_launch(kernel, args, launch, &mut NullRuntime, snap)
            .expect("in-range restore")),
        Some((f, fp)) => {
            match dev
                .resume_spliced(kernel, args, launch, &mut NullRuntime, snap, f, fp)
                .expect("in-range restore")
            {
                Spliced::Reconverged { executed_cycles } => Ok(executed_cycles),
                Spliced::Ran(out) => Err(out),
            }
        }
    };
    (verdict, out_bits(&s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Capture is deterministic (two capture passes produce bit-identical
    /// snapshots and fences) and every snapshot restores bit-exactly: the
    /// resumed run's outcome and output memory equal the plain launch's, on
    /// all three engines.
    #[test]
    fn capture_restore_capture_is_bit_identical(
        g in gen_kernel(),
        blocks in 2u32..5,
        tpb_sel in 0usize..3,
    ) {
        let tpb = [8u32, 16, 32][tpb_sel];
        let launch = Launch::grid1d(blocks, tpb).with_budget(400_000);
        let boundaries: Vec<u32> = (0..=blocks).collect();
        let fences: Vec<u32> = (1..blocks).collect();
        let kernel = materialize(&g);
        for engine in ENGINES {
            // Plain launch: the reference observable.
            let mut plain = setup(engine, &g, &launch);
            let ref_outcome = plain
                .dev
                .launch(&kernel, &plain.args, &launch, &mut NullRuntime);
            let ref_bits = out_bits(&plain);

            // Two independent capture passes must agree bit-for-bit.
            let mut c1 = setup(engine, &g, &launch);
            let cap = c1.dev.capture_launch(
                &kernel, &c1.args, &launch, &mut NullRuntime, &boundaries, &fences,
            );
            let mut c2 = setup(engine, &g, &launch);
            let cap2 = c2.dev.capture_launch(
                &kernel, &c2.args, &launch, &mut NullRuntime, &boundaries, &fences,
            );
            prop_assert_eq!(&cap.outcome, &ref_outcome);
            prop_assert_eq!(&cap.snapshots, &cap2.snapshots);
            prop_assert_eq!(&cap.fences, &cap2.fences);
            prop_assert_eq!(cap.snapshots.len(), boundaries.len());
            prop_assert_eq!(out_bits(&c1), ref_bits.clone());

            // Every boundary restores bit-exactly.
            for (b, snap) in &cap.snapshots {
                let mut resumed = setup(engine, &g, &launch);
                let outcome = resumed
                    .dev
                    .resume_launch(&kernel, &resumed.args, &launch, &mut NullRuntime, snap)
                    .expect("same-engine in-range restore");
                prop_assert_eq!(&outcome, &ref_outcome, "boundary {}", b);
                prop_assert_eq!(out_bits(&resumed), ref_bits.clone(), "boundary {}", b);
            }
        }
    }

    /// A fault-free resume reconverges at every fence: restoring boundary
    /// `b` and running to fence `b + 1` reproduces the reference fingerprint
    /// exactly, so the run splices instead of executing the tail.
    #[test]
    fn fault_free_resume_reconverges_at_every_fence(
        g in gen_kernel(),
        blocks in 2u32..5,
    ) {
        let launch = Launch::grid1d(blocks, 16).with_budget(400_000);
        let boundaries: Vec<u32> = (0..blocks).collect();
        let fences: Vec<u32> = (1..blocks).collect();
        let kernel = materialize(&g);
        for engine in ENGINES {
            let mut c = setup(engine, &g, &launch);
            let cap = c.dev.capture_launch(
                &kernel, &c.args, &launch, &mut NullRuntime, &boundaries, &fences,
            );
            prop_assert_eq!(cap.fences.len(), fences.len());
            for (fence, expected_fp) in &cap.fences {
                let snap = &cap
                    .snapshots
                    .iter()
                    .find(|(b, _)| *b + 1 == *fence)
                    .expect("boundary below fence")
                    .1;
                let mut resumed = setup(engine, &g, &launch);
                let run = resumed
                    .dev
                    .resume_spliced(
                        &kernel,
                        &resumed.args,
                        &launch,
                        &mut NullRuntime,
                        snap,
                        *fence,
                        *expected_fp,
                    )
                    .expect("same-engine in-range restore");
                prop_assert!(
                    matches!(run, Spliced::Reconverged { .. }),
                    "fault-free resume must reconverge at fence {}",
                    fence
                );
            }
        }
    }

    /// Snapshots are engine-neutral: a snapshot captured on engine A and
    /// restored on engine B — to completion (`resume_launch`) or up to a
    /// fence (`resume_spliced`) — gives the same outcome, output bits, stats
    /// and fence reconvergence as the same restore on A, for every ordered
    /// engine pair.
    #[test]
    fn cross_engine_restore_matches_capturing_engine(
        g in gen_kernel(),
        blocks in 2u32..5,
    ) {
        let launch = Launch::grid1d(blocks, 16).with_budget(400_000);
        let boundaries: Vec<u32> = (0..blocks).collect();
        let fences: Vec<u32> = (1..blocks).collect();
        let kernel = materialize(&g);
        for src in ENGINES {
            let mut c = setup(src, &g, &launch);
            let cap = c.dev.capture_launch(
                &kernel, &c.args, &launch, &mut NullRuntime, &boundaries, &fences,
            );
            for (b, snap) in &cap.snapshots {
                // Restore to completion, and splice at the fence right after
                // `b` where there is one.
                let next = cap.fences.iter().find(|(f, _)| *f == b + 1).copied();
                for fence in std::iter::once(None).chain(next.map(Some)) {
                    let home = restore_on(src, &g, &kernel, &launch, snap, fence);
                    if fence.is_some() {
                        prop_assert!(home.0.is_ok(), "fault-free restore reconverges");
                    }
                    for dst in ENGINES {
                        let away = restore_on(dst, &g, &kernel, &launch, snap, fence);
                        prop_assert_eq!(
                            &away, &home,
                            "{} -> {} at boundary {}, fence {:?}",
                            src.name(), dst.name(), b, fence
                        );
                    }
                }
            }
        }
    }
}

/// A snapshot whose resume point lies beyond the launch grid is a typed
/// refusal, not a silent truncation.
#[test]
fn out_of_range_restore_is_rejected() {
    let g = GenKernel {
        trip: 4,
        coeff: 0,
        guarded: false,
    };
    let big = Launch::grid1d(4, 16).with_budget(400_000);
    let small = Launch::grid1d(2, 16).with_budget(400_000);
    let kernel = materialize(&g);
    let mut c = setup(ExecEngine::Bytecode, &g, &big);
    let cap = c
        .dev
        .capture_launch(&kernel, &c.args, &big, &mut NullRuntime, &[3], &[]);
    let snap = &cap.snapshots[0].1;
    let mut other = setup(ExecEngine::Bytecode, &g, &small);
    let err = other
        .dev
        .resume_launch(&kernel, &other.args, &small, &mut NullRuntime, snap)
        .expect_err("restore beyond the grid must be refused");
    assert_eq!(
        err,
        SnapshotError::BlockOutOfRange {
            next_block: 3,
            total_blocks: 2,
        }
    );
}
