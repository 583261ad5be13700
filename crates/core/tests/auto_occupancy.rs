//! `Parallelism::Auto` under occupancy held by other threads — isolated in
//! its own test binary because the occupancy count is process-wide, and
//! holds taken here would change how sibling tests' `Auto` calls resolve.
//!
//! Whatever the host's core count, holding guards on other threads may
//! only change how many workers an `Auto` pass uses, never its output.

use std::sync::mpsc;
use std::sync::Barrier;

use localwm_cdfg::generators::{mediabench, mediabench_apps};
use localwm_cdfg::Cdfg;
use localwm_core::{SchedWmConfig, SchedulingWatermarker, Signature};
use localwm_engine::{occupy, pool_stats, DesignContext, DynamicBounds, KindBounds, Parallelism};
use localwm_sched::write_schedule;
use localwm_timing::{criticality_in, CriticalityReport};

fn report_bits(r: &CriticalityReport) -> (Vec<u64>, Vec<u64>, usize) {
    (
        r.criticality.iter().map(|p| p.to_bits()).collect(),
        r.delays.clone(),
        r.samples,
    )
}

/// Runs `f` while `holders` other threads each hold an occupancy guard.
fn with_holders<R>(holders: usize, f: impl FnOnce() -> R) -> R {
    let taken = Barrier::new(holders + 1);
    let (release, released) = mpsc::channel::<()>();
    let released = std::sync::Mutex::new(released);
    std::thread::scope(|s| {
        for _ in 0..holders {
            s.spawn(|| {
                let _hold = occupy();
                taken.wait();
                // Hold until the caller is done (the sender drops).
                let _ = released.lock().expect("release lock").recv();
            });
        }
        taken.wait();
        let out = f();
        drop(release);
        out
    })
}

/// Every pass's answer under `par`, as comparable text.
fn answers(g: &Cdfg, par: Parallelism) -> Vec<String> {
    let ctx = DesignContext::from(g);
    let mut out = Vec::new();
    let kinds = KindBounds::uniform(1, 3);
    out.push(format!(
        "{:?}",
        report_bits(&criticality_in(&ctx, &kinds, 400, 7, par))
    ));
    let dynamic = DynamicBounds::new(KindBounds::uniform(2, 5), 1);
    out.push(format!(
        "{:?}",
        report_bits(&criticality_in(&ctx, &dynamic, 256, 11, par))
    ));
    let wm = SchedulingWatermarker::new(SchedWmConfig::default());
    for author in ["alice", "bob"] {
        let sig = Signature::from_author(author);
        match wm.embed_in(&ctx, &sig, par) {
            Ok(emb) => {
                out.push(format!("{:?}", emb.edges));
                out.push(write_schedule(g, &emb.schedule));
                let ev = wm
                    .detect_in(&emb.schedule, &ctx, &sig, par)
                    .expect("detect after embed");
                out.push(format!(
                    "{:?} {:?} {}",
                    ev.checks,
                    ev.chances.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    ev.log10_pc.to_bits()
                ));
            }
            Err(e) => out.push(format!("{e:?}")),
        }
    }
    out
}

/// Waits (bounded) for pool workers to drop the holds they take per
/// stolen job: a batch's submitter can return just before the worker that
/// ran its last job releases.
fn settled_occupancy() -> usize {
    for _ in 0..1000 {
        let n = pool_stats().occupied;
        if n == 0 {
            return 0;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    pool_stats().occupied
}

/// One test, run in steps: the occupancy count is process-wide, so
/// concurrent tests in this binary would see each other's holds.
#[test]
fn auto_resolves_against_foreign_occupancy_only() {
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(pool_stats().occupied, 0, "nothing held yet");

    // The calling thread's own guard (nested or not) never cuts its own
    // fan-out.
    let unheld = Parallelism::Auto.worker_count(1000);
    assert_eq!(unheld, hardware.min(1000), "idle host: one worker a core");
    let outer = occupy();
    let inner = occupy();
    assert_eq!(pool_stats().occupied, 1, "a thread counts once");
    assert_eq!(Parallelism::Auto.worker_count(1000), unheld);
    drop(inner);
    assert_eq!(pool_stats().occupied, 1, "the outer guard still holds");
    drop(outer);
    assert_eq!(pool_stats().occupied, 0);

    // A panicking holder releases its hold while unwinding.
    let caught = std::thread::spawn(|| {
        let _hold = occupy();
        panic!("handler failed");
    })
    .join();
    assert!(caught.is_err());
    assert_eq!(pool_stats().occupied, 0, "the unwind released the hold");

    // With guards held on other threads, Auto equals Serial byte for
    // byte: no holders, some, exactly the core count, and more.
    let designs = [
        localwm_cdfg::designs::iir4_parallel(),
        mediabench(&mediabench_apps()[0], 0),
    ];
    let serial: Vec<Vec<String>> = designs
        .iter()
        .map(|g| answers(g, Parallelism::Serial))
        .collect();
    for holders in [0, 1, hardware.saturating_sub(1), hardware, hardware + 2] {
        with_holders(holders, || {
            assert!(
                pool_stats().occupied >= holders,
                "{holders} holders counted"
            );
            if holders >= hardware {
                let before = pool_stats().inline_runs;
                assert_eq!(
                    Parallelism::Auto.worker_count(1000),
                    1,
                    "every core held elsewhere: Auto runs inline"
                );
                if hardware > 1 {
                    assert!(pool_stats().inline_runs > before, "inline run counted");
                }
            }
            for (g, want) in designs.iter().zip(&serial) {
                assert_eq!(
                    &answers(g, Parallelism::Auto),
                    want,
                    "Auto with {holders} holders differs from Serial"
                );
            }
        });
    }
    assert_eq!(settled_occupancy(), 0, "every hold released");
}
