//! Deterministic fan-out of independent work across the persistent pool.
//!
//! Passes that process independent localities (watermark attempt domains,
//! Monte-Carlo input vectors, …) fan them out with [`par_map`]. Results come
//! back **in input order** regardless of the worker count, so serial and
//! parallel runs of a deterministic per-item function are byte-identical.
//!
//! Work runs on the process-wide [`pool`](crate::pool) (started lazily on
//! the first parallel call) instead of freshly spawned scoped threads, so
//! repeated short batches pay no thread-creation cost. Chunk boundaries are
//! still derived from [`Parallelism::worker_count`] alone — never from how
//! many pool threads happen to exist — so outputs are identical whatever
//! the pool's size.
//!
//! [`Parallelism::Auto`] fans out only onto cores no other request is
//! using. Threads running request compute say so with an [`occupy`] guard
//! (serve workers per job, the pool's workers per stolen job), and `Auto`
//! resolves against the hardware threads that no *other* thread holds.

use std::cell::Cell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::pool::run_batch;

/// How much parallelism a pass may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Everything on the calling thread.
    Serial,
    /// One worker per hardware thread that no *other* thread is running
    /// request compute on (see [`occupy`]), and at least one. A lone
    /// request on an idle host fans out across every hardware thread; a
    /// request on a host whose cores all run other requests runs inline.
    #[default]
    Auto,
    /// Exactly this many workers (clamped to at least 1).
    Threads(usize),
}

impl Parallelism {
    /// Resolves the worker count for a workload of `items` independent
    /// pieces; never more workers than items, never fewer than 1.
    ///
    /// [`Parallelism::Auto`] reads the current occupancy, so two calls may
    /// resolve differently; an `Auto` resolution that occupancy cuts to one
    /// worker is counted in [`PoolStats::inline_runs`](crate::PoolStats).
    pub fn worker_count(self, items: usize) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => {
                let hardware = hardware_threads();
                let own_hold = HOLDING.with(Cell::get);
                let n = auto_workers(hardware, OCCUPIED.load(Ordering::Relaxed), own_hold, items);
                if n == 1 && hardware.min(items) > 1 {
                    INLINE_RUNS.fetch_add(1, Ordering::Relaxed);
                }
                n
            }
            Parallelism::Threads(n) => n.min(items).max(1),
        }
    }

    /// Reads the `LOCALWM_THREADS` environment variable: unset or invalid
    /// means [`Parallelism::Auto`], `0` or `1` means [`Parallelism::Serial`],
    /// `n > 1` means [`Parallelism::Threads`]`(n)`.
    pub fn from_env() -> Self {
        match std::env::var("LOCALWM_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(0) | Ok(1) => Parallelism::Serial,
                Ok(n) => Parallelism::Threads(n),
                Err(_) => Parallelism::Auto,
            },
            Err(_) => Parallelism::Auto,
        }
    }
}

/// The [`Parallelism::Auto`] rule: the hardware threads that no other
/// thread occupies (`occupied` minus the caller's own hold), at least one
/// and at most one per item.
fn auto_workers(hardware: usize, occupied: usize, own_hold: bool, items: usize) -> usize {
    let others = occupied.saturating_sub(usize::from(own_hold));
    hardware.saturating_sub(others).min(items).max(1)
}

/// The host's hardware thread count, read once per process. Each
/// `available_parallelism` call re-reads the cgroup CPU quota files (about
/// 30µs on a 2-vCPU Linux guest), which a 64-sample Monte-Carlo run over a
/// 500-op design — 0.25ms of work — cannot afford twice per call.
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Threads currently holding an [`Occupancy`] guard.
static OCCUPIED: AtomicUsize = AtomicUsize::new(0);
/// `Auto` resolutions cut to one worker by other threads' occupancy.
static INLINE_RUNS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread holds an [`Occupancy`] guard.
    static HOLDING: Cell<bool> = const { Cell::new(false) };
}

/// Proof that the calling thread is running request compute; dropping it
/// (also during a panic's unwind) releases the hold. Returned by
/// [`occupy`].
#[must_use = "the hold is released when the guard drops"]
#[derive(Debug)]
pub struct Occupancy {
    /// Whether this guard took the thread's hold (an outer guard on the
    /// same thread already holds it otherwise).
    counted: bool,
    /// The hold belongs to the thread that took it.
    _thread: PhantomData<*const ()>,
}

/// Marks the calling thread as running request compute until the returned
/// guard drops, so [`Parallelism::Auto`] calls on *other* threads leave
/// this core to it. A thread counts once however many guards it nests;
/// its own `Auto` calls do not count its own hold against it.
///
/// ```
/// use localwm_engine::{occupy, pool_stats};
///
/// let before = pool_stats().occupied;
/// let hold = occupy();
/// let nested = occupy(); // same thread: counted once
/// assert_eq!(pool_stats().occupied, before + 1);
/// drop((nested, hold));
/// ```
pub fn occupy() -> Occupancy {
    let counted = !HOLDING.with(|h| h.replace(true));
    if counted {
        OCCUPIED.fetch_add(1, Ordering::Relaxed);
    }
    Occupancy {
        counted,
        _thread: PhantomData,
    }
}

impl Drop for Occupancy {
    fn drop(&mut self) {
        if self.counted {
            HOLDING.with(|h| h.set(false));
            OCCUPIED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// `(occupied, inline_runs)` for [`pool_stats`](crate::pool_stats).
pub(crate) fn occupancy_counts() -> (usize, u64) {
    (
        OCCUPIED.load(Ordering::Relaxed),
        INLINE_RUNS.load(Ordering::Relaxed),
    )
}

/// Maps `f` over `items`, fanning contiguous chunks out across the
/// persistent worker pool. `f` receives `(index, &item)` and results are
/// returned in input order, so any deterministic `f` yields identical
/// output for every [`Parallelism`] choice.
///
/// When the resolved worker count is 1 — [`Parallelism::Serial`], a
/// single-item workload, or [`Parallelism::Auto`] on a single-core host or
/// with every other core occupied — the map runs inline on the calling
/// thread with **no pool interaction** (the pool is not even started).
///
/// # Panics
///
/// Propagates panics from `f` (the first captured payload, after the whole
/// batch has finished).
///
/// ```
/// use localwm_engine::{par_map, Parallelism};
///
/// let squares = par_map(Parallelism::Threads(4), &[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = par.worker_count(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let nchunks = items.len().div_ceil(chunk);
    let mut parts: Vec<Option<Vec<R>>> = Vec::with_capacity(nchunks);
    parts.resize_with(nchunks, || None);
    run_batch(
        parts
            .iter_mut()
            .zip(items.chunks(chunk))
            .enumerate()
            .map(|(ci, (slot, slice))| {
                let f = &f;
                move || {
                    *slot = Some(
                        slice
                            .iter()
                            .enumerate()
                            .map(|(j, t)| f(ci * chunk + j, t))
                            .collect::<Vec<R>>(),
                    );
                }
            }),
    );
    parts
        .into_iter()
        .flat_map(|p| p.expect("batch ran every chunk"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_worker_counts() {
        let items: Vec<u32> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Threads(200),
        ] {
            let got = par_map(par, &items, |_, &x| u64::from(x) * 3 + 1);
            assert_eq!(got, expect, "order broken under {par:?}");
        }
    }

    #[test]
    fn indices_match_positions() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map(Parallelism::Threads(3), &items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u8> = par_map(Parallelism::Auto, &[] as &[u8], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_count_clamps() {
        assert_eq!(Parallelism::Serial.worker_count(100), 1);
        assert_eq!(Parallelism::Threads(0).worker_count(100), 1);
        assert_eq!(Parallelism::Threads(8).worker_count(3), 3);
        assert!(Parallelism::Auto.worker_count(100) >= 1);
    }

    #[test]
    fn auto_rule_leaves_other_threads_their_cores() {
        // (hardware threads, occupied, own hold, items) -> workers
        let table = [
            // Nothing held: one worker per hardware thread, as before.
            ((1, 0, false, 100), 1),
            ((2, 0, false, 100), 2),
            ((8, 0, false, 100), 8),
            ((8, 0, false, 3), 3),
            ((8, 0, false, 0), 1),
            // The caller's own hold does not count against it.
            ((2, 1, true, 100), 2),
            ((8, 1, true, 5), 5),
            // Other holders take their cores out of the fan-out.
            ((2, 1, false, 100), 1),
            ((2, 2, true, 100), 1),
            ((4, 2, true, 100), 3),
            ((4, 3, false, 100), 1),
            ((8, 3, true, 100), 6),
            // More holders than cores: still one worker, never zero.
            ((2, 5, false, 100), 1),
            ((2, 5, true, 100), 1),
            ((1, 3, true, 1), 1),
        ];
        for ((hw, occupied, own, items), want) in table {
            assert_eq!(
                auto_workers(hw, occupied, own, items),
                want,
                "hw {hw}, occupied {occupied}, own {own}, items {items}"
            );
        }
    }

    #[test]
    fn single_worker_resolution_stays_off_the_pool() {
        // Serial (and Auto on a single-core host) resolves to one worker,
        // which must take the inline path: every call to `f` happens on the
        // calling thread, with no pool hand-off.
        let me = std::thread::current().id();
        let items: Vec<u32> = (0..50).collect();
        let mut modes = vec![Parallelism::Serial, Parallelism::Threads(1)];
        if hardware_threads() == 1 {
            // Single-core host. (On a larger one, `Auto` resolves against
            // the pool workers that sibling tests keep busy, which can
            // change between a probe and the map.)
            modes.push(Parallelism::Auto);
        }
        for par in modes {
            let got = par_map(par, &items, |_, &x| (x + 1, std::thread::current().id()));
            assert!(
                got.iter().all(|&(_, tid)| tid == me),
                "inline path left the calling thread under {par:?}"
            );
        }
    }

    #[test]
    fn panics_propagate_from_pool_workers() {
        let items: Vec<u32> = (0..40).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(Parallelism::Threads(4), &items, |i, _| {
                assert!(i != 17, "seventeen");
                i
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn repeated_batches_reuse_the_pool() {
        // Two parallel calls must not change the pool's thread count (the
        // pool persists), and each queued batch drains completely.
        let items: Vec<u32> = (0..64).collect();
        let a = par_map(Parallelism::Threads(4), &items, |_, &x| u64::from(x) * 2);
        let threads_after_first = crate::pool_stats().threads;
        let b = par_map(Parallelism::Threads(4), &items, |_, &x| u64::from(x) * 2);
        assert_eq!(a, b);
        assert_eq!(crate::pool_stats().threads, threads_after_first);
    }
}
