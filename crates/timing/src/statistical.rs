//! Statistical timing: Monte-Carlo criticality under bounded delays.
//!
//! The interval analysis of [`localwm_engine::bounded_arrival`] brackets the
//! true critical path; this module refines it with sampling: draw delay
//! assignments consistent with a [`DelayBounds`] model, time each sample,
//! and report per-node *criticality probabilities* (how often a node lies
//! on a zero-slack path) plus the sampled circuit-delay distribution.
//!
//! Each input vector (sample) is timed with its **own** per-sample RNG seed
//! derived from the run seed and the sample index, so the result is
//! independent of how samples are fanned out across worker threads: serial
//! and parallel sweeps are byte-identical.
//!
//! # The 8-lane kernel
//!
//! Samples are independent, so the sweep times them eight at a time in a
//! structure-of-arrays layout ([`soa_sweep`]): every per-node quantity
//! (delay draw, finish time, tail length) is a `[u64; 8]` row, and the
//! forward/backward passes walk the memoized CSR once per *block* doing
//! branch-free `max`/`add` over whole rows with a compile-time trip count,
//! which LLVM unrolls fully (and vectorizes on targets with 64-bit vector
//! compares). A run whose sample count 8 does not divide ends with one
//! short block whose dead lanes the hit count masks off and the sinks skip.
//!
//! Delays come from a per-run **draw plan** ([`Draw`]), resolved once per
//! node from its interval: a fixed interval draws nothing, a power-of-two
//! bound masks one word, any other bound runs Lemire's multiply-and-reject
//! with its threshold precomputed, and the full `u64` span takes the raw
//! word. That reproduces `gen_range(lo..=hi)` word for word while taking
//! the per-draw 64-bit divide (`bound.wrapping_neg() % bound`) out of the
//! loop. Draws fill a block node by node across eight lane generators, so
//! the eight independent xoshiro streams overlap in the pipeline.
//!
//! Determinism is untouched because the lanes never interact: lane `j` of
//! a block starting at sample `s0` draws from `sample_seed(seed, s0 + j)`
//! in node-index order — the exact RNG stream of the historical one-sample
//! loop — and integer `max`/`add` have no rounding to reorder. The unit
//! tests pin both halves: the plan against `gen_range`, and the whole
//! kernel against an independent scalar reference.
//!
//! The backward pass caches circuit-independent **tails** (longest delay
//! path strictly below each node) instead of required times; a node is
//! critical iff `finish[v] + tail[v] == circuit`, which equals the
//! push-form `finish == required` test because `required[v] = circuit −
//! tail[v]` (see the proof in [`crate::CriticalityCache`]'s module docs).
//! This is also the form the incremental cache captures, so the cache's
//! from-scratch path reuses this kernel verbatim through a transpose sink.
//! Hits are counted inside the backward pass, as each tail row is
//! finalized, so no separate pass over the rows follows it.
//!
//! # The sampling support
//!
//! The bounded-delay analysis proves most nodes of a wide design can never
//! be critical, and [`criticality_in`] does not time them. Every
//! consistent delay assignment has circuit delay at least `cp.lo` (the
//! all-minimum critical path), and no path through `v` is longer than
//! `finish.hi[v] + tail.hi[v]` (the all-maximum path through it). So the
//! run sweeps only its **support**, the nodes with `finish.hi + tail.hi ≥
//! cp.lo` ([`sampling_support`]): one O(V + E) required-time sweep over
//! the memoized arrival analysis, with slack tolerance `cp.hi − cp.lo`.
//! The forward and backward passes walk the support's topo order through
//! a [restricted](Csr::restrict) CSR pair. Every node still draws its
//! delay, so each lane's stream advances exactly as before.
//!
//! The output cannot change. If `v` is critical in a sample, so is every
//! node of a longest path through it, and all of those are in the
//! support: the restricted `finish`, `tail` and `circuit` along that path
//! equal the full ones, and `v` still counts. If `v` is not critical, the
//! restricted `finish[v] + tail[v]` can only be smaller than the full one,
//! which already fell short of `circuit`. Pruned nodes never count, as
//! they are never critical. The incremental cache's capture sweeps every
//! node through the same kernel, because an edit can move the support.

use std::time::Instant;

use localwm_cdfg::{Cdfg, Csr, NodeId};
use localwm_engine::{par_map, possibly_critical_with_csr, DesignContext, Parallelism};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::{DelayBounds, DelayInterval};

/// Result of a Monte-Carlo timing run.
#[derive(Debug, Clone)]
pub struct CriticalityReport {
    /// Per node: fraction of samples in which it was critical.
    pub criticality: Vec<f64>,
    /// Sampled circuit delays, one per sample (sorted ascending).
    pub delays: Vec<u64>,
    /// Number of samples drawn.
    pub samples: usize,
}

impl CriticalityReport {
    /// Criticality probability of one node.
    pub fn probability(&self, n: NodeId) -> f64 {
        self.criticality[n.index()]
    }

    /// The `q`-quantile of the sampled circuit delay (`q ∈ [0, 1]`).
    ///
    /// Uses the **lower-rank** rule on the sorted sample vector: the result
    /// is `delays[floor((n - 1) · q)]`, the largest sampled delay whose rank
    /// fraction does not exceed `q`. The returned value is always one that
    /// was actually sampled, the mapping is monotone in `q`, `q = 0` is the
    /// minimum, and `q = 1` the maximum.
    ///
    /// # Panics
    ///
    /// Panics if no samples were drawn or `q` is out of range.
    pub fn delay_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        assert!(!self.delays.is_empty(), "no samples drawn");
        let idx = ((self.delays.len() - 1) as f64 * q).floor() as usize;
        self.delays[idx]
    }

    /// Nodes whose criticality probability is at least `threshold`,
    /// ascending by id.
    pub fn critical_above(&self, threshold: f64) -> Vec<NodeId> {
        self.criticality
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p >= threshold)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }
}

/// Samples per block: eight `u64` lanes fill a 512-bit vector, and three
/// `n × 8` scratch rows stay cache-resident for realistic designs.
const LANES: usize = 8;

/// One node's quantity across the eight lanes of a block.
pub(crate) type Row = [u64; LANES];

/// How one node draws its delay, resolved once per run from its interval.
/// [`Draw::sample`] reproduces `StdRng::gen_range(lo..=hi)` word for word
/// (same result, same number of words consumed) without the per-call
/// `bound.wrapping_neg() % bound` divide; a fixed interval draws nothing,
/// which is the kernel's historical skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    /// `lo == hi`: no draw.
    Fixed(u64),
    /// Power-of-two bound: `lo + (word & mask)`.
    Mask { lo: u64, mask: u64 },
    /// Any other bound: Lemire's multiply-and-reject with the rejection
    /// threshold precomputed.
    Lemire { lo: u64, bound: u64, threshold: u64 },
    /// The whole `u64` range: the raw word.
    Full,
}

impl Draw {
    /// The draw plan for one interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty (`lo > hi`), as `gen_range` does.
    fn plan(b: DelayInterval) -> Draw {
        assert!(b.lo <= b.hi, "cannot sample empty range");
        let span = b.hi - b.lo;
        if span == 0 {
            Draw::Fixed(b.lo)
        } else if span == u64::MAX {
            Draw::Full
        } else if (span + 1).is_power_of_two() {
            Draw::Mask {
                lo: b.lo,
                mask: span,
            }
        } else {
            let bound = span + 1;
            Draw::Lemire {
                lo: b.lo,
                bound,
                threshold: bound.wrapping_neg() % bound,
            }
        }
    }

    /// One delay draw from `rng`.
    #[inline]
    fn sample(self, rng: &mut StdRng) -> u64 {
        match self {
            Draw::Fixed(v) => v,
            Draw::Mask { lo, mask } => lo + (rng.next_u64() & mask),
            Draw::Lemire {
                lo,
                bound,
                threshold,
            } => loop {
                let wide = u128::from(rng.next_u64()) * u128::from(bound);
                if wide as u64 >= threshold {
                    break lo + (wide >> 64) as u64;
                }
            },
            Draw::Full => rng.next_u64(),
        }
    }
}

/// One finished block of the sweep, handed to the sink: `k` live lanes
/// (samples `s0 .. s0 + k`) of node-major rows, so quantity `q` of node
/// index `v` in lane `j` sits at `q[v][j]`. Lanes `k ..` of a final short
/// block hold stale but bounded values; sinks skip or mask them off. Only
/// the swept nodes' finish and tail rows are current.
pub(crate) struct SoaBlock<'a> {
    /// Sample index of lane 0.
    pub s0: usize,
    /// Live lanes in this block (`< LANES` only in a final short block).
    pub k: usize,
    /// Delay draws.
    pub d: &'a [Row],
    /// Forward finish times.
    pub finish: &'a [Row],
    /// Tail lengths (longest delay path strictly below the node).
    pub tail: &'a [Row],
    /// Per-lane circuit delay (max finish).
    pub circuit: &'a Row,
}

/// The Monte-Carlo inner loop: times samples `lo .. hi` of the run
/// `(seed, bounds)` in 8-lane blocks, calling `sink` once per block.
/// Single source of truth for the per-sample math — the parallel sweep and
/// the incremental cache's capture both drive it.
///
/// Every node draws its delay (`bounds` covers them all, so each lane's
/// stream advances exactly as in the one-sample loop), but the passes walk
/// only `order` with its CSR pair: the whole graph, or a
/// [restriction](Csr::restrict) of it to the [sampling support](sampling_support).
/// `hits[v]` gains the number of live lanes in which swept node `v` is
/// critical, counted as its tail row is finalized in the backward pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn soa_sweep<F: FnMut(&SoaBlock)>(
    order: &[NodeId],
    preds: &Csr,
    succs: &Csr,
    bounds: &[DelayInterval],
    seed: u64,
    lo: usize,
    hi: usize,
    hits: &mut [u64],
    mut sink: F,
) {
    let n = bounds.len();
    let plan: Vec<Draw> = bounds.iter().map(|&b| Draw::plan(b)).collect();
    let mut d = vec![[0u64; LANES]; n];
    let mut finish = vec![[0u64; LANES]; n];
    let mut tail = vec![[0u64; LANES]; n];
    let mut s = lo;
    while s < hi {
        let k = LANES.min(hi - s);
        // Lane `j` owns the stream of sample `s + j`. Draws go node by
        // node across the lanes, so each stream is still consumed in
        // node-index order — the historical per-sample sequence — while
        // the eight generators advance independently of one another.
        let mut rngs: [StdRng; LANES] =
            std::array::from_fn(|j| StdRng::seed_from_u64(sample_seed(seed, (s + j) as u64)));
        let rngs = &mut rngs[..k];
        for (row, &draw) in d.iter_mut().zip(&plan) {
            if let Draw::Fixed(v) = draw {
                *row = [v; LANES];
            } else {
                for (slot, rng) in row.iter_mut().zip(rngs.iter_mut()) {
                    *slot = draw.sample(rng);
                }
            }
        }
        // Forward: arrivals in topo order, whole lane rows at a time.
        let mut circuit = [0u64; LANES];
        for (p, &v) in order.iter().enumerate() {
            let mut acc = [0u64; LANES];
            for &pi in preds.row(p) {
                let row = &finish[pi as usize];
                for j in 0..LANES {
                    acc[j] = acc[j].max(row[j]);
                }
            }
            let drow = &d[v.index()];
            for j in 0..LANES {
                acc[j] += drow[j];
                circuit[j] = circuit[j].max(acc[j]);
            }
            finish[v.index()] = acc;
        }
        // Backward: tails in reverse topo order (successor rows sit at
        // later positions, already final this block). A node is critical
        // in a lane iff finish + tail reaches that lane's circuit; `live`
        // masks off the dead lanes of a short block.
        let live: Row = std::array::from_fn(|j| u64::from(j < k));
        for (p, &v) in order.iter().enumerate().rev() {
            let mut acc = [0u64; LANES];
            for &si in succs.row(p) {
                let (drow, trow) = (&d[si as usize], &tail[si as usize]);
                for j in 0..LANES {
                    acc[j] = acc[j].max(drow[j] + trow[j]);
                }
            }
            let frow = &finish[v.index()];
            let mut hit = 0u64;
            for j in 0..LANES {
                hit += u64::from(frow[j] + acc[j] == circuit[j]) & live[j];
            }
            hits[v.index()] += hit;
            tail[v.index()] = acc;
        }
        sink(&SoaBlock {
            s0: s,
            k,
            d: &d,
            finish: &finish,
            tail: &tail,
            circuit: &circuit,
        });
        s += k;
    }
}

/// The run's **sampling support** as a per-node mask: every node that can
/// be critical in some delay assignment consistent with `bounds`. A node's
/// path length in any assignment is at most `finish.hi + tail.hi`, and
/// every assignment's circuit delay is at least `cp.lo`, so a node with
/// `finish.hi + tail.hi < cp.lo` is never critical. One O(V + E)
/// required-time sweep over the memoized arrival analysis, with slack
/// tolerance `cp.hi − cp.lo` (see [`possibly_critical_with_csr`]).
pub(crate) fn sampling_support<M: DelayBounds>(
    ctx: &DesignContext,
    model: &M,
    bounds: &[DelayInterval],
) -> Vec<bool> {
    let arr = ctx.bounded_arrival(model);
    let cp = arr.critical_path;
    let mut keep = vec![false; bounds.len()];
    for v in possibly_critical_with_csr(
        ctx.topo(),
        ctx.preds_csr(),
        ctx.succs_csr(),
        bounds,
        &arr,
        cp.hi - cp.lo,
    ) {
        keep[v.index()] = true;
    }
    keep
}

/// Runs `samples` Monte-Carlo timing simulations of `g` under `model`,
/// drawing each node's delay uniformly from its interval.
///
/// Deterministic in `seed` (and independent of thread count — see
/// [`criticality_in`]). `O(samples · (V + E))` work.
///
/// # Panics
///
/// Panics if the graph is cyclic or `samples == 0`.
///
/// ```
/// use localwm_cdfg::designs::iir4_parallel;
/// use localwm_timing::{criticality, KindBounds};
///
/// let g = iir4_parallel();
/// let report = criticality(&g, &KindBounds::uniform(1, 3), 200, 7);
/// let a9 = g.node_by_name("A9").unwrap();
/// assert!(report.probability(a9) > 0.5); // the output add is usually critical
/// ```
pub fn criticality<M: DelayBounds>(
    g: &Cdfg,
    model: &M,
    samples: usize,
    seed: u64,
) -> CriticalityReport {
    criticality_in(
        &DesignContext::from(g),
        model,
        samples,
        seed,
        Parallelism::from_env(),
    )
}

/// [`criticality`] against a shared [`DesignContext`], fanning independent
/// input vectors across scoped worker threads per `par` and timing them
/// through the 8-lane block kernel ([`soa_sweep`]) over the run's sampling
/// support (module docs). Emits the `timing.criticality.samples` and
/// `timing.criticality.support` (nodes swept) probe counters.
///
/// Per-sample seeding makes the output identical for every
/// [`Parallelism`] choice.
///
/// # Panics
///
/// Panics if the graph is cyclic or `samples == 0`.
pub fn criticality_in<M: DelayBounds>(
    ctx: &DesignContext,
    model: &M,
    samples: usize,
    seed: u64,
    par: Parallelism,
) -> CriticalityReport {
    assert!(samples > 0, "at least one sample required");
    let g = ctx.graph();
    let n = g.node_count();
    let bounds: Vec<DelayInterval> = g.node_ids().map(|v| model.bounds(g, v)).collect();
    let probe = ctx.probe();
    probe.counter("timing.criticality.samples", samples as u64);

    // Flat CSR adjacency in topo order, cut down to the nodes that can be
    // critical at all: the rest never reach a sample's circuit delay, and
    // dropping them cannot change a swept node's verdict (module docs).
    let keep = sampling_support(ctx, model, &bounds);
    let order: Vec<NodeId> = ctx
        .topo()
        .iter()
        .copied()
        .filter(|v| keep[v.index()])
        .collect();
    probe.counter("timing.criticality.support", order.len() as u64);
    let preds = ctx.preds_csr().restrict(&keep);
    let succs = ctx.succs_csr().restrict(&keep);

    // Contiguous sample ranges, one per worker; per-sample seeds make the
    // partitioning irrelevant to the result.
    let workers = par.worker_count(samples);
    let chunk = samples.div_ceil(workers);
    let ranges: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * chunk, ((w + 1) * chunk).min(samples)))
        .filter(|&(lo, hi)| lo < hi)
        .collect();

    let sweep_start = Instant::now();
    let parts = par_map(par, &ranges, |_, &(lo, hi)| {
        let mut hits = vec![0u64; n];
        let mut delays = Vec::with_capacity(hi - lo);
        soa_sweep(
            &order,
            &preds,
            &succs,
            &bounds,
            seed,
            lo,
            hi,
            &mut hits,
            |blk| {
                delays.extend_from_slice(&blk.circuit[..blk.k]);
            },
        );
        (hits, delays)
    });
    let sweep_ns = u64::try_from(sweep_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    probe.timer_ns("timing.criticality", sweep_ns);
    probe.counter(
        "timing.criticality.ns_per_sample",
        sweep_ns / samples as u64,
    );

    let mut hits = vec![0u64; n];
    let mut delays = Vec::with_capacity(samples);
    for (part_hits, part_delays) in parts {
        for (h, p) in hits.iter_mut().zip(part_hits) {
            *h += p;
        }
        delays.extend(part_delays);
    }
    delays.sort_unstable();
    CriticalityReport {
        criticality: hits.iter().map(|&h| h as f64 / samples as f64).collect(),
        delays,
        samples,
    }
}

/// SplitMix64 mix of the run seed and a sample index: well-separated
/// per-sample streams that do not depend on work partitioning.
pub(crate) fn sample_seed(seed: u64, index: u64) -> u64 {
    localwm_prng::SplitMix64::mix(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounded_critical_path, DynamicBounds, KindBounds};
    use localwm_cdfg::generators::random_dag;
    use localwm_cdfg::{Cdfg, OpKind};
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn fixed_delays_give_binary_criticality() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not);
        let b = g.add_node(OpKind::Not);
        let c = g.add_node(OpKind::Not); // short side branch
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(x, c).unwrap();
        let r = criticality(&g, &KindBounds::unit(), 50, 1);
        assert_eq!(r.probability(a), 1.0);
        assert_eq!(r.probability(b), 1.0);
        assert_eq!(r.probability(c), 0.0);
    }

    #[test]
    fn sampled_delays_stay_within_the_interval_bounds() {
        let g = random_dag(40, 0.15, 3);
        let model = KindBounds::uniform(1, 4);
        let interval = bounded_critical_path(&g, &model);
        let r = criticality(&g, &model, 300, 9);
        assert!(*r.delays.first().unwrap() >= interval.lo);
        assert!(*r.delays.last().unwrap() <= interval.hi);
        assert!(r.delay_quantile(0.0) <= r.delay_quantile(1.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let g = random_dag(30, 0.2, 5);
        let model = KindBounds::uniform(1, 3);
        let a = criticality(&g, &model, 100, 11);
        let b = criticality(&g, &model, 100, 11);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.criticality, b.criticality);
    }

    #[test]
    fn serial_and_parallel_sweeps_agree_exactly() {
        let g = random_dag(40, 0.15, 13);
        let ctx = DesignContext::from(&g);
        let model = KindBounds::uniform(1, 4);
        let serial = criticality_in(&ctx, &model, 97, 17, Parallelism::Serial);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(5),
            Parallelism::Auto,
        ] {
            let p = criticality_in(&ctx, &model, 97, 17, par);
            assert_eq!(serial.delays, p.delays, "delays differ under {par:?}");
            assert_eq!(
                serial.criticality, p.criticality,
                "criticality differs under {par:?}"
            );
        }
    }

    /// The historical scalar kernel, kept as an independent oracle: one
    /// sample at a time, delays drawn with `gen_range` straight from the
    /// intervals (fixed ones skip their draw), adjacency read off the
    /// graph, and criticality decided in the push form `finish ==
    /// required` rather than through tails.
    fn reference_criticality<M: DelayBounds>(
        ctx: &DesignContext,
        model: &M,
        samples: usize,
        seed: u64,
    ) -> CriticalityReport {
        let g = ctx.graph();
        let n = g.node_count();
        let mut hits = vec![0u64; n];
        let mut delays = Vec::with_capacity(samples);
        for s in 0..samples {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, s as u64));
            let d: Vec<u64> = g
                .node_ids()
                .map(|v| {
                    let b = model.bounds(g, v);
                    if b.lo == b.hi {
                        b.lo
                    } else {
                        rng.gen_range(b.lo..=b.hi)
                    }
                })
                .collect();
            let mut finish = vec![0u64; n];
            for &v in ctx.topo() {
                let arrival = g.preds(v).map(|p| finish[p.index()]).max().unwrap_or(0);
                finish[v.index()] = arrival + d[v.index()];
            }
            let circuit = finish.iter().copied().max().unwrap_or(0);
            let mut required = vec![circuit; n];
            for &v in ctx.topo().iter().rev() {
                if let Some(r) = g.succs(v).map(|x| required[x.index()] - d[x.index()]).min() {
                    required[v.index()] = r;
                }
            }
            for v in 0..n {
                hits[v] += u64::from(finish[v] == required[v]);
            }
            delays.push(circuit);
        }
        delays.sort_unstable();
        CriticalityReport {
            criticality: hits.iter().map(|&h| h as f64 / samples as f64).collect(),
            delays,
            samples,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The 8-lane kernel equals the scalar reference on random CDFGs,
        /// run seeds, and models mixing fixed, power-of-two and rejection
        /// intervals, for every sample count up to 69 — so every 1–7-lane
        /// tail block occurs — serial and threaded.
        #[test]
        fn criticality_equals_scalar_reference(
            n in 5usize..50,
            p in 0.05f64..0.35,
            seed in 0u64..1000,
            run_seed in 0u64..1000,
            samples in 1usize..70,
            lo in 0u64..4,
            width in 0u64..6,
            per_input in 0u64..3,
        ) {
            let ctx = DesignContext::new(random_dag(n, p, seed));
            let model = DynamicBounds::new(KindBounds::uniform(lo, lo + width), per_input);
            let want = reference_criticality(&ctx, &model, samples, run_seed);
            for par in [Parallelism::Serial, Parallelism::Threads(3)] {
                let got = criticality_in(&ctx, &model, samples, run_seed, par);
                prop_assert_eq!(&want.delays, &got.delays, "delays differ under {:?}", par);
                prop_assert_eq!(
                    &want.criticality, &got.criticality,
                    "criticality differs under {:?}", par
                );
            }
        }

        /// Pruning is sound: every node the scalar reference (which times
        /// the whole graph) finds critical in any sample lies in the
        /// sampling support.
        #[test]
        fn sampled_critical_nodes_lie_in_the_support(
            n in 5usize..50,
            p in 0.05f64..0.35,
            seed in 0u64..1000,
            run_seed in 0u64..1000,
            samples in 1usize..70,
            lo in 0u64..4,
            width in 0u64..6,
            per_input in 0u64..3,
        ) {
            let ctx = DesignContext::new(random_dag(n, p, seed));
            let model = DynamicBounds::new(KindBounds::uniform(lo, lo + width), per_input);
            let inside = support_mask(&ctx, &model);
            let want = reference_criticality(&ctx, &model, samples, run_seed);
            for (v, &prob) in want.criticality.iter().enumerate() {
                prop_assert!(prob == 0.0 || inside[v], "node {} critical outside the support", v);
            }
        }
    }

    /// The sampling support of `model` on `ctx`.
    fn support_mask<M: DelayBounds>(ctx: &DesignContext, model: &M) -> Vec<bool> {
        let g = ctx.graph();
        let bounds: Vec<DelayInterval> = g.node_ids().map(|v| model.bounds(g, v)).collect();
        sampling_support(ctx, model, &bounds)
    }

    #[test]
    fn support_contains_the_possibly_critical_set() {
        for seed in 0..8 {
            let ctx = DesignContext::new(random_dag(60, 0.1, seed));
            for model in [KindBounds::uniform(1, 3), KindBounds::uniform(2, 7)] {
                let inside = support_mask(&ctx, &model);
                for v in ctx.possibly_critical(&model) {
                    assert!(inside[v.index()], "possibly critical {v:?} pruned");
                }
            }
        }
    }

    #[test]
    fn support_is_every_node_when_the_lower_bound_is_zero() {
        let ctx = DesignContext::new(random_dag(40, 0.15, 6));
        let model = KindBounds::uniform(0, 3);
        assert_eq!(ctx.bounded_critical_path(&model).lo, 0);
        assert!(support_mask(&ctx, &model).iter().all(|&x| x));
    }

    #[test]
    fn support_is_the_possibly_critical_set_for_zero_width_intervals() {
        for seed in 0..4 {
            let ctx = DesignContext::new(random_dag(40, 0.15, seed));
            let model = KindBounds::uniform(2, 2);
            let want: Vec<bool> = {
                let mut m = vec![false; ctx.graph().node_count()];
                for v in ctx.possibly_critical(&model) {
                    m[v.index()] = true;
                }
                m
            };
            assert_eq!(support_mask(&ctx, &model), want);
            assert!(want.iter().any(|&x| !x), "seed {seed} prunes nothing");
        }
    }

    #[test]
    fn mediabench_sweeps_only_its_support() {
        let g = localwm_cdfg::generators::mediabench(
            &localwm_cdfg::generators::mediabench_apps()[0],
            0,
        );
        let rec = std::sync::Arc::new(localwm_engine::RecordingProbe::new());
        let ctx = DesignContext::new(g).with_probe(rec.clone());
        let _ = criticality_in(&ctx, &KindBounds::uniform(1, 3), 16, 1, Parallelism::Serial);
        assert_eq!(ctx.graph().node_count(), 733);
        assert_eq!(rec.counter_value("timing.criticality.support"), 437);
    }

    #[test]
    fn draw_plan_reproduces_gen_range() {
        let cases = [
            ((5, 5), Draw::Fixed(5)),
            ((0, 7), Draw::Mask { lo: 0, mask: 7 }),
            ((1, 4), Draw::Mask { lo: 1, mask: 3 }),
            (
                (1, 3),
                Draw::Lemire {
                    lo: 1,
                    bound: 3,
                    threshold: 1,
                },
            ),
            (
                (0, 1 << 63),
                Draw::Lemire {
                    lo: 0,
                    bound: (1 << 63) + 1,
                    threshold: (1 << 63) - 1,
                },
            ),
            ((0, u64::MAX), Draw::Full),
        ];
        for ((lo, hi), want) in cases {
            let draw = Draw::plan(DelayInterval { lo, hi });
            assert_eq!(draw, want, "plan for [{lo}, {hi}]");
            let mut planned = StdRng::seed_from_u64(lo ^ hi);
            let mut direct = StdRng::seed_from_u64(lo ^ hi);
            for i in 0..10_000 {
                assert_eq!(
                    draw.sample(&mut planned),
                    direct.gen_range(lo..=hi),
                    "draw {i} from [{lo}, {hi}]"
                );
            }
            if lo == hi {
                // A fixed interval consumes no words at all.
                let fresh = StdRng::seed_from_u64(lo ^ hi).next_u64();
                assert_eq!(planned.next_u64(), fresh, "[{lo}, {hi}] drew a word");
            } else {
                // Same words consumed, rejections included.
                assert_eq!(
                    planned.next_u64(),
                    direct.next_u64(),
                    "[{lo}, {hi}] desynced"
                );
            }
        }
    }

    #[test]
    fn zero_width_intervals_are_exact_and_nan_free() {
        // Every interval has lo == hi (no draws at all) — including the
        // all-zero-delay degenerate where the circuit delay is 0 and
        // *every* node is critical. Probabilities must stay exact
        // (0 or 1), never NaN.
        let g = random_dag(30, 0.2, 3);
        for (lo, hi) in [(2, 2), (0, 0)] {
            let r = criticality(&g, &KindBounds::uniform(lo, hi), 64, 5);
            assert!(r.criticality.iter().all(|p| !p.is_nan()));
            assert!(r.criticality.iter().all(|&p| p == 0.0 || p == 1.0));
            assert!(r.delays.iter().all(|&dl| dl == r.delays[0]));
            if lo == 0 {
                assert!(r.criticality.iter().all(|&p| p == 1.0));
                assert_eq!(r.delays[0], 0);
            }
        }
    }

    #[test]
    fn uncertainty_spreads_criticality() {
        let g = random_dag(50, 0.12, 8);
        let tight = criticality(&g, &KindBounds::unit(), 200, 2);
        let loose = criticality(&g, &KindBounds::uniform(1, 5), 200, 2);
        let count = |r: &CriticalityReport| r.critical_above(0.01).len();
        assert!(
            count(&loose) >= count(&tight),
            "delay uncertainty should widen the sometimes-critical set"
        );
    }

    #[test]
    fn quantile_uses_the_lower_rank_rule() {
        let report = |delays: Vec<u64>| CriticalityReport {
            criticality: Vec::new(),
            samples: delays.len(),
            delays,
        };
        // n = 1: every quantile is the only sample.
        let r1 = report(vec![7]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(r1.delay_quantile(q), 7);
        }
        // n = 2: floor((2 - 1) * 0.5) = 0 — the median is the *lower* of
        // the two samples (nearest-rank rounding would pick the upper).
        let r2 = report(vec![3, 9]);
        assert_eq!(r2.delay_quantile(0.0), 3);
        assert_eq!(r2.delay_quantile(0.5), 3);
        assert_eq!(r2.delay_quantile(1.0), 9);
        // n = 3: floor((3 - 1) * 0.5) = 1 — the exact middle sample.
        let r3 = report(vec![1, 5, 8]);
        assert_eq!(r3.delay_quantile(0.0), 1);
        assert_eq!(r3.delay_quantile(0.5), 5);
        assert_eq!(r3.delay_quantile(1.0), 8);
    }

    #[test]
    fn criticality_reports_per_sample_cost() {
        let g = random_dag(30, 0.2, 4);
        let rec = std::sync::Arc::new(localwm_engine::RecordingProbe::new());
        let ctx = DesignContext::from(&g).with_probe(rec.clone());
        let _ = criticality_in(&ctx, &KindBounds::uniform(1, 3), 25, 3, Parallelism::Serial);
        assert_eq!(rec.counter_value("timing.criticality.samples"), 25);
        let support = support_mask(&ctx, &KindBounds::uniform(1, 3));
        let swept = support.iter().filter(|&&x| x).count() as u64;
        assert_eq!(rec.counter_value("timing.criticality.support"), swept);
        assert!(swept > 0 && swept <= 30);
        assert_eq!(rec.timer_count("timing.criticality"), 1);
        // ns_per_sample (elapsed/samples) is recorded once per run.
        assert!(rec.counter_value("timing.criticality.ns_per_sample") < u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let g = random_dag(5, 0.3, 0);
        let _ = criticality(&g, &KindBounds::unit(), 0, 0);
    }
}
