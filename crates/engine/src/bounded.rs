//! Interval critical-path analysis under bounded delay models.

use localwm_cdfg::{Cdfg, Csr, NodeId};

use crate::{DelayBounds, DelayInterval};

/// Per-node arrival (finish-time) intervals and the circuit-level critical
/// path interval computed under a bounded delay model.
#[derive(Debug, Clone)]
pub struct BoundedArrival {
    /// Finish-time interval of each node, indexed by `NodeId::index`.
    pub finish: Vec<DelayInterval>,
    /// Interval containing the true critical path for every delay
    /// assignment consistent with the model.
    pub critical_path: DelayInterval,
}

/// Propagates arrival intervals through the DAG.
///
/// For each node, `finish.lo = max over preds(pred.lo) + delay.lo` and
/// `finish.hi = max over preds(pred.hi) + delay.hi`. Under the monotone
/// structure of longest-path propagation the resulting circuit interval is
/// *exact*: both endpoints are achieved by the all-minimum and all-maximum
/// delay assignments respectively, and every intermediate assignment lands
/// inside (a property the test-suite verifies by Monte-Carlo sampling).
///
/// # Panics
///
/// Panics if the graph is cyclic.
///
/// ```
/// use localwm_cdfg::designs::iir4_parallel;
/// use localwm_engine::{bounded_arrival, KindBounds};
///
/// let g = iir4_parallel();
/// let arr = bounded_arrival(&g, &KindBounds::uniform(1, 2));
/// assert_eq!(arr.critical_path.lo, 6);
/// assert_eq!(arr.critical_path.hi, 12);
/// ```
pub fn bounded_arrival<M: DelayBounds + ?Sized>(g: &Cdfg, model: &M) -> BoundedArrival {
    let order = g.topo_order().expect("bounded arrival requires a DAG");
    bounded_arrival_with_order(g, &order, model)
}

/// [`bounded_arrival`] over a precomputed topological order (the memoized
/// [`DesignContext`](crate::DesignContext) path).
pub fn bounded_arrival_with_order<M: DelayBounds + ?Sized>(
    g: &Cdfg,
    order: &[NodeId],
    model: &M,
) -> BoundedArrival {
    let mut finish = vec![DelayInterval::fixed(0); g.node_count()];
    let mut cp = DelayInterval::fixed(0);
    for &u in order {
        let mut in_lo = 0u64;
        let mut in_hi = 0u64;
        for p in g.preds(u) {
            in_lo = in_lo.max(finish[p.index()].lo);
            in_hi = in_hi.max(finish[p.index()].hi);
        }
        let d = model.bounds(g, u);
        let f = DelayInterval::new(in_lo + d.lo, in_hi + d.hi);
        finish[u.index()] = f;
        cp = DelayInterval::new(cp.lo.max(f.lo), cp.hi.max(f.hi));
    }
    BoundedArrival {
        finish,
        critical_path: cp,
    }
}

/// [`bounded_arrival`] over the flat CSR hot path: per-node delay bounds
/// come from a precomputed table and predecessors from a packed
/// [`Csr`](localwm_cdfg::Csr) view, so the sweep touches two flat arrays
/// instead of chasing `EdgeId → Option<Edge>` indirections.
///
/// `order` and `preds` must come from the same topological order (the
/// memoized [`DesignContext`](crate::DesignContext) guarantees this).
/// Produces bit-identical results to [`bounded_arrival_with_order`] with an
/// equivalent model: `max` is insensitive to neighbor enumeration order.
pub fn bounded_arrival_with_csr(
    order: &[NodeId],
    preds: &Csr,
    bounds: &[DelayInterval],
) -> BoundedArrival {
    let mut finish = vec![DelayInterval::fixed(0); order.len()];
    let mut cp = DelayInterval::fixed(0);
    for (p, &u) in order.iter().enumerate() {
        let mut in_lo = 0u64;
        let mut in_hi = 0u64;
        for &pi in preds.row(p) {
            let f = finish[pi as usize];
            in_lo = in_lo.max(f.lo);
            in_hi = in_hi.max(f.hi);
        }
        let d = bounds[u.index()];
        let f = DelayInterval::new(in_lo + d.lo, in_hi + d.hi);
        finish[u.index()] = f;
        cp = DelayInterval::new(cp.lo.max(f.lo), cp.hi.max(f.hi));
    }
    BoundedArrival {
        finish,
        critical_path: cp,
    }
}

/// The circuit critical-path interval under a bounded delay model.
pub fn bounded_critical_path<M: DelayBounds + ?Sized>(g: &Cdfg, model: &M) -> DelayInterval {
    bounded_arrival(g, model).critical_path
}

/// Nodes that are *possibly critical*: nodes whose worst-case slack is zero,
/// i.e. that lie on a path achieving the upper critical-path bound.
///
/// Every node that is critical under **some** consistent delay assignment
/// with circuit delay equal to `critical_path.hi` is included.
pub fn possibly_critical<M: DelayBounds + ?Sized>(g: &Cdfg, model: &M) -> Vec<NodeId> {
    let order = g.topo_order().expect("possibly_critical requires a DAG");
    let arr = bounded_arrival_with_order(g, &order, model);
    possibly_critical_with_arrival(g, &order, model, &arr)
}

/// [`possibly_critical`] over a precomputed topological order and arrival
/// analysis (the memoized [`DesignContext`](crate::DesignContext) path).
pub fn possibly_critical_with_arrival<M: DelayBounds + ?Sized>(
    g: &Cdfg,
    order: &[NodeId],
    model: &M,
    arr: &BoundedArrival,
) -> Vec<NodeId> {
    // Required (latest) finish times under the all-max assignment.
    let mut required = vec![u64::MAX; g.node_count()];
    for &u in order.iter().rev() {
        let r = if g.succs(u).next().is_none() {
            arr.critical_path.hi
        } else {
            required[u.index()]
        };
        required[u.index()] = required[u.index()].min(r);
        let d = model.bounds(g, u);
        let start_latest = r - d.hi;
        for p in g.preds(u) {
            required[p.index()] = required[p.index()].min(start_latest);
        }
    }
    g.node_ids()
        .filter(|&n| arr.finish[n.index()].hi >= required[n.index()])
        .collect()
}

/// [`possibly_critical_with_arrival`] over the flat CSR hot path: the
/// backward required-time sweep reads packed predecessor/successor rows and
/// a precomputed bounds table. Bit-identical to the iterator-based variant
/// (only `min`/`max` reductions and an order-insensitive filter).
///
/// `tolerance` widens the filter to every node whose worst-case slack
/// (`required − finish.hi` under the all-max assignment) is at most
/// `tolerance`: `0` gives the possibly-critical set. Since
/// `required[v] = cp.hi − tail.hi[v]`, a tolerance of `cp.hi − cp.lo`
/// keeps exactly the nodes with `finish.hi + tail.hi ≥ cp.lo`, the only
/// ones that can be critical in some consistent assignment. The add
/// saturates, so an overflow keeps the node.
pub fn possibly_critical_with_csr(
    order: &[NodeId],
    preds: &Csr,
    succs: &Csr,
    bounds: &[DelayInterval],
    arr: &BoundedArrival,
    tolerance: u64,
) -> Vec<NodeId> {
    let n = order.len();
    let mut required = vec![u64::MAX; n];
    for p in (0..n).rev() {
        let u = order[p];
        let r = if succs.row(p).is_empty() {
            arr.critical_path.hi
        } else {
            required[u.index()]
        };
        required[u.index()] = required[u.index()].min(r);
        let start_latest = r - bounds[u.index()].hi;
        for &pi in preds.row(p) {
            let slot = &mut required[pi as usize];
            *slot = (*slot).min(start_latest);
        }
    }
    (0..n)
        .map(NodeId::from_index)
        .filter(|&v| arr.finish[v.index()].hi.saturating_add(tolerance) >= required[v.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicBounds, KindBounds};
    use localwm_cdfg::generators::random_dag;
    use localwm_cdfg::{Cdfg, OpKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chain_interval_is_sum_of_bounds() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not);
        let b = g.add_node(OpKind::Not);
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(a, b).unwrap();
        let cp = bounded_critical_path(&g, &KindBounds::uniform(2, 5));
        assert_eq!(cp, DelayInterval::new(4, 10));
    }

    #[test]
    fn unit_model_matches_longest_path_ops() {
        let g = localwm_cdfg::designs::iir4_parallel();
        let cp = bounded_critical_path(&g, &KindBounds::unit());
        assert_eq!(cp.lo, 6);
        assert_eq!(cp.hi, 6);
    }

    /// A fixed per-node delay model for Monte-Carlo validation.
    struct Sampled(Vec<u64>);
    impl DelayBounds for Sampled {
        fn bounds(&self, _g: &Cdfg, n: NodeId) -> DelayInterval {
            DelayInterval::fixed(self.0[n.index()])
        }
    }

    #[test]
    fn monte_carlo_samples_stay_inside_interval() {
        let g = random_dag(40, 0.15, 7);
        let model = KindBounds::uniform(1, 4);
        let cp = bounded_critical_path(&g, &model);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let sample: Vec<u64> = g
                .node_ids()
                .map(|n| {
                    let b = model.bounds(&g, n);
                    rng.gen_range(b.lo..=b.hi)
                })
                .collect();
            let s = bounded_critical_path(&g, &Sampled(sample));
            assert!(s.lo >= cp.lo && s.hi <= cp.hi, "sample escaped interval");
        }
    }

    #[test]
    fn endpoints_are_achieved() {
        let g = random_dag(30, 0.2, 3);
        let model = KindBounds::uniform(2, 6);
        let cp = bounded_critical_path(&g, &model);
        let all_min: Vec<u64> = g.node_ids().map(|n| model.bounds(&g, n).lo).collect();
        let all_max: Vec<u64> = g.node_ids().map(|n| model.bounds(&g, n).hi).collect();
        assert_eq!(bounded_critical_path(&g, &Sampled(all_min)).lo, cp.lo);
        assert_eq!(bounded_critical_path(&g, &Sampled(all_max)).hi, cp.hi);
    }

    #[test]
    fn dynamic_bounds_only_widen_upwards() {
        let g = localwm_cdfg::designs::iir4_parallel();
        let base = KindBounds::uniform(1, 2);
        let dyn_model = DynamicBounds::new(base.clone(), 1);
        let cp_base = bounded_critical_path(&g, &base);
        let cp_dyn = bounded_critical_path(&g, &dyn_model);
        assert_eq!(cp_dyn.lo, cp_base.lo);
        assert!(cp_dyn.hi >= cp_base.hi);
    }

    #[test]
    fn possibly_critical_contains_a_full_path() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not);
        let b = g.add_node(OpKind::Not);
        let c = g.add_node(OpKind::Not); // short side branch
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(x, c).unwrap();
        let crit = possibly_critical(&g, &KindBounds::unit());
        assert!(crit.contains(&a));
        assert!(crit.contains(&b));
        assert!(!crit.contains(&c));
    }

    #[test]
    fn wider_bounds_make_more_nodes_possibly_critical() {
        let g = random_dag(40, 0.1, 9);
        let tight = possibly_critical(&g, &KindBounds::unit()).len();
        let loose = possibly_critical(&g, &KindBounds::uniform(1, 5)).len();
        assert!(loose >= tight);
    }
}
