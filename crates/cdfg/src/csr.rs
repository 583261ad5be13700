//! Compressed-sparse-row adjacency views.
//!
//! The arena graph stores adjacency as per-node `Vec<EdgeId>` lists whose
//! entries dereference through the edge slab (`Vec<Option<Edge>>`) — two
//! dependent loads per neighbor, scattered across the heap. Inner loops
//! that sweep the whole graph once per Monte-Carlo sample pay that
//! indirection `samples × (V + E)` times.
//!
//! A [`Csr`] flattens one direction of the adjacency into two arrays: a
//! packed `u32` neighbor array plus per-row offsets. Rows are **laid out in
//! topological order**, so a timing sweep that walks the topo order reads
//! the packed array front to back — sequential, prefetch-friendly access
//! with zero pointer chasing. Tombstoned (removed) edges are skipped at
//! build time, so a CSR row enumerates exactly the live neighbors of
//! [`Cdfg::preds`]/[`Cdfg::succs`].

use crate::{Cdfg, NodeId};

/// A read-only compressed-sparse-row view of one adjacency direction
/// (predecessors or successors), frozen at build time.
///
/// Rows are stored in the order of the `order` slice given at construction
/// (the memoized topological order, in practice). Row `p` — the
/// `p`-th node of that order — spans
/// `targets[offsets[p] .. offsets[p + 1]]`; each target is a dense
/// [`NodeId`] index. Random access by node id goes through a
/// position-lookup table.
///
/// ```
/// use localwm_cdfg::{Cdfg, Csr, OpKind};
///
/// let mut g = Cdfg::new();
/// let a = g.add_node(OpKind::Input);
/// let b = g.add_node(OpKind::Not);
/// let c = g.add_node(OpKind::Add);
/// g.add_data_edge(a, b)?;
/// g.add_data_edge(a, c)?;
/// g.add_data_edge(b, c)?;
/// let order = g.topo_order()?;
/// let preds = Csr::preds(&g, &order);
/// assert_eq!(preds.neighbors_of(c), &[a.index() as u32, b.index() as u32]);
/// assert_eq!(preds.neighbors_of(a), &[] as &[u32]);
/// # Ok::<(), localwm_cdfg::CdfgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Row boundaries indexed by **row position** (topo position);
    /// `len == rows + 1`.
    offsets: Vec<u32>,
    /// Packed neighbor array: dense node indices, rows back to back in
    /// row-position order.
    targets: Vec<u32>,
    /// Dense node index → row position, for random access by [`NodeId`].
    pos: Vec<u32>,
}

impl Csr {
    /// Builds the predecessor view: row `p` lists the live-edge sources of
    /// the `p`-th node of `order`, in the node's incoming-edge order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the graph's node ids.
    pub fn preds(g: &Cdfg, order: &[NodeId]) -> Self {
        Self::build(g, order, |g, n, out| {
            out.extend(g.preds(n).map(|p| p.index() as u32));
        })
    }

    /// Builds the successor view: row `p` lists the live-edge destinations
    /// of the `p`-th node of `order`, in the node's outgoing-edge order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the graph's node ids.
    pub fn succs(g: &Cdfg, order: &[NodeId]) -> Self {
        Self::build(g, order, |g, n, out| {
            out.extend(g.succs(n).map(|s| s.index() as u32));
        })
    }

    fn build(
        g: &Cdfg,
        order: &[NodeId],
        mut row: impl FnMut(&Cdfg, NodeId, &mut Vec<u32>),
    ) -> Self {
        let n = g.node_count();
        assert_eq!(order.len(), n, "order must cover every node");
        let mut offsets = Vec::with_capacity(n + 1);
        // Live edges only; edge_count() is O(E) but build runs once.
        let mut targets = Vec::with_capacity(g.edge_count());
        let mut pos = vec![u32::MAX; n];
        offsets.push(0);
        for (p, &u) in order.iter().enumerate() {
            assert_eq!(pos[u.index()], u32::MAX, "order repeats a node");
            pos[u.index()] = p as u32;
            row(g, u, &mut targets);
            offsets.push(u32::try_from(targets.len()).expect("edge count exceeds u32::MAX"));
        }
        Csr {
            offsets,
            targets,
            pos,
        }
    }

    /// Number of rows (== number of nodes; kept nodes in a
    /// [restricted](Csr::restrict) view).
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total packed neighbors (== number of live edges).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The neighbors of the node at row position `p` (its index in the
    /// build order), as dense node indices.
    ///
    /// This is the hot-path accessor: sweeps that already walk the topo
    /// order index rows by position and read the packed array
    /// sequentially.
    #[inline]
    pub fn row(&self, p: usize) -> &[u32] {
        &self.targets[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// The neighbors of node `n`, as dense node indices (random access:
    /// one extra lookup through the position table).
    #[inline]
    pub fn neighbors_of(&self, n: NodeId) -> &[u32] {
        self.row(self.pos[n.index()] as usize)
    }

    /// The row position of node `n` in the build order.
    #[inline]
    pub fn position(&self, n: NodeId) -> usize {
        self.pos[n.index()] as usize
    }

    /// Number of neighbors of node `n`.
    pub fn degree_of(&self, n: NodeId) -> usize {
        self.neighbors_of(n).len()
    }

    /// The view restricted to the nodes with `keep[v]` set: their rows, in
    /// the same relative order, each keeping only kept neighbors. A sweep
    /// over the correspondingly filtered build order then never touches a
    /// dropped node. Dropped nodes have no row, so [`Csr::neighbors_of`] and
    /// [`Csr::position`] must not be asked about them.
    ///
    /// # Panics
    ///
    /// Panics if `keep` does not have one entry per node.
    ///
    /// ```
    /// use localwm_cdfg::{Cdfg, Csr, OpKind};
    ///
    /// let mut g = Cdfg::new();
    /// let a = g.add_node(OpKind::Input);
    /// let b = g.add_node(OpKind::Not);
    /// let c = g.add_node(OpKind::Add);
    /// g.add_data_edge(a, b)?;
    /// g.add_data_edge(a, c)?;
    /// g.add_data_edge(b, c)?;
    /// let order = g.topo_order()?;
    /// let sub = Csr::preds(&g, &order).restrict(&[true, false, true]);
    /// assert_eq!(sub.rows(), 2);
    /// assert_eq!(sub.neighbors_of(c), &[a.index() as u32]);
    /// # Ok::<(), localwm_cdfg::CdfgError>(())
    /// ```
    pub fn restrict(&self, keep: &[bool]) -> Csr {
        assert_eq!(keep.len(), self.pos.len(), "keep must cover every node");
        let mut node_at = vec![u32::MAX; self.rows()];
        for (v, &p) in self.pos.iter().enumerate() {
            if p != u32::MAX {
                node_at[p as usize] = v as u32;
            }
        }
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        let mut pos = vec![u32::MAX; keep.len()];
        for (p, &v) in node_at.iter().enumerate() {
            if keep[v as usize] {
                pos[v as usize] = (offsets.len() - 1) as u32;
                targets.extend(self.row(p).iter().filter(|&&t| keep[t as usize]));
                offsets.push(targets.len() as u32);
            }
        }
        Csr {
            offsets,
            targets,
            pos,
        }
    }

    /// Appends an empty row at the end of the row order for a freshly
    /// added node. The incremental engine calls this when a mutation adds
    /// nodes without reordering the rest of the graph: a brand-new node
    /// has no edges yet, and placing it last is always topologically valid
    /// (its edges arrive in later [`Csr::refresh_row`] calls).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is the next dense node index (nodes are arena
    /// allocated, so additions are strictly sequential).
    pub fn append_empty_row(&mut self, n: NodeId) {
        assert_eq!(
            n.index(),
            self.pos.len(),
            "appended node must be the next dense index"
        );
        let p = self.offsets.len() - 1;
        self.pos
            .push(u32::try_from(p).expect("row count exceeds u32::MAX"));
        self.offsets
            .push(*self.offsets.last().expect("offsets non-empty"));
    }

    /// Replaces the neighbor row of `n` wholesale with `neighbors` (dense
    /// node indices, in the graph's current adjacency order), shifting the
    /// packed array and later offsets as needed.
    ///
    /// This is the in-place patch used when a mutation touches a node's
    /// edge list but leaves the topological order valid: only the affected
    /// rows are rewritten instead of rebuilding the whole view. Patched
    /// views are exactly equal to a fresh build over the same order.
    pub fn refresh_row(&mut self, n: NodeId, neighbors: &[u32]) {
        let p = self.pos[n.index()] as usize;
        let start = self.offsets[p] as usize;
        let end = self.offsets[p + 1] as usize;
        self.targets.splice(start..end, neighbors.iter().copied());
        let old_len = end - start;
        if neighbors.len() != old_len {
            let grow = u32::try_from(neighbors.len()).expect("row exceeds u32::MAX");
            let shrink = u32::try_from(old_len).expect("row fits in u32");
            for off in &mut self.offsets[p + 1..] {
                *off = *off + grow - shrink;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn diamond() -> (Cdfg, [NodeId; 4]) {
        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::Input);
        let b = g.add_node(OpKind::Not);
        let c = g.add_node(OpKind::Neg);
        let d = g.add_node(OpKind::Add);
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(a, c).unwrap();
        g.add_data_edge(b, d).unwrap();
        g.add_data_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn preds_and_succs_match_the_iterator_views() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let preds = Csr::preds(&g, &order);
        let succs = Csr::succs(&g, &order);
        for n in g.node_ids() {
            let want_p: Vec<u32> = g.preds(n).map(|p| p.index() as u32).collect();
            let want_s: Vec<u32> = g.succs(n).map(|s| s.index() as u32).collect();
            assert_eq!(preds.neighbors_of(n), want_p.as_slice());
            assert_eq!(succs.neighbors_of(n), want_s.as_slice());
        }
        assert_eq!(preds.degree_of(d), 2);
        assert_eq!(succs.degree_of(a), 2);
        assert_eq!(preds.degree_of(a), 0);
        let _ = (b, c);
    }

    #[test]
    fn rows_are_laid_out_in_topo_order() {
        let (g, _) = diamond();
        let order = g.topo_order().unwrap();
        let preds = Csr::preds(&g, &order);
        assert_eq!(preds.rows(), g.node_count());
        assert_eq!(preds.edge_count(), g.edge_count());
        // Walking rows by position visits nodes in the given order and the
        // packed array strictly front to back.
        let mut cursor = 0;
        for (p, &u) in order.iter().enumerate() {
            assert_eq!(preds.position(u), p);
            let row = preds.row(p);
            assert_eq!(row, preds.neighbors_of(u));
            cursor += row.len();
        }
        assert_eq!(cursor, preds.edge_count());
    }

    #[test]
    fn removed_edges_are_skipped() {
        let (mut g, [a, b, _c, d]) = diamond();
        let eid = g
            .edge_ids()
            .find(|&e| {
                let edge = g.edge(e).unwrap();
                edge.src() == a && edge.dst() == b
            })
            .unwrap();
        g.remove_edge(eid).unwrap();
        let order = g.topo_order().unwrap();
        let preds = Csr::preds(&g, &order);
        let succs = Csr::succs(&g, &order);
        assert_eq!(preds.neighbors_of(b), &[] as &[u32]);
        assert_eq!(succs.neighbors_of(a), &[_c.index() as u32]);
        assert_eq!(preds.edge_count(), 3);
        assert_eq!(preds.degree_of(d), 2);
    }

    #[test]
    fn restricted_rows_keep_only_kept_nodes() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let preds = Csr::preds(&g, &order);
        let succs = Csr::succs(&g, &order);
        assert_eq!(preds.restrict(&[true; 4]), preds);
        let mut keep = [true; 4];
        keep[c.index()] = false;
        let (sp, ss) = (preds.restrict(&keep), succs.restrict(&keep));
        let sub: Vec<NodeId> = order.iter().copied().filter(|v| keep[v.index()]).collect();
        assert_eq!((sp.rows(), ss.rows()), (3, 3));
        for (p, &v) in sub.iter().enumerate() {
            assert_eq!(sp.position(v), p);
            let want = |row: &[u32]| -> Vec<u32> {
                row.iter().copied().filter(|&t| keep[t as usize]).collect()
            };
            assert_eq!(sp.row(p), want(preds.neighbors_of(v)).as_slice());
            assert_eq!(ss.row(p), want(succs.neighbors_of(v)).as_slice());
        }
        assert_eq!(sp.neighbors_of(d), &[b.index() as u32]);
        assert_eq!(ss.neighbors_of(a), &[b.index() as u32]);
        // Restricting again composes.
        keep[b.index()] = false;
        assert_eq!(sp.restrict(&keep).neighbors_of(d), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "order must cover every node")]
    fn short_order_panics() {
        let (g, [a, ..]) = diamond();
        let _ = Csr::preds(&g, &[a]);
    }

    /// Refreshes `n`'s row in both views from the graph's current
    /// adjacency, the way the incremental engine does after an edge edit.
    fn refresh_node(g: &Cdfg, preds: &mut Csr, succs: &mut Csr, n: NodeId) {
        let p: Vec<u32> = g.preds(n).map(|x| x.index() as u32).collect();
        let s: Vec<u32> = g.succs(n).map(|x| x.index() as u32).collect();
        preds.refresh_row(n, &p);
        succs.refresh_row(n, &s);
    }

    #[test]
    fn patched_rows_equal_a_fresh_build() {
        let (mut g, [a, b, c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let mut preds = Csr::preds(&g, &order);
        let mut succs = Csr::succs(&g, &order);

        // Edge add that keeps the topo order valid: a -> d.
        g.add_data_edge(a, d).unwrap();
        refresh_node(&g, &mut preds, &mut succs, a);
        refresh_node(&g, &mut preds, &mut succs, d);
        assert_eq!(preds, Csr::preds(&g, &order));
        assert_eq!(succs, Csr::succs(&g, &order));

        // Edge removal: b -> d goes away.
        let eid = g
            .edge_ids()
            .find(|&e| {
                let edge = g.edge(e).unwrap();
                edge.src() == b && edge.dst() == d
            })
            .unwrap();
        g.remove_edge(eid).unwrap();
        refresh_node(&g, &mut preds, &mut succs, b);
        refresh_node(&g, &mut preds, &mut succs, d);
        assert_eq!(preds, Csr::preds(&g, &order));
        assert_eq!(succs, Csr::succs(&g, &order));
        let _ = c;
    }

    #[test]
    fn appended_rows_extend_the_order_at_the_tail() {
        let (mut g, [a, _b, _c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let mut preds = Csr::preds(&g, &order);
        let mut succs = Csr::succs(&g, &order);

        let e = g.add_node(OpKind::Not);
        preds.append_empty_row(e);
        succs.append_empty_row(e);
        g.add_data_edge(d, e).unwrap();
        refresh_node(&g, &mut preds, &mut succs, d);
        refresh_node(&g, &mut preds, &mut succs, e);

        let mut extended = order.clone();
        extended.push(e);
        assert_eq!(preds, Csr::preds(&g, &extended));
        assert_eq!(succs, Csr::succs(&g, &extended));
        assert_eq!(preds.neighbors_of(e), &[d.index() as u32]);
        assert_eq!(succs.degree_of(a), 2);
    }
}
