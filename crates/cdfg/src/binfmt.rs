//! A compact binary encoding of a CDFG: the payload of the design store's
//! design records.
//!
//! It carries exactly what the [text format](crate::write_cdfg) carries —
//! node kinds, node names and live edges in id order — so a graph read
//! back renders the identical canonical text (and therefore the identical
//! content hash). Layout (integers little-endian):
//!
//! ```text
//! design = u32 node_count  node*  u32 edge_count  edge*
//! node   = u8  kind        index into OpKind::ALL
//!          varint tag      0 = anonymous, else name length + 1 (LEB128)
//!          name            tag - 1 bytes of UTF-8
//! edge   = u8  kind        0 data, 1 ctrl, 2 temp
//!          u32 src
//!          u32 dst
//! ```
//!
//! Kind indices are positions in [`OpKind::ALL`], so new operation kinds
//! must be appended there, never inserted.

use crate::{Cdfg, CdfgError, EdgeKind, NodeId, OpKind};

/// Smallest encoded node (kind byte + anonymous tag).
const MIN_NODE_LEN: usize = 2;
/// Encoded edge: kind byte, source, destination.
const EDGE_LEN: usize = 1 + 4 + 4;

/// Edge kinds by encoded tag.
const EDGE_KINDS: [EdgeKind; 3] = [EdgeKind::Data, EdgeKind::Control, EdgeKind::Temporal];

/// The position of `x` in `table` — its encoded tag.
fn tag_of<T: PartialEq>(table: &[T], x: &T) -> u8 {
    table
        .iter()
        .position(|k| k == x)
        .expect("the tag table lists every kind") as u8
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Serializes a graph to the binary format. Infallible: every graph the
/// crate can build has an encoding (though, as with
/// [`write_cdfg`](crate::write_cdfg), one whose names are not text tokens
/// does not read back).
///
/// ```
/// use localwm_cdfg::{read_cdfg_binary, write_cdfg, write_cdfg_binary, Cdfg, OpKind};
/// let mut g = Cdfg::new();
/// let a = g.add_named_node(OpKind::Input, "x");
/// let b = g.add_node(OpKind::Output);
/// g.add_data_edge(a, b)?;
/// let back = read_cdfg_binary(&write_cdfg_binary(&g))?;
/// assert_eq!(write_cdfg(&back), write_cdfg(&g));
/// # Ok::<(), localwm_cdfg::CdfgError>(())
/// ```
pub fn write_cdfg_binary(g: &Cdfg) -> Vec<u8> {
    let edges = g.edge_count();
    let mut out = Vec::with_capacity(8 + g.node_count() * 8 + edges * EDGE_LEN);
    out.extend_from_slice(&(g.node_count() as u32).to_le_bytes());
    for id in g.node_ids() {
        out.push(tag_of(&OpKind::ALL, &g.kind(id)));
        match g.node_name(id) {
            Some(name) => {
                put_varint(&mut out, name.len() as u64 + 1);
                out.extend_from_slice(name.as_bytes());
            }
            None => out.push(0),
        }
    }
    out.extend_from_slice(&(edges as u32).to_le_bytes());
    for e in g.edges() {
        out.push(tag_of(&EDGE_KINDS, &e.kind()));
        out.extend_from_slice(&(e.src().index() as u32).to_le_bytes());
        out.extend_from_slice(&(e.dst().index() as u32).to_le_bytes());
    }
    out
}

/// A bounds-checked cursor over the encoded bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn error(&self, message: impl Into<String>) -> CdfgError {
        CdfgError::Binary {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CdfgError> {
        if self.remaining() < n {
            return Err(self.error(format!("truncated {what}")));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CdfgError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, CdfgError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// One tag byte, resolved through `table` (the inverse of [`tag_of`]).
    fn tagged<T: Copy>(&mut self, table: &[T], what: &str) -> Result<T, CdfgError> {
        let at = self.pos;
        let tag = self.u8(what)?;
        table
            .get(usize::from(tag))
            .copied()
            .ok_or_else(|| CdfgError::Binary {
                offset: at,
                message: format!("unknown {what} {tag}"),
            })
    }

    /// A LEB128 value of at most 32 bits.
    fn varint(&mut self, what: &str) -> Result<u32, CdfgError> {
        let mut v: u64 = 0;
        for shift in (0..35).step_by(7) {
            let b = self.u8(what)?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return u32::try_from(v).map_err(|_| self.error(format!("oversized {what}")));
            }
        }
        Err(self.error(format!("overlong {what}")))
    }
}

/// Parses the binary format back into a graph.
///
/// # Errors
///
/// Returns [`CdfgError::Binary`] for malformed bytes (truncation, trailing
/// bytes, an unknown node or edge kind, a name that is not UTF-8 or not a
/// text-format token: empty or containing whitespace),
/// [`CdfgError::DuplicateName`], [`CdfgError::UnknownNode`] for an
/// out-of-range edge endpoint, [`CdfgError::SelfLoop`], and validation
/// errors from [`Cdfg::validate`] — the same guarantees as
/// [`parse_cdfg`](crate::parse_cdfg) output.
pub fn read_cdfg_binary(bytes: &[u8]) -> Result<Cdfg, CdfgError> {
    let mut r = Reader { bytes, pos: 0 };
    let nodes = r.u32("node count")? as usize;
    // A forged count is rejected before it can size an allocation.
    if nodes > r.remaining() / MIN_NODE_LEN {
        return Err(r.error(format!(
            "truncated node table: {nodes} node(s) cannot fit in {} byte(s)",
            r.remaining()
        )));
    }
    // Scan the node table before building anything, so framing damage —
    // the common case, a cut record — is rejected without hashing a name.
    let mut table: Vec<(OpKind, Option<&str>)> = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let kind = r.tagged(&OpKind::ALL, "node kind")?;
        let name = match r.varint("node name length")? {
            0 => None,
            tag => {
                let at = r.pos;
                let raw = r.take(tag as usize - 1, "node name")?;
                let name = std::str::from_utf8(raw).map_err(|_| CdfgError::Binary {
                    offset: at,
                    message: "node name is not UTF-8".to_owned(),
                })?;
                // Names must be what the text format can carry, so a
                // decoded graph always renders text that parses back.
                if name.is_empty() || name.chars().any(char::is_whitespace) {
                    return Err(CdfgError::Binary {
                        offset: at,
                        message: format!("node name {name:?} is not a text-format token"),
                    });
                }
                Some(name)
            }
        };
        table.push((kind, name));
    }
    let edges = r.u32("edge count")? as usize;
    let need = edges as u64 * EDGE_LEN as u64;
    let have = r.remaining() as u64;
    if have != need {
        let problem = if have < need {
            "truncated"
        } else {
            "trailing bytes after"
        };
        return Err(r.error(format!(
            "{problem} edge table: {edges} edge(s) need {need} byte(s), {have} remain"
        )));
    }
    let mut g = Cdfg::with_capacity(nodes, edges);
    for (kind, name) in table {
        match name {
            Some(name) => g.try_add_named_node(kind, name)?,
            None => g.add_node(kind),
        };
    }
    for _ in 0..edges {
        let kind = r.tagged(&EDGE_KINDS, "edge kind")?;
        let src = NodeId::from_index(r.u32("edge source")? as usize);
        let dst = NodeId::from_index(r.u32("edge destination")? as usize);
        g.add_edge(kind, src, dst)?;
    }
    g.validate()?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::iir4_parallel;
    use crate::write_cdfg;

    fn tiny() -> Cdfg {
        let mut g = Cdfg::new();
        let a = g.add_named_node(OpKind::Input, "a");
        let b = g.add_node(OpKind::Not);
        let c = g.add_named_node(OpKind::Output, "c");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, c).unwrap();
        g.add_temporal_edge(a, c).unwrap();
        g
    }

    #[test]
    fn round_trips_names_anonymous_nodes_and_edge_kinds() {
        for g in [tiny(), iir4_parallel()] {
            let back = read_cdfg_binary(&write_cdfg_binary(&g)).unwrap();
            assert_eq!(write_cdfg(&back), write_cdfg(&g));
            assert_eq!(
                back.node_name(NodeId::from_index(1)),
                g.node_name(NodeId::from_index(1))
            );
        }
    }

    #[test]
    fn removed_edges_are_compacted_like_the_text_format() {
        let mut g = tiny();
        g.strip_temporal_edges();
        let back = read_cdfg_binary(&write_cdfg_binary(&g)).unwrap();
        assert_eq!(back.edge_count(), 2);
        assert_eq!(write_cdfg(&back), write_cdfg(&g));
    }

    #[test]
    fn long_names_take_multi_byte_length_tags() {
        let mut g = Cdfg::new();
        let long = "x".repeat(300);
        g.add_named_node(OpKind::Input, &long);
        let bytes = write_cdfg_binary(&g);
        assert_eq!(&bytes[4..7], &[0x00, 0xAD, 0x02], "kind 0, tag 301");
        let back = read_cdfg_binary(&bytes).unwrap();
        assert_eq!(back.node_name(NodeId::from_index(0)), Some(long.as_str()));
    }

    fn binary_error(bytes: &[u8]) -> String {
        match read_cdfg_binary(bytes) {
            Err(CdfgError::Binary { message, .. }) => message,
            other => panic!("expected a binary decode error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let good = write_cdfg_binary(&tiny());
        assert!(binary_error(&good[..good.len() - 1]).contains("truncated"));
        let mut long = good.clone();
        long.push(0);
        assert!(binary_error(&long).contains("trailing"));
        let mut bad_kind = good.clone();
        bad_kind[4] = OpKind::ALL.len() as u8;
        assert!(binary_error(&bad_kind).contains("unknown node kind"));
        let mut bad_utf8 = good.clone();
        bad_utf8[6] = 0xFF; // the one byte of the name "a"
        assert!(binary_error(&bad_utf8).contains("UTF-8"));
        let mut spaced = good.clone();
        spaced[6] = b' ';
        assert!(binary_error(&spaced).contains("token"));
        let mut huge = good.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(binary_error(&huge).contains("truncated node table"));
        assert!(binary_error(&[0, 0, 0]).contains("truncated"));
    }

    #[test]
    fn graph_level_errors_keep_their_types() {
        let mut g = Cdfg::new();
        g.add_named_node(OpKind::Input, "a");
        g.add_named_node(OpKind::Input, "b");
        let mut dup = write_cdfg_binary(&g);
        dup[9] = b'a'; // rename "b" to "a"
        assert_eq!(
            read_cdfg_binary(&dup).unwrap_err(),
            CdfgError::DuplicateName("a".to_owned())
        );

        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::Input);
        let b = g.add_node(OpKind::Output);
        g.add_data_edge(a, b).unwrap();
        let good = write_cdfg_binary(&g);
        let dst_at = good.len() - 4;
        let mut out_of_range = good.clone();
        out_of_range[dst_at..].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            read_cdfg_binary(&out_of_range).unwrap_err(),
            CdfgError::UnknownNode(NodeId::from_index(9))
        );
        let mut self_loop = good.clone();
        self_loop[dst_at..].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            read_cdfg_binary(&self_loop).unwrap_err(),
            CdfgError::SelfLoop(a)
        );
        let mut bad_edge = good;
        bad_edge[dst_at - 5] = 3;
        assert!(binary_error(&bad_edge).contains("unknown edge kind"));
    }

    #[test]
    fn decoded_graphs_are_validated() {
        // An `add` with one operand encodes fine but must not decode.
        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::Input);
        let s = g.add_node(OpKind::Add);
        g.add_data_edge(a, s).unwrap();
        assert!(matches!(
            read_cdfg_binary(&write_cdfg_binary(&g)).unwrap_err(),
            CdfgError::ArityMismatch { .. }
        ));
    }
}
