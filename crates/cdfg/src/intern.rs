//! Per-design string interning: [`StrArena`] + [`Sym`].
//!
//! Node names used to be `Option<String>` on every [`Node`](crate::Node) —
//! one heap string per named node, plus a second copy in the graph's
//! name-lookup index. A [`Cdfg`](crate::Cdfg) now owns one [`StrArena`]:
//! all names live concatenated in a single growable buffer, a node stores
//! a [`Sym`] (a `u32` span index), and the lookup index maps name hashes
//! to symbols. Construction of an N-node design therefore does O(N)
//! *amortized* small allocations (buffer and span-table growth) instead of
//! two `String` allocations per name, and cloning a graph clones three
//! flat buffers instead of N strings.
//!
//! Interning is deduplicating: the same spelling interns to the same
//! `Sym`, so symbol equality is name equality *within one arena*. Symbols
//! are meaningless across arenas — resolve through the owning graph
//! ([`Cdfg::node_name`](crate::Cdfg::node_name)) before comparing across
//! designs. Round-trips are exact: the arena stores the bytes it was
//! given, so `intern` → [`StrArena::get`] returns the identical string
//! and textfmt/DOT/serde output is byte-identical to the `String`-field
//! representation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// An interned string: a dense index into its owning [`StrArena`].
///
/// `Sym`s are only meaningful against the arena that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The dense arena index of this symbol.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A deduplicating append-only string arena; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct StrArena {
    /// Every interned string, concatenated.
    buf: String,
    /// `(start, end)` byte span of each symbol in `buf`.
    spans: Vec<(u32, u32)>,
    /// FNV-1a name hash → the first symbol interned with that hash.
    index: HashMap<u64, Sym>,
    /// Later symbols whose hash collided with an `index` entry (empty in
    /// practice; resolved by comparing bytes). Kept apart so the common
    /// case stores one `Sym` per name, not a one-element chain.
    collisions: HashMap<u64, Vec<Sym>>,
}

/// The string `sym` spans in `buf`.
fn span_str<'a>(buf: &'a str, spans: &[(u32, u32)], sym: Sym) -> &'a str {
    let (start, end) = spans[sym.index()];
    &buf[start as usize..end as usize]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Appends `s` to the arena buffer and returns its fresh symbol.
fn push_span(buf: &mut String, spans: &mut Vec<(u32, u32)>, s: &str) -> Sym {
    let start = u32::try_from(buf.len()).expect("arena byte overflow");
    buf.push_str(s);
    let end = u32::try_from(buf.len()).expect("arena byte overflow");
    let sym = Sym(u32::try_from(spans.len()).expect("arena symbol overflow"));
    spans.push((start, end));
    sym
}

impl StrArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many distinct strings are interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Interns `s`, returning the existing symbol when the same spelling
    /// was interned before.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX` bytes or symbols (designs
    /// are orders of magnitude smaller).
    pub fn intern(&mut self, s: &str) -> Sym {
        let h = fnv1a(s.as_bytes());
        let first = match self.index.entry(h) {
            Entry::Vacant(slot) => {
                let sym = push_span(&mut self.buf, &mut self.spans, s);
                slot.insert(sym);
                return sym;
            }
            Entry::Occupied(slot) => *slot.get(),
        };
        if span_str(&self.buf, &self.spans, first) == s {
            return first;
        }
        let chain = self.collisions.entry(h).or_default();
        if let Some(&sym) = chain
            .iter()
            .find(|&&sym| span_str(&self.buf, &self.spans, sym) == s)
        {
            return sym;
        }
        let sym = push_span(&mut self.buf, &mut self.spans, s);
        chain.push(sym);
        sym
    }

    /// The symbol `s` interns to, if it was interned.
    #[must_use]
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        let h = fnv1a(s.as_bytes());
        let first = *self.index.get(&h)?;
        if self.get(first) == s {
            return Some(first);
        }
        self.collisions
            .get(&h)?
            .iter()
            .copied()
            .find(|&sym| self.get(sym) == s)
    }

    /// Resolves a symbol to its string.
    ///
    /// # Panics
    ///
    /// Panics on a symbol from a different arena whose index is out of
    /// range (an in-range foreign symbol resolves to the *wrong* string —
    /// symbols must stay with their arena).
    #[must_use]
    pub fn get(&self, sym: Sym) -> &str {
        span_str(&self.buf, &self.spans, sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips_exact_bytes() {
        let mut a = StrArena::new();
        let s1 = a.intern("A9");
        let s2 = a.intern("C3@2");
        let s3 = a.intern("");
        assert_eq!(a.get(s1), "A9");
        assert_eq!(a.get(s2), "C3@2");
        assert_eq!(a.get(s3), "");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn interning_deduplicates() {
        let mut a = StrArena::new();
        let s1 = a.intern("A9");
        let s2 = a.intern("A9");
        assert_eq!(s1, s2);
        assert_eq!(a.len(), 1);
        assert_eq!(a.lookup("A9"), Some(s1));
        assert_eq!(a.lookup("A8"), None);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut a = StrArena::new();
        let mut syms = Vec::new();
        for i in 0..100 {
            syms.push(a.intern(&format!("n{i}")));
        }
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(a.get(s), format!("n{i}"));
        }
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn prefix_and_concat_confusions_are_impossible() {
        // "ab" then "a": the second is not a prefix-hit on the first's
        // span, and "b" was never interned even though its bytes exist.
        let mut a = StrArena::new();
        let ab = a.intern("ab");
        let just_a = a.intern("a");
        assert_ne!(ab, just_a);
        assert_eq!(a.get(ab), "ab");
        assert_eq!(a.get(just_a), "a");
        assert_eq!(a.lookup("b"), None);
    }
}
