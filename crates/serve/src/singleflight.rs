//! Single-flight coalescing keys for identical in-flight requests.
//!
//! When N clients ask the same (pure, deterministic) question at once, the
//! server should compute the answer once and fan it out, not N times.
//! Coalescing applies to the read-only analysis kinds — `analyze`,
//! `timing`, and the robustness kinds `attack` / `strength` — whose
//! responses are functions of the request alone (the robustness kinds are
//! fully seeded, so identical lines compute identical sweeps, and they are
//! the most expensive kinds the service offers). Mutating or
//! identity-bearing kinds (`embed` draws watermark edges, `detect` checks
//! a signature) are deliberately excluded: they are cheap relative to
//! analysis and their handlers are the ones exercised for per-request
//! observability.
//!
//! The key is a streaming FNV-1a hash over the request's answer-relevant
//! fields, with the two per-caller fields — `id` (correlation) and
//! `timeout_ms` (deadline) — excluded, so requests differing only in those
//! still coalesce. Everything else (design text, delay bounds, sample
//! count, seed, deadline steps) participates: any parameter that changes
//! the answer changes the key. No request clone, no re-rendered wire line
//! — this runs on the connection reader for every analysis request — and
//! no byte-at-a-time pass over the texts: each string field contributes
//! its length and its [`text_key`], so a multi-kilobyte design costs one
//! fast hash, which the server reuses for the cache's alias lookup. Each
//! field is prefixed with a distinct tag, so field boundaries can never
//! alias.

use crate::protocol::{Request, RequestKind};
use crate::textkey::text_key;

/// The coalescing key of a request, or `None` for kinds that never
/// coalesce. `design_key` is the design's [`text_key`] (`None` exactly
/// when the request has no design), which the caller computes once and
/// reuses for the cache lookup.
pub fn coalescing_key(req: &Request, design_key: Option<u64>) -> Option<u64> {
    debug_assert_eq!(design_key, req.design.as_deref().map(text_key));
    if !matches!(
        req.kind,
        RequestKind::Analyze | RequestKind::Timing | RequestKind::Attack | RequestKind::Strength
    ) {
        return None;
    }
    // Session-scoped queries answer from held mutable state, not from the
    // request alone: two identical lines can straddle a mutate and must
    // both run. (The server answers them inline anyway; this guard keeps
    // the exclusion explicit for any path that consults the key.)
    if req.session.is_some() {
        return None;
    }
    let mut h = Fnv1a::new();
    h.bytes(&[req.kind.index() as u8]);
    h.opt_text(1, req.design.as_deref().zip(design_key));
    h.opt_str(2, req.author.as_deref());
    h.opt_str(3, req.schedule.as_deref());
    h.opt_u64(4, req.fraction.map(f64::to_bits));
    h.opt_u64(5, req.k.map(|v| v as u64));
    h.opt_u64(6, req.deadline.map(u64::from));
    h.opt_u64(7, req.lo);
    h.opt_u64(8, req.hi);
    h.opt_u64(9, req.samples.map(|v| v as u64));
    h.opt_u64(10, req.seed);
    h.opt_str(11, req.edits.as_deref());
    h.opt_str(12, req.attack.as_deref());
    h.opt_u64(13, req.budget.map(f64::to_bits));
    h.opt_str(14, req.budgets.as_deref());
    Some(h.finish())
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absent fields hash nothing; present ones hash tag, length, and the
    /// text's [`text_key`].
    fn opt_str(&mut self, tag: u8, s: Option<&str>) {
        self.opt_text(tag, s.map(|s| (s, text_key(s))));
    }

    /// [`Fnv1a::opt_str`] with the text key already computed.
    fn opt_text(&mut self, tag: u8, text: Option<(&str, u64)>) {
        if let Some((s, key)) = text {
            self.bytes(&[tag]);
            self.bytes(&(s.len() as u64).to_le_bytes());
            self.bytes(&key.to_le_bytes());
        }
    }

    fn opt_u64(&mut self, tag: u8, v: Option<u64>) {
        if let Some(v) = v {
            self.bytes(&[tag]);
            self.bytes(&v.to_le_bytes());
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(req: &Request) -> Option<u64> {
        coalescing_key(req, req.design.as_deref().map(text_key))
    }

    fn analyze_req() -> Request {
        let mut r = Request::new(RequestKind::Analyze);
        r.design = Some("node a add\n".to_owned());
        r.samples = Some(40);
        r.seed = Some(7);
        r
    }

    #[test]
    fn id_and_timeout_do_not_split_the_flight() {
        let base = analyze_req();
        let mut a = base.clone();
        a.id = Some(1);
        a.timeout_ms = Some(100);
        let mut b = base.clone();
        b.id = Some(2);
        b.timeout_ms = Some(9999);
        assert_eq!(key(&a), key(&base));
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn answer_changing_params_split_the_flight() {
        let base = analyze_req();
        let mut other_seed = base.clone();
        other_seed.seed = Some(8);
        let mut other_samples = base.clone();
        other_samples.samples = Some(41);
        let mut other_design = base.clone();
        other_design.design = Some("node b mul\n".to_owned());
        let k = key(&base);
        assert_ne!(key(&other_seed), k);
        assert_ne!(key(&other_samples), k);
        assert_ne!(key(&other_design), k);
    }

    #[test]
    fn only_analysis_kinds_coalesce() {
        assert!(key(&analyze_req()).is_some());
        for kind in [
            RequestKind::Timing,
            RequestKind::Attack,
            RequestKind::Strength,
        ] {
            let mut r = analyze_req();
            r.kind = kind;
            assert!(key(&r).is_some(), "{kind} must coalesce");
        }
        for kind in [
            RequestKind::Embed,
            RequestKind::Detect,
            RequestKind::Stats,
            RequestKind::Shutdown,
            RequestKind::ClusterStats,
            RequestKind::Open,
            RequestKind::Mutate,
            RequestKind::Close,
        ] {
            let mut r = analyze_req();
            r.kind = kind;
            assert_eq!(key(&r), None, "{kind} must not coalesce");
        }
    }

    #[test]
    fn session_scoped_queries_never_coalesce() {
        let mut r = analyze_req();
        r.session = Some("s-1".to_owned());
        assert_eq!(key(&r), None);
        r.kind = RequestKind::Timing;
        assert_eq!(key(&r), None);
    }
}
