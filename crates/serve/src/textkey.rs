//! The in-memory text key: a fast, deterministic 64-bit hash of request
//! text (design texts, schedules, edit scripts).
//!
//! Every hop of the request path keys a design by its raw text before it
//! knows anything else about it: the cache's alias shards, the
//! single-flight key, the gateway's shard-key memo. FNV-1a costs one
//! dependent multiply per byte (~40 µs on a 27 KB MediaBench design); this
//! key reads 16 bytes per step and folds them with one 128-bit multiply,
//! so the same text hashes in a few microseconds.
//!
//! A collision here resolves a request against the wrong design, so the
//! key must use all of its input: every input bit reaches every output bit
//! (the avalanche test below pins this), and the length is mixed in so
//! zero padding never aliases. The key is an in-memory identity only:
//! the store's alias records and the gateway's fallback shard key stay
//! FNV-1a of the text, so store directories and shard placement do not
//! depend on it.

/// Mixing constants: the fractional digits of pi (nothing-up-my-sleeve).
const K0: u64 = 0x243f_6a88_85a3_08d3;
const K1: u64 = 0x1319_8a2e_0370_7344;
const K2: u64 = 0xa409_3822_299f_31d0;
const K3: u64 = 0x082e_fa98_ec4e_6c89;

/// The full 128-bit product of `a` and `b`, high half folded onto the low
/// half: every bit of either operand reaches every output bit.
fn fold_mul(a: u64, b: u64) -> u64 {
    // Never overflows (64 × 64 bits fit in 128); `wrapping_mul` keeps
    // overflow-checked builds from paying for a checked 128-bit multiply.
    let p = u128::from(a).wrapping_mul(u128::from(b));
    (p as u64) ^ ((p >> 64) as u64)
}

/// The in-memory key of `text`; see the module docs.
pub fn text_key(text: &str) -> u64 {
    key_of_bytes(text.as_bytes())
}

fn key_of_bytes(bytes: &[u8]) -> u64 {
    let whole = bytes.len() / 16 * 16;
    let h = absorb(start(bytes.len()), &bytes[..whole]);
    finish(h, &bytes[whole..], bytes.len())
}

/// The chaining state before any block of a `len`-byte input.
fn start(len: usize) -> u64 {
    K0 ^ (len as u64).wrapping_mul(K3)
}

/// Folds whole 16-byte blocks into the chaining state `h` (a trailing
/// partial block is ignored; [`finish`] pads it).
fn absorb(mut h: u64, blocks: &[u8]) -> u64 {
    let mut at = 0;
    while at + 16 <= blocks.len() {
        let lo = u64::from_le_bytes(*blocks[at..].first_chunk().expect("a block"));
        let hi = u64::from_le_bytes(*blocks[at + 8..].first_chunk().expect("a block"));
        h = fold_mul(lo ^ K1 ^ h, hi ^ K2);
        at += 16;
    }
    h
}

/// Folds the tail (0–15 bytes) in as one zero-padded block, then mixes in
/// the length again: with the length in the start state too, padding never
/// aliases real zero bytes.
fn finish(h: u64, tail: &[u8], len: usize) -> u64 {
    let mut last = [0u8; 16];
    last[..tail.len()].copy_from_slice(tail);
    let h = absorb(h, &last);
    fold_mul(h ^ K3, (len as u64) ^ K0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_pinned_and_deterministic() {
        // Pinned against an independent implementation of the same
        // function: the key is an in-memory identity, but changing it
        // should still be deliberate.
        let pinned = [text_key(""), text_key("a"), text_key("node a add\n")];
        assert_eq!(
            pinned,
            [
                0x8a92_b6f2_c05d_86b7,
                0x699c_5a2c_0a1c_1bd8,
                0x9d4c_a2bf_bd41_9020
            ]
        );
    }

    #[test]
    fn zero_padding_and_length_never_alias() {
        let mut keys = std::collections::HashSet::new();
        for len in 0..=48 {
            assert!(
                keys.insert(key_of_bytes(&vec![0u8; len])),
                "zeros of length {len}"
            );
        }
    }

    /// The texts the service keys in practice: the committed corpus
    /// designs and the sixteen generated MediaBench designs the
    /// gateway-churn benchmark routes.
    fn service_designs() -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/designs");
        let mut designs: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("corpus designs")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "cdfg"))
            .map(|p| {
                let name = p.file_stem().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&p).expect("corpus design"))
            })
            .collect();
        assert!(designs.len() >= 6, "corpus designs missing");
        let apps = localwm_cdfg::generators::mediabench_apps();
        for k in 0..16 {
            let graph = localwm_cdfg::generators::mediabench(&apps[0], k);
            designs.push((
                format!("mediabench-churn-{k}"),
                localwm_cdfg::write_cdfg(&graph),
            ));
        }
        designs
    }

    #[test]
    fn service_designs_have_pairwise_distinct_keys() {
        let texts: std::collections::HashSet<String> = service_designs()
            .into_iter()
            .map(|(_, text)| text)
            .collect();
        let keys: std::collections::HashSet<u64> = texts.iter().map(|t| text_key(t)).collect();
        assert!(texts.len() >= 20);
        assert_eq!(keys.len(), texts.len(), "two distinct designs share a key");
    }

    /// Flipping any single byte of any service design (one bit, varying
    /// with the position) yields a key distinct from the original's and
    /// from every other flip's. A flip in block `b` leaves the chaining
    /// state before `b` unchanged, so each flipped key is computed from the
    /// original's prefix state — the same [`start`] → [`absorb`] →
    /// [`finish`] composition [`key_of_bytes`] is, checked against it.
    #[test]
    fn every_single_byte_flip_of_a_design_changes_its_key() {
        let texts: std::collections::BTreeSet<String> = service_designs()
            .into_iter()
            .map(|(_, text)| text)
            .collect();
        for text in texts {
            let mut bytes = text.into_bytes();
            let len = bytes.len();
            let whole = len / 16 * 16;
            let mut prefix = vec![start(len)];
            for block in bytes[..whole].chunks_exact(16) {
                prefix.push(absorb(*prefix.last().unwrap(), block));
            }
            let mut keys = std::collections::HashSet::with_capacity(len + 1);
            keys.insert(key_of_bytes(&bytes));
            for at in 0..len {
                let bit = 1u8 << (at % 8);
                bytes[at] ^= bit;
                let from = at / 16 * 16;
                let h = absorb(prefix[from / 16], &bytes[from.min(whole)..whole]);
                let key = finish(h, &bytes[whole..], len);
                if at % 4099 == 0 {
                    assert_eq!(key, key_of_bytes(&bytes));
                }
                assert!(
                    keys.insert(key),
                    "{len}-byte design: flipping byte {at} collides"
                );
                bytes[at] ^= bit;
            }
        }
    }

    /// Strict avalanche over seeded random inputs of every length up to
    /// three blocks: flipping any single input bit flips each output bit
    /// in roughly half the trials (never stuck at 0 or 1).
    #[test]
    fn every_input_bit_reaches_every_output_bit() {
        let mut rng = localwm_prng::SplitMix64::new(0x7e47_6b65);
        const TRIALS: usize = 48;
        for len in [1usize, 7, 8, 15, 16, 17, 31, 32, 33, 47] {
            for bit in 0..len * 8 {
                let mut flips = [0usize; 64];
                for _ in 0..TRIALS {
                    let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    let before = key_of_bytes(&bytes);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    let diff = before ^ key_of_bytes(&bytes);
                    for (out, n) in flips.iter_mut().enumerate() {
                        *n += usize::from(diff >> out & 1 == 1);
                    }
                }
                for (out, &n) in flips.iter().enumerate() {
                    assert!(
                        (6..=42).contains(&n),
                        "len {len}: input bit {bit} flipped output bit {out} in {n}/{TRIALS} trials"
                    );
                }
            }
        }
    }
}
