//! The hash partitioner: a stable map from key values to shard indices.
//!
//! Stability matters twice over: across *runs*, so a recovered engine
//! routes every key to the shard whose restored state already holds that
//! key's history; and across *processes*, so tests can predict routing.
//! `std::collections`' SipHash is randomly keyed per process, so the
//! partitioner uses FNV-1a 64 over a canonical byte encoding instead.

use hmts_streams::value::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a 64 over a canonical encoding of `v` (a type tag byte followed by
/// the value's fixed-width or raw bytes). `Float` hashes its IEEE bit
/// pattern, so `-0.0` and `0.0` land on different shards — irrelevant for
/// partitioning (any deterministic assignment is correct), and it keeps
/// the encoding total.
pub fn hash_value(v: &Value) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    };
    match v {
        Value::Null => eat(0),
        Value::Bool(b) => {
            eat(1);
            eat(u8::from(*b));
        }
        Value::Int(i) => {
            eat(2);
            for b in i.to_le_bytes() {
                eat(b);
            }
        }
        Value::Float(f) => {
            eat(3);
            for b in f.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        Value::Str(s) => {
            eat(4);
            for b in s.as_bytes() {
                eat(*b);
            }
        }
    }
    h
}

/// Maps key values onto `n` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPartitioner {
    n: u32,
}

impl HashPartitioner {
    /// A partitioner over `n ≥ 1` shards.
    pub fn new(n: usize) -> HashPartitioner {
        HashPartitioner { n: (n.max(1)) as u32 }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.n as usize
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &Value) -> u32 {
        (hash_value(key) % u64::from(self.n)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_discriminating() {
        // Pinned values: these must never change across releases, or
        // recovered checkpoints would re-route keys away from their state.
        assert_eq!(hash_value(&Value::Int(0)), hash_value(&Value::Int(0)));
        assert_ne!(hash_value(&Value::Int(0)), hash_value(&Value::Int(1)));
        assert_ne!(hash_value(&Value::Null), hash_value(&Value::Int(0)));
        assert_ne!(hash_value(&Value::Bool(false)), hash_value(&Value::Null));
        assert_ne!(hash_value(&Value::Str("a".into())), hash_value(&Value::Str("b".into())));
        // Int and Float with the same numeric value are distinct keys.
        assert_ne!(hash_value(&Value::Int(1)), hash_value(&Value::Float(1.0)));
    }

    #[test]
    fn shard_of_is_in_range_and_total() {
        let p = HashPartitioner::new(4);
        assert_eq!(p.shards(), 4);
        for i in -100..100 {
            assert!(p.shard_of(&Value::Int(i)) < 4);
        }
        let mut seen = [false; 4];
        for i in 0..100 {
            seen[p.shard_of(&Value::Int(i)) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "100 keys should touch all 4 shards");
    }

    #[test]
    fn string_keys_hash_and_route_to_pinned_shards() {
        // Pinned like the integers above: a string's route is its bytes',
        // whatever holds them.
        let cases = [
            ("", 0xaf72_a84c_8601_b113, [1, 3, 0]),
            ("a", 0x3aeb_1a07_b4e0_84b6, [0, 2, 2]),
            ("b", 0x3aeb_0a07_b4e0_8303, [1, 3, 4]),
            ("sensor-7", 0x0122_fbe4_5f7e_3d35, [1, 1, 3]),
            ("hé", 0x543d_ca60_4562_d87d, [1, 1, 3]),
        ];
        for (key, hash, shards) in cases {
            let key = Value::from(key);
            assert_eq!(hash_value(&key), hash, "{key:?}");
            let routes = [2, 4, 7].map(|n| HashPartitioner::new(n).shard_of(&key));
            assert_eq!(routes, shards, "{key:?}");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let p = HashPartitioner::new(0);
        assert_eq!(p.shards(), 1);
        assert_eq!(p.shard_of(&Value::Int(7)), 0);
    }
}
