//! The naming scheme of rewritten shard nodes.
//!
//! This module is the *only* place in the workspace that constructs shard
//! node names (a grep gate in `scripts/check.sh` enforces it). Everything
//! else — checkpoint blobs keyed by node name, the observability plane's
//! replica grouping, recovery assertions in tests — goes through these
//! helpers or [`parse_replica`], so the scheme can evolve in one spot.

/// The name of replica `i` of the sharded operator `base`.
pub fn replica(base: &str, i: usize) -> String {
    format!("{base}[{i}]")
}

/// The name of the hash-partitioning splitter in front of `base`'s
/// replicas.
pub fn split(base: &str) -> String {
    format!("{base}.split")
}

/// The name of the order-restoring merge behind `base`'s replicas.
pub fn merge(base: &str) -> String {
    format!("{base}.merge")
}

/// The display name of the whole replica group (`base[0..n]`), used by the
/// admin plane when it folds per-replica metrics under the logical node.
pub fn group(base: &str, n: usize) -> String {
    format!("{base}[0..{n}]")
}

/// Decomposes a replica name into `(base, index)`; `None` for anything
/// that does not look like `base[i]`.
///
/// The observability plane groups replicas with a parser of its own
/// (`hmts_obs::capacity::parse_replica`): neither crate depends on the
/// other, so the two are kept identical and a test below holds them to it.
pub fn parse_replica(name: &str) -> Option<(&str, usize)> {
    let rest = name.strip_suffix(']')?;
    let (base, idx) = rest.rsplit_once('[')?;
    if base.is_empty() || idx.is_empty() || !idx.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, idx.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_parse_round_trip() {
        assert_eq!(replica("agg", 3), "agg[3]");
        assert_eq!(split("agg"), "agg.split");
        assert_eq!(merge("agg"), "agg.merge");
        assert_eq!(group("agg", 4), "agg[0..4]");
        assert_eq!(parse_replica("agg[3]"), Some(("agg", 3)));
        assert_eq!(parse_replica(&replica("a.b", 12)), Some(("a.b", 12)));
    }

    #[test]
    fn parse_rejects_non_replicas() {
        assert_eq!(parse_replica("agg"), None);
        assert_eq!(parse_replica("agg.split"), None);
        assert_eq!(parse_replica("agg[]"), None);
        assert_eq!(parse_replica("agg[x]"), None);
        assert_eq!(parse_replica("[3]"), None);
        assert_eq!(parse_replica("agg[3"), None);
    }

    #[test]
    fn agrees_with_the_obs_plane_parser() {
        let names = [
            "agg[3]",
            "a.b[12]",
            "a[1][2]",
            "agg",
            "agg.split",
            "agg[]",
            "agg[x]",
            "agg[+3]",
            "agg[-1]",
            "[3]",
            "agg[3",
            "agg]3[",
            "",
            "]",
            "agg[99999999999999999999999]",
        ];
        for name in names {
            assert_eq!(parse_replica(name), hmts::obs::capacity::parse_replica(name), "{name:?}");
        }
    }
}
