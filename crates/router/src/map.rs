//! The shard map: which node processes own which contiguous slice of
//! the global id space, and which replicas hold copies of each slice.
//!
//! A cluster splits the corpus into **partitions** — contiguous,
//! disjoint global-id ranges, as the in-process `ShardedCorpus` splits
//! a corpus into shards (at other cut points: [`even_bases`] spreads
//! the remainder, `ShardedCorpus` cuts `div_ceil` chunks). Every partition is
//! served by one or more **replicas** (node processes speaking the
//! `qcluster-net` framed protocol); replica 0 starts as the leader and
//! the router promotes a follower when the leader fails.
//!
//! Each node indexes its slice under *node-local* ids `0..len`; the
//! router translates `global = id_base + local` when merging results
//! and `local = global - id_base` when resolving feedback vectors.

use std::fmt;
use std::net::SocketAddr;

/// A configuration or topology error from the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapError(pub String);

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard map: {}", self.0)
    }
}

impl std::error::Error for MapError {}

/// One contiguous global-id slice and the nodes replicating it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// First global id owned by this partition. The slice extends to
    /// the next partition's `id_base` (the last partition is unbounded
    /// above and therefore also owns live ingests).
    pub id_base: usize,
    /// Node addresses replicating this slice. Index 0 is the initial
    /// leader; the router may promote another replica on failure.
    pub replicas: Vec<SocketAddr>,
}

/// The first ids of `n` contiguous partitions of `0..total`, split as
/// evenly as contiguous ranges allow: every partition holds `total / n`
/// ids and the first `total % n` hold one more (10 over 3 is 4/3/3,
/// bases 0, 4, 7). [`ShardMap::even`] and `qcluster serve --nodes`
/// both cut by this rule, so a router built with `even` in front of a
/// `serve` stack adds the base each node was given.
///
/// # Panics
///
/// Panics when `n == 0`.
pub fn even_bases(total: usize, n: usize) -> Vec<usize> {
    assert!(n > 0, "at least one partition required");
    let (len, remainder) = (total / n, total % n);
    (0..n).map(|i| i * len + i.min(remainder)).collect()
}

/// The cluster topology: partitions sorted by `id_base`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    partitions: Vec<Partition>,
}

impl ShardMap {
    /// Validates and builds a map.
    ///
    /// # Errors
    ///
    /// [`MapError`] when `partitions` is empty, a partition has no
    /// replicas, the first `id_base` is not zero, or bases are not
    /// strictly increasing.
    pub fn new(partitions: Vec<Partition>) -> Result<ShardMap, MapError> {
        if partitions.is_empty() {
            return Err(MapError("at least one partition required".into()));
        }
        if partitions[0].id_base != 0 {
            return Err(MapError(format!(
                "first partition must start at id 0, got {}",
                partitions[0].id_base
            )));
        }
        for (i, p) in partitions.iter().enumerate() {
            if p.replicas.is_empty() {
                return Err(MapError(format!("partition {i} has no replicas")));
            }
            if i > 0 && p.id_base <= partitions[i - 1].id_base {
                return Err(MapError(format!(
                    "partition bases must be strictly increasing ({} then {})",
                    partitions[i - 1].id_base,
                    p.id_base
                )));
            }
        }
        Ok(ShardMap { partitions })
    }

    /// Convenience: `n` single-replica partitions over a corpus of
    /// `total` ids, cut by [`even_bases`].
    ///
    /// # Errors
    ///
    /// [`MapError`] when `addrs` is empty or `total < addrs.len()`.
    pub fn even(addrs: &[SocketAddr], total: usize) -> Result<ShardMap, MapError> {
        if addrs.is_empty() {
            return Err(MapError("at least one node address required".into()));
        }
        if total < addrs.len() {
            return Err(MapError(format!(
                "{total} ids cannot cover {} partitions",
                addrs.len()
            )));
        }
        let bases = even_bases(total, addrs.len());
        ShardMap::new(
            bases
                .into_iter()
                .zip(addrs)
                .map(|(id_base, &addr)| Partition {
                    id_base,
                    replicas: vec![addr],
                })
                .collect(),
        )
    }

    /// The partitions, sorted by `id_base`.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Partition count.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total node processes across all partitions.
    pub fn num_nodes(&self) -> usize {
        self.partitions.iter().map(|p| p.replicas.len()).sum()
    }

    /// Index of the partition owning global id `id` (the last partition
    /// is unbounded above, so every id has an owner).
    pub fn owner(&self, id: usize) -> usize {
        match self.partitions.binary_search_by(|p| p.id_base.cmp(&id)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The partition taking live ingests (the last one: its slice is
    /// unbounded above, so freshly assigned ids stay contiguous).
    pub fn ingest_partition(&self) -> usize {
        self.partitions.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        assert!(ShardMap::new(vec![]).is_err());
        assert!(ShardMap::new(vec![Partition {
            id_base: 0,
            replicas: vec![],
        }])
        .is_err());
        assert!(ShardMap::new(vec![Partition {
            id_base: 5,
            replicas: vec![addr(1)],
        }])
        .is_err());
        assert!(ShardMap::new(vec![
            Partition {
                id_base: 0,
                replicas: vec![addr(1)],
            },
            Partition {
                id_base: 0,
                replicas: vec![addr(2)],
            },
        ])
        .is_err());
    }

    #[test]
    fn even_split_spreads_the_remainder_from_the_front() {
        let map = ShardMap::even(&[addr(1), addr(2), addr(3)], 10).unwrap();
        let bases: Vec<usize> = map.partitions().iter().map(|p| p.id_base).collect();
        // 10 over 3: lengths 4, 3, 3 -> bases 0, 4, 7.
        assert_eq!(bases, vec![0, 4, 7]);
        assert_eq!(map.num_nodes(), 3);
        assert_eq!(map.ingest_partition(), 2);
    }

    #[test]
    fn owner_maps_every_id_to_its_slice() {
        let map = ShardMap::even(&[addr(1), addr(2), addr(3)], 10).unwrap();
        for id in 0..4 {
            assert_eq!(map.owner(id), 0, "id {id}");
        }
        for id in 4..7 {
            assert_eq!(map.owner(id), 1, "id {id}");
        }
        for id in 7..20 {
            assert_eq!(map.owner(id), 2, "id {id} (last partition unbounded)");
        }
    }

    #[test]
    fn even_rejects_degenerate_shapes() {
        // Zero ids can never cover a partition, however many nodes.
        assert!(ShardMap::even(&[addr(1)], 0).is_err());
        assert!(ShardMap::even(&[addr(1), addr(2)], 0).is_err());
        // Fewer ids than nodes would leave an empty partition.
        assert!(ShardMap::even(&[addr(1), addr(2), addr(3)], 2).is_err());
        // No nodes at all.
        assert!(ShardMap::even(&[], 7).is_err());
    }

    proptest::proptest! {
        /// `even` over any valid `(nodes, total)` shape produces a
        /// contiguous even split: slice lengths `total / n` with the
        /// remainder spread one-per-slice from the front, bases
        /// strictly increasing from 0.
        #[test]
        fn even_split_tiles_the_ids_remainder_first(
            n in 1usize..32,
            extra in 0usize..512,
        ) {
            let total = n + extra; // always >= n, so always valid
            let addrs: Vec<SocketAddr> = (0..n).map(|i| addr(1000 + i as u16)).collect();
            let map = ShardMap::even(&addrs, total).unwrap();
            proptest::prop_assert_eq!(map.num_partitions(), n);
            proptest::prop_assert_eq!(map.num_nodes(), n);
            let bases: Vec<usize> = map.partitions().iter().map(|p| p.id_base).collect();
            proptest::prop_assert_eq!(bases[0], 0);
            let (base_len, remainder) = (total / n, total % n);
            let mut expected_base = 0usize;
            for (i, p) in map.partitions().iter().enumerate() {
                proptest::prop_assert_eq!(p.id_base, expected_base, "partition {}", i);
                proptest::prop_assert_eq!(p.replicas.len(), 1);
                expected_base += base_len + usize::from(i < remainder);
            }
            // The slices exactly tile [0, total).
            proptest::prop_assert_eq!(expected_base, total);
        }

        /// A single node owns everything: one partition at base 0, and
        /// `owner` sends every id (bounded or not) to it.
        #[test]
        fn single_node_owns_all_ids(total in 1usize..10_000, probe in 0usize..100_000) {
            let map = ShardMap::even(&[addr(9)], total).unwrap();
            proptest::prop_assert_eq!(map.num_partitions(), 1);
            proptest::prop_assert_eq!(map.partitions()[0].id_base, 0);
            proptest::prop_assert_eq!(map.ingest_partition(), 0);
            proptest::prop_assert_eq!(map.owner(probe), 0);
        }

        /// Underfull shapes (`total < num_nodes`, including zero) are
        /// rejected, never silently producing an empty partition.
        #[test]
        fn underfull_shapes_are_rejected(n in 1usize..32, total in 0usize..32) {
            let addrs: Vec<SocketAddr> = (0..n).map(|i| addr(2000 + i as u16)).collect();
            let result = ShardMap::even(&addrs, total);
            if total < n {
                proptest::prop_assert!(result.is_err());
            } else {
                proptest::prop_assert!(result.is_ok());
            }
        }

        /// `owner` agrees with the slice layout: for every id inside
        /// the corpus, the owning partition's range contains it.
        #[test]
        fn owner_matches_slice_layout(n in 1usize..16, extra in 0usize..256) {
            let total = n + extra;
            let addrs: Vec<SocketAddr> = (0..n).map(|i| addr(3000 + i as u16)).collect();
            let map = ShardMap::even(&addrs, total).unwrap();
            let parts = map.partitions();
            for id in 0..total {
                let owner = map.owner(id);
                proptest::prop_assert!(parts[owner].id_base <= id);
                if owner + 1 < parts.len() {
                    proptest::prop_assert!(id < parts[owner + 1].id_base);
                }
            }
        }
    }
}
