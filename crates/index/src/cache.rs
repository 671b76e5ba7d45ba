//! Cross-iteration node cache — the "multipoint approach" buffer.
//!
//! Chakrabarti, Porkaew & Mehrotra's multipoint query refinement (paper
//! reference \[7\]) observes that consecutive feedback iterations of the same
//! session touch largely-overlapping regions of the index, so it caches
//! "the information of index nodes generated during the previous iterations
//! of the query" and only charges I/O for nodes not yet buffered. Figure 7
//! of the Qcluster paper attributes Qcluster's low execution cost to
//! exactly this reuse.
//!
//! [`NodeCache`] models that buffer at node granularity: the first access
//! to a node in a session is a **miss** (a disk read); subsequent accesses
//! across any number of iterations are **hits**.

/// A per-session cache of index node ids: every node read once stays
/// resident (the idealized multipoint-approach accounting).
#[derive(Debug, Clone, Default)]
pub struct NodeCache {
    /// Whether each node has been read in this session.
    seen: Vec<bool>,
    resident: usize,
    hits: u64,
    misses: u64,
}

impl NodeCache {
    /// A cache sized for a tree with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        NodeCache {
            seen: vec![false; num_nodes],
            resident: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Records an access to `node`; returns `true` on a hit.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range for the tree this cache was
    /// sized for.
    pub fn access(&mut self, node: usize) -> bool {
        assert!(node < self.seen.len(), "node id out of range");
        if self.seen[node] {
            self.hits += 1;
            return true;
        }
        self.seen[node] = true;
        self.resident += 1;
        self.misses += 1;
        false
    }

    /// Number of cached nodes.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses (≡ simulated disk reads) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Empties the cache and zeroes the counters (start of a new session).
    pub fn clear(&mut self) {
        self.seen.fill(false);
        self.resident = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = NodeCache::new(4);
        assert!(!c.access(2));
        assert!(c.access(2));
        assert!(c.access(2));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = NodeCache::new(4);
        c.access(0);
        c.access(0);
        c.clear();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.resident(), 0);
        assert!(!c.access(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut c = NodeCache::new(2);
        c.access(2);
    }

    #[test]
    fn every_node_read_once_stays_resident() {
        let mut c = NodeCache::new(100);
        for i in 0..100 {
            assert!(!c.access(i));
        }
        for i in 0..100 {
            assert!(c.access(i));
        }
        assert_eq!(c.resident(), 100);
    }
}
