//! The warm-result LRU.
//!
//! Repeat and perturbed requests should not pay for a full RL + ILP
//! solve when a near-identical instance was just planned. The cache
//! maps a key the planning service chooses to an entry of the service's
//! own type ([`crate::PlanService::Entry`]), so a hit hands back what
//! the service stored, with nothing to parse. The planner binding keeps
//! three kinds: a base plan (units, cost, quality and, once a repeat has
//! asked for it, the plan's certificate) under the
//! `neuroplan::checkpoint::fingerprint` that also keys the request's
//! checkpoint chain, a trained first stage under its `first_stage_key`,
//! and the fingerprint and instance of an answered spec under `spec-`
//! and the spec's canonical text (DESIGN.md §15).
//!
//! Eviction is deterministic: a monotone access sequence (not wall
//! time) orders entries, and ties cannot arise because the counter is
//! bumped under the same lock as the map. Two interleavings that touch
//! keys in the same order evict in the same order, which is what the
//! eviction-determinism test pins.

use std::collections::HashMap;

/// A fingerprint-keyed LRU of warm-start entries.
#[derive(Debug)]
pub struct WarmCache<V> {
    capacity: usize,
    seq: u64,
    entries: HashMap<String, (u64, V)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> WarmCache<V> {
    /// An empty cache holding at most `capacity` entries (0 disables).
    pub fn new(capacity: usize) -> WarmCache<V> {
        WarmCache {
            capacity,
            seq: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<V> {
        self.seq += 1;
        let seq = self.seq;
        match self.entries.get_mut(key) {
            Some((touched, blob)) => {
                *touched = seq;
                self.hits += 1;
                Some(blob.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// [`WarmCache::get`] outside the hit/miss counts: for entries that
    /// serve a lookup rather than answer one. Bumps recency.
    pub fn get_uncounted(&mut self, key: &str) -> Option<&V> {
        self.seq += 1;
        let (touched, blob) = self.entries.get_mut(key)?;
        *touched = self.seq;
        Some(blob)
    }

    /// Swap the entry of a resident `key` in place — recency and counts
    /// untouched; `false`, and nothing stored, when `key` is not held.
    pub fn replace(&mut self, key: &str, blob: V) -> bool {
        let held = self.entries.get_mut(key);
        held.map(|(_, old)| *old = blob).is_some()
    }

    /// Insert or refresh `key`. Evicts the least-recently-used entry
    /// when full; returns the evicted key, if any.
    pub fn put(&mut self, key: &str, blob: V) -> Option<String> {
        if self.capacity == 0 {
            return None;
        }
        self.seq += 1;
        let seq = self.seq;
        let mut evicted = None;
        if !self.entries.contains_key(key) && self.entries.len() >= self.capacity {
            // Deterministic LRU victim: the smallest access sequence.
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (touched, _))| *touched)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.evictions += 1;
                evicted = Some(victim);
            }
        }
        self.entries.insert(key.to_string(), (seq, blob));
        evicted
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is resident (no recency bump).
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Lifetime counters: (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn blob(tag: &str) -> Value {
        Value::Str(tag.to_string())
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut c = WarmCache::new(2);
        c.put("a", blob("A"));
        c.put("b", blob("B"));
        assert!(c.get("a").is_some()); // a is now the most recent
        let evicted = c.put("c", blob("C"));
        assert_eq!(evicted.as_deref(), Some("b"), "b was least recent");
        assert!(c.contains("a") && c.contains("c") && !c.contains("b"));
        assert_eq!(c.stats(), (1, 0, 1));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut c = WarmCache::new(0);
        assert!(c.put("a", blob("A")).is_none());
        assert!(c.get("a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_order_is_a_pure_function_of_access_order() {
        // Same key-touch sequence → same eviction sequence, every time.
        let touches = ["k1", "k2", "k3", "k1", "k4", "k5", "k2", "k6"];
        let run = || {
            let mut c = WarmCache::new(3);
            let mut evictions = Vec::new();
            for t in touches {
                if c.get(t).is_none() {
                    if let Some(e) = c.put(t, blob(t)) {
                        evictions.push(e);
                    }
                }
            }
            evictions
        };
        let first = run();
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
        assert_eq!(first, vec!["k2", "k3", "k1", "k4"]);
    }

    #[test]
    fn uncounted_reads_and_replacements_leave_the_counts_alone() {
        let mut c = WarmCache::new(2);
        c.put("a", blob("A"));
        c.put("b", blob("B"));
        assert_eq!(c.get_uncounted("a").and_then(Value::as_str), Some("A"));
        assert_eq!(c.get_uncounted("z"), None);
        assert!(c.replace("b", blob("B2")));
        assert!(!c.replace("z", blob("Z")), "only a resident key");
        assert_eq!(c.stats(), (0, 0, 0));
        // The uncounted read made `a` recent; the replacement did not
        // refresh `b`.
        assert_eq!(c.put("c", blob("C")).as_deref(), Some("b"));
        assert!(!c.contains("z"));
        assert_eq!(c.get("a").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn refreshing_an_existing_key_never_evicts() {
        let mut c = WarmCache::new(2);
        c.put("a", blob("A"));
        c.put("b", blob("B"));
        assert!(c.put("a", blob("A2")).is_none(), "refresh is not growth");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a").unwrap().as_str(), Some("A2"));
    }
}
