//! The server's two caches, one bookkeeping: completed reports keyed
//! by the canonical config hash ([`coupled::RunConfig::config_hash`]),
//! and built geometries keyed by the nozzle spec's exact bits
//! (`NozzleSpec::key`). Both are sound because the engine is
//! bitwise-deterministic: two submissions with equal canonical hashes
//! would produce identical reports, and two specs with equal keys
//! identical meshes, so serving the stored one is indistinguishable
//! from re-running.

/// LRU cache of cheaply cloned values (`Arc`s here). Stored reports
/// are *unstamped* (`report.job == None`); the server stamps a per-job
/// [`JobMeta`] onto a clone when serving, so cached bytes never leak
/// one job's provenance into another's report.
///
/// [`JobMeta`]: coupled::JobMeta
#[derive(Debug)]
pub struct Lru<K, V> {
    /// Most-recently-used last.
    entries: Vec<(K, V)>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    pub fn new(capacity: usize) -> Self {
        Lru {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a value by key, refreshing its LRU position on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(pos) => {
                let entry = self.entries.remove(pos);
                let value = entry.1.clone();
                self.entries.push(entry);
                self.hits += 1;
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a value, evicting the least recently used entry when
    /// full. Re-inserting an existing key replaces the stored value.
    pub fn put(&mut self, key: K, value: V) {
        self.entries.retain(|(k, _)| *k != key);
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((key, value));
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coupled::RunReport;
    use std::sync::Arc;

    fn report(population: usize) -> Arc<RunReport> {
        Arc::new(RunReport {
            population,
            ..RunReport::default()
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.put(1, report(1));
        c.put(2, report(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&1).unwrap().population, 1);
        c.put(3, report(3));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1).unwrap().population, 1);
        assert_eq!(c.get(&3).unwrap().population, 3);
        assert_eq!(c.len(), 2);
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (3, 1));
    }

    #[test]
    fn reinsert_replaces_without_growing() {
        let mut c = Lru::new(2);
        c.put(1, report(1));
        c.put(1, report(10));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1).unwrap().population, 10);
    }
}
