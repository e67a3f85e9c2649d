//! Fair-share job queue: round-robin across tenants, FIFO within a
//! tenant, and budget-aware popping so wide jobs wait for thread
//! capacity without blocking narrow ones (DESIGN.md §14).

use coupled::job::JobId;

/// One queued entry. `cost` is the job's demand in threads (one per
/// rank, clamped to the budget by the server), so `pop` can skip
/// entries the remaining budget can't run.
#[derive(Debug, Clone)]
pub struct QueueEntry {
    pub id: JobId,
    pub tenant: String,
    pub cost: usize,
    /// Submission sequence number — the FIFO order within a tenant.
    pub seq: u64,
}

/// Tenant-fair, budget-aware queue.
///
/// `pop(budget)` picks among entries with `cost <= budget`: tenants
/// take turns in round-robin order (a cursor advances past each served
/// tenant), so a tenant submitting 10× faster than another still gets
/// at most alternate turns while both have eligible work; within the
/// chosen tenant, the lowest sequence number (FIFO).
#[derive(Debug, Default)]
pub struct FairQueue {
    entries: Vec<QueueEntry>,
    /// Tenant round-robin ring, in first-appearance order. Tenants
    /// stay in the ring while queued entries remain.
    ring: Vec<String>,
    cursor: usize,
    next_seq: u64,
}

impl FairQueue {
    /// An empty queue.
    pub fn new() -> Self {
        FairQueue::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enqueue a job; returns the sequence number assigned.
    pub fn push(&mut self, id: JobId, tenant: &str, cost: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !self.ring.iter().any(|t| t == tenant) {
            self.ring.push(tenant.to_string());
        }
        self.entries.push(QueueEntry {
            id,
            tenant: tenant.to_string(),
            cost,
            seq,
        });
        seq
    }

    /// Remove a queued entry by id (e.g. a follower whose leader
    /// failed). Returns true when something was removed.
    pub fn remove(&mut self, id: JobId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        self.entries.len() != before
    }

    /// Pick the next job runnable within `budget` spare threads, per
    /// the policy above. Returns `None` when nothing eligible fits.
    pub fn pop(&mut self, budget: usize) -> Option<QueueEntry> {
        let eligible: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.cost <= budget)
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return None;
        }

        // The next tenant in the ring (from the cursor) that has an
        // eligible entry, and its oldest eligible entry.
        let tenant = (0..self.ring.len())
            .map(|off| &self.ring[(self.cursor + off) % self.ring.len()])
            .find(|t| eligible.iter().any(|&i| &&self.entries[i].tenant == t))
            .expect("eligible entry implies its tenant is in the ring");
        let chosen = eligible
            .iter()
            .copied()
            .filter(|&i| &self.entries[i].tenant == tenant)
            .min_by_key(|&i| self.entries[i].seq)
            .expect("tenant chosen from eligible set");

        let entry = self.entries.swap_remove(chosen);
        // Advance the cursor past the served tenant so the next pop
        // starts at the following ring position.
        if let Some(pos) = self.ring.iter().position(|t| *t == entry.tenant) {
            self.cursor = (pos + 1) % self.ring.len();
        }
        // Drop ring slots for tenants with no remaining work, keeping
        // cursor order for the survivors.
        let cursor_tenant = self.ring.get(self.cursor).cloned();
        self.ring
            .retain(|t| self.entries.iter().any(|e| &e.tenant == t));
        self.cursor = cursor_tenant
            .and_then(|t| self.ring.iter().position(|r| *r == t))
            .unwrap_or(0);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> JobId {
        JobId(n)
    }

    #[test]
    fn round_robin_bounds_skewed_tenants() {
        // Tenant a submits 10 jobs, tenant b only 2 — the classic
        // noisy-neighbour skew. Fair share must interleave b's jobs
        // near the front instead of draining a first.
        let mut fq = FairQueue::new();
        for n in 0..10 {
            fq.push(id(n), "a", 1);
        }
        fq.push(id(100), "b", 1);
        fq.push(id(101), "b", 1);
        let order: Vec<u64> = std::iter::from_fn(|| fq.pop(8)).map(|e| e.id.0).collect();
        assert_eq!(order.len(), 12);
        let pos_b0 = order.iter().position(|&j| j == 100).unwrap();
        let pos_b1 = order.iter().position(|&j| j == 101).unwrap();
        // While both tenants have work the schedule alternates, so b's
        // two jobs land within the first four slots — bounded by the
        // number of tenants, not by a's queue depth.
        assert!(pos_b0 < 4, "b's first job popped at {pos_b0}: {order:?}");
        assert!(pos_b1 < 4, "b's second job popped at {pos_b1}: {order:?}");
        // And a's jobs stay FIFO among themselves.
        let a_order: Vec<u64> = order.iter().copied().filter(|&j| j < 10).collect();
        let mut sorted = a_order.clone();
        sorted.sort_unstable();
        assert_eq!(a_order, sorted);
    }

    #[test]
    fn two_tenants_alternate_until_one_runs_dry() {
        // Six jobs each: while both tenants have work, every pop
        // switches tenant, and each tenant's jobs run in submission
        // order — no entry jumps the turns however long it waited.
        let mut fq = FairQueue::new();
        for n in 0..6 {
            fq.push(id(n), "a", 1);
        }
        for n in 0..6 {
            fq.push(id(100 + n), "b", 1);
        }
        let order: Vec<u64> = std::iter::from_fn(|| fq.pop(8)).map(|e| e.id.0).collect();
        let want: Vec<u64> = (0..6).flat_map(|n| [n, 100 + n]).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn budget_filters_wide_jobs_without_blocking_narrow() {
        let mut fq = FairQueue::new();
        fq.push(id(1), "a", 6); // wide
        fq.push(id(2), "a", 2); // narrow

        // Only 3 threads free: the wide head-of-line job must not
        // block the narrow one.
        assert_eq!(fq.pop(3).unwrap().id, id(2));
        // Nothing fits in 3 now; the wide job waits...
        assert!(fq.pop(3).is_none());
        assert_eq!(fq.len(), 1);
        // ...and runs when capacity frees up.
        assert_eq!(fq.pop(6).unwrap().id, id(1));
        assert!(fq.is_empty());
    }

    #[test]
    fn remove_drops_entry_and_empty_tenants_leave_ring() {
        let mut fq = FairQueue::new();
        fq.push(id(1), "a", 1);
        fq.push(id(2), "b", 1);
        assert!(fq.remove(id(1)));
        assert!(!fq.remove(id(1)));
        assert_eq!(fq.pop(8).unwrap().id, id(2));
        assert!(fq.pop(8).is_none());
    }
}
