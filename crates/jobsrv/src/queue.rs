//! Fair-share job queue: round-robin across tenants, priority with
//! anti-starvation aging within a tenant, and budget-aware popping so
//! wide jobs wait for kernel-pool capacity without blocking narrow
//! ones (DESIGN.md §14).

use coupled::job::{JobId, JobPriority};

/// One queued entry. `cost` is the job's kernel-pool demand in
/// threads (ranks × threads_per_rank, clamped to the pool size by the
/// server), so `pop` can skip entries the remaining budget can't run.
#[derive(Debug, Clone)]
pub struct QueueEntry {
    pub id: JobId,
    pub tenant: String,
    pub priority: JobPriority,
    pub cost: usize,
    /// Submission sequence number — the global FIFO tiebreak.
    pub seq: u64,
    /// Times this entry was eligible but passed over by `pop`. Once
    /// it reaches the starvation limit the entry jumps the entire
    /// schedule, bounding how long priority and round-robin skew can
    /// delay any single job.
    pub passed: usize,
}

/// Tenant-fair, priority-aware, budget-aware queue.
///
/// `pop(budget)` picks among entries with `cost <= budget`:
///
/// 1. Any entry passed over `starvation_limit`+ times runs first
///    (oldest such entry), regardless of tenant or priority.
/// 2. Otherwise tenants take turns in round-robin order (a cursor
///    advances past each served tenant), so a tenant submitting 10×
///    faster than another still gets at most alternate turns while
///    both have eligible work.
/// 3. Within the chosen tenant: highest [`JobPriority`], then lowest
///    sequence number (FIFO).
///
/// Every eligible entry that was *not* chosen gets its `passed`
/// counter bumped, which feeds rule 1.
#[derive(Debug)]
pub struct FairQueue {
    entries: Vec<QueueEntry>,
    /// Tenant round-robin ring, in first-appearance order. Tenants
    /// stay in the ring while queued entries remain.
    ring: Vec<String>,
    cursor: usize,
    starvation_limit: usize,
    next_seq: u64,
}

impl FairQueue {
    /// An empty queue whose anti-starvation rule fires after an entry
    /// has been passed over `starvation_limit` times.
    pub fn new(starvation_limit: usize) -> Self {
        FairQueue {
            entries: Vec::new(),
            ring: Vec::new(),
            cursor: 0,
            starvation_limit: starvation_limit.max(1),
            next_seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enqueue a job; returns the sequence number assigned.
    pub fn push(&mut self, id: JobId, tenant: &str, priority: JobPriority, cost: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !self.ring.iter().any(|t| t == tenant) {
            self.ring.push(tenant.to_string());
        }
        self.entries.push(QueueEntry {
            id,
            tenant: tenant.to_string(),
            priority,
            cost,
            seq,
            passed: 0,
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

        // Rule 1: starved entries jump the schedule, oldest first.
        let starved = eligible
            .iter()
            .copied()
            .filter(|&i| self.entries[i].passed >= self.starvation_limit)
            .min_by_key(|&i| self.entries[i].seq);

        let chosen = starved.unwrap_or_else(|| {
            // Rule 2: next tenant in the ring (from the cursor) that
            // has an eligible entry.
            let tenant = (0..self.ring.len())
                .map(|off| &self.ring[(self.cursor + off) % self.ring.len()])
                .find(|t| eligible.iter().any(|&i| &&self.entries[i].tenant == t))
                .cloned()
                .expect("eligible entry implies its tenant is in the ring");
            // Rule 3: within the tenant, max priority then FIFO.
            eligible
                .iter()
                .copied()
                .filter(|&i| self.entries[i].tenant == tenant)
                .max_by_key(|&i| (self.entries[i].priority.rank(), !self.entries[i].seq))
                .expect("tenant chosen from eligible set")
        });

        // Aging: every eligible entry not chosen was passed over.
        for &i in &eligible {
            if i != chosen {
                self.entries[i].passed += 1;
            }
        }

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

    fn q(limit: usize) -> FairQueue {
        FairQueue::new(limit)
    }

    fn id(n: u64) -> JobId {
        JobId(n)
    }

    #[test]
    fn round_robin_bounds_skewed_tenants() {
        // Tenant a submits 10 jobs, tenant b only 2 — the classic
        // noisy-neighbour skew. Fair share must interleave b's jobs
        // near the front instead of draining a first.
        let mut fq = q(4);
        for n in 0..10 {
            fq.push(id(n), "a", JobPriority::Normal, 1);
        }
        fq.push(id(100), "b", JobPriority::Normal, 1);
        fq.push(id(101), "b", JobPriority::Normal, 1);
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
    fn priority_wins_within_tenant_but_not_across() {
        let mut fq = q(8);
        fq.push(id(1), "a", JobPriority::Low, 1);
        fq.push(id(2), "a", JobPriority::High, 1);
        fq.push(id(3), "b", JobPriority::Low, 1);
        // Tenant a is first in the ring; its High job runs before its
        // Low one. Tenant b's Low job still gets the second turn —
        // a's High priority does not leak across tenants.
        assert_eq!(fq.pop(8).unwrap().id, id(2));
        assert_eq!(fq.pop(8).unwrap().id, id(3));
        assert_eq!(fq.pop(8).unwrap().id, id(1));
    }

    #[test]
    fn starved_low_priority_job_is_promoted() {
        // One tenant keeps submitting High jobs; its own early Low job
        // must still run after at most `limit` pass-overs.
        let limit = 3;
        let mut fq = q(limit);
        fq.push(id(0), "a", JobPriority::Low, 1);
        for n in 1..=10 {
            fq.push(id(n), "a", JobPriority::High, 1);
        }
        let mut popped = Vec::new();
        for _ in 0..=limit {
            popped.push(fq.pop(8).unwrap().id.0);
        }
        // Pops 1..limit are High jobs; pop limit+1 is the aged Low job.
        assert!(popped[..limit].iter().all(|&j| j != 0), "{popped:?}");
        assert_eq!(popped[limit], 0, "{popped:?}");
    }

    #[test]
    fn budget_filters_wide_jobs_without_blocking_narrow() {
        let mut fq = q(4);
        fq.push(id(1), "a", JobPriority::Normal, 6); // wide
        fq.push(id(2), "a", JobPriority::Normal, 2); // narrow
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
        let mut fq = q(4);
        fq.push(id(1), "a", JobPriority::Normal, 1);
        fq.push(id(2), "b", JobPriority::Normal, 1);
        assert!(fq.remove(id(1)));
        assert!(!fq.remove(id(1)));
        assert_eq!(fq.pop(8).unwrap().id, id(2));
        assert!(fq.pop(8).is_none());
    }
}
