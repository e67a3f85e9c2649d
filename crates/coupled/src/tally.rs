//! The comm tally: which strategy carried each exchange and how much
//! traffic each step moved, as both decomposed backends account it.

use crate::engine::{BackendStats, ExchangeInfo, StepComm};
use crate::rebalance::BalanceHook;

/// Exchange and traffic accounting of one backend. Per-step values are
/// differences of cumulative counters taken at the step boundaries, so
/// they telescope: summed over a run they equal the totals exactly.
#[derive(Debug, Default)]
pub(crate) struct CommTally {
    /// Exchanges carried per concrete strategy
    /// ([`vmpi::Strategy::CONCRETE`] order).
    strategy_uses: [u64; 4],
    /// Cumulative (transactions, bytes) of every noted exchange.
    noted: (u64, u64),
    /// `strategy_uses` and the cumulative traffic at the last step
    /// boundary; the latter is also the run total so far.
    uses_mark: [u64; 4],
    traffic_mark: (u64, u64),
    /// Attribution of the exchange in flight, for the pipeline's
    /// exchange events.
    pending_exchange: Option<ExchangeInfo>,
}

impl CommTally {
    /// Record one carried exchange.
    pub fn note(&mut self, info: ExchangeInfo) {
        self.strategy_uses[info.strategy] += 1;
        self.noted.0 += info.transactions;
        self.noted.1 += info.bytes;
        self.pending_exchange = Some(info);
    }

    /// The most recent exchange's attribution, consumed.
    pub fn take_exchange_info(&mut self) -> Option<ExchangeInfo> {
        self.pending_exchange.take()
    }

    /// Cumulative traffic of the noted exchanges — the whole wire of a
    /// backend whose only messages are the exchanges it prices.
    pub fn noted(&self) -> (u64, u64) {
        self.noted
    }

    /// Close a step: `now` is the cumulative (transactions, bytes) the
    /// backend's wire has carried — [`CommTally::noted`], or a real
    /// world's counters, which also see the collectives between the
    /// exchanges.
    pub fn step_comm(&mut self, now: (u64, u64)) -> StepComm {
        let comm = StepComm {
            transactions: now.0.saturating_sub(self.traffic_mark.0),
            bytes: now.1.saturating_sub(self.traffic_mark.1),
            strategy_uses: std::array::from_fn(|s| self.strategy_uses[s] - self.uses_mark[s]),
        };
        self.traffic_mark = now;
        self.uses_mark = self.strategy_uses;
        comm
    }

    /// Cumulative counters for the run report. Traffic totals are the
    /// last step boundary's, NOT the wire's current counters: whatever
    /// runs after the last step (end-of-run diagnostics collectives) is
    /// not counted, and the report promises trace sums == totals.
    pub fn stats(&self, balance: &BalanceHook) -> BackendStats {
        BackendStats {
            strategy_uses: self.strategy_uses,
            rebalances: balance.rebalances(),
            rebalance_migrated: balance.migrated(),
            transactions: self.traffic_mark.0,
            bytes: self.traffic_mark.1,
        }
    }
}
