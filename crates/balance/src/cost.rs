//! Per-cell cost sources for the load balancer.
//!
//! Algorithm 1 originally hard-wired the analytic weighted load model
//! (eq. 7) as the partitioner's vertex weights. [`CostSource`] is the
//! weight computation as a closed choice between the two sources the
//! rebalance driver runs on:
//!
//! * [`CostSource::PaperWlm`] — the paper's analytic
//!   `wlm = N + R·C + W_cell`, the default;
//! * [`CostSource::TimerAugmented`] — measured per-phase costs (DSMC
//!   move, collide/react, PIC move), EWMA-smoothed across rebalance
//!   checks and distributed over cells by each phase's natural per-cell
//!   driver, after McDoniel & Bientinesi's timer-augmented cost
//!   function. The quadratic collision term is what the linear
//!   analytic model cannot express: a crowded cell selects
//!   `O(N²)` candidate pairs but only costs `O(N)` under eq. 7.
//!
//! The measured seconds arrive through [`CostSource::observe`]: the
//! drivers reduce their per-rank phase timers to one global
//! [`CostSample`] per step (rank-ordered summation, so every rank of a
//! replicated balancer sees identical bits) and offer it here before
//! the rebalance decision.

use crate::wlm::{weighted_load_model, WlmParams};

/// One step's globally-reduced cost measurements, offered to a
/// [`CostSource`] before each rebalance decision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostSample {
    /// Seconds spent in DSMC_Move, summed over all ranks.
    pub dsmc_move_seconds: f64,
    /// Seconds spent in Colli_React, summed over all ranks.
    pub colli_react_seconds: f64,
    /// Seconds spent in all R PIC_Move sub-steps, summed over ranks.
    pub pic_move_seconds: f64,
    /// Total neutral particles across all cells.
    pub neutral_total: u64,
    /// Total collision candidate pairs, `Σ N_c·(N_c−1)`.
    pub pair_total: u64,
    /// Total charged particles across all cells.
    pub charged_total: u64,
}

/// Config-level selector for a cost source, carried inside the `Copy`
/// [`crate::RebalanceConfig`]; the stateful source itself is
/// materialised by [`Rebalancer::new`](crate::Rebalancer::new).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostSourceKind {
    /// Analytic weighted load model (paper eq. 7). Default.
    #[default]
    PaperWlm,
    /// EWMA-smoothed measured per-phase costs.
    TimerAugmented,
}

impl CostSourceKind {
    /// Stable short name, used in trace events and report tables.
    pub fn name(self) -> &'static str {
        match self {
            CostSourceKind::PaperWlm => "paper_wlm",
            CostSourceKind::TimerAugmented => "timer_augmented",
        }
    }
}

/// How per-cell particle counts (and optionally measured timings)
/// become partitioner vertex weights: the stateful source behind a
/// [`CostSourceKind`].
#[derive(Debug, Clone, Copy)]
pub enum CostSource {
    /// The paper's analytic weighted load model (eq. 7):
    /// `wlm_i = N_i + R·C_i + W_cell`.
    PaperWlm(WlmParams),
    /// EWMA-smoothed measured per-phase costs.
    TimerAugmented(TimerAugmented),
}

impl CostSource {
    /// The source `kind` selects; `wlm` parameterises the analytic
    /// model and the timer source's fallback.
    pub fn new(kind: CostSourceKind, wlm: WlmParams) -> Self {
        match kind {
            CostSourceKind::PaperWlm => CostSource::PaperWlm(wlm),
            CostSourceKind::TimerAugmented => CostSource::TimerAugmented(TimerAugmented::new(wlm)),
        }
    }

    /// Offer one step's globally-reduced measured costs. The analytic
    /// source ignores it; the measured source folds it into its
    /// smoothed state.
    pub fn observe(&mut self, sample: &CostSample) {
        if let CostSource::TimerAugmented(timer) = self {
            timer.observe(sample);
        }
    }

    /// Whether this source wants [`CostSource::observe`] calls — lets
    /// drivers skip gathering timer samples (and keep the default
    /// path's wire traffic untouched) when the source is analytic.
    pub fn wants_samples(&self) -> bool {
        matches!(self, CostSource::TimerAugmented(_))
    }

    /// Per-cell vertex weights for the k-way partitioner.
    pub fn cell_weights(&self, neutral: &[u64], charged: &[u64]) -> Vec<i64> {
        match self {
            CostSource::PaperWlm(params) => weighted_load_model(neutral, charged, *params),
            CostSource::TimerAugmented(timer) => timer.cell_weights(neutral, charged),
        }
    }

    /// The smoothed per-unit cost rates in seconds (per neutral move,
    /// per collision pair, per charged move); zeros for the analytic
    /// source. Surfaced into `RebalanceEvent` as timing taps.
    pub fn cost_rates(&self) -> [f64; 3] {
        match self {
            CostSource::PaperWlm(_) => [0.0; 3],
            CostSource::TimerAugmented(timer) => timer.rates.unwrap_or([0.0; 3]),
        }
    }
}

/// Integer weight scale for the measured rates: the most expensive
/// cell maps to this weight, everything else proportionally. Large
/// enough that the partitioner sees smooth gradations, small enough
/// that `Σ weights` stays far from `i64` overflow.
const TIMER_WEIGHT_SCALE: f64 = 1_000_000.0;

/// Timer-augmented cost source: EWMA-smoothed measured per-phase
/// seconds, distributed over cells by each phase's per-cell driver
/// (`N_c` for DSMC move, `N_c·(N_c−1)` for collision pair selection,
/// `C_c` for the PIC push).
#[derive(Debug, Clone, Copy)]
pub struct TimerAugmented {
    /// EWMA smoothing factor in `(0, 1]`; 1 = use only the newest
    /// sample.
    pub alpha: f64,
    /// Analytic fallback used until the first sample arrives, and the
    /// source of the `W_cell` floor that keeps empty cells movable.
    pub fallback: WlmParams,
    /// Smoothed `[per-neutral-move, per-pair, per-charged-move]`
    /// seconds; `None` until the first observation.
    rates: Option<[f64; 3]>,
}

impl TimerAugmented {
    fn new(fallback: WlmParams) -> Self {
        TimerAugmented {
            alpha: 0.3,
            fallback,
            rates: None,
        }
    }

    fn observe(&mut self, sample: &CostSample) {
        let unit = |secs: f64, units: u64| if units == 0 { 0.0 } else { secs / units as f64 };
        let fresh = [
            unit(sample.dsmc_move_seconds, sample.neutral_total),
            unit(sample.colli_react_seconds, sample.pair_total),
            unit(sample.pic_move_seconds, sample.charged_total),
        ];
        self.rates = Some(match self.rates {
            None => fresh,
            Some(old) => {
                let mut next = [0.0; 3];
                for i in 0..3 {
                    next[i] = self.alpha * fresh[i] + (1.0 - self.alpha) * old[i];
                }
                next
            }
        });
    }

    fn cell_weights(&self, neutral: &[u64], charged: &[u64]) -> Vec<i64> {
        assert_eq!(neutral.len(), charged.len());
        let Some([per_move, per_pair, per_charged]) = self.rates else {
            // No measurement yet: fall back to the analytic model so
            // an early-firing balancer still acts sensibly.
            return weighted_load_model(neutral, charged, self.fallback);
        };
        let raw: Vec<f64> = neutral
            .iter()
            .zip(charged)
            .map(|(&n, &c)| {
                let pairs = n as f64 * (n as f64 - 1.0);
                per_move * n as f64 + per_pair * pairs.max(0.0) + per_charged * c as f64
            })
            .collect();
        let max = raw.iter().cloned().fold(0.0f64, f64::max);
        if max <= 0.0 {
            return weighted_load_model(neutral, charged, self.fallback);
        }
        // W_cell survives as an additive floor so empty cells keep a
        // nonzero weight (the partitioner must still place them).
        let floor = self.fallback.w_cell.max(1);
        raw.iter()
            .map(|&r| (r / max * TIMER_WEIGHT_SCALE).round() as i64 + floor)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_wlm_is_bitwise_the_analytic_model() {
        let n = [10u64, 0, 3];
        let c = [5u64, 2, 0];
        let params = WlmParams { r: 2, w_cell: 7 };
        let src = CostSource::PaperWlm(params);
        assert_eq!(
            src.cell_weights(&n, &c),
            weighted_load_model(&n, &c, params)
        );
        assert!(!src.wants_samples());
        assert_eq!(src.cost_rates(), [0.0; 3]);
    }

    #[test]
    fn timer_falls_back_until_first_sample() {
        let params = WlmParams::default();
        let src = CostSource::new(CostSourceKind::TimerAugmented, params);
        assert_eq!(
            src.cell_weights(&[5, 0], &[1, 2]),
            weighted_load_model(&[5, 0], &[1, 2], params)
        );
    }

    #[test]
    fn timer_weights_crowded_cells_superlinearly() {
        let mut src = CostSource::new(CostSourceKind::TimerAugmented, WlmParams::default());
        src.observe(&CostSample {
            dsmc_move_seconds: 1.0,
            colli_react_seconds: 4.0,
            pic_move_seconds: 0.0,
            neutral_total: 130,
            pair_total: 100 * 99 + 20 * 19 + 10 * 9,
            charged_total: 0,
        });
        // cell 0 has 10x the particles of cell 1; with a quadratic
        // collision term its weight must exceed 10x cell 1's.
        let w = src.cell_weights(&[100, 10], &[0, 0]);
        assert!(
            w[0] > 10 * w[1],
            "quadratic pair cost missing: {} !> 10*{}",
            w[0],
            w[1]
        );
    }

    #[test]
    fn ewma_smooths_toward_new_samples() {
        let mut src = CostSource::new(CostSourceKind::TimerAugmented, WlmParams::default());
        let sample = |secs: f64| CostSample {
            dsmc_move_seconds: secs,
            neutral_total: 100,
            ..CostSample::default()
        };
        src.observe(&sample(1.0));
        assert_eq!(src.cost_rates()[0], 0.01);
        src.observe(&sample(2.0));
        let r = src.cost_rates()[0];
        assert!(r > 0.01 && r < 0.02, "EWMA out of range: {r}");
    }

    #[test]
    fn empty_cells_keep_a_movable_weight() {
        let mut src = CostSource::new(
            CostSourceKind::TimerAugmented,
            WlmParams { r: 2, w_cell: 3 },
        );
        src.observe(&CostSample {
            dsmc_move_seconds: 1.0,
            neutral_total: 10,
            ..CostSample::default()
        });
        let w = src.cell_weights(&[10, 0], &[0, 0]);
        assert_eq!(w[1], 3, "empty cell must keep the W_cell floor");
        assert!(w[0] > w[1]);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(CostSourceKind::PaperWlm.name(), "paper_wlm");
        assert_eq!(CostSourceKind::TimerAugmented.name(), "timer_augmented");
        assert_eq!(CostSourceKind::default(), CostSourceKind::PaperWlm);
    }
}
