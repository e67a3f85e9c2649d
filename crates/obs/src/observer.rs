//! The public observer API of the step pipeline.
//!
//! An [`Observer`] receives everything the engine measures while a
//! run is in flight: per-phase times, per-exchange traffic, rebalance
//! decisions and the per-step trace. All methods default to no-ops,
//! so an implementation opts into exactly the signals it needs.

use crate::events::{ExchangeEvent, RebalanceEvent, StepTrace};
use crate::phase::Phase;

/// Observer of a coupled run. Called synchronously from the step
/// pipeline; implementations should be cheap (defer aggregation,
/// don't block).
pub trait Observer {
    /// `phase` took `seconds` this step (once per phase per step,
    /// after the step completes, in [`Phase::ALL`] order).
    fn phase(&mut self, phase: Phase, seconds: f64) {
        let _ = (phase, seconds);
    }

    /// A particle exchange completed.
    fn exchange(&mut self, ev: &ExchangeEvent) {
        let _ = ev;
    }

    /// The load balancer re-decomposed the domain.
    fn rebalance(&mut self, ev: &RebalanceEvent) {
        let _ = ev;
    }

    /// Step `index` finished with this trace.
    fn step(&mut self, index: usize, trace: &StepTrace) {
        let _ = (index, trace);
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn phase(&mut self, phase: Phase, seconds: f64) {
        (**self).phase(phase, seconds);
    }
    fn exchange(&mut self, ev: &ExchangeEvent) {
        (**self).exchange(ev);
    }
    fn rebalance(&mut self, ev: &RebalanceEvent) {
        (**self).rebalance(ev);
    }
    fn step(&mut self, index: usize, trace: &StepTrace) {
        (**self).step(index, trace);
    }
}

/// Fan-out to two observers (nest for more).
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    fn phase(&mut self, phase: Phase, seconds: f64) {
        self.0.phase(phase, seconds);
        self.1.phase(phase, seconds);
    }
    fn exchange(&mut self, ev: &ExchangeEvent) {
        self.0.exchange(ev);
        self.1.exchange(ev);
    }
    fn rebalance(&mut self, ev: &RebalanceEvent) {
        self.0.rebalance(ev);
        self.1.rebalance(ev);
    }
    fn step(&mut self, index: usize, trace: &StepTrace) {
        self.0.step(index, trace);
        self.1.step(index, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Count(usize);
    impl Observer for Count {
        fn phase(&mut self, _p: Phase, _s: f64) {
            self.0 += 1;
        }
        fn step(&mut self, _i: usize, _t: &StepTrace) {
            self.0 += 10;
        }
    }

    #[test]
    fn tee_fans_out_every_signal() {
        let mut tee = Tee(Count::default(), Count::default());
        tee.phase(Phase::Inject, 0.1);
        tee.step(0, &StepTrace::default());
        assert_eq!(tee.0 .0, 11);
        assert_eq!(tee.1 .0, 11);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Count::default();
        {
            let mut r: &mut Count = &mut c;
            Observer::phase(&mut r, Phase::Inject, 0.0);
        }
        assert_eq!(c.0, 1);
    }
}
