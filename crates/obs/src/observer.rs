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

    /// One sample of a named per-cell field (e.g. `"density_h"`,
    /// `"phi"`), fed once per step by drivers that keep time-averaged
    /// diagnostics. Purely observational — implementations must not
    /// feed anything back into the physics.
    fn field_sample(&mut self, name: &'static str, values: &[f64]) {
        let _ = (name, values);
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
    fn field_sample(&mut self, name: &'static str, values: &[f64]) {
        (**self).field_sample(name, values);
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
    fn field_sample(&mut self, name: &'static str, values: &[f64]) {
        self.0.field_sample(name, values);
        self.1.field_sample(name, values);
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
        fn field_sample(&mut self, _n: &'static str, _v: &[f64]) {
            self.0 += 100;
        }
    }

    #[test]
    fn tee_fans_out_every_signal() {
        let mut tee = Tee(Count::default(), Count::default());
        tee.phase(Phase::Inject, 0.1);
        tee.step(0, &StepTrace::default());
        tee.field_sample("rho", &[1.0]);
        assert_eq!(tee.0 .0, 111);
        assert_eq!(tee.1 .0, 111);
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
