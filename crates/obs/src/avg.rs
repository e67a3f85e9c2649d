//! Trailing-window time averages of per-cell field samples.
//!
//! Steady-state diagnostics (density profiles, potential maps) are
//! noisy step-to-step; the standard DSMC remedy is a trailing time
//! average. [`TimeAverage`] keeps the last `window` samples of each
//! named field and reports their element-wise mean. The mean is
//! recomputed from the retained samples in arrival order on every
//! query, so it is bitwise deterministic: no incremental sum drifts
//! with the eviction history.

use std::collections::{BTreeMap, VecDeque};

/// Per-field trailing sample window.
#[derive(Debug, Clone, Default)]
struct FieldWindow {
    ring: VecDeque<Vec<f64>>,
}

/// Trailing-window mean of named field samples (the whole-domain run
/// loop pushes `density_h` and `phi` once per step).
#[derive(Debug, Clone)]
pub struct TimeAverage {
    window: usize,
    fields: BTreeMap<&'static str, FieldWindow>,
}

impl TimeAverage {
    /// Average over the trailing `window` samples. `window == 0`
    /// records nothing (every push is dropped).
    pub fn new(window: usize) -> Self {
        TimeAverage {
            window,
            fields: BTreeMap::new(),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Record one sample of `name`. Keeps at most `window` samples,
    /// evicting the oldest. A sample whose length differs from the
    /// retained ones resets that field's window (the field was
    /// redefined; averaging across shapes would be meaningless).
    pub fn push(&mut self, name: &'static str, values: &[f64]) {
        if self.window == 0 {
            return;
        }
        let field = self.fields.entry(name).or_default();
        if field
            .ring
            .front()
            .is_some_and(|prev| prev.len() != values.len())
        {
            field.ring.clear();
        }
        if field.ring.len() == self.window {
            field.ring.pop_front();
        }
        field.ring.push_back(values.to_vec());
    }

    /// Number of samples currently retained for `name`.
    pub fn samples(&self, name: &str) -> usize {
        self.fields.get(name).map_or(0, |f| f.ring.len())
    }

    /// Element-wise mean of the retained samples of `name`, oldest
    /// first (summation order is fixed, so the result is bitwise
    /// reproducible). `None` until at least one sample arrived.
    pub fn mean(&self, name: &str) -> Option<Vec<f64>> {
        let field = self.fields.get(name)?;
        let n = field.ring.len();
        if n == 0 {
            return None;
        }
        let mut acc = vec![0.0; field.ring.front().map_or(0, Vec::len)];
        for sample in &field.ring {
            for (a, v) in acc.iter_mut().zip(sample) {
                *a += v;
            }
        }
        let inv = 1.0 / n as f64;
        for a in &mut acc {
            *a *= inv;
        }
        Some(acc)
    }

    /// Names with at least one retained sample, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.fields
            .iter()
            .filter(|(_, f)| !f.ring.is_empty())
            .map(|(&n, _)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_window_mean() {
        let mut avg = TimeAverage::new(3);
        assert_eq!(avg.mean("rho"), None);
        avg.push("rho", &[1.0, 10.0]);
        assert_eq!(avg.mean("rho"), Some(vec![1.0, 10.0]));
        avg.push("rho", &[2.0, 20.0]);
        avg.push("rho", &[3.0, 30.0]);
        assert_eq!(avg.mean("rho"), Some(vec![2.0, 20.0]));
        // fourth sample evicts the first: mean of 2, 3, 4
        avg.push("rho", &[4.0, 40.0]);
        assert_eq!(avg.mean("rho"), Some(vec![3.0, 30.0]));
        assert_eq!(avg.samples("rho"), 3);
        assert_eq!(avg.names().collect::<Vec<_>>(), vec!["rho"]);
    }

    #[test]
    fn zero_window_records_nothing() {
        let mut avg = TimeAverage::new(0);
        avg.push("rho", &[1.0]);
        assert_eq!(avg.samples("rho"), 0);
        assert_eq!(avg.mean("rho"), None);
    }

    #[test]
    fn shape_change_resets_the_field() {
        let mut avg = TimeAverage::new(4);
        avg.push("phi", &[1.0, 2.0]);
        avg.push("phi", &[5.0, 6.0, 7.0]);
        assert_eq!(avg.samples("phi"), 1);
        assert_eq!(avg.mean("phi"), Some(vec![5.0, 6.0, 7.0]));
    }

    #[test]
    fn fields_are_independent() {
        let mut avg = TimeAverage::new(2);
        avg.push("a", &[2.0]);
        avg.push("b", &[8.0]);
        avg.push("a", &[4.0]);
        assert_eq!(avg.mean("a"), Some(vec![3.0]));
        assert_eq!(avg.mean("b"), Some(vec![8.0]));
    }
}
