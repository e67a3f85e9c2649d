//! The solver phases and the per-phase time breakdown, mirroring the
//! breakdown the paper reports in Table IV. They live here so
//! observers, sinks and exporters can speak the same phase vocabulary
//! without depending on the solver crate; `coupled` re-exports both.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut};

/// The solver phases of Fig. 1 that we time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Inject,
    DsmcMove,
    DsmcExchange,
    ColliReact,
    PicMove,
    PicExchange,
    PoissonSolve,
    Reindex,
    Rebalance,
}

impl Phase {
    /// All phases, in the paper's reporting order.
    pub const ALL: [Phase; 9] = [
        Phase::DsmcMove,
        Phase::DsmcExchange,
        Phase::Inject,
        Phase::PicMove,
        Phase::PicExchange,
        Phase::PoissonSolve,
        Phase::Reindex,
        Phase::ColliReact,
        Phase::Rebalance,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Inject => "Inject",
            Phase::DsmcMove => "DSMC_Move",
            Phase::DsmcExchange => "DSMC_Exchange",
            Phase::ColliReact => "Colli_React",
            Phase::PicMove => "PIC_Move",
            Phase::PicExchange => "PIC_Exchange",
            Phase::PoissonSolve => "Poisson_Solve",
            Phase::Reindex => "Reindex",
            Phase::Rebalance => "Rebalance",
        }
    }

    /// Storage index into a [`Breakdown`] (stable, not the
    /// [`Phase::ALL`] reporting order).
    pub fn idx(self) -> usize {
        match self {
            Phase::Inject => 0,
            Phase::DsmcMove => 1,
            Phase::DsmcExchange => 2,
            Phase::ColliReact => 3,
            Phase::PicMove => 4,
            Phase::PicExchange => 5,
            Phase::PoissonSolve => 6,
            Phase::Reindex => 7,
            Phase::Rebalance => 8,
        }
    }
}

/// Seconds per phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    t: [f64; 9],
}

impl Breakdown {
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Total time across all phases.
    pub fn total(&self) -> f64 {
        self.t.iter().sum()
    }

    /// Time in the two exchange phases (the `pm` term of eq. 6).
    pub fn migration(&self) -> f64 {
        self[Phase::DsmcExchange] + self[Phase::PicExchange]
    }

    /// The `poi` term of eq. 6.
    pub fn poisson(&self) -> f64 {
        self[Phase::PoissonSolve]
    }
}

impl Index<Phase> for Breakdown {
    type Output = f64;
    fn index(&self, p: Phase) -> &f64 {
        &self.t[p.idx()]
    }
}

impl IndexMut<Phase> for Breakdown {
    fn index_mut(&mut self, p: Phase) -> &mut f64 {
        &mut self.t[p.idx()]
    }
}

impl Add for Breakdown {
    type Output = Breakdown;
    fn add(self, o: Breakdown) -> Breakdown {
        let mut out = self;
        out += o;
        out
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, o: Breakdown) {
        for (a, b) in self.t.iter_mut().zip(o.t) {
            *a += b;
        }
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in Phase::ALL {
            writeln!(f, "{:>14}: {:>10.3} s", p.name(), self[p])?;
        }
        writeln!(f, "{:>14}: {:>10.3} s", "TOTAL", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_total() {
        let mut b = Breakdown::new();
        b[Phase::Inject] = 1.5;
        b[Phase::PoissonSolve] = 2.0;
        assert_eq!(b[Phase::Inject], 1.5);
        assert!((b.total() - 3.5).abs() < 1e-15);
        assert_eq!(b.poisson(), 2.0);
    }

    #[test]
    fn add_merges_phases() {
        let mut a = Breakdown::new();
        a[Phase::DsmcMove] = 1.0;
        let mut b = Breakdown::new();
        b[Phase::DsmcMove] = 2.0;
        b[Phase::PicExchange] = 0.5;
        let c = a + b;
        assert_eq!(c[Phase::DsmcMove], 3.0);
        assert_eq!(c.migration(), 0.5);
    }

    #[test]
    fn all_phases_have_unique_indices() {
        let mut seen = [false; 9];
        for p in Phase::ALL {
            assert!(!seen[p.idx()], "duplicate index for {p:?}");
            seen[p.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
