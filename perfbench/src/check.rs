//! Output checks: a certified reference diameter, the per-operation
//! inequalities against it, repeat/thread-count determinism, and the
//! attempted/failed tally.

use cldiam_core::{anytime_diameter_with_split, AnytimeConfig};
use cldiam_graph::{Dist, NeighborSource};
use cldiam_sssp::{BoundsConfig, ComponentSplit};

/// Per-component SSSP budget of the reference run: large enough that the
/// oracle-free engine runs to convergence on every workload.
const REFERENCE_BUDGET: usize = 1 << 16;

/// The certified diameter every operation is checked against.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// The exact diameter, or the certified lower bound when the engine did
    /// not converge.
    pub value: Dist,
    /// `true` when `value` is the exact diameter.
    pub exact: bool,
    /// SSSP runs the reference spent.
    pub sssp: usize,
}

impl Reference {
    /// Runs the oracle-free bounds engine (`AnytimeConfig { cluster: None }`,
    /// tolerance 1.0) until it converges or exhausts its budget.
    pub fn compute<G: NeighborSource>(graph: &G, split: &ComponentSplit) -> Self {
        let config = AnytimeConfig {
            bounds: BoundsConfig::default().with_max_sssp(REFERENCE_BUDGET).with_tolerance(1.0),
            cluster: None,
        };
        let outcome = anytime_diameter_with_split(graph, &config, split);
        Reference { value: outcome.lower, exact: outcome.converged, sssp: outcome.sssp_runs }
    }

    /// What a ratio against this reference is relative to.
    pub fn base(&self) -> &'static str {
        if self.exact {
            "exact"
        } else {
            "lower_bound"
        }
    }

    /// `estimate / value` (1.0 for the empty diameter).
    pub fn ratio(&self, estimate: Dist) -> f64 {
        if self.value == 0 {
            if estimate == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            estimate as f64 / self.value as f64
        }
    }

    /// A reported upper bound must reach the diameter.
    pub fn check_upper(&self, what: &str, upper: Dist) -> Result<(), String> {
        if upper >= self.value {
            Ok(())
        } else {
            Err(format!("{what}: upper bound {upper} is below the {} {}", self.base(), self.value))
        }
    }

    /// A reported bracket must contain the diameter. Against a
    /// non-converged reference only the upper side can be checked.
    pub fn check_bracket(&self, what: &str, lower: Dist, upper: Dist) -> Result<(), String> {
        self.check_upper(what, upper)?;
        if self.exact && lower > self.value {
            return Err(format!("{what}: lower bound {lower} is above the exact {}", self.value));
        }
        Ok(())
    }
}

/// Holds the first value seen and rejects any later value that differs.
pub struct Pinned<T> {
    first: Option<T>,
}

impl<T: PartialEq + std::fmt::Debug> Pinned<T> {
    pub fn new() -> Self {
        Pinned { first: None }
    }

    pub fn check(&mut self, what: &str, value: T) -> Result<(), String> {
        match &self.first {
            None => {
                self.first = Some(value);
                Ok(())
            }
            Some(first) if *first == value => Ok(()),
            Some(first) => Err(format!("{what}: {value:?} differs from the first run's {first:?}")),
        }
    }
}

/// Operations attempted and failed, with the message of every failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns whether it passed.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(message) => {
                self.failures.push(message);
                false
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_and_bracket_checks() {
        let exact = Reference { value: 100, exact: true, sssp: 3 };
        assert!(exact.check_upper("x", 100).is_ok());
        assert!(exact.check_upper("x", 99).is_err());
        assert!(exact.check_bracket("x", 100, 100).is_ok());
        assert!(exact.check_bracket("x", 101, 120).is_err());
        let lower = Reference { value: 100, exact: false, sssp: 3 };
        assert!(lower.check_bracket("x", 150, 160).is_ok());
        assert_eq!(lower.base(), "lower_bound");
    }

    #[test]
    fn pinned_rejects_a_changed_value() {
        let mut pin = Pinned::new();
        assert!(pin.check("x", (1, 2)).is_ok());
        assert!(pin.check("x", (1, 2)).is_ok());
        assert!(pin.check("x", (1, 3)).is_err());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert!(tally.record(Ok(())));
        assert!(!tally.record(Err("bad".into())));
        assert_eq!((tally.attempted, tally.failed()), (2, 1));
    }
}
