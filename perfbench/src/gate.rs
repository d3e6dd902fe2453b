//! The correctness gate: every op's outputs compared bit for bit with
//! a reference, failures counted, never dropped.

/// Running tally of checked ops.
///
/// `attempted` and `failed` count timed ops and requests only. Checks
/// of untimed work — warm-up ops, an episode's final state, set-up
/// requests — are tallied apart, in `untimed_checked` and
/// `untimed_failed`; a failed one still makes the run incorrect.
#[derive(Debug, Default)]
pub struct Gate {
    /// Timed ops attempted (each is checked exactly once).
    pub attempted: u64,
    /// Timed ops that failed, were wrong, or were refused.
    pub failed: u64,
    /// Checks of untimed work.
    pub untimed_checked: u64,
    /// Checks of untimed work that failed.
    pub untimed_failed: u64,
    /// The first failure's description, for the detail line.
    pub first_failure: Option<String>,
    /// Set while [`Gate::untimed`] runs.
    in_untimed: bool,
}

impl Gate {
    /// Count one op that passed.
    pub fn pass(&mut self) {
        if self.in_untimed {
            self.untimed_checked += 1;
        } else {
            self.attempted += 1;
        }
    }

    /// Count one op that failed, keeping the first reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.pass();
        if self.in_untimed {
            self.untimed_failed += 1;
        } else {
            self.failed += 1;
        }
        if self.first_failure.is_none() {
            self.first_failure = Some(why.into());
        }
    }

    /// Run `checks` with every check they make counted as a check of
    /// untimed work.
    pub fn untimed<R>(&mut self, checks: impl FnOnce(&mut Gate) -> R) -> R {
        let outer = std::mem::replace(&mut self.in_untimed, true);
        let r = checks(self);
        self.in_untimed = outer;
        r
    }

    /// Whether every check, timed or not, passed and at least one
    /// timed op was checked.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.untimed_failed == 0 && self.attempted > 0
    }

    /// Check one op whose outputs are `got` against the reference
    /// `want`, bit for bit.
    pub fn check_bits(&mut self, what: &str, got: &[u64], want: Option<&[u64]>) {
        match want {
            Some(want) if want == got => self.pass(),
            Some(_) => self.fail(format!("{what}: output differs from the reference")),
            None => self.fail(format!("{what}: no reference output")),
        }
    }

    /// Failed ops over attempted ops.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let share = self.failed as f64 / self.attempted as f64;
        share
    }
}

/// The bit patterns of `values`, the unit the gate compares.
#[must_use]
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_checksum_is_rejected() {
        let reference = [1.25, -3.5e-7, 42.0];
        let mut gate = Gate::default();
        gate.check_bits("op 0", &bits(&reference), Some(&bits(&reference)));
        assert_eq!((gate.attempted, gate.failed), (1, 0));

        // One ulp off in one component: a tolerance check would pass
        // it, the gate must not.
        let mut corrupted = reference;
        corrupted[1] = f64::from_bits(corrupted[1].to_bits() ^ 1);
        gate.check_bits("op 1", &bits(&corrupted), Some(&bits(&reference)));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert_eq!(
            gate.first_failure.as_deref().map(|s| s.starts_with("op 1")),
            Some(true)
        );

        // -0.0 == 0.0 as floats, but not as bits.
        gate.check_bits("op 2", &bits(&[-0.0]), Some(&bits(&[0.0])));
        gate.check_bits("op 3", &bits(&[1.0]), None);
        assert_eq!((gate.attempted, gate.failed), (4, 3));
        assert!((gate.failed_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn untimed_checks_are_tallied_apart_and_still_fail_the_run() {
        let want = bits(&[2.0]);
        let mut gate = Gate::default();
        gate.check_bits("op 0", &want, Some(&want));
        gate.untimed(|g| g.check_bits("warm-up op", &want, Some(&want)));
        assert!(gate.correct());
        gate.untimed(|g| g.check_bits("final state", &bits(&[3.0]), Some(&want)));
        assert_eq!((gate.attempted, gate.failed), (1, 0));
        assert_eq!((gate.untimed_checked, gate.untimed_failed), (2, 1));
        assert_eq!(gate.failed_share(), 0.0);
        assert!(!gate.correct(), "an untimed failure fails the run");
        gate.check_bits("op 1", &want, Some(&want));
        assert_eq!(gate.attempted, 2, "timed counting resumes");
    }
}
