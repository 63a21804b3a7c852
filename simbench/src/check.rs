//! Output checks: every op is attempted once and fails if its simulated
//! statistics break an invariant, or if the run's rolling digest at a
//! checkpoint differs from the one recorded for that workload and seed.

use crate::workload::OpOutcome;
use crate::{is_checkpoint, Digest};

/// Counts attempted and failed ops, keeping the first failure's reason.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Checker {
    /// A checker with nothing attempted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one attempted op and its check result.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(reason);
        }
    }

    /// Records a check that is not an op (set-up, fabric round trip):
    /// a failure counts as a failed op, a pass adds nothing.
    pub fn require(&mut self, result: Result<(), String>) {
        if result.is_err() {
            self.record(result);
        }
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Ops failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The first failure's reason, if any.
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// Checks `outcome` against the invariants in `expect` and, when one is
/// recorded, against the expected digest.
pub fn verify(outcome: &OpOutcome, expect: &Expect, digest: Option<u64>) -> Result<(), String> {
    if outcome.delivered > outcome.offered {
        return Err(format!(
            "delivered {} > offered {}",
            outcome.delivered, outcome.offered
        ));
    }
    if outcome.delivered == 0 {
        return Err("nothing delivered".to_string());
    }
    if let Some(offered) = expect.offered {
        if outcome.offered != offered {
            return Err(format!("offered {} != {offered}", outcome.offered));
        }
    }
    if outcome.offered > expect.inputs * outcome.cycles
        || outcome.delivered > expect.outputs * outcome.cycles
    {
        return Err(format!(
            "offered {} / delivered {} in {} cycles exceeds {} inputs / {} outputs per cycle",
            outcome.offered, outcome.delivered, outcome.cycles, expect.inputs, expect.outputs
        ));
    }
    if let Some(delivered) = expect.delivered {
        if outcome.delivered != delivered {
            return Err(format!("delivered {} != {delivered}", outcome.delivered));
        }
    }
    let (low, high) = expect.cycles;
    if outcome.cycles < low || outcome.cycles > high {
        return Err(format!(
            "{} simulated cycles outside {low}..={high}",
            outcome.cycles
        ));
    }
    if !outcome.consistent {
        return Err("per-item statistics disagree with their totals".to_string());
    }
    if let Some(expected) = digest {
        if outcome.digest() != expected {
            return Err(format!(
                "digest {:016x} != recorded {expected:016x}",
                outcome.digest()
            ));
        }
    }
    Ok(())
}

/// Per-workload invariants of every op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Exact offered count, when the workload fixes it.
    pub offered: Option<u64>,
    /// Exact delivered count, when the workload fixes it.
    pub delivered: Option<u64>,
    /// Inclusive range of simulated cycles.
    pub cycles: (u64, u64),
    /// Most requests the op can offer per simulated cycle.
    pub inputs: u64,
    /// Most requests the op can deliver per simulated cycle.
    pub outputs: u64,
}

/// The checks of one run's ops, in op order: each op's invariants, and
/// the rolling digest of all ops so far at every checkpoint
/// ([`is_checkpoint`]) that `recorded` holds.
#[derive(Debug, Clone)]
pub struct OpChecks {
    expect: Expect,
    recorded: Vec<(u64, u64)>,
    rolling: Digest,
    count: u64,
    compared: u64,
}

impl OpChecks {
    /// Checks against `expect` and the recorded `(op count, rolling
    /// digest)` checkpoints (empty when none are recorded).
    pub fn new(expect: Expect, recorded: Vec<(u64, u64)>) -> Self {
        OpChecks {
            expect,
            recorded,
            rolling: Digest::new(),
            count: 0,
            compared: 0,
        }
    }

    /// Checks the next op. A checkpoint mismatch fails the op that
    /// completes the checkpoint.
    pub fn check(&mut self, outcome: &OpOutcome) -> Result<(), String> {
        self.rolling = self.rolling.word(outcome.digest());
        self.count += 1;
        verify(outcome, &self.expect, None)?;
        if !is_checkpoint(self.count) {
            return Ok(());
        }
        let Some(&(_, recorded)) = self.recorded.iter().find(|(n, _)| *n == self.count) else {
            return Ok(());
        };
        self.compared = self.count;
        if recorded == self.rolling.value() {
            Ok(())
        } else {
            Err(format!(
                "rolling digest of ops 0..{} is {:016x}, recorded {recorded:016x}",
                self.count,
                self.rolling.value()
            ))
        }
    }

    /// The rolling digest of the ops checked so far.
    pub fn rolling(&self) -> u64 {
        self.rolling.value()
    }

    /// Ops checked so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The op count of the last checkpoint compared (0 if none).
    pub fn compared_through(&self) -> u64 {
        self.compared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> OpOutcome {
        OpOutcome {
            offered: 1000,
            delivered: 600,
            cycles: 8,
            detail: 42,
            consistent: true,
        }
    }

    const EXPECT: Expect = Expect {
        offered: Some(1000),
        delivered: None,
        cycles: (8, 8),
        inputs: 125,
        outputs: 100,
    };

    #[test]
    fn clean_outcome_passes() {
        let good = outcome();
        assert_eq!(verify(&good, &EXPECT, Some(good.digest())), Ok(()));
        assert_eq!(verify(&good, &EXPECT, None), Ok(()));
    }

    #[test]
    fn perturbed_outcomes_raise_error_rate() {
        let recorded = outcome().digest();
        let perturbations: [fn(&mut OpOutcome); 7] = [
            |o| o.delivered += 1,     // digest mismatch
            |o| o.offered -= 1,       // wrong offered count
            |o| o.delivered = 1001,   // more delivered than offered
            |o| o.delivered = 801,    // more than the outputs can take
            |o| o.cycles = 9,         // wrong cycle count
            |o| o.detail ^= 1,        // one per-seed statistic changed
            |o| o.consistent = false, // items disagree with totals
        ];
        let mut checker = Checker::new();
        checker.record(verify(&outcome(), &EXPECT, Some(recorded)));
        assert_eq!(checker.error_rate(), 0.0);
        for (i, perturb) in perturbations.iter().enumerate() {
            let mut bad = outcome();
            perturb(&mut bad);
            let result = verify(&bad, &EXPECT, Some(recorded));
            assert!(result.is_err(), "perturbation {i} passed");
            checker.record(result);
        }
        assert_eq!(checker.attempted(), 8);
        assert_eq!(checker.failed(), 7);
        assert!((checker.error_rate() - 7.0 / 8.0).abs() < 1e-12);
        assert!(checker.first_failure().unwrap().contains("digest"));
    }

    /// Rolling digests of `ops`, at every checkpoint.
    fn record(ops: &[OpOutcome]) -> Vec<(u64, u64)> {
        let mut checks = OpChecks::new(EXPECT, Vec::new());
        ops.iter()
            .filter_map(|o| {
                checks.check(o).unwrap();
                is_checkpoint(checks.count()).then(|| (checks.count(), checks.rolling()))
            })
            .collect()
    }

    #[test]
    fn a_late_perturbation_fails_the_checkpoint_that_covers_it() {
        let ops: Vec<OpOutcome> = (0..40)
            .map(|i| OpOutcome {
                detail: i,
                ..outcome()
            })
            .collect();
        let recorded = record(&ops);
        assert_eq!(recorded.len(), 10); // 1..=8, 16, 32

        // Op 20 changes one per-item statistic; only the 32 checkpoint
        // covers it, so exactly op 31 fails.
        let mut bad = ops.clone();
        bad[20].detail ^= 1;
        let mut checker = Checker::new();
        let mut checks = OpChecks::new(EXPECT, recorded.clone());
        for op in &bad {
            checker.record(checks.check(op));
        }
        assert_eq!((checker.attempted(), checker.failed()), (40, 1));
        assert!(checker.first_failure().unwrap().contains("ops 0..32"));
        assert_eq!(checks.compared_through(), 32);

        // The unperturbed run passes every checkpoint.
        let mut checks = OpChecks::new(EXPECT, recorded);
        assert!(ops.iter().all(|op| checks.check(op).is_ok()));
    }

    #[test]
    fn require_counts_only_failures() {
        let mut checker = Checker::new();
        checker.require(Ok(()));
        assert_eq!(checker.attempted(), 0);
        checker.require(Err("fabric".to_string()));
        assert_eq!((checker.attempted(), checker.failed()), (1, 1));
    }
}
