//! Deterministic fault injection for sweep robustness testing.
//!
//! A sweep engine's failure containment is only trustworthy if it can be
//! exercised on demand, reproducibly. A [`FaultPlan`] injects panics and
//! transient errors into chosen lifecycle stages through the [`Tracer`]'s
//! span hook — the one chokepoint every stage already passes through — so
//! no component needs fault-injection code of its own.
//!
//! Every decision is a pure function of `(plan seed, job seed, stage,
//! attempt)`: the same plan over the same seed list fires the same faults
//! at every thread budget, which is what lets the golden-style tests
//! assert that a faulted sweep's manifest (failures array included) is
//! byte-identical at 1 and 8 threads.
//!
//! [`Tracer`]: crate::Tracer

use crate::{Stage, STAGES};

/// Message prefix of an injected *permanent* fault (a simulated
/// programming error; never retried).
pub const INJECTED_PANIC: &str = "injected fault";

/// Message prefix of an injected *transient* fault. Sweep runners treat a
/// failure whose message starts with this marker as retryable under their
/// bounded retry policy.
pub const INJECTED_TRANSIENT: &str = "injected transient fault";

/// `true` when a failure message denotes an injected transient fault
/// (the only failure class the deterministic retry policy retries).
#[must_use]
pub fn is_transient_failure(message: &str) -> bool {
    // The runner prefixes captured panics with "panic: ".
    message.starts_with(INJECTED_TRANSIENT)
        || message
            .strip_prefix("panic: ")
            .is_some_and(|m| m.starts_with(INJECTED_TRANSIENT))
}

/// Which kind(s) of fault a plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwinding panics only (permanent: never retried).
    Panic,
    /// Transient faults only (retryable under the sweep's retry budget).
    Transient,
    /// A deterministic per-decision mix of both.
    Mixed,
}

/// A seeded fault-injection plan: which stage to target, how often to
/// fire, and which kind of fault to raise.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    stage: Stage,
    rate: f64,
    kind: FaultKind,
}

impl FaultPlan {
    /// Creates a plan targeting `stage`, firing with probability `rate`
    /// per `(job seed, attempt)`. `rate` is clamped to `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, stage: Stage, rate: f64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            seed,
            stage,
            rate: rate.clamp(0.0, 1.0),
            kind,
        }
    }

    /// Parses a CLI fault spec: `RATE`, `STAGE:RATE`, or
    /// `STAGE:RATE:KIND` with `KIND` one of `panic | transient | mixed`.
    /// Defaults: stage `train`, kind `mixed`.
    pub fn parse(spec: &str, seed: u64) -> std::result::Result<FaultPlan, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let (stage_text, rate_text, kind_text) = match parts.as_slice() {
            [rate] => ("train", *rate, "mixed"),
            [stage, rate] => (*stage, *rate, "mixed"),
            [stage, rate, kind] => (*stage, *rate, *kind),
            _ => {
                return Err(format!(
                    "fault spec `{spec}`: expected RATE, STAGE:RATE, or STAGE:RATE:KIND"
                ))
            }
        };
        let stage = stage_from_name(stage_text)
            .ok_or_else(|| format!("fault spec `{spec}`: unknown stage `{stage_text}`"))?;
        let rate: f64 = rate_text
            .parse()
            .map_err(|_| format!("fault spec `{spec}`: `{rate_text}` is not a rate"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!(
                "fault spec `{spec}`: rate must be in [0, 1], got {rate}"
            ));
        }
        let kind = match kind_text {
            "panic" => FaultKind::Panic,
            "transient" => FaultKind::Transient,
            "mixed" => FaultKind::Mixed,
            other => return Err(format!("fault spec `{spec}`: unknown kind `{other}`")),
        };
        Ok(FaultPlan::new(seed, stage, rate, kind))
    }

    /// The stage this plan targets.
    #[must_use]
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Arms the plan for one job attempt. The returned [`FaultArm`] is
    /// attached to that attempt's tracer via
    /// [`Tracer::with_faults`](crate::Tracer::with_faults).
    #[must_use]
    pub fn arm(&self, job_seed: u64, attempt: u32) -> FaultArm {
        FaultArm {
            plan: self.clone(),
            job_seed,
            attempt,
        }
    }

    /// The fault (if any) this plan fires for one `(job seed, attempt)`
    /// pair — a pure function, usable by tests to predict sweep outcomes.
    #[must_use]
    pub fn decide(&self, job_seed: u64, attempt: u32) -> Option<FaultKind> {
        let h = mix(
            self.seed,
            job_seed,
            fnv1a(self.stage.name().as_bytes()),
            u64::from(attempt),
        );
        // 53 high bits -> uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        Some(match self.kind {
            FaultKind::Mixed => {
                if h & 1 == 0 {
                    FaultKind::Panic
                } else {
                    FaultKind::Transient
                }
            }
            fixed => fixed,
        })
    }
}

/// A [`FaultPlan`] armed for one specific job attempt.
#[derive(Debug, Clone)]
pub struct FaultArm {
    plan: FaultPlan,
    job_seed: u64,
    attempt: u32,
}

impl FaultArm {
    /// Called from the tracer's span hook on stage entry; panics when the
    /// plan fires for this `(job seed, attempt, stage)`.
    pub(crate) fn trip(&self, stage: Stage) {
        if stage != self.plan.stage {
            return;
        }
        match self.plan.decide(self.job_seed, self.attempt) {
            None | Some(FaultKind::Mixed) => {}
            #[expect(
                clippy::panic,
                reason = "fault injection exists to raise exactly this panic; the sweep runner catches and records it"
            )]
            Some(FaultKind::Panic) => {
                panic!(
                    "{INJECTED_PANIC}: stage {}, seed {}, attempt {}",
                    stage.name(),
                    self.job_seed,
                    self.attempt
                );
            }
            #[expect(
                clippy::panic,
                reason = "injected transient faults unwind to the runner, which classifies them as retryable"
            )]
            Some(FaultKind::Transient) => {
                panic!(
                    "{INJECTED_TRANSIENT}: stage {}, seed {}, attempt {}",
                    stage.name(),
                    self.job_seed,
                    self.attempt
                );
            }
        }
    }
}

/// Looks a stage up by its manifest name (`"train"`, `"impute"`, …).
#[must_use]
pub fn stage_from_name(name: &str) -> Option<Stage> {
    STAGES.iter().copied().find(|s| s.name() == name)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64-style finalizer over the four decision inputs.
fn mix(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut z = a ^ b.rotate_left(17) ^ c.rotate_left(31) ^ d.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn decisions_are_deterministic_and_rate_bounded() {
        let plan = FaultPlan::new(99, Stage::Train, 0.25, FaultKind::Mixed);
        let fires: Vec<Option<FaultKind>> = (0..400).map(|s| plan.decide(s, 0)).collect();
        let again: Vec<Option<FaultKind>> = (0..400).map(|s| plan.decide(s, 0)).collect();
        assert_eq!(fires, again);
        let n = fires.iter().filter(|f| f.is_some()).count();
        assert!((40..160).contains(&n), "rate 0.25 fired {n}/400 times");
        // A mixed plan resolves to concrete kinds, never Mixed.
        assert!(fires.iter().flatten().all(|k| *k != FaultKind::Mixed));
        assert!(fires.iter().flatten().any(|k| *k == FaultKind::Panic));
        assert!(fires.iter().flatten().any(|k| *k == FaultKind::Transient));
    }

    #[test]
    fn rate_extremes_always_or_never_fire() {
        let always = FaultPlan::new(1, Stage::Train, 1.0, FaultKind::Panic);
        let never = FaultPlan::new(1, Stage::Train, 0.0, FaultKind::Panic);
        for s in 0..50 {
            assert_eq!(always.decide(s, 0), Some(FaultKind::Panic));
            assert_eq!(never.decide(s, 0), None);
        }
    }

    #[test]
    fn attempts_decorrelate_so_retries_can_succeed() {
        let plan = FaultPlan::new(7, Stage::Train, 0.5, FaultKind::Transient);
        let recovered = (0..200)
            .filter(|&s| plan.decide(s, 0).is_some() && plan.decide(s, 1).is_none())
            .count();
        assert!(recovered > 10, "no seed recovered on retry: {recovered}");
    }

    #[test]
    fn armed_tracer_panics_on_the_target_stage_only() {
        let plan = FaultPlan::new(3, Stage::Train, 1.0, FaultKind::Panic);
        let tracer = Tracer::disabled().with_faults(plan.arm(11, 0));
        {
            let _ok = tracer.span(Stage::Split); // non-target stage: no fire
        }
        let panic = fairprep_catch(|| {
            let _guard = tracer.span(Stage::Train);
        })
        .unwrap_err();
        assert!(panic.starts_with(INJECTED_PANIC), "{panic}");
        assert!(panic.contains("seed 11"), "{panic}");
    }

    #[test]
    fn transient_marker_classification() {
        assert!(is_transient_failure(
            "injected transient fault: stage train, seed 1, attempt 0"
        ));
        assert!(is_transient_failure(
            "panic: injected transient fault: stage train, seed 1, attempt 0"
        ));
        assert!(!is_transient_failure("injected fault: stage train"));
        assert!(!is_transient_failure("panic: index out of bounds"));
    }

    #[test]
    fn spec_parsing_covers_the_grammar() {
        let p = FaultPlan::parse("0.5", 9).unwrap();
        assert_eq!(p.stage(), Stage::Train);
        let p = FaultPlan::parse("impute:0.25", 9).unwrap();
        assert_eq!(p.stage(), Stage::Impute);
        let p = FaultPlan::parse("evaluate:1.0:transient", 9).unwrap();
        assert_eq!(
            p,
            FaultPlan::new(9, Stage::Evaluate, 1.0, FaultKind::Transient)
        );
        for bad in ["", "xyz:0.5", "train:2.0", "train:0.5:sometimes", "a:b:c:d"] {
            assert!(FaultPlan::parse(bad, 9).is_err(), "{bad:?} should fail");
        }
    }

    /// Test-local panic catcher (the real one lives in `fairprep-data`,
    /// which this crate must not depend on).
    fn fairprep_catch(f: impl FnOnce()) -> std::result::Result<(), String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        })
    }
}
