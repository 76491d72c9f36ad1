//! Pipeline configuration.

use owl_race::{ExploreStrategy, ExplorerConfig};
use owl_static::VulnConfig;
use owl_verify::{RaceVerifyConfig, VulnVerifyConfig};
use owl_vm::{FaultPlan, RunConfig};
use std::time::Duration;

/// Configuration for the whole OWL pipeline (Figure 3).
#[derive(Clone, Debug)]
pub struct OwlConfig {
    /// Detection-stage exploration (stage 1 and the post-annotation
    /// re-run of stage 2).
    pub detect: ExplorerConfig,
    /// Dynamic race verification (stage 3).
    pub race_verify: RaceVerifyConfig,
    /// Static vulnerability analysis (stage 4).
    pub vuln: VulnConfig,
    /// Dynamic vulnerability verification (stage 5).
    pub vuln_verify: VulnVerifyConfig,
    /// Wall-clock deadline the pipeline supervisor enforces per stage
    /// in [`crate::Owl::run`] and [`crate::Owl::run_atomicity`];
    /// reports left unprocessed when it expires are quarantined with
    /// [`crate::PipelineError::StageDeadline`]. A journaled run
    /// ([`crate::Owl::run_with_journal`]) takes no deadline, so that a
    /// resumed campaign replays exactly.
    pub stage_deadline: Option<Duration>,
    /// Run the static check-elision pre-pass before detection and let
    /// the epoch detector skip shadow-memory work at sites it proves
    /// race-free. Purely an optimization — report streams are
    /// byte-identical with it on or off (the reference vector-clock
    /// backend always ignores the stamp). `--no-elide` clears it.
    pub elide: bool,
}

impl Default for OwlConfig {
    fn default() -> Self {
        OwlConfig {
            detect: ExplorerConfig {
                runs_per_input: 12,
                base_seed: 1,
                strategy: ExploreStrategy::Pct { depth: 3 },
                expected_steps: 4_000,
                run_config: RunConfig::default(),
                annotations: Vec::new(),
                workers: 1,
                hb_backend: owl_race::HbBackend::default(),
                elided_sites: None,
                stream: owl_race::StreamConfig::default(),
                fork: true,
            },
            race_verify: RaceVerifyConfig {
                max_schedules: 8,
                ..RaceVerifyConfig::default()
            },
            vuln: VulnConfig::default(),
            vuln_verify: VulnVerifyConfig {
                schedules_per_input: 6,
                ..VulnVerifyConfig::default()
            },
            stage_deadline: None,
            elide: true,
        }
    }
}

impl OwlConfig {
    /// A faster configuration for tests and smoke runs.
    pub fn quick() -> Self {
        let mut c = OwlConfig::default();
        c.detect.runs_per_input = 6;
        c.race_verify.max_schedules = 4;
        c.vuln_verify.schedules_per_input = 4;
        c
    }

    /// Installs the same fault-injection plan in every stage's VM
    /// config (detection, race verification, vulnerability
    /// verification).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.detect.run_config.fault = plan.clone();
        self.race_verify.run_config.fault = plan.clone();
        self.vuln_verify.run_config.fault = plan;
        self
    }

    /// Sets the supervisor's per-stage deadline, and gives the dynamic
    /// verifiers the same wall-clock budget per report (so a slow
    /// attempt loop bails out rather than blowing the whole stage).
    /// A journaled run ignores all three.
    pub fn with_stage_deadline(mut self, deadline: Duration) -> Self {
        self.stage_deadline = Some(deadline);
        self.race_verify.deadline = Some(deadline);
        self.vuln_verify.deadline = Some(deadline);
        self
    }

    /// Caps both dynamic verifiers' attempt budgets: race verification
    /// schedules and vulnerability-verification schedules per input.
    pub fn with_max_verify_attempts(mut self, attempts: u64) -> Self {
        self.race_verify.max_schedules = attempts;
        self.vuln_verify.schedules_per_input = attempts;
        self
    }

    /// The fault plan shared by the stages (they are set together by
    /// [`OwlConfig::with_fault_plan`]; detection's copy is returned).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.detect.run_config.fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_reaches_every_stage() {
        let plan = FaultPlan::uniform(9, 0.01);
        let c = OwlConfig::quick().with_fault_plan(plan.clone());
        assert_eq!(c.detect.run_config.fault, plan);
        assert_eq!(c.race_verify.run_config.fault, plan);
        assert_eq!(c.vuln_verify.run_config.fault, plan);
        assert_eq!(c.fault_plan(), &plan);
    }

    #[test]
    fn knob_helpers_apply() {
        let c = OwlConfig::default()
            .with_stage_deadline(Duration::from_millis(250))
            .with_max_verify_attempts(3);
        assert_eq!(c.stage_deadline, Some(Duration::from_millis(250)));
        assert_eq!(c.race_verify.deadline, Some(Duration::from_millis(250)));
        assert_eq!(c.race_verify.max_schedules, 3);
        assert_eq!(c.vuln_verify.schedules_per_input, 3);
    }
}
