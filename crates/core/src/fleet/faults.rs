//! Deterministic fault injection for the worker side of the fleet.
//!
//! A [`FaultPlan`] is parsed from the `ATIM_FLEET_FAULTS` environment
//! variable and makes a worker process misbehave *on schedule*: die after
//! its N-th job, stall silently, emit a torn frame, or corrupt its first
//! handshakes with a wrong fingerprint/build/protocol version.  Schedules
//! are counted per process with global atomic counters, so every recovery
//! path in the fleet — reconnect, re-handshake, requeue, quarantine — can
//! be pinned by a test or the CI chaos-smoke without any randomness.
//!
//! The grammar is a comma-separated list of `name` or `name:value` tokens:
//!
//! | token                | effect                                                      |
//! |----------------------|-------------------------------------------------------------|
//! | `die:N`              | exit the process on receiving job N+1                       |
//! | `stall:N`            | hang forever (no heartbeats) on receiving job N+1           |
//! | `torn:N`             | write a torn frame and drop the connection on job N+1       |
//! | `poison:J`           | exit the process whenever a job with id J arrives           |
//! | `skew-fingerprint:K` | echo a corrupted fingerprint in the first K handshakes      |
//! | `skew-build:K`       | echo a foreign build version in the first K handshakes      |
//! | `skew-proto:K`       | announce the wrong protocol version in the first K handshakes |
//!
//! `skew-*` counts default to 1 when the value is omitted; all other tokens
//! require a value.  Invalid plans fail loudly (the worker refuses to
//! serve), like every other fleet knob.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable carrying the fault plan for `atim-worker`
/// processes.  Unset means no faults.
pub const FAULTS_ENV: &str = "ATIM_FLEET_FAULTS";

/// A deterministic misbehavior schedule for one worker process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Exit the process upon receiving job number N+1 (1-based count of
    /// jobs this process has been handed).
    pub die_after: Option<u64>,
    /// Hang forever — no reply, no heartbeat — on job number N+1.
    pub stall_after: Option<u64>,
    /// Write a torn frame (a length header promising more bytes than
    /// follow) and drop the connection on job number N+1.
    pub torn_after: Option<u64>,
    /// Exit the process whenever a job with this id arrives — the same job
    /// then kills every worker it reaches, driving the quarantine path.
    pub poison_job: Option<u64>,
    /// Corrupt the echoed backend fingerprint in the first K handshakes.
    pub skew_fingerprint: u64,
    /// Announce a foreign build version in the first K handshakes.
    pub skew_build: u64,
    /// Announce the wrong protocol version in the first K handshakes.
    pub skew_proto: u64,
}

/// What a [`FaultPlan`] injects on a given job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Exit the process abruptly (no reply, no shutdown frame).
    Die,
    /// Sleep forever without replying or heartbeating.
    Stall,
    /// Write a torn frame, then drop the connection.
    TornFrame,
}

impl FaultPlan {
    /// Parses the grammar described in the module docs.
    ///
    /// # Errors
    /// Returns a descriptive message for unknown tokens, missing or
    /// non-numeric values, and duplicate tokens.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for token in text.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (name, value) = match token.split_once(':') {
                Some((name, value)) => (name.trim(), Some(value.trim())),
                None => (token, None),
            };
            let parsed = |value: Option<&str>| -> Result<u64, String> {
                let raw = value
                    .ok_or_else(|| format!("fault {name:?} requires a value, e.g. {name}:2"))?;
                raw.parse::<u64>()
                    .map_err(|_| format!("fault {name:?} value {raw:?} is not a number"))
            };
            let skew_count = |value: Option<&str>| -> Result<u64, String> {
                match value {
                    None => Ok(1),
                    Some(_) => parsed(value),
                }
            };
            let occupied = |name: &str| format!("duplicate fault token {name:?}");
            match name {
                "die" => {
                    if plan.die_after.replace(parsed(value)?).is_some() {
                        return Err(occupied(name));
                    }
                }
                "stall" => {
                    if plan.stall_after.replace(parsed(value)?).is_some() {
                        return Err(occupied(name));
                    }
                }
                "torn" => {
                    if plan.torn_after.replace(parsed(value)?).is_some() {
                        return Err(occupied(name));
                    }
                }
                "poison" => {
                    if plan.poison_job.replace(parsed(value)?).is_some() {
                        return Err(occupied(name));
                    }
                }
                "skew-fingerprint" => {
                    if plan.skew_fingerprint != 0 {
                        return Err(occupied(name));
                    }
                    plan.skew_fingerprint = skew_count(value)?;
                }
                "skew-build" => {
                    if plan.skew_build != 0 {
                        return Err(occupied(name));
                    }
                    plan.skew_build = skew_count(value)?;
                }
                "skew-proto" => {
                    if plan.skew_proto != 0 {
                        return Err(occupied(name));
                    }
                    plan.skew_proto = skew_count(value)?;
                }
                other => {
                    return Err(format!(
                        "unknown fault token {other:?} (known: die:N, stall:N, torn:N, \
                         poison:J, skew-fingerprint[:K], skew-build[:K], skew-proto[:K])"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Parses `ATIM_FLEET_FAULTS`; unset yields the inert default plan.
    ///
    /// # Errors
    /// Returns the parse error for a set-but-invalid plan — a misconfigured
    /// fault harness must fail loudly, not run a partial schedule.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(raw) => FaultPlan::parse(&raw).map_err(|e| format!("{FAULTS_ENV}={raw:?}: {e}")),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// Whether this plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// The fault (if any) to inject for the `nth` job this process has
    /// received (1-based), carrying id `job_id`.  Poison takes precedence
    /// over counted faults, then die > stall > torn.
    pub fn job_fault(&self, nth: u64, job_id: u64) -> Option<FaultAction> {
        if self.poison_job == Some(job_id) {
            return Some(FaultAction::Die);
        }
        if self.die_after.is_some_and(|n| nth == n + 1) {
            return Some(FaultAction::Die);
        }
        if self.stall_after.is_some_and(|n| nth == n + 1) {
            return Some(FaultAction::Stall);
        }
        if self.torn_after.is_some_and(|n| nth == n + 1) {
            return Some(FaultAction::TornFrame);
        }
        None
    }

    /// Whether the `nth` handshake of this process (1-based) should echo a
    /// corrupted fingerprint.
    pub fn skews_fingerprint(&self, nth: u64) -> bool {
        nth <= self.skew_fingerprint
    }

    /// Whether the `nth` handshake should announce a foreign build.
    pub fn skews_build(&self, nth: u64) -> bool {
        nth <= self.skew_build
    }

    /// Whether the `nth` handshake should announce the wrong protocol
    /// version.
    pub fn skews_proto(&self, nth: u64) -> bool {
        nth <= self.skew_proto
    }
}

static JOBS_RECEIVED: AtomicU64 = AtomicU64::new(0);
static HANDSHAKES: AtomicU64 = AtomicU64::new(0);
static ACTIVE_PLAN: OnceLock<Result<FaultPlan, String>> = OnceLock::new();

/// The process-wide fault plan, parsed from the environment exactly once.
/// Counters (jobs received, handshakes served) are process-global too, so
/// a respawned worker starts a fresh schedule — which is what lets a
/// `die:N` plan both fire and then heal.
pub(crate) fn active_plan() -> Result<&'static FaultPlan, String> {
    match ACTIVE_PLAN.get_or_init(FaultPlan::from_env) {
        Ok(plan) => Ok(plan),
        Err(e) => Err(e.clone()),
    }
}

/// Increments and returns the process-global 1-based job counter.
pub(crate) fn next_job() -> u64 {
    JOBS_RECEIVED.fetch_add(1, Ordering::Relaxed) + 1
}

/// Increments and returns the process-global 1-based handshake counter.
pub(crate) fn next_handshake() -> u64 {
    HANDSHAKES.fetch_add(1, Ordering::Relaxed) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_grammar_parses() {
        let plan = FaultPlan::parse(
            "die:2, stall:5,torn:7,poison:3,skew-fingerprint,skew-build:2,skew-proto:1",
        )
        .unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                die_after: Some(2),
                stall_after: Some(5),
                torn_after: Some(7),
                poison_job: Some(3),
                skew_fingerprint: 1,
                skew_build: 2,
                skew_proto: 1,
            }
        );
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,, ").unwrap().is_empty());
    }

    #[test]
    fn invalid_plans_fail_loudly() {
        assert!(FaultPlan::parse("die")
            .unwrap_err()
            .contains("requires a value"));
        assert!(FaultPlan::parse("die:x")
            .unwrap_err()
            .contains("not a number"));
        assert!(FaultPlan::parse("explode:1")
            .unwrap_err()
            .contains("unknown fault token"));
        assert!(FaultPlan::parse("die:1,die:2")
            .unwrap_err()
            .contains("duplicate"));
        assert!(FaultPlan::parse("skew-build,skew-build")
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn schedules_fire_exactly_once_at_the_configured_count() {
        let plan = FaultPlan::parse("die:2").unwrap();
        assert_eq!(plan.job_fault(1, 10), None);
        assert_eq!(plan.job_fault(2, 11), None);
        assert_eq!(plan.job_fault(3, 12), Some(FaultAction::Die));
        assert_eq!(plan.job_fault(4, 13), None);
    }

    #[test]
    fn poison_fires_on_the_job_id_not_the_count() {
        let plan = FaultPlan::parse("poison:5").unwrap();
        assert_eq!(plan.job_fault(1, 5), Some(FaultAction::Die));
        assert_eq!(plan.job_fault(100, 5), Some(FaultAction::Die));
        assert_eq!(plan.job_fault(6, 4), None);
    }

    #[test]
    fn skew_counts_cover_the_first_handshakes_only() {
        let plan = FaultPlan::parse("skew-fingerprint:2").unwrap();
        assert!(plan.skews_fingerprint(1));
        assert!(plan.skews_fingerprint(2));
        assert!(!plan.skews_fingerprint(3));
        assert!(!plan.skews_build(1));
        assert!(!plan.skews_proto(1));
    }

    #[test]
    fn fault_priority_is_poison_then_die_then_stall_then_torn() {
        let plan = FaultPlan::parse("die:1,stall:1,torn:1,poison:9").unwrap();
        assert_eq!(plan.job_fault(2, 9), Some(FaultAction::Die));
        assert_eq!(plan.job_fault(2, 0), Some(FaultAction::Die));
        let plan = FaultPlan::parse("stall:1,torn:1").unwrap();
        assert_eq!(plan.job_fault(2, 0), Some(FaultAction::Stall));
        let plan = FaultPlan::parse("torn:1").unwrap();
        assert_eq!(plan.job_fault(2, 0), Some(FaultAction::TornFrame));
    }
}
