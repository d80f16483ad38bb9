//! The scenario-pack runner: execute any [`ScenarioPack`] against any
//! [`Backend`] shape and check its oracles.
//!
//! [`run_pack`] is the one-shot entry point; [`PackRun`] is the resumable
//! step machine underneath it. The step machine exists for the durability
//! story: a test can run half a pack on a `DurableServer`, drop the backend
//! (a simulated crash), recover the store, [`PackRun::reattach`] its
//! delivery taps on the recovered backend and finish the script — delivery
//! counts and oracles must come out exactly as on an uninterrupted run,
//! because WAL replay rebuilds window state and handles are re-minted at
//! their recorded URIs.
//!
//! Everything the oracles compare lives in [`PackOutcome`];
//! [`PackOutcome::semantic_fingerprint`] is the shape-independent core
//! (decision counts, per-tap deliveries, decision audit counts) that must be
//! byte-identical across all four backend shapes for the same pack.

use crate::scenario::{Expectations, ScenarioPack, ScriptStep, SyntheticFeed};
use crate::zipf::Zipf;
use exacml_plus::{AuditEventKind, Backend, ExacmlError, Subscription, TaggedAuditEvent};
use exacml_telemetry::TelemetrySnapshot;
use exacml_xacml::Request;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;

/// The four decision counters every pack pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PackCounts {
    /// Fresh grants (a new or shared deployment was handed out).
    pub grants: u64,
    /// Requests answered with an already-live handle.
    pub reuses: u64,
    /// PDP denials (including conflict rejections).
    pub denials: u64,
    /// Single-access-guard rejections (the Section 3.4 defence).
    pub blocked: u64,
}

/// One stage's telemetry activity (the diff of two registry snapshots).
#[derive(Debug, Clone)]
pub struct StageTelemetry {
    /// Stage label (`setup`, `script`, `finish`).
    pub stage: String,
    /// Counters and stage histograms attributed to the stage.
    pub telemetry: TelemetrySnapshot,
}

/// Everything a pack run produced, ready for oracle checks.
#[derive(Debug, Clone)]
pub struct PackOutcome {
    /// The pack that ran.
    pub pack: String,
    /// The backend shape it ran on (`data-server`, `fabric-3`, …).
    pub backend_kind: String,
    /// Decision counters.
    pub counts: PackCounts,
    /// Derived tuples delivered per tap label.
    pub deliveries: BTreeMap<String, u64>,
    /// Audit events by kind display name, across the whole backend.
    pub audit_kinds: BTreeMap<String, u64>,
    /// Live shared plans at pack end.
    pub live_plans: u64,
    /// Live deployments at pack end.
    pub live_deployments: u64,
    /// Loaded policies at pack end.
    pub final_policies: u64,
    /// Telemetry activity per stage.
    pub stage_telemetry: Vec<StageTelemetry>,
    /// Per-step outcomes that contradicted the step's `expect` annotation.
    pub unexpected: Vec<String>,
}

impl PackOutcome {
    /// The shape-independent core of the outcome as canonical JSON: decision
    /// counts, per-tap deliveries and the decision-kind audit counts. Two
    /// runs of one pack on *any* two backend shapes must agree on this
    /// string — policy-lifecycle audit events are excluded because a fabric
    /// records one per node.
    #[must_use]
    pub fn semantic_fingerprint(&self) -> String {
        let decision_kinds: BTreeMap<String, u64> = self
            .audit_kinds
            .iter()
            .filter(|(kind, _)| {
                [
                    AuditEventKind::Granted,
                    AuditEventKind::Reused,
                    AuditEventKind::Denied,
                    AuditEventKind::MultipleAccessBlocked,
                ]
                .iter()
                .any(|k| &k.to_string() == *kind)
            })
            .map(|(kind, count)| (kind.clone(), *count))
            .collect();
        // A labelled tuple would be nicer, but the vendored serde derive
        // rejects generic/borrowing structs; a plain tuple canonicalizes
        // just as well for equality comparison.
        serde_json::to_string(&(self.counts, self.deliveries.clone(), decision_kinds))
            .expect("fingerprint serializes")
    }

    /// Check this outcome against the pack's oracles. Returns every
    /// violation (empty = all oracles green).
    #[must_use]
    pub fn check(&self, expect: &Expectations) -> Vec<String> {
        let mut violations: Vec<String> = self.unexpected.clone();
        let pins = [
            ("grants", expect.grants, self.counts.grants),
            ("reuses", expect.reuses, self.counts.reuses),
            ("denials", expect.denials, self.counts.denials),
            ("blocked", expect.blocked, self.counts.blocked),
            ("final_policies", expect.final_policies, self.final_policies),
        ];
        for (name, expected, actual) in pins {
            if let Some(expected) = expected {
                if actual != expected {
                    violations.push(format!("{name}: expected {expected}, got {actual}"));
                }
            }
        }
        if let Some(ceiling) = expect.max_live_plans {
            if self.live_plans > ceiling {
                violations.push(format!(
                    "live_plans: {} exceeds the plan-sharing ceiling {ceiling}",
                    self.live_plans
                ));
            }
        }
        for delivery in &expect.deliveries {
            let actual = self.deliveries.get(&delivery.tap).copied().unwrap_or(0);
            if actual < delivery.min {
                violations.push(format!(
                    "tap '{}': delivered {actual}, expected at least {}",
                    delivery.tap, delivery.min
                ));
            }
            if let Some(max) = delivery.max {
                if actual > max {
                    violations.push(format!(
                        "tap '{}': delivered {actual}, expected at most {max}",
                        delivery.tap
                    ));
                }
            }
        }
        for expectation in &expect.audit_min {
            let actual = self.audit_kinds.get(&expectation.kind).copied().unwrap_or(0);
            if actual < expectation.min {
                violations.push(format!(
                    "audit '{}': {actual} events, expected at least {}",
                    expectation.kind, expectation.min
                ));
            }
        }
        violations
    }
}

struct Tap {
    handle: exacml_dsms::StreamHandle,
    subscription: Option<Subscription>,
    delivered: u64,
}

/// The resumable pack step machine. Borrows only the pack — the backend is
/// an argument to every method, so a run can outlive a killed backend and
/// continue on its recovered successor.
pub struct PackRun<'p> {
    pack: &'p ScenarioPack,
    cursor: usize,
    feeds: BTreeMap<String, SyntheticFeed>,
    taps: BTreeMap<String, Tap>,
    counts: PackCounts,
    unexpected: Vec<String>,
    stage_telemetry: Vec<StageTelemetry>,
    last_snapshot: TelemetrySnapshot,
}

impl<'p> PackRun<'p> {
    /// Register the pack's streams and load its policy corpus, recording
    /// the `setup` telemetry stage.
    ///
    /// # Errors
    /// Propagates registration/load failures (a pack is broken, not a
    /// scenario outcome).
    pub fn setup(backend: &dyn Backend, pack: &'p ScenarioPack) -> Result<Self, ExacmlError> {
        let base = backend.telemetry();
        for stream in &pack.streams {
            backend.register_stream(&stream.name, stream.schema())?;
        }
        for policy in &pack.policies {
            let built = policy.build().map_err(|detail| ExacmlError::BadObligation {
                obligation_id: policy.id.clone(),
                detail,
            })?;
            backend.load_policy(built)?;
        }
        let after_setup = backend.telemetry();
        let feeds = pack
            .streams
            .iter()
            .map(|stream| (stream.name.clone(), SyntheticFeed::new(stream, pack.seed)))
            .collect();
        Ok(PackRun {
            pack,
            cursor: 0,
            feeds,
            taps: BTreeMap::new(),
            counts: PackCounts::default(),
            unexpected: Vec::new(),
            stage_telemetry: vec![StageTelemetry {
                stage: "setup".into(),
                telemetry: after_setup.diff(&base),
            }],
            last_snapshot: after_setup,
        })
    }

    /// The next step index to execute.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Total script length.
    #[must_use]
    pub fn script_len(&self) -> usize {
        self.pack.script.len()
    }

    /// Pull everything the taps have settled so far into their delivery
    /// counters (call before killing a backend so pre-crash deliveries are
    /// banked).
    pub fn drain_taps(&mut self) {
        for tap in self.taps.values_mut() {
            if let Some(subscription) = tap.subscription.as_mut() {
                tap.delivered += subscription.drain_settled().len() as u64;
            }
        }
    }

    /// Re-subscribe every live tap on `backend` — the recovery path, where
    /// handles were re-minted at their recorded URIs by WAL replay. Dead
    /// taps (their policy was removed before the crash) stay detached.
    ///
    /// # Errors
    /// Propagates subscribe failures on handles the backend reports live.
    pub fn reattach(&mut self, backend: &dyn Backend) -> Result<(), ExacmlError> {
        for tap in self.taps.values_mut() {
            if backend.handle_is_live(&tap.handle) {
                tap.subscription = Some(backend.subscribe(&tap.handle)?);
            } else {
                tap.subscription = None;
            }
        }
        self.last_snapshot = backend.telemetry();
        Ok(())
    }

    /// Execute the next script step. Returns `false` when the script is
    /// exhausted. Outcomes contradicting the step's `expect` annotation are
    /// recorded (and surface through [`PackOutcome::check`]); only
    /// infrastructure failures (unknown stream, broken policy data) error.
    ///
    /// # Errors
    /// Propagates infrastructure failures; never scenario outcomes.
    pub fn step(&mut self, backend: &dyn Backend) -> Result<bool, ExacmlError> {
        let Some(step) = self.pack.script.get(self.cursor) else {
            return Ok(false);
        };
        let step = step.clone();
        self.cursor += 1;
        match step.op.as_str() {
            "request" => self.exec_request(backend, &step),
            "ingest" => {
                let feed = self
                    .feeds
                    .get_mut(&step.stream)
                    .unwrap_or_else(|| panic!("unknown feed '{}'", step.stream));
                let batch = feed.next_batch(step.count);
                backend.push_batch(&step.stream, batch)?;
                self.drain_taps();
            }
            "release" => {
                self.drain_taps();
                backend.release_access(&step.subject, &step.stream);
            }
            "update-policy" => {
                self.drain_taps();
                let spec = step.policy.as_ref().expect("validated update-policy");
                let policy = spec.build().map_err(|detail| ExacmlError::BadObligation {
                    obligation_id: spec.id.clone(),
                    detail,
                })?;
                backend.update_policy(policy)?;
            }
            "remove-policy" => {
                self.drain_taps();
                backend.remove_policy(&step.policy_id)?;
            }
            "zipf-requests" => {
                let mut rng = StdRng::seed_from_u64(
                    self.pack.seed ^ (self.cursor as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                let zipf = Zipf::new(step.subjects as usize, step.alpha);
                for rank in zipf.sample_sequence(step.count as usize, &mut rng) {
                    let subject = format!("{}{rank}", step.prefix);
                    let request = ScriptStep::request(&subject, &step.stream, "open");
                    self.exec_request(backend, &request);
                }
            }
            other => panic!("unknown op '{other}' (validate() missed it)"),
        }
        Ok(true)
    }

    fn exec_request(&mut self, backend: &dyn Backend, step: &ScriptStep) {
        let query = step.query.as_ref().map(|q| {
            q.to_user_query(&step.stream)
                .unwrap_or_else(|problem| panic!("bad query spec: {problem}"))
        });
        let request = Request::subscribe(&step.subject, &step.stream);
        let outcome = match backend.handle_request(&request, query.as_ref()) {
            Ok(response) => {
                let reused = response.response.reused;
                if reused {
                    self.counts.reuses += 1;
                } else {
                    self.counts.grants += 1;
                }
                if !step.tap.is_empty() {
                    match backend.subscribe(response.handle()) {
                        Ok(subscription) => {
                            self.taps.insert(
                                step.tap.clone(),
                                Tap {
                                    handle: response.handle().clone(),
                                    subscription: Some(subscription),
                                    delivered: 0,
                                },
                            );
                        }
                        Err(error) => self
                            .unexpected
                            .push(format!("tap '{}': subscribe failed: {error}", step.tap)),
                    }
                }
                if reused {
                    "reuse"
                } else {
                    "grant"
                }
            }
            Err(ExacmlError::MultipleAccess { .. }) => {
                self.counts.blocked += 1;
                "blocked"
            }
            Err(ExacmlError::AccessDenied { .. } | ExacmlError::ConflictDetected { .. }) => {
                self.counts.denials += 1;
                "deny"
            }
            Err(other) => {
                self.unexpected.push(format!(
                    "request {}@{}: unexpected error {other}",
                    step.subject, step.stream
                ));
                return;
            }
        };
        let matches = match step.expect.as_str() {
            "open" => outcome == "grant" || outcome == "reuse",
            expected => outcome == expected,
        };
        if !matches {
            self.unexpected.push(format!(
                "request {}@{}: expected {}, got {outcome}",
                step.subject, step.stream, step.expect
            ));
        }
    }

    /// Run the remaining script to completion.
    ///
    /// # Errors
    /// Propagates infrastructure failures from [`PackRun::step`].
    pub fn run_script(&mut self, backend: &dyn Backend) -> Result<(), ExacmlError> {
        while self.step(backend)? {}
        Ok(())
    }

    /// Final drain, telemetry stage capture and outcome assembly.
    pub fn finish(mut self, backend: &dyn Backend) -> PackOutcome {
        let script_snapshot = backend.telemetry();
        self.stage_telemetry.push(StageTelemetry {
            stage: "script".into(),
            telemetry: script_snapshot.diff(&self.last_snapshot),
        });
        self.drain_taps();
        let final_snapshot = backend.telemetry();
        self.stage_telemetry.push(StageTelemetry {
            stage: "finish".into(),
            telemetry: final_snapshot.diff(&script_snapshot),
        });
        // The no-grants oracle consults the audit trail directly, so it runs
        // here (where the backend is at hand) and surfaces via `unexpected`.
        for subject in &self.pack.expect.no_grants_for {
            let granted = backend
                .audit_events_for_subject(subject)
                .into_iter()
                .filter(|tagged| {
                    matches!(tagged.event.kind, AuditEventKind::Granted | AuditEventKind::Reused)
                })
                .count();
            if granted > 0 {
                self.unexpected.push(format!(
                    "subject '{subject}' must never be granted, \
                     but has {granted} grant/reuse audit events"
                ));
            }
        }
        let deliveries =
            self.taps.iter().map(|(label, tap)| (label.clone(), tap.delivered)).collect();
        PackOutcome {
            pack: self.pack.name.clone(),
            backend_kind: backend.backend_kind(),
            counts: self.counts,
            deliveries,
            audit_kinds: backend.audit_kind_counts(),
            live_plans: backend.live_plans() as u64,
            live_deployments: backend.live_deployments() as u64,
            final_policies: backend.policy_count() as u64,
            stage_telemetry: self.stage_telemetry,
            unexpected: self.unexpected,
        }
    }
}

/// Execute a whole pack on `backend`: setup, script, finish.
///
/// # Errors
/// Propagates infrastructure failures; oracle violations are *not* errors —
/// check them with [`PackOutcome::check`].
pub fn run_pack(backend: &dyn Backend, pack: &ScenarioPack) -> Result<PackOutcome, ExacmlError> {
    let mut run = PackRun::setup(backend, pack)?;
    run.run_script(backend)?;
    Ok(run.finish(backend))
}

/// Run a pack and assert every oracle holds, panicking with the violation
/// list otherwise (the form tests use).
///
/// # Panics
/// Panics on infrastructure failures or oracle violations.
pub fn run_pack_checked(backend: &dyn Backend, pack: &ScenarioPack) -> PackOutcome {
    let outcome = run_pack(backend, pack)
        .unwrap_or_else(|error| panic!("pack '{}' failed to run: {error}", pack.name));
    let violations = outcome.check(&pack.expect);
    assert!(
        violations.is_empty(),
        "pack '{}' on {}: oracle violations:\n  {}",
        pack.name,
        outcome.backend_kind,
        violations.join("\n  ")
    );
    outcome
}

/// Normalize an audit trail for cross-run comparison with `==`: the one
/// wall-clock artifact, `timestamp_ms`, is zeroed. Node tags, sequences,
/// subjects, handles and every detail are kept.
#[must_use]
pub fn normalized_audit(events: &[TaggedAuditEvent]) -> Vec<TaggedAuditEvent> {
    events
        .iter()
        .map(|tagged| {
            let mut tagged = tagged.clone();
            tagged.event.timestamp_ms = 0;
            tagged
        })
        .collect()
}
