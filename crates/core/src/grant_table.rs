//! The grant table: the one record of who holds what.
//!
//! The paper's two stream-specific guarantees are both statements about the
//! set of live grants:
//!
//! * **Section 3.4 (single access).** Step 3 of the PEP workflow: "PEP checks
//!   that for the credentials included in the request, no query is currently
//!   being applied to the same data stream." Two simultaneous aggregation
//!   windows would let the requester reconstruct the raw stream (see
//!   [`crate::attack`]), so a subject holds at most one live grant per
//!   stream. A repeated request with the *same* query is harmless — the
//!   attack needs *different* windows — and is answered with the handle
//!   already granted, which also lets the Zipf-distributed evaluation
//!   workload (many repeated popular requests) run without spurious failures.
//! * **Section 3.3 (withdrawal).** A consumer keeps using its handle long
//!   after the decision was made, so "whenever a policy has been removed or
//!   modified by the user, all query graphs that are spawned by the policy
//!   are immediately withdrawn from back-end data stream engines."
//!
//! [`GrantTable`] keeps one [`Grant`] per live `(subject, stream)` pair and,
//! inside the same structure, the **shared plans** the grants ride on.
//! Section 3.1 merges policy and user graphs per request; plan sharing
//! extends the idea *across* requests: each distinct **core graph** is
//! deployed once and every overlapping grant attaches a cheap per-grant
//! handle to it (optionally with a residual predicate + projection mask —
//! see [`exacml_dsms::ResidualSpec`]). A plan is keyed by the
//! [`QueryGraph::canonical_signature`] of its deployed core; the policy id is
//! deliberately **not** part of the key — the signature alone determines
//! what the deployment computes, so two policies that compile to the same
//! core soundly share one plan. A plan lives exactly as long as a grant
//! rides it: its rider count only moves when a grant is recorded or removed
//! here, so it cannot drift from the grants.
//!
//! The table does no locking and never talks to the engine: the data server
//! keeps it behind one mutex and holds that mutex across check → deploy →
//! record, and across release and policy withdrawal, which is what makes the
//! two guarantees hold under concurrent requests and policy changes.
//!
//! [`QueryGraph::canonical_signature`]: exacml_dsms::QueryGraph::canonical_signature

use crate::error::ExacmlError;
use crate::user_query::UserQuery;
use exacml_dsms::{DeploymentId, QueryGraph, StreamHandle};
use std::collections::HashMap;
use std::fmt;

/// Identity of one shared plan. Stable for the lifetime of the plan (from
/// first deployment to the release of its last grant) and never reused;
/// carried in [`crate::AccessResponse`] so callers can observe sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(pub u64);

impl fmt::Display for PlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan-{}", self.0)
    }
}

/// One live grant.
#[derive(Debug, Clone)]
pub struct Grant {
    /// Position in grant order: monotone, never reused. A recovering server
    /// re-records journaled grants under their original positions.
    pub sequence: u64,
    /// The subject the grant serves (as spelled in the request).
    pub subject: String,
    /// The source stream (as spelled in the request).
    pub stream: String,
    /// Canonical fingerprint of the query the grant was made for.
    pub fingerprint: String,
    /// The customised query the request carried, if any.
    pub user_query: Option<UserQuery>,
    /// The per-grant handle handed to the consumer.
    pub handle: StreamHandle,
    /// The (possibly shared) deployment behind the handle.
    pub deployment: DeploymentId,
    /// The shared plan the grant rides on.
    pub plan: PlanId,
    /// The policy that authorised the grant.
    pub policy_id: String,
    /// The merged query graph the grant delivers (core + residual combined).
    pub graph: QueryGraph,
}

/// One shared plan: the deployment executing the core graph and how many
/// grants currently ride on it.
#[derive(Debug)]
struct Plan {
    key: String,
    deployment: DeploymentId,
    riders: usize,
}

/// The live grants, keyed by lower-cased `(subject, stream)`, and the plans
/// they ride on.
#[derive(Debug, Default)]
pub struct GrantTable {
    grants: HashMap<(String, String), Grant>,
    next_sequence: u64,
    plans: HashMap<PlanId, Plan>,
    plan_by_key: HashMap<String, PlanId>,
    next_plan: u64,
}

impl GrantTable {
    fn holder(subject: &str, stream: &str) -> (String, String) {
        (subject.to_ascii_lowercase(), stream.to_ascii_lowercase())
    }

    /// The single-access check: may `subject` open a query with
    /// `fingerprint` on `stream`? `Ok(None)` when it holds nothing there (the
    /// caller deploys and then [`GrantTable::record`]s), `Ok(Some(grant))`
    /// when it already holds the *same* query (the caller hands the existing
    /// handle back).
    ///
    /// # Errors
    /// Returns [`ExacmlError::MultipleAccess`] when the subject already holds
    /// a *different* live query on the stream.
    pub fn check(
        &self,
        subject: &str,
        stream: &str,
        fingerprint: &str,
    ) -> Result<Option<&Grant>, ExacmlError> {
        match self.grants.get(&Self::holder(subject, stream)) {
            Some(held) if held.fingerprint != fingerprint => Err(ExacmlError::MultipleAccess {
                subject: subject.to_string(),
                stream: stream.to_string(),
            }),
            held => Ok(held),
        }
    }

    /// The live grant `subject` holds on `stream`, if any.
    #[must_use]
    pub fn held(&self, subject: &str, stream: &str) -> Option<&Grant> {
        self.grants.get(&Self::holder(subject, stream))
    }

    /// The live plan deployed for the core signature `key`, if any.
    #[must_use]
    pub fn plan(&self, key: &str) -> Option<(PlanId, DeploymentId)> {
        let id = *self.plan_by_key.get(key)?;
        Some((id, self.plans[&id].deployment))
    }

    /// Add one rider to the plan for `key`, opening the plan on `deployment`
    /// when none is live. The rider is the grant the caller records next.
    pub fn join_plan(&mut self, key: String, deployment: DeploymentId) -> PlanId {
        if let Some(&id) = self.plan_by_key.get(&key) {
            let plan = self.plans.get_mut(&id).expect("plan_by_key and plans agree");
            debug_assert_eq!(plan.deployment, deployment, "one live deployment per plan key");
            plan.riders += 1;
            return id;
        }
        let id = PlanId(self.next_plan);
        self.next_plan += 1;
        self.plan_by_key.insert(key.clone(), id);
        self.plans.insert(id, Plan { key, deployment, riders: 1 });
        id
    }

    /// Drop one rider; `true` when it was the last and the plan is gone.
    fn leave_plan(&mut self, id: PlanId) -> bool {
        let plan = self.plans.get_mut(&id).expect("every grant rides a live plan");
        plan.riders -= 1;
        if plan.riders > 0 {
            return false;
        }
        let plan = self.plans.remove(&id).expect("plan just borrowed");
        self.plan_by_key.remove(&plan.key);
        true
    }

    /// The sequence number the next fresh grant takes.
    #[must_use]
    pub fn next_sequence(&self) -> u64 {
        self.next_sequence
    }

    /// Record a grant whose plan was just joined with
    /// [`GrantTable::join_plan`], and return it as recorded. Later fresh
    /// grants sequence after it.
    pub fn record(&mut self, grant: Grant) -> &Grant {
        self.next_sequence = self.next_sequence.max(grant.sequence + 1);
        let holder = Self::holder(&grant.subject, &grant.stream);
        debug_assert!(!self.grants.contains_key(&holder), "check() precedes record()");
        self.grants.entry(holder).insert_entry(grant).into_mut()
    }

    /// Remove the grant `subject` holds on `stream`, returning it and whether
    /// it was its plan's **last** rider (the caller then withdraws
    /// `grant.deployment`). Deliberately per `(subject, stream)`, never per
    /// deployment: one deployment backs many grants, and releasing by
    /// deployment would evict innocent co-sharers.
    pub fn release(&mut self, subject: &str, stream: &str) -> Option<(Grant, bool)> {
        let grant = self.grants.remove(&Self::holder(subject, stream))?;
        let last = self.leave_plan(grant.plan);
        Some((grant, last))
    }

    /// Remove every grant `policy_id` authorised, sorted by deployment then
    /// subject, each with whether it was its plan's last rider. Grants of
    /// *other* policies sharing a plan with an evicted grant stay.
    pub fn evict_policy(&mut self, policy_id: &str) -> Vec<(Grant, bool)> {
        let mut evicted: Vec<Grant> = self
            .grants
            .extract_if(|_, grant| grant.policy_id == policy_id)
            .map(|(_, grant)| grant)
            .collect();
        evicted.sort_by(|a, b| (a.deployment, &a.subject).cmp(&(b.deployment, &b.subject)));
        evicted
            .into_iter()
            .map(|grant| {
                let last = self.leave_plan(grant.plan);
                (grant, last)
            })
            .collect()
    }

    /// The live grants in grant order.
    #[must_use]
    pub fn live(&self) -> Vec<Grant> {
        let mut live: Vec<Grant> = self.grants.values().cloned().collect();
        live.sort_by_key(|grant| grant.sequence);
        live
    }

    /// Number of live grants.
    #[must_use]
    pub fn grant_count(&self) -> usize {
        self.grants.len()
    }

    /// Number of live plans.
    #[must_use]
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Grant `subject` on "weather" under `policy`, riding the plan for
    /// `key` (opened on `deployment` if new).
    fn grant(
        table: &mut GrantTable,
        subject: &str,
        fingerprint: &str,
        policy: &str,
        key: &str,
        deployment: u64,
    ) -> Grant {
        let sequence = table.next_sequence();
        grant_at(table, sequence, subject, fingerprint, policy, key, deployment)
    }

    fn grant_at(
        table: &mut GrantTable,
        sequence: u64,
        subject: &str,
        fingerprint: &str,
        policy: &str,
        key: &str,
        deployment: u64,
    ) -> Grant {
        assert!(table.check(subject, "weather", fingerprint).unwrap().is_none());
        let deployment = table.plan(key).map_or(DeploymentId(deployment), |(_, live)| live);
        let grant = Grant {
            sequence,
            subject: subject.to_string(),
            stream: "weather".to_string(),
            fingerprint: fingerprint.to_string(),
            user_query: None,
            handle: StreamHandle::mint("dsms", 100 + sequence),
            deployment,
            plan: table.join_plan(key.to_string(), deployment),
            policy_id: policy.to_string(),
            graph: QueryGraph::identity("weather"),
        };
        table.record(grant.clone());
        grant
    }

    #[test]
    fn identical_rerequest_reuses_and_a_different_fingerprint_is_blocked() {
        let mut table = GrantTable::default();
        let held = grant(&mut table, "LTA", "window-size-3", "p1", "sig-a", 7);
        let reused = table.check("LTA", "weather", "window-size-3").unwrap().unwrap();
        assert_eq!(reused.handle, held.handle);
        assert_eq!((reused.deployment, reused.plan), (DeploymentId(7), held.plan));
        // Example 2: the second, differently-sized window must be refused —
        // whatever the case the subject and stream are spelled in.
        for (subject, stream) in [("LTA", "weather"), ("lta", "WEATHER")] {
            let err = table.check(subject, stream, "window-size-4").unwrap_err();
            assert!(matches!(err, ExacmlError::MultipleAccess { .. }));
        }
        // Other subjects and other streams are independent.
        assert!(table.check("EMA", "weather", "window-size-4").unwrap().is_none());
        assert!(table.check("LTA", "gps", "window-size-4").unwrap().is_none());
    }

    #[test]
    fn release_is_per_holder_and_withdraws_only_with_the_last_rider() {
        let mut table = GrantTable::default();
        let lta = grant(&mut table, "LTA", "q1", "p1", "sig-a", 1);
        let ema = grant(&mut table, "EMA", "q2", "p1", "sig-a", 99);
        assert_eq!(ema.plan, lta.plan, "same core signature, same plan");
        assert_eq!(ema.deployment, DeploymentId(1));
        assert_eq!((table.grant_count(), table.plan_count()), (2, 1));

        // Releasing one sharer never evicts the other, nor the deployment.
        let (released, last) = table.release("lta", "WEATHER").unwrap();
        assert_eq!(released.handle, lta.handle);
        assert!(!last);
        assert!(table.release("LTA", "weather").is_none(), "double release is a no-op");
        assert!(table.held("EMA", "weather").is_some() && table.held("LTA", "weather").is_none());
        assert!(table.check("LTA", "weather", "q9").unwrap().is_none(), "the slot is free");

        // The last rider takes the plan with it, and the key is free again
        // under a fresh plan id.
        let (_, last) = table.release("EMA", "weather").unwrap();
        assert!(last);
        assert_eq!((table.grant_count(), table.plan_count()), (0, 0));
        assert_eq!(table.plan("sig-a"), None);
        let again = grant(&mut table, "NEA", "q3", "p1", "sig-a", 2);
        assert_ne!(again.plan, lta.plan, "plan ids are never reused");
        assert_eq!(table.plan("sig-a"), Some((again.plan, DeploymentId(2))));
    }

    #[test]
    fn evicting_a_policy_returns_exactly_its_grants_in_deployment_then_subject_order() {
        let mut table = GrantTable::default();
        grant(&mut table, "NEA", "q", "p1", "sig-b", 2);
        grant(&mut table, "LTA", "q", "p1", "sig-a", 1);
        grant(&mut table, "EMA", "q", "p1", "sig-a", 1);
        let pub_ = grant(&mut table, "PUB", "q", "p2", "sig-a", 1);

        let evicted = table.evict_policy("p1");
        let order: Vec<(&str, u64, bool)> =
            evicted.iter().map(|(g, last)| (g.subject.as_str(), g.deployment.0, *last)).collect();
        // p2's grant still rides sig-a, so neither p1 rider of it was the
        // last; NEA was alone on sig-b.
        assert_eq!(order, [("EMA", 1, false), ("LTA", 1, false), ("NEA", 2, true)]);
        assert_eq!((table.grant_count(), table.plan_count()), (1, 1));
        assert_eq!(table.plan("sig-a"), Some((pub_.plan, DeploymentId(1))));
        assert!(table.evict_policy("p1").is_empty());

        // Evicting every rider of a plan flags exactly the final one.
        grant(&mut table, "LTA", "q", "p2", "sig-a", 1);
        let flags: Vec<bool> = table.evict_policy("p2").iter().map(|(_, last)| *last).collect();
        assert_eq!(flags, [false, true]);
        assert_eq!(table.plan_count(), 0);
    }

    #[test]
    fn live_lists_grants_in_sequence_order_and_honours_restored_positions() {
        let mut table = GrantTable::default();
        // A recovering server re-records journaled grants out of order, each
        // under its original position.
        grant_at(&mut table, 5, "late", "q", "p", "sig-late", 1);
        grant_at(&mut table, 2, "early", "q", "p", "sig-early", 0);
        let fresh = grant(&mut table, "fresh", "q", "p", "sig-fresh", 9);
        assert_eq!(fresh.sequence, 6, "fresh grants sequence after every restored one");
        let subjects: Vec<String> = table.live().into_iter().map(|g| g.subject).collect();
        assert_eq!(subjects, ["early", "late", "fresh"]);
    }
}
