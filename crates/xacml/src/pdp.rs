//! Policy store and Policy Decision Point.
//!
//! The PDP "manages policies and evaluates user requests against the stored
//! policies, the result of which are permit or deny decisions" together with
//! the obligations of the matching policy (Section 2.1). Policies combine
//! first-applicable, the one algorithm the paper's PDP uses: the first policy
//! in load order that applies decides, and a request no policy applies to is
//! Not Applicable. (Rule combining *within* a policy is part of the policy
//! document and stays selectable, see [`crate::RuleCombiningAlg`].) The
//! store supports the add / remove / update operations the query-graph
//! management layer of eXACML+ reacts to (Section 3.3).
//!
//! # Hot-path structure
//!
//! The store keeps, besides the insertion-ordered policy list, a **target
//! index** keyed on the `(subject-id, resource-id, action-id)` triple that
//! the framework's policy targets are built from. A request carrying a
//! single value for each of those attributes only evaluates the policies in
//! its triple bucket plus the policies whose targets are not triple-shaped
//! (the *generic* residue), merged back into insertion order so
//! first-applicable combining is preserved bit-for-bit. Requests that don't
//! fit the triple shape fall back to the full linear scan.
//!
//! Every request is decided against the store as it is at the call, so a
//! policy change (Section 3.3) is visible to the very next request. Nothing
//! caches decisions in front of the index: a lock, a per-request string key
//! and a cloned obligation list per hit measured slower than the indexed
//! evaluation they would save.
//!
//! Policies are stored behind `Arc`s: [`PolicyStore::snapshot`] and
//! [`PolicyStore::get`] hand out shared references instead of deep-cloning
//! policy documents.

use crate::attribute::AttributeCategory;
use crate::obligation::Obligation;
use crate::policy::{Effect, Policy, Target};
use crate::request::{ids, Request};
use crate::XacmlError;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The final decision returned to the PEP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// Access granted.
    Permit,
    /// Access explicitly denied.
    Deny,
    /// No policy applied to the request.
    NotApplicable,
    /// The evaluation could not be completed.
    Indeterminate,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Decision::Permit => "Permit",
            Decision::Deny => "Deny",
            Decision::NotApplicable => "NotApplicable",
            Decision::Indeterminate => "Indeterminate",
        };
        f.write_str(s)
    }
}

/// The PDP's answer: a decision, the obligations the PEP must fulfil, and the
/// id of the policy that produced the decision (used by eXACML+ to associate
/// deployed query graphs with their spawning policy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionResponse {
    /// The decision.
    pub decision: Decision,
    /// Obligations attached to the decision.
    pub obligations: Vec<Obligation>,
    /// Id of the policy that decided, when one did.
    pub policy_id: Option<String>,
}

impl DecisionResponse {
    /// A Not-Applicable response with no obligations.
    #[must_use]
    pub fn not_applicable() -> Self {
        DecisionResponse {
            decision: Decision::NotApplicable,
            obligations: Vec::new(),
            policy_id: None,
        }
    }

    /// Whether access was granted.
    #[must_use]
    pub fn is_permit(&self) -> bool {
        self.decision == Decision::Permit
    }
}

/// Key of the target index: the `(subject, resource, action)` values a
/// triple-shaped policy target requires.
type TripleKey = (String, String, String);

/// The `(subject-id, resource-id, action-id)` values a policy target
/// requires, when the target has at least one matcher for each. Extra
/// matchers (roles, environment) do not prevent indexing — the full target
/// is still evaluated at decision time; the index only narrows the
/// candidate set.
fn triple_key_of(target: &Target) -> Option<TripleKey> {
    let first = |category: AttributeCategory, id: &str| {
        target
            .matches
            .iter()
            .find(|m| m.category == category && m.attribute_id == id)
            .map(|m| m.value.clone())
    };
    Some((
        first(AttributeCategory::Subject, ids::SUBJECT_ID)?,
        first(AttributeCategory::Resource, ids::RESOURCE_ID)?,
        first(AttributeCategory::Action, ids::ACTION_ID)?,
    ))
}

/// Target index over the store: triple-shaped policies bucketed by their
/// required `(subject, resource, action)` values, everything else in the
/// generic list. Entries carry the policy's position in the evaluation
/// order so candidate sets can be merged back into first-applicable order.
#[derive(Debug, Default)]
struct TargetIndex {
    by_triple: HashMap<TripleKey, Vec<(usize, Arc<Policy>)>>,
    generic: Vec<(usize, Arc<Policy>)>,
}

/// A thread-safe, insertion-ordered policy store.
#[derive(Debug, Default)]
pub struct PolicyStore {
    inner: RwLock<StoreInner>,
    /// Revision-tagged shared snapshot of the id list, rebuilt lazily on
    /// demand so `ids()` costs a reference-count bump between mutations and
    /// `add` stays O(1).
    ids_cache: Mutex<(u64, Arc<[String]>)>,
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Insertion order of policy ids (first-applicable combining is order
    /// dependent, and the evaluation workload loads policies sequentially).
    order: Vec<String>,
    policies: HashMap<String, Arc<Policy>>,
    index: TargetIndex,
    /// Bumped by every add / remove / update; the id-list snapshot compares
    /// it to decide whether it is stale, and recovery persists it.
    revision: u64,
}

impl StoreInner {
    /// Index the policy that was just appended to `order` — O(1), so
    /// sequential bulk loading (the evaluation workload loads policies one
    /// by one) stays linear overall.
    fn index_appended(&mut self) {
        let pos = self.order.len() - 1;
        let policy = &self.policies[&self.order[pos]];
        match triple_key_of(&policy.target) {
            Some(key) => {
                self.index.by_triple.entry(key).or_default().push((pos, Arc::clone(policy)))
            }
            None => self.index.generic.push((pos, Arc::clone(policy))),
        }
        self.revision += 1;
    }

    /// Rebuild the target index from scratch and bump the revision. Used for
    /// remove and update, which can shift positions or move a policy between
    /// buckets; those events are rare next to evaluations (each one also
    /// withdraws query graphs, Section 3.3), so the full rebuild keeps the
    /// bookkeeping trivially correct.
    fn reindex(&mut self) {
        self.index.by_triple.clear();
        self.index.generic.clear();
        for (pos, id) in self.order.iter().enumerate() {
            let policy = &self.policies[id];
            match triple_key_of(&policy.target) {
                Some(key) => {
                    self.index.by_triple.entry(key).or_default().push((pos, Arc::clone(policy)))
                }
                None => self.index.generic.push((pos, Arc::clone(policy))),
            }
        }
        self.revision += 1;
    }
}

/// The single value of a request attribute, when the request carries exactly
/// zero or one — `Err(())` marks a multi-valued attribute, which makes the
/// request ineligible for the triple index.
fn single_value<'r>(
    request: &'r Request,
    category: AttributeCategory,
    id: &str,
) -> Result<Option<&'r str>, ()> {
    let values = request.values_of(category, id);
    match values.as_slice() {
        [] => Ok(None),
        [one] => Ok(Some(one.text.as_str())),
        _ => Err(()),
    }
}

impl PolicyStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        PolicyStore::default()
    }

    /// Load (add) a policy.
    ///
    /// # Errors
    /// Fails when a policy with the same id exists or the policy is invalid.
    pub fn add(&self, policy: Policy) -> Result<(), XacmlError> {
        policy
            .validate()
            .map_err(|detail| XacmlError::InvalidPolicy { policy_id: policy.id.clone(), detail })?;
        let mut inner = self.inner.write();
        if inner.policies.contains_key(&policy.id) {
            return Err(XacmlError::PolicyAlreadyExists(policy.id));
        }
        inner.order.push(policy.id.clone());
        inner.policies.insert(policy.id.clone(), Arc::new(policy));
        inner.index_appended();
        Ok(())
    }

    /// Replace an existing policy (keeps its position in the evaluation
    /// order). This is the "policy modified by the owner" event of
    /// Section 3.3.
    ///
    /// # Errors
    /// Fails when no policy with this id exists or the new document is
    /// invalid.
    pub fn update(&self, policy: Policy) -> Result<(), XacmlError> {
        policy
            .validate()
            .map_err(|detail| XacmlError::InvalidPolicy { policy_id: policy.id.clone(), detail })?;
        let mut inner = self.inner.write();
        if !inner.policies.contains_key(&policy.id) {
            return Err(XacmlError::UnknownPolicy(policy.id));
        }
        inner.policies.insert(policy.id.clone(), Arc::new(policy));
        inner.reindex();
        Ok(())
    }

    /// Remove a policy. This is the "policy removed by the owner" event of
    /// Section 3.3.
    ///
    /// # Errors
    /// Fails when no policy with this id exists.
    pub fn remove(&self, policy_id: &str) -> Result<Arc<Policy>, XacmlError> {
        let mut inner = self.inner.write();
        let policy = inner
            .policies
            .remove(policy_id)
            .ok_or_else(|| XacmlError::UnknownPolicy(policy_id.to_string()))?;
        inner.order.retain(|id| id != policy_id);
        inner.reindex();
        Ok(policy)
    }

    /// Fetch a policy by id (a shared reference, not a deep clone).
    #[must_use]
    pub fn get(&self, policy_id: &str) -> Option<Arc<Policy>> {
        self.inner.read().policies.get(policy_id).cloned()
    }

    /// Whether a policy with this id is loaded.
    #[must_use]
    pub fn contains(&self, policy_id: &str) -> bool {
        self.inner.read().policies.contains_key(policy_id)
    }

    /// Number of loaded policies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.read().policies.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Policy ids in evaluation order, as a shared snapshot (between
    /// mutations: one reference-count bump, no per-call cloning of the id
    /// strings).
    #[must_use]
    pub fn ids(&self) -> Arc<[String]> {
        let mut cache = self.ids_cache.lock();
        let inner = self.inner.read();
        if cache.0 != inner.revision {
            *cache = (inner.revision, inner.order.clone().into());
        }
        Arc::clone(&cache.1)
    }

    /// Snapshot of the policies in evaluation order. Each entry is an `Arc`
    /// share of the stored policy — the documents themselves are not cloned.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Arc<Policy>> {
        let inner = self.inner.read();
        inner.order.iter().filter_map(|id| inner.policies.get(id).cloned()).collect()
    }

    /// The store's revision counter; bumped by every add / remove / update.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.inner.read().revision
    }

    /// Recovery hook: advance the revision counter to at least `revision`
    /// (no-op when the store is already past it). A store rebuilt from a
    /// compacted journal has seen fewer add/remove/update events than the
    /// original, so replay alone would leave the counter behind the value
    /// persisted at the last snapshot; jumping forward restores the
    /// pre-crash revision.
    pub fn resume_revision_at(&self, revision: u64) {
        let mut inner = self.inner.write();
        inner.revision = inner.revision.max(revision);
    }

    /// Visit every policy in evaluation order without cloning, stopping when
    /// the visitor returns `Some`. This is the reference evaluation path —
    /// the indexed candidate sets must agree with it, which the property
    /// tests assert.
    pub fn scan<R>(&self, mut visitor: impl FnMut(&Policy) -> Option<R>) -> Option<R> {
        let inner = self.inner.read();
        for id in &inner.order {
            if let Some(policy) = inner.policies.get(id) {
                if let Some(result) = visitor(policy) {
                    return Some(result);
                }
            }
        }
        None
    }

    /// The policies that can possibly apply to `request`, in evaluation
    /// order, or `None` when the request is not triple-indexable (some
    /// triple attribute carries multiple values) and the caller must fall
    /// back to the full scan.
    ///
    /// Correctness: a triple-indexed policy requires its exact
    /// `(subject, resource, action)` values to be present in the request, so
    /// for a request carrying at most one value per triple attribute, every
    /// policy outside the request's bucket and the generic list evaluates to
    /// Not&nbsp;Applicable and can be skipped without changing which policy
    /// applies first.
    fn indexed_candidates(&self, request: &Request) -> Option<Vec<Arc<Policy>>> {
        let subject = single_value(request, AttributeCategory::Subject, ids::SUBJECT_ID).ok()?;
        let resource = single_value(request, AttributeCategory::Resource, ids::RESOURCE_ID).ok()?;
        let action = single_value(request, AttributeCategory::Action, ids::ACTION_ID).ok()?;

        let inner = self.inner.read();
        let bucket: &[(usize, Arc<Policy>)] = match (subject, resource, action) {
            (Some(s), Some(r), Some(a)) => {
                // Borrow the key parts without building owned Strings unless
                // the bucket exists is not possible with a tuple key; the
                // three small allocations happen once per request.
                let key = (s.to_string(), r.to_string(), a.to_string());
                inner.index.by_triple.get(&key).map_or(&[][..], Vec::as_slice)
            }
            // A request missing one of the triple attributes can never
            // satisfy a triple-shaped target: only generic policies apply.
            _ => &[],
        };

        // Merge bucket and generic back into evaluation order.
        let mut candidates = Vec::with_capacity(bucket.len() + inner.index.generic.len());
        let (mut i, mut j) = (0, 0);
        while i < bucket.len() && j < inner.index.generic.len() {
            if bucket[i].0 < inner.index.generic[j].0 {
                candidates.push(Arc::clone(&bucket[i].1));
                i += 1;
            } else {
                candidates.push(Arc::clone(&inner.index.generic[j].1));
                j += 1;
            }
        }
        candidates.extend(bucket[i..].iter().map(|(_, p)| Arc::clone(p)));
        candidates.extend(inner.index.generic[j..].iter().map(|(_, p)| Arc::clone(p)));
        Some(candidates)
    }
}

/// The Policy Decision Point (first-applicable, see the module docs).
#[derive(Debug, Clone)]
pub struct Pdp {
    store: Arc<PolicyStore>,
}

impl Pdp {
    /// A PDP over a shared policy store.
    #[must_use]
    pub fn new(store: Arc<PolicyStore>) -> Self {
        Pdp { store }
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &Arc<PolicyStore> {
        &self.store
    }

    /// Evaluate a request against the loaded policies, using the target
    /// index to narrow the candidate set. The store is read as it is at the
    /// call, so a decision is never served across a policy change.
    #[must_use]
    pub fn evaluate(&self, request: &Request) -> DecisionResponse {
        if request.validate().is_err() {
            return DecisionResponse {
                decision: Decision::Indeterminate,
                obligations: Vec::new(),
                policy_id: None,
            };
        }
        match self.store.indexed_candidates(request) {
            Some(candidates) => {
                Self::combine(request, candidates.iter().map(std::convert::AsRef::as_ref))
            }
            None => self.evaluate_linear(request),
        }
    }

    /// Alias of [`Pdp::evaluate`], kept because the benchmark ladder times
    /// both names.
    #[must_use]
    pub fn evaluate_uncached(&self, request: &Request) -> DecisionResponse {
        self.evaluate(request)
    }

    /// Reference implementation: a full linear scan over the store in
    /// insertion order, bypassing the target index. The property tests
    /// assert [`Pdp::evaluate`] agrees with this bit for bit.
    #[must_use]
    pub fn evaluate_linear(&self, request: &Request) -> DecisionResponse {
        if request.validate().is_err() {
            return DecisionResponse {
                decision: Decision::Indeterminate,
                obligations: Vec::new(),
                policy_id: None,
            };
        }
        self.store
            .scan(|policy| Self::respond(policy, request))
            .unwrap_or_else(DecisionResponse::not_applicable)
    }

    /// First-applicable combining over an ordered candidate iterator.
    fn combine<'p>(
        request: &Request,
        mut policies: impl Iterator<Item = &'p Policy>,
    ) -> DecisionResponse {
        policies
            .find_map(|policy| Self::respond(policy, request))
            .unwrap_or_else(DecisionResponse::not_applicable)
    }

    /// The policy's decision on `request`, when the policy applies.
    fn respond(policy: &Policy, request: &Request) -> Option<DecisionResponse> {
        let effect = policy.evaluate(request)?;
        Some(DecisionResponse {
            decision: match effect {
                Effect::Permit => Decision::Permit,
                Effect::Deny => Decision::Deny,
            },
            obligations: policy.obligations_for(effect),
            policy_id: Some(policy.id.clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Rule, Target};

    fn store_with(policies: Vec<Policy>) -> Arc<PolicyStore> {
        let store = Arc::new(PolicyStore::new());
        for p in policies {
            store.add(p).unwrap();
        }
        store
    }

    fn permit_policy(id: &str, subject: &str, stream: &str) -> Policy {
        Policy::new(id)
            .with_target(Target::subject_resource_action(subject, stream, "subscribe"))
            .with_rule(Rule::permit_all("permit"))
            .with_obligation(Obligation::on_permit(format!("{id}-obligation")))
    }

    #[test]
    fn store_add_get_remove_update() {
        let store = PolicyStore::new();
        store.add(permit_policy("p1", "LTA", "weather")).unwrap();
        assert!(store.contains("p1"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.ids().as_ref(), ["p1".to_string()]);
        assert!(matches!(
            store.add(permit_policy("p1", "LTA", "weather")),
            Err(XacmlError::PolicyAlreadyExists(_))
        ));

        let mut updated = permit_policy("p1", "LTA", "gps");
        updated.description = "now for gps".into();
        store.update(updated).unwrap();
        assert_eq!(store.get("p1").unwrap().description, "now for gps");
        assert!(matches!(
            store.update(permit_policy("p2", "x", "y")),
            Err(XacmlError::UnknownPolicy(_))
        ));

        store.remove("p1").unwrap();
        assert!(store.is_empty());
        assert!(matches!(store.remove("p1"), Err(XacmlError::UnknownPolicy(_))));
    }

    #[test]
    fn store_rejects_invalid_policy() {
        let store = PolicyStore::new();
        assert!(matches!(
            store.add(Policy::new("no-rules")),
            Err(XacmlError::InvalidPolicy { .. })
        ));
    }

    #[test]
    fn store_revision_bumps_on_every_mutation() {
        let store = PolicyStore::new();
        let r0 = store.revision();
        store.add(permit_policy("p1", "LTA", "weather")).unwrap();
        let r1 = store.revision();
        assert!(r1 > r0);
        store.update(permit_policy("p1", "LTA", "gps")).unwrap();
        let r2 = store.revision();
        assert!(r2 > r1);
        store.remove("p1").unwrap();
        assert!(store.revision() > r2);
    }

    #[test]
    fn snapshot_shares_policies_instead_of_cloning() {
        let store = PolicyStore::new();
        store.add(permit_policy("p1", "LTA", "weather")).unwrap();
        let a = store.snapshot();
        let b = store.get("p1").unwrap();
        assert!(Arc::ptr_eq(&a[0], &b));
    }

    #[test]
    fn pdp_permits_matching_request_with_obligations() {
        let store = store_with(vec![permit_policy("p1", "LTA", "weather")]);
        let pdp = Pdp::new(store);
        let response = pdp.evaluate(&Request::subscribe("LTA", "weather"));
        assert!(response.is_permit());
        assert_eq!(response.policy_id.as_deref(), Some("p1"));
        assert_eq!(response.obligations.len(), 1);
    }

    #[test]
    fn pdp_not_applicable_when_nothing_matches() {
        let store = store_with(vec![permit_policy("p1", "LTA", "weather")]);
        let pdp = Pdp::new(store);
        let response = pdp.evaluate(&Request::subscribe("EMA", "weather"));
        assert_eq!(response.decision, Decision::NotApplicable);
        assert!(response.obligations.is_empty());
        assert!(response.policy_id.is_none());
    }

    #[test]
    fn pdp_first_applicable_uses_load_order() {
        let deny = Policy::new("deny-all").with_rule(Rule::deny_all("d"));
        let permit = Policy::new("permit-all").with_rule(Rule::permit_all("p"));
        let pdp = Pdp::new(store_with(vec![deny.clone(), permit.clone()]));
        assert_eq!(pdp.evaluate(&Request::new()).decision, Decision::Deny);
        let pdp = Pdp::new(store_with(vec![permit, deny]));
        assert_eq!(pdp.evaluate(&Request::new()).decision, Decision::Permit);
    }

    #[test]
    fn pdp_first_applicable_interleaves_indexed_and_generic_policies() {
        // A triple-indexed Deny loaded *before* a generic Permit must still
        // win under first-applicable for the triple's request.
        let deny = Policy::new("deny-lta")
            .with_target(Target::subject_resource_action("LTA", "weather", "subscribe"))
            .with_rule(Rule::deny_all("d"));
        let permit = Policy::new("permit-all").with_rule(Rule::permit_all("p"));
        let pdp = Pdp::new(store_with(vec![deny, permit]));
        let response = pdp.evaluate(&Request::subscribe("LTA", "weather"));
        assert_eq!(response.decision, Decision::Deny);
        assert_eq!(response.policy_id.as_deref(), Some("deny-lta"));
        // The reverse order gives the generic Permit first.
        let deny = Policy::new("deny-lta")
            .with_target(Target::subject_resource_action("LTA", "weather", "subscribe"))
            .with_rule(Rule::deny_all("d"));
        let permit = Policy::new("permit-all").with_rule(Rule::permit_all("p"));
        let pdp = Pdp::new(store_with(vec![permit, deny]));
        assert_eq!(pdp.evaluate(&Request::subscribe("LTA", "weather")).decision, Decision::Permit);
    }

    #[test]
    fn pdp_indeterminate_on_malformed_request() {
        let pdp = Pdp::new(store_with(vec![permit_policy("p", "a", "b")]));
        let bad = Request::new().with_subject("", crate::attribute::AttributeValue::string("x"));
        assert_eq!(pdp.evaluate(&bad).decision, Decision::Indeterminate);
    }

    #[test]
    fn pdp_scales_over_many_policies() {
        // Mirrors the evaluation set-up: hundreds of unique policies, one
        // matching the request.
        let mut policies = Vec::new();
        for i in 0..500 {
            policies.push(permit_policy(
                &format!("p{i}"),
                &format!("user{i}"),
                &format!("stream{i}"),
            ));
        }
        let pdp = Pdp::new(store_with(policies));
        let response = pdp.evaluate(&Request::subscribe("user250", "stream250"));
        assert!(response.is_permit());
        assert_eq!(response.policy_id.as_deref(), Some("p250"));
    }

    #[test]
    fn indexed_evaluation_matches_linear_reference() {
        // Mixed store: triple-indexed policies, generic policies, deny
        // rules, multiple policies per triple.
        let policies = vec![
            permit_policy("p0", "LTA", "weather"),
            Policy::new("g0").with_rule(Rule::deny_all("d")),
            permit_policy("p1", "EMA", "weather"),
            Policy::new("p1b")
                .with_target(Target::subject_resource_action("LTA", "weather", "subscribe"))
                .with_rule(Rule::deny_all("d")),
            Policy::new("g1").with_rule(Rule::permit_all("p")),
        ];
        let pdp = Pdp::new(store_with(policies));
        for request in [
            Request::subscribe("LTA", "weather"),
            Request::subscribe("EMA", "weather"),
            Request::subscribe("nobody", "nothing"),
            Request::new(),
        ] {
            assert_eq!(
                pdp.evaluate(&request),
                pdp.evaluate_linear(&request),
                "index/linear divergence for {request}"
            );
        }
    }

    #[test]
    fn multi_valued_requests_fall_back_to_the_linear_scan() {
        use crate::attribute::AttributeValue;
        let pdp = Pdp::new(store_with(vec![
            permit_policy("p1", "LTA", "weather"),
            permit_policy("p2", "EMA", "weather"),
        ]));
        // Two subject ids: the triple index cannot pick a bucket. Both
        // policies' targets are satisfied, so first-applicable must find p1
        // (the first loaded), exactly as the linear reference does.
        let request = Request::subscribe("EMA", "weather")
            .with_subject(ids::SUBJECT_ID, AttributeValue::string("LTA"));
        let response = pdp.evaluate(&request);
        assert!(response.is_permit());
        assert_eq!(response.policy_id.as_deref(), Some("p1"));
        assert_eq!(pdp.evaluate_linear(&request), response);
    }
}
