//! `Session` RAII coverage: dropping a session releases every handle it
//! holds — on a single server and on a fabric — and the fabric's broker
//! answers for a released handle as for one it never granted.

use exacml::exacml_dsms::{Schema, StreamHandle};
use exacml::prelude::*;
use std::sync::Arc;

fn policies_and_streams(backend: &dyn Backend, streams: usize) -> Vec<String> {
    let names: Vec<String> = (0..streams).map(|i| format!("stream{i}")).collect();
    for name in &names {
        backend.register_stream(name, Schema::weather_example()).unwrap();
        backend
            .load_policy(
                StreamPolicyBuilder::new(format!("p-{name}"), name)
                    .subject("LTA")
                    .filter("rainrate > 5")
                    .build(),
            )
            .unwrap();
    }
    names
}

#[test]
fn dropping_a_session_releases_all_local_handles() {
    let backend = BackendBuilder::local().build();
    let names = policies_and_streams(backend.as_ref(), 4);
    {
        let session = Session::new(backend.clone(), "LTA");
        for name in &names {
            session.request_access(name, None).unwrap();
        }
        assert_eq!(session.live_handles().len(), 4);
        assert_eq!(backend.live_deployments(), 4);
    }
    // RAII: every deployment the session held is withdrawn.
    assert_eq!(backend.live_deployments(), 0);
    // The subject is free to request different queries immediately.
    let session = Session::new(backend, "LTA");
    let query = UserQuery::for_stream(&names[0]).with_filter("rainrate > 70");
    assert!(session.request_access(&names[0], Some(&query)).is_ok());
}

/// A dead handle on the fabric: not live, and unknown to `subscribe`.
fn is_unknown(fabric: &Fabric, handle: &StreamHandle) -> bool {
    !fabric.handle_is_live(handle)
        && matches!(fabric.subscribe(handle), Err(ExacmlError::UnknownHandle(_)))
}

#[test]
fn dropping_a_session_releases_fabric_handles_on_every_node() {
    // Keep a concrete view of the fabric next to the trait-object view the
    // session uses, so the per-node servers are observable.
    let fabric = Arc::new(Fabric::new(FabricConfig::local(3)));
    let backend: Arc<dyn Backend> = fabric.clone();
    let names = policies_and_streams(backend.as_ref(), 6);

    let held = {
        let session = Session::new(backend.clone(), "LTA");
        for name in &names {
            session.request_access(name, None).unwrap();
        }
        let held = session.live_handles();
        assert_eq!(held.len(), 6);
        assert!(held.iter().all(|handle| fabric.subscribe(handle).is_ok()));
        assert_eq!(fabric.live_deployments(), 6);
        // The grants landed on more than one node (rendezvous placement).
        let busy_nodes =
            fabric.layer().servers().iter().filter(|s| s.live_deployments() > 0).count();
        assert!(busy_nodes > 1, "6 streams on 3 nodes should use more than one node");
        held
    };
    // RAII fabric-wide: deployments withdrawn on every node, and the broker
    // no longer knows any of the handles.
    assert_eq!(fabric.live_deployments(), 0);
    assert!(held.iter().all(|handle| is_unknown(&fabric, handle)), "dead handles must be unknown");
}

#[test]
fn explicit_release_makes_the_handle_unknown_to_the_broker() {
    let fabric = Arc::new(Fabric::new(FabricConfig::local(2)));
    let backend: Arc<dyn Backend> = fabric.clone();
    let names = policies_and_streams(backend.as_ref(), 2);

    let session = Session::new(backend, "LTA");
    let granted = session.request_access(&names[0], None).unwrap();
    let kept = session.request_access(&names[1], None).unwrap();
    assert!(fabric.subscribe(granted.handle()).is_ok());

    assert!(session.release(&names[0]));
    assert!(is_unknown(&fabric, granted.handle()), "a released handle must be unknown");
    assert!(session.handle_for(&names[0]).is_none());
    // The other grant is untouched.
    assert_eq!(session.live_handles().len(), 1);
    assert!(fabric.handle_is_live(session.handle_for(&names[1]).as_ref().unwrap()));

    // Double release through the session is a no-op, like on the backend.
    assert!(!session.release(&names[0]));
    assert!(fabric.subscribe(kept.handle()).is_ok());
}

#[test]
fn session_survives_server_side_withdrawal() {
    // A policy change withdraws a session's grant server-side; the session
    // must observe the death and its drop must stay a clean no-op.
    let backend = BackendBuilder::fabric(3).build();
    let names = policies_and_streams(backend.as_ref(), 2);
    let session = Session::new(backend.clone(), "LTA");
    session.request_access(&names[0], None).unwrap();
    session.request_access(&names[1], None).unwrap();

    backend.remove_policy(&format!("p-{}", names[0])).unwrap();
    assert_eq!(session.live_handles().len(), 1, "withdrawn grant no longer counts as live");
    drop(session);
    assert_eq!(backend.live_deployments(), 0);
}
