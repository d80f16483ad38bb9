//! The brokering fabric end to end: four data-server nodes on the paper's
//! testbed links, streams placed by rendezvous hashing, policies propagated
//! fabric-wide, and subscriber deliveries travelling simulated network links
//! driven by the virtual clock.
//!
//! ```sh
//! cargo run --example fabric_cluster
//! ```

use exacml::exacml_dsms::Schema;
use exacml::prelude::*;
use std::time::Duration;

fn main() {
    let fabric = Fabric::new(FabricConfig::new(4, TopologyPreset::PaperTestbed.topology()));
    println!("fabric: {} nodes behind the broker", fabric.nodes().len());

    // Register a handful of weather stations; the broker places each stream
    // on its rendezvous-hash owner.
    let stations: Vec<String> = (0..8).map(|i| format!("station{i}")).collect();
    for station in &stations {
        let owner = fabric.register_stream(station, Schema::weather_example()).unwrap();
        println!("  {station} -> {owner}");
    }

    // One policy per station for the LTA, propagated to every node (each
    // node's PDP cache is invalidated by the propagation).
    for (i, station) in stations.iter().enumerate() {
        let policy = StreamPolicyBuilder::new(format!("nea-{i}"), station)
            .subject("LTA")
            .filter("rainrate > 5")
            .visible_attributes(["samplingtime", "rainrate", "windspeed"])
            .build();
        fabric.load_policy(policy).unwrap();
    }
    println!("loaded {} policies on {} nodes", stations.len(), fabric.nodes().len());

    // The LTA requests access to every station; the broker routes each
    // request to the station's owner node.
    let mut subscriptions = Vec::new();
    for station in &stations {
        let response = fabric.handle_request(&Request::subscribe("LTA", station), None).unwrap();
        println!(
            "  granted {} on {} ({}; broker hop {:?})",
            response.response.handle,
            response.node,
            if response.response.reused { "reused" } else { "deployed" },
            response.broker_network,
        );
        subscriptions.push(fabric.subscribe(&response.response.handle).unwrap());
    }

    // Pump the feeds through the broker and drain deliveries as virtual
    // time advances: tuples arrive only after their simulated network
    // latency has passed.
    let mut feed = WeatherFeed::paper_default(7);
    for station in &stations {
        feed.pump_into(&fabric, station, 100).unwrap();
    }
    let mut delivered = 0usize;
    let mut first_latency = None;
    for step in 1..=10 {
        fabric.advance(Duration::from_millis(1));
        for subscription in &mut subscriptions {
            for d in subscription.poll() {
                if first_latency.is_none() {
                    first_latency = Some(d.latency());
                }
                delivered += 1;
            }
        }
        println!("  t={step} ms: {delivered} tuples delivered");
    }
    if let Some(latency) = first_latency {
        println!("first delivery latency (simulated): {latency:?}");
    }

    // Per node: streams from its catalog, requests and tuples from its part
    // of the fabric's telemetry; propagations from the fabric-wide audit.
    let telemetry = fabric.telemetry();
    for ((node, server), part) in
        fabric.nodes().iter().zip(fabric.layer().servers()).zip(&telemetry.nodes[1..])
    {
        println!(
            "  {}: {} streams, {} requests, {} tuples in {} frames",
            node.id(),
            server.stream_names().len(),
            part.counter(Metric::Requests),
            part.counter(Metric::TuplesIngested),
            part.counter(Metric::BrokerFrames),
        );
    }
    let propagations = fabric.audit_kind_counts().get("policy-loaded").copied().unwrap_or(0);
    println!("policy propagations: {propagations}");
}
