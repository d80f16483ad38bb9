//! End-to-end framework cost: a full access request through the data server,
//! and the proxy cache hit/miss ablation behind Figure 6(b).

use criterion::{criterion_group, criterion_main, Criterion};
use exacml_dsms::Schema;
use exacml_plus::{DataServer, Proxy, ServerConfig, StreamPolicyBuilder};
use exacml_simnet::Topology;
use exacml_xacml::Request;
use std::sync::Arc;
use std::time::Duration;

fn server_with_policies(n: usize) -> Arc<DataServer> {
    let server = Arc::new(DataServer::new(ServerConfig {
        topology: Topology::local(),
        ..ServerConfig::default()
    }));
    server.register_stream("weather", Schema::weather_example()).unwrap();
    for i in 0..n {
        let policy = StreamPolicyBuilder::new(format!("p{i}"), "weather")
            .subject(format!("user{i}"))
            .filter("rainrate > 5")
            .visible_attributes(["samplingtime", "rainrate", "windspeed"])
            .build();
        server.load_policy(policy).unwrap();
    }
    server
}

fn bench_framework(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_request");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(20);

    for policies in [50usize, 1000] {
        let server = server_with_policies(policies);
        let request = Request::subscribe(&format!("user{}", policies / 2), "weather");
        group.bench_function(format!("handle_request_{policies}_policies"), |b| {
            b.iter(|| {
                let response = server.handle_request(&request, None).unwrap();
                // Release so the next iteration deploys again rather than
                // reusing, keeping iterations comparable.
                server.release_access(&format!("user{}", policies / 2), "weather");
                response
            });
        });
    }

    let server = server_with_policies(100);
    let proxy_cached = Proxy::with_cache(server.clone(), Topology::local(), 42, true);
    let request = Request::subscribe("user1", "weather");
    proxy_cached.request(&request, None).unwrap();
    group.bench_function("proxy_cache_hit", |b| {
        b.iter(|| proxy_cached.request(&request, None).unwrap());
    });

    let proxy_uncached = Proxy::with_cache(server.clone(), Topology::local(), 42, false);
    let request = Request::subscribe("user2", "weather");
    group.bench_function("proxy_cache_miss", |b| {
        b.iter(|| proxy_uncached.request(&request, None).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_framework);
criterion_main!(benches);
