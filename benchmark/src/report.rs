//! Metric definitions (the one place names, units and directions live —
//! `BENCHMARK.json` is generated from them), the result line the driver
//! reads, and the machine facts every report carries.

use crate::world::Workload;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees, with the share of the parent's median by
/// which each may worsen before a change is rejected. Operation failures
/// are not a metric here: the result line carries `attempted` / `failed`,
/// and any failure makes the run incorrect.
///
/// Every bound is the contract's ceiling, a quarter. Ten runs with ten seeds
/// spread (interquartile range over median) 2–5 % in the host's quiet hours
/// and up to 9 % (ingest), 7 % (delivery), 14 % (requests) and 13 % (request
/// latency) in its noisy ones, the whole level drifting by ±10 % over
/// minutes; a tighter bound would reject unchanged code.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (def("ingest_tuples_per_s", "1/s", "higher"), 0.25),
    (def("delivery_latency_p50_us", "us", "lower"), 0.25),
    (def("requests_per_s", "1/s", "higher"), 0.25),
    (def("request_latency_p50_us", "us", "lower"), 0.25),
    (def("setup_s", "s", "lower"), 0.25),
];

/// Single-layer metrics, in the order the traced run prints them.
pub const PER_LAYER: [MetricDef; 74] = [
    // Whole-window figures of an untraced round: they scale with the work
    // done in a fixed-time run or do not repeat within a tenth, so they
    // inform but do not gate.
    def("window.ingest_mean_tuples_per_s", "1/s", "higher"),
    def("window.requests_mean_per_s", "1/s", "higher"),
    def("window.request_latency_p99_us", "us", "lower"),
    def("window.delivery_latency_p99_us", "us", "lower"),
    def("window.release_latency_p50_us", "us", "lower"),
    def("window.policy_update_latency_p50_us", "us", "lower"),
    def("window.ingest_drift", "ratio", "higher"),
    def("window.peak_rss_mb", "MB", "lower"),
    def("window.wal_mb", "MB", "lower"),
    def("harness.paced_lateness_p50_us", "us", "lower"),
    // Ingest ladder.
    def("dsms.engine.push_batch_ns_per_tuple", "ns/tuple", "lower"),
    def("dsms.engine.push_batch_2t_ns_per_tuple", "ns/tuple", "lower"),
    def("core.server.push_batch_ns_per_tuple", "ns/tuple", "lower"),
    def("durable.server.push_batch_ns_per_tuple", "ns/tuple", "lower"),
    def("core.fabric.push_batches_1n_ns_per_tuple", "ns/tuple", "lower"),
    def("core.fabric.push_batches_4n_ns_per_tuple", "ns/tuple", "lower"),
    def("durable.fabric.push_batches_ns_per_tuple", "ns/tuple", "lower"),
    def("core.shared_plan.fanout_cost_100", "x", "lower"),
    def("core.shared_plan.fanout_cost_1000", "x", "lower"),
    def("dsms.engine.ns_per_delivery", "ns", "lower"),
    def("durable.record.encode_ingest_ns_per_tuple", "ns/tuple", "lower"),
    def("durable.wal.append_buffered_ns_per_record", "ns/record", "lower"),
    def("durable.wal.flush_us", "us", "lower"),
    def("durable.wal.checksum_ns_per_kb", "ns/kB", "lower"),
    def("durable.server.recover_s", "s", "lower"),
    def("durable.server.recover_ns_per_record", "ns/record", "lower"),
    def("simnet.predicted_ingest_tuples_per_s", "1/s", "higher"),
    def("simnet.prediction_ratio", "ratio", "higher"),
    // Request ladder.
    def("xacml.xml.parse_request_ns", "ns", "lower"),
    def("xacml.xml.parse_policy_ns", "ns", "lower"),
    def("xacml.pdp.evaluate_ns", "ns", "lower"),
    def("xacml.pdp.evaluate_uncached_ns", "ns", "lower"),
    def("core.obligations.graph_from_obligations_ns", "ns", "lower"),
    def("core.merge.merge_graphs_ns", "ns", "lower"),
    def("expr.parse_expr_ns", "ns", "lower"),
    def("expr.simplify_ns", "ns", "lower"),
    def("expr.check_two_simple_ns", "ns", "lower"),
    def("dsms.streamsql.generate_ns", "ns", "lower"),
    def("dsms.engine.deploy_ns", "ns", "lower"),
    def("dsms.engine.attach_handle_ns", "ns", "lower"),
    def("dsms.engine.withdraw_ns", "ns", "lower"),
    def("core.server.handle_request_grant_ns", "ns", "lower"),
    def("core.server.handle_request_reuse_ns", "ns", "lower"),
    def("core.server.handle_request_deny_ns", "ns", "lower"),
    def("core.server.release_access_ns", "ns", "lower"),
    def("core.server.update_policy_ns", "ns", "lower"),
    def("core.server.timing.pdp_us", "us", "lower"),
    def("core.server.timing.query_graph_us", "us", "lower"),
    def("core.server.timing.dsms_us", "us", "lower"),
    def("core.server.timing.network_us", "us", "lower"),
    def("durable.server.handle_request_ns", "ns", "lower"),
    def("core.fabric.handle_request_ns", "ns", "lower"),
    def("durable.fabric.handle_request_ns", "ns", "lower"),
    // The workload's own traced round.
    def("harness.generate_share", "share", "lower"),
    def("harness.push_share", "share", "higher"),
    def("harness.drain_share", "share", "lower"),
    def("harness.request_share", "share", "higher"),
    def("telemetry.pdp.busy_share", "share", "lower"),
    def("telemetry.query_graph.busy_share", "share", "lower"),
    def("telemetry.dsms_deploy.busy_share", "share", "lower"),
    def("telemetry.plan_cache_lookup.busy_share", "share", "lower"),
    def("telemetry.ingest.busy_share", "share", "lower"),
    def("telemetry.wal_append.busy_share", "share", "lower"),
    def("telemetry.wal_flush.busy_share", "share", "lower"),
    def("telemetry.replica_ship.busy_share", "share", "lower"),
    def("telemetry.tuples_ingested", "count", "higher"),
    def("telemetry.tuples_delivered", "count", "higher"),
    def("telemetry.wal_records", "count", "higher"),
    def("telemetry.wal_flushes", "count", "lower"),
    def("telemetry.replica_batches_shipped", "count", "lower"),
    def("telemetry.broker_frames", "count", "higher"),
    def("core.shared_plan.hit_ratio", "ratio", "higher"),
    def("harness.unattributed_share", "share", "lower"),
    def("harness.trace_overhead", "ratio", "higher"),
];

/// Seconds one run measures; `BENCHMARK.json` hands it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contents of `BENCHMARK.json`, generated so it cannot disagree with
/// what the program prints.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_string(w.name()),
            json_string(w.why())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (m, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}{comma}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One run's outcome: what the last line of standard output says.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The driver's result object, metrics in definition order. Panics when
    /// a defined metric was not measured: that is a bug in this program.
    pub fn result_line(&self, traced: bool) -> String {
        let defs: Vec<MetricDef> =
            if traced { PER_LAYER.to_vec() } else { END_TO_END.iter().map(|(m, _)| *m).collect() };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in defs.iter().enumerate() {
            let value = self.value(m.name).unwrap_or_else(|| panic!("{} not measured", m.name));
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(m.name),
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, one per line, for people.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let unit = PER_LAYER
                .iter()
                .chain(END_TO_END.iter().map(|(m, _)| m))
                .find(|m| m.name == *name)
                .map_or("", |m| m.unit);
            let _ = writeln!(out, "  {name:<46} {value:>16.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  {:<46} {:>16} of {} ({})",
            "failed operations",
            self.failed,
            self.attempted,
            if traced { "traced run" } else { "untraced rounds" }
        );
        out
    }
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

fn git_sha() -> String {
    let head = read_trimmed(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&format!(".git/{reference}")),
        None => head,
    }
}

/// The machine facts every report carries, on one line: a number is only
/// comparable with another taken under the same ones.
pub fn environment_line() -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "nproc={nproc} | rustc={rustc} | profile={profile} | git_sha={} | clocksource={} | \
         loadavg={} | aslr={}",
        git_sha(),
        read_trimmed("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        read_trimmed("/proc/loadavg"),
        read_trimmed("/proc/sys/kernel/randomize_va_space"),
    )
}

/// Peak resident set of this process so far, in MB (0 where `/proc` has no
/// answer).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let mut names = HashSet::new();
        let all = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for m in all {
            assert!(names.insert(m.name), "{} defined twice", m.name);
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "higher" || m.better == "lower");
        }
        assert!(END_TO_END.iter().all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
        assert!(END_TO_END.iter().any(|(m, _)| m.name == "setup_s" && m.unit == "s"));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "regenerate with `run.sh manifest`");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            attempted: 10,
            failed: 0,
            metrics: END_TO_END.iter().map(|(m, _)| (m.name, 1.5)).collect(),
        };
        let line = report.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        let failing = RunReport { failed: 1, ..report };
        assert!(failing.result_line(false).starts_with("{\"correct\": false"));
    }
}
