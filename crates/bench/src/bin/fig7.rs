//! Figure 7: detailed processing time of access-control requests.
//! Defaults to the 7(b) set-up (1500 requests / 1000 policies); pass
//! `--requests 100 --policies 50` for 7(a).

use exacml_bench::CliOptions;
use exacml_bench::{fig7_result, series_table, write_json};

fn main() {
    let options = CliOptions::from_env();
    let (requests, policies) = if options.small {
        (options.requests.unwrap_or(100), options.policies.unwrap_or(50))
    } else {
        (options.requests.unwrap_or(1500), options.policies.unwrap_or(1000))
    };
    println!("Figure 7: {requests} requests with {policies} policies loaded");
    let result = fig7_result(requests, policies, 2012);
    let every = (result.rows.len() / 25).max(1);
    println!("\n{}", series_table(&result.rows, every));
    let (total, pdp, graph, dsms, network) = result.means;
    println!("means: total {total:.6}s  PDP {pdp:.6}s  query-graph {graph:.6}s  DSMS {dsms:.6}s  network {network:.6}s");
    if let Some(path) = options.json {
        write_json(&path, &result).expect("write JSON");
        println!("\nraw series written to {}", path.display());
    }
}
