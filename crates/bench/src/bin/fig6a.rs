//! Figure 6(a): CDF of request-fulfilment time, unique query/request
//! sequence — direct query vs eXACML+.

use exacml_bench::CliOptions;
use exacml_bench::{cdf_table, fig6a_result, write_json};
use exacml_workload::WorkloadSpec;

fn main() {
    let options = CliOptions::from_env();
    let spec = if options.small { WorkloadSpec::small() } else { WorkloadSpec::table3() };
    println!(
        "Figure 6(a): unique sequence, {} requests over {} policies",
        spec.n_requests, spec.n_policies
    );
    let result = fig6a_result(&spec, 20);
    println!("\n{}", cdf_table(&result.series));
    println!("{:<22} {:>12} {:>12} {:>12}", "system", "mean (s)", "p50 (s)", "p99 (s)");
    for (label, mean, p50, p99) in &result.summary {
        println!("{label:<22} {mean:>12.6} {p50:>12.6} {p99:>12.6}");
    }
    if let Some(path) = options.json {
        write_json(&path, &result).expect("write JSON");
        println!("\nraw series written to {}", path.display());
    }
}
