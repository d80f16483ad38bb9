//! The policy-loading measurement of Section 4.2: loading a policy takes a
//! small, constant amount of time irrespective of the number of policies
//! already loaded (the paper reports 0.25 s ± 0.06 s on its Java prototype).

use exacml_bench::report::CliOptions;
use exacml_bench::{policy_loading_experiment, write_json};

fn main() {
    let options = CliOptions::from_env();
    let policies = options.policies.unwrap_or(if options.small { 100 } else { 1000 });
    println!("Policy loading: {policies} policies");
    let result = policy_loading_experiment(policies, 2012);
    println!("  mean   {:.6} s", result.mean_seconds);
    println!("  stddev {:.6} s", result.stddev_seconds);
    println!("  first  {:.6} s", result.first_seconds);
    println!("  last   {:.6} s", result.last_seconds);
    println!("(the paper's Java/LAN prototype reports 0.25 s ± 0.06 s; the claim reproduced here is that the cost does not grow with the number of loaded policies)");
    if let Some(path) = options.json {
        write_json(&path, &result).expect("write JSON");
        println!("raw result written to {}", path.display());
    }
}
