//! Table 3: the workload parameters, plus a summary of the generated corpus
//! (proving the generated composition matches the requested distribution).

use exacml_bench::report::CliOptions;
use exacml_workload::{WorkloadGenerator, WorkloadSpec};
use std::collections::BTreeMap;

fn main() {
    let options = CliOptions::from_env();
    let spec = if options.small { WorkloadSpec::small() } else { WorkloadSpec::table3() };

    println!("Table 3: summary of parameters used in experiments\n");
    println!("{:<18} {:<28} Description", "Variable", "Value");
    for (name, value, description) in spec.table_rows() {
        println!("{name:<18} {value:<28} {description}");
    }

    let generator = WorkloadGenerator::new(spec);
    let queries = generator.generate_queries();
    let mut per_composition: BTreeMap<String, usize> = BTreeMap::new();
    for q in &queries {
        *per_composition.entry(q.composition.clone()).or_default() += 1;
    }
    println!("\nGenerated corpus: {} unique continuous queries", queries.len());
    for (composition, count) in &per_composition {
        println!("  {composition:<10} {count}");
    }
    let unique = generator.unique_sequence(queries.len());
    let zipf = generator.zipf_sequence(queries.len());
    println!(
        "\nunique sequence: {} requests over {} distinct queries",
        unique.len(),
        unique.distinct()
    );
    println!("zipf sequence:   {} requests over {} distinct queries", zipf.len(), zipf.distinct());
}
