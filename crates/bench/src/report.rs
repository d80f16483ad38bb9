//! Text and JSON rendering of experiment results.

use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Render a set of labelled CDF series as an aligned text table, one row per
/// cumulative-fraction step (the textual equivalent of Figure 6).
#[must_use]
pub fn cdf_table(series: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>6}", "CDF"));
    for (label, _) in series {
        out.push_str(&format!("  {label:>22}"));
    }
    out.push('\n');
    let rows = series.iter().map(|(_, pts)| pts.len()).max().unwrap_or(0);
    for i in 0..rows {
        let fraction = series.first().and_then(|(_, pts)| pts.get(i)).map_or(0.0, |(_, f)| *f);
        out.push_str(&format!("{fraction:>6.2}"));
        for (_, pts) in series {
            match pts.get(i) {
                Some((x, _)) => out.push_str(&format!("  {:>20.6} s", x)),
                None => out.push_str(&format!("  {:>22}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render per-request component rows (the textual equivalent of Figure 7).
#[must_use]
pub fn series_table(rows: &[(usize, f64, f64, f64, f64)], every: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6}  {:>14}  {:>12}  {:>12}  {:>12}\n",
        "req#", "total (s)", "PDP (s)", "QueryGraph(s)", "DSMS (s)"
    ));
    for (i, row) in rows.iter().enumerate() {
        if every > 1 && i % every != 0 && i != rows.len() - 1 {
            continue;
        }
        out.push_str(&format!(
            "{:>6}  {:>14.6}  {:>12.6}  {:>12.6}  {:>12.6}\n",
            row.0, row.1, row.2, row.3, row.4
        ));
    }
    out
}

/// Serialize a result structure to pretty JSON at `path`.
///
/// # Errors
/// Propagates I/O and serialization errors.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.as_bytes())
}

/// The experiment binaries' CLI flags: `--small`, `--json <path>`,
/// `--requests N`, `--policies N`. Anything else is an error.
#[derive(Debug, Clone, Default)]
pub struct CliOptions {
    /// Run the ~10% workload instead of the full Table 3 parameters.
    pub small: bool,
    /// Where to dump the raw JSON series, if requested.
    pub json: Option<std::path::PathBuf>,
    /// Override for the number of requests (fig7).
    pub requests: Option<usize>,
    /// Override for the number of policies (fig7, policy_loading).
    pub policies: Option<usize>,
}

impl CliOptions {
    /// Parse from `std::env::args`-style strings.
    ///
    /// # Errors
    /// Names the offending flag or value: an unknown flag, a flag missing
    /// its value, or a count that is not a number.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut options = CliOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{arg} needs a value"));
            let count = |v: String| {
                v.parse::<usize>().map_err(|_| format!("{arg} takes a number, got '{v}'"))
            };
            match arg.as_str() {
                "--small" => options.small = true,
                "--json" => options.json = Some(value()?.into()),
                "--requests" => options.requests = Some(count(value()?)?),
                "--policies" => options.policies = Some(count(value()?)?),
                _ => return Err(format!("unknown flag '{arg}'")),
            }
        }
        Ok(options)
    }

    /// Parse the process arguments; on an error print it with the usage
    /// line to standard error and exit with status 2.
    #[must_use]
    pub fn from_env() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        CliOptions::parse(args).unwrap_or_else(|error| {
            eprintln!(
                "{program}: {error}\nusage: {program} [--small] [--json <path>] [--requests N] [--policies N]"
            );
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_table_aligns_series() {
        let series = vec![
            ("a".to_string(), vec![(0.001, 0.5), (0.002, 1.0)]),
            ("b".to_string(), vec![(0.003, 0.5)]),
        ];
        let table = cdf_table(&series);
        assert!(table.contains("0.50"));
        assert!(table.contains("1.00"));
        assert!(table.contains('-'));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn series_table_subsamples() {
        let rows: Vec<(usize, f64, f64, f64, f64)> =
            (1..=100).map(|i| (i, 0.01, 0.001, 0.001, 0.002)).collect();
        let table = series_table(&rows, 10);
        // Header + ~10 sampled rows + the last row.
        assert!(table.lines().count() <= 13);
        assert!(table.contains("req#"));
    }

    #[test]
    fn cli_parsing() {
        let parse = |args: &[&str]| CliOptions::parse(args.iter().map(|a| (*a).to_string()));
        let options =
            parse(&["--small", "--json", "/tmp/x.json", "--requests", "100", "--policies", "50"])
                .unwrap();
        assert!(options.small);
        assert_eq!(options.json.as_deref(), Some(std::path::Path::new("/tmp/x.json")));
        assert_eq!(options.requests, Some(100));
        assert_eq!(options.policies, Some(50));
        let default = parse(&[]).unwrap();
        assert!(!default.small);
        assert!(default.json.is_none());
        // Bad input is an error naming the offender, never a silent default.
        for (args, names) in [
            (&["--smal"][..], "--smal"),
            (&["--small", "--pack", "adversarial"], "--pack"),
            (&["--json"], "--json"),
            (&["--requests"], "--requests"),
            (&["--requests", "abc"], "abc"),
            (&["--policies", "-3"], "-3"),
            (&["--policies", "1.5"], "--policies"),
            (&["extra"], "extra"),
        ] {
            let error = parse(args).expect_err(&format!("{args:?} must be refused"));
            assert!(error.contains(names), "{args:?}: '{error}' does not name '{names}'");
        }
    }

    #[test]
    fn write_json_round_trips() {
        #[derive(Serialize)]
        struct Tiny {
            x: u32,
        }
        let path = std::env::temp_dir()
            .join(format!("exacml_bench_report_test_{}.json", std::process::id()));
        write_json(&path, &Tiny { x: 7 }).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"x\": 7"));
        let _ = std::fs::remove_file(&path);
    }
}
