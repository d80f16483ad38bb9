//! The built-in scenario packs: four worlds, one harness.
//!
//! * `smart-city` — the paper's Section 4.2 world (weather/GPS feeds,
//!   per-agency policies, a Zipf-skewed citizen population on an open
//!   air-quality stream);
//! * `financial-ticks` — per-desk policies over a tick stream with bursty
//!   ingest and policy churn;
//! * `iot-fleet` — geo-scoped fleet access with a wide fan-out heartbeat
//!   stream (plan sharing under many subscribers);
//! * `adversarial` — the Section 3.4 multi-window reconstruction attack,
//!   privilege escalation via policy churn, and replayed requests; every
//!   attack must be *blocked* and audited.
//!
//! The committed JSON documents under `crates/workload/packs/` are the packs:
//! they are embedded at compile time and parsed on demand, so a world exists
//! in exactly one place and adding one is a JSON file plus a line here.

use crate::scenario::ScenarioPack;

/// `(name, document)` of every built-in pack, in presentation order.
const BUILTIN: [(&str, &str); 4] = [
    ("smart-city", include_str!("../packs/smart-city.json")),
    ("financial-ticks", include_str!("../packs/financial-ticks.json")),
    ("iot-fleet", include_str!("../packs/iot-fleet.json")),
    ("adversarial", include_str!("../packs/adversarial.json")),
];

/// Every built-in pack, in presentation order.
#[must_use]
pub fn all() -> Vec<ScenarioPack> {
    BUILTIN.iter().map(|(name, _)| by_name(name).expect("name taken from BUILTIN")).collect()
}

/// Look a built-in pack up by name.
///
/// # Panics
/// Panics when the embedded document is not a valid pack — a defect in this
/// repository's own data, which `builtin_packs_validate` keeps out.
#[must_use]
pub fn by_name(name: &str) -> Option<ScenarioPack> {
    let (_, document) = BUILTIN.iter().find(|(builtin, _)| *builtin == name)?;
    let pack = ScenarioPack::from_json_str(document)
        .unwrap_or_else(|problem| panic!("built-in pack '{name}' is invalid: {problem}"));
    Some(pack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn builtin_packs_validate() {
        for pack in all() {
            pack.validate().unwrap_or_else(|problems| {
                panic!("pack '{}' is invalid: {}", pack.name, problems.join("; "))
            });
        }
    }

    /// The registry and the `packs/` directory agree: every JSON file is
    /// registered (a world nobody registered would silently never run), under
    /// the name its document declares.
    #[test]
    fn registry_names_equal_the_pack_file_stems() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("packs");
        let mut stems: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        let mut registered: Vec<String> = all().into_iter().map(|pack| pack.name).collect();
        registered.sort();
        assert_eq!(registered, stems);
        for (name, _) in BUILTIN {
            assert_eq!(by_name(name).unwrap().name, name);
        }
        assert!(by_name("no-such-world").is_none());
    }
}
