//! File-backed policy repository.
//!
//! The paper's prototype stores each policy as an XACML XML file that is
//! "loaded into eXACML+ to provide access control policies to the PDP"
//! (Section 4.2). This module provides that on-disk layer: a directory of
//! `<policy-id>.xml` documents that can be listed, loaded, saved and
//! removed, so data owners can manage policies
//! with ordinary file tools and the server can (re)load them at start-up.

use crate::error::XacmlError;
use crate::policy::Policy;
use crate::xml::{parse_policy, write_policy};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A directory of policy documents.
#[derive(Debug, Clone)]
pub struct PolicyRepository {
    root: PathBuf,
}

/// Errors produced by repository operations (I/O plus policy parsing).
#[derive(Debug)]
pub enum RepositoryError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// A policy document failed to parse or validate.
    Policy { file: PathBuf, error: XacmlError },
}

impl std::fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepositoryError::Io(e) => write!(f, "repository I/O error: {e}"),
            RepositoryError::Policy { file, error } => {
                write!(f, "bad policy document {}: {error}", file.display())
            }
        }
    }
}

impl std::error::Error for RepositoryError {}

impl From<io::Error> for RepositoryError {
    fn from(e: io::Error) -> Self {
        RepositoryError::Io(e)
    }
}

impl PolicyRepository {
    /// Open (creating if necessary) a repository rooted at `root`.
    ///
    /// # Errors
    /// Fails when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, RepositoryError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(PolicyRepository { root })
    }

    /// The repository's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn file_for(&self, policy_id: &str) -> PathBuf {
        // Keep file names safe: replace path separators and spaces.
        let safe: String = policy_id
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root.join(format!("{safe}.xml"))
    }

    /// Persist one policy as `<policy-id>.xml` (overwriting any previous
    /// version of the same policy).
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn save(&self, policy: &Policy) -> Result<PathBuf, RepositoryError> {
        let path = self.file_for(&policy.id);
        fs::write(&path, write_policy(policy))?;
        Ok(path)
    }

    /// Load one policy by id.
    ///
    /// # Errors
    /// Fails when the file is missing, unreadable or not a valid policy.
    pub fn load(&self, policy_id: &str) -> Result<Policy, RepositoryError> {
        let path = self.file_for(policy_id);
        let text = fs::read_to_string(&path)?;
        parse_policy(&text).map_err(|error| RepositoryError::Policy { file: path, error })
    }

    /// Delete one policy document. Returns `true` when a file was removed.
    ///
    /// # Errors
    /// Fails on I/O errors other than "not found".
    pub fn remove(&self, policy_id: &str) -> Result<bool, RepositoryError> {
        match fs::remove_file(self.file_for(policy_id)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(RepositoryError::Io(e)),
        }
    }

    /// The ids (file stems) of every stored policy document, sorted.
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn list(&self) -> Result<Vec<String>, RepositoryError> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("xml") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    ids.push(stem.to_string());
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Parse every stored policy document, in sorted file order.
    ///
    /// # Errors
    /// Fails on the first unreadable or invalid document.
    pub fn load_all(&self) -> Result<Vec<Policy>, RepositoryError> {
        let mut policies = Vec::new();
        for entry in self.sorted_xml_files()? {
            let text = fs::read_to_string(&entry)?;
            let policy = parse_policy(&text)
                .map_err(|error| RepositoryError::Policy { file: entry, error })?;
            policies.push(policy);
        }
        Ok(policies)
    }

    fn sorted_xml_files(&self) -> Result<Vec<PathBuf>, RepositoryError> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.root)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("xml"))
            .collect();
        files.sort();
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::Obligation;
    use crate::policy::{Rule, Target};

    fn temp_repo(tag: &str) -> PolicyRepository {
        let dir = std::env::temp_dir().join(format!("exacml-repo-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PolicyRepository::open(dir).unwrap()
    }

    fn sample_policy(id: &str) -> Policy {
        Policy::new(id)
            .with_description("repository test policy")
            .with_target(Target::subject_resource_action("LTA", "weather", "subscribe"))
            .with_rule(Rule::permit_all("permit"))
            .with_obligation(
                Obligation::on_permit("exacml:obligation:stream-filter")
                    .with_string("pCloud:obligation:stream-filter-condition-id", "rainrate > 5"),
            )
    }

    #[test]
    fn save_load_remove_round_trip() {
        let repo = temp_repo("rt");
        let policy = sample_policy("p-one");
        let path = repo.save(&policy).unwrap();
        assert!(path.exists());
        assert_eq!(repo.load("p-one").unwrap(), policy);
        assert_eq!(repo.list().unwrap(), vec!["p-one".to_string()]);
        assert!(repo.remove("p-one").unwrap());
        assert!(!repo.remove("p-one").unwrap());
        assert!(repo.load("p-one").is_err());
        let _ = fs::remove_dir_all(repo.root());
    }

    #[test]
    fn unsafe_ids_are_sanitised_into_file_names() {
        let repo = temp_repo("sanitise");
        let policy = sample_policy("weird/../id with spaces");
        let path = repo.save(&policy).unwrap();
        assert!(path.starts_with(repo.root()));
        assert!(path.file_name().unwrap().to_str().unwrap().ends_with(".xml"));
        // It can be loaded back under the same (unsanitised) id.
        assert_eq!(repo.load("weird/../id with spaces").unwrap().id, policy.id);
        let _ = fs::remove_dir_all(repo.root());
    }

    #[test]
    fn load_all_reads_every_saved_policy() {
        let repo = temp_repo("store");
        for i in 0..5 {
            repo.save(&sample_policy(&format!("p{i}"))).unwrap();
        }
        assert_eq!(repo.load_all().unwrap().len(), 5);
        let _ = fs::remove_dir_all(repo.root());
    }

    #[test]
    fn corrupt_documents_are_reported_with_their_path() {
        let repo = temp_repo("corrupt");
        fs::write(repo.root().join("broken.xml"), "<NotAPolicy/>").unwrap();
        let err = repo.load_all().unwrap_err();
        assert!(matches!(err, RepositoryError::Policy { .. }));
        assert!(err.to_string().contains("broken.xml"));
        let _ = fs::remove_dir_all(repo.root());
    }
}
