//! What more than one integration suite needs: a store directory that is
//! gone after the test.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Removes a test's store directory when dropped — unless the thread is
/// panicking, so a failing test leaves its store behind to inspect.
pub struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A fresh, absent path `exacml-{tag}-{pid}-{n}` under the temp dir, and
/// the guard that removes it. Bind the guard to a name (`_guard`, not `_`)
/// declared before whatever opens the store, so it drops last.
pub fn temp_store(tag: &str) -> (PathBuf, RemoveOnDrop) {
    static STORES: AtomicUsize = AtomicUsize::new(0);
    let n = STORES.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("exacml-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), RemoveOnDrop(dir))
}
