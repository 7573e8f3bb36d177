//! A disk-store path for one test: unique to the process and the guard, so
//! concurrent test runs never share a store, and removed together with the
//! `.shard<i>` files a sharded build writes beside it when the guard drops,
//! also when the test panics. The crate's unit tests and the workspace's
//! integration tests both include this file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct TestStore(PathBuf);

impl TestStore {
    /// `$TMPDIR/rpq-test-<pid>-<n>-<tag>.store`, `n` counting the guards
    /// this process made.
    pub fn new(tag: &str) -> Self {
        static MADE: AtomicUsize = AtomicUsize::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let name = format!("rpq-test-{}-{n}-{tag}.store", std::process::id());
        Self(std::env::temp_dir().join(name))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        for i in 0.. {
            let mut shard = self.0.clone().into_os_string();
            shard.push(format!(".shard{i}"));
            if std::fs::remove_file(shard).is_err() {
                break;
            }
        }
    }
}
