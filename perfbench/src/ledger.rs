//! A per-checkout ledger of every served cell's `SimStats`, kept in the
//! work directory across runs: each run compares the cells it was served
//! with what earlier runs recorded, so stats that drift between runs of a
//! workload are caught as failures.
//! The ledger file is named after a hash of the benchmark executable, so a
//! rebuilt program (another commit in the same checkout) starts afresh.

use sms_harness::cache::stats_to_json;
use sms_sim::gpu::SimStats;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;

pub struct Ledger {
    path: PathBuf,
    entries: BTreeMap<String, String>,
    dirty: bool,
}

impl Ledger {
    /// Loads this executable's ledger in `dir` (empty when absent).
    pub fn open(dir: &std::path::Path) -> Self {
        let build = std::env::current_exe().and_then(std::fs::read).map_or(0, |bytes| {
            let mut h = DefaultHasher::new();
            bytes.hash(&mut h);
            h.finish()
        });
        let path = dir.join(format!("stats_ledger-{build:016x}.tsv"));
        let entries = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.split_once('\t'))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        Ledger { path, entries, dirty: false }
    }

    /// The ledger key of one cell.
    pub fn key(tier: &str, scene: &str, config: &str) -> String {
        format!("{tier}/{scene}/{config}")
    }

    /// Compares `stats` with the recorded entry for `key`, recording it
    /// when the key is new. `Err` describes a mismatch.
    pub fn check(&mut self, key: &str, stats: &SimStats) -> Result<(), String> {
        let line = stats_to_json(stats).to_string();
        match self.entries.get(key) {
            Some(prev) if *prev == line => Ok(()),
            Some(prev) => {
                Err(format!("{key}: stats differ from an earlier run ({prev} vs {line})"))
            }
            None => {
                self.entries.insert(key.to_owned(), line);
                self.dirty = true;
                Ok(())
            }
        }
    }

    /// Writes the ledger back (atomically) if it gained entries.
    pub fn save(&self) -> std::io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let text: String = self.entries.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &self.path)
    }
}
