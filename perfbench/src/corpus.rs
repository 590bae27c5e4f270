//! Seeded document-centric corpus: `DOCS` generated articles written as
//! XML source files, plus the alternate version of one document that
//! the `reload-churn` writer swaps in and out.

use std::path::Path;

use xfrag_corpus::docgen::{generate, DocGenConfig};
use xfrag_doc::serialize::{document_to_xml, WriteOptions};

/// Documents per corpus.
pub const DOCS: usize = 12;
/// Approximate element count per document.
pub const NODES_PER_DOC: usize = 2_000;

/// A corpus shape, fully determined by the benchmark seed.
#[derive(Debug, Clone, Copy)]
pub struct Corpus {
    seed: u64,
}

impl Corpus {
    pub fn new(seed: u64) -> Self {
        Corpus { seed }
    }

    /// Source file name of document `i`.
    pub fn file_name(i: usize) -> String {
        format!("doc{i:02}.xml")
    }

    /// The document `reload-churn` rewrites.
    pub fn churn_doc(&self) -> usize {
        (self.seed % DOCS as u64) as usize
    }

    /// XML text of document `i` in `version` 0 (the original) or 1 (the
    /// rewrite the churn writer swaps in).
    pub fn xml(&self, i: usize, version: u64) -> String {
        let cfg = DocGenConfig {
            seed: mix(self.seed, i as u64 * 2 + version),
            ..DocGenConfig::default()
        }
        .with_approx_nodes(NODES_PER_DOC);
        document_to_xml(&generate(&cfg), WriteOptions { indent: None })
    }

    /// Write every document (version 0) into `dir`.
    pub fn write_sources(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for i in 0..DOCS {
            std::fs::write(dir.join(Self::file_name(i)), self.xml(i, 0))?;
        }
        Ok(())
    }
}

/// SplitMix64 finalizer: decorrelates per-document seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
