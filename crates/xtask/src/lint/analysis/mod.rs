//! Whole-workspace analyses on top of the call graph.
//!
//! The per-file [`rules`](super::rules) see one scanned file at a time;
//! the analyses here see the whole workspace at once: every file's token
//! stream, the cross-file [`ItemIndex`](super::items::ItemIndex), and
//! the [`CallGraph`](super::callgraph::CallGraph) over it. Three passes:
//!
//! * [`purity`] — comparison-model purity certification per summary
//!   crate (taint item values, follow them through calls, refuse the
//!   certificate on any representation-reading sink);
//! * [`panics`] — panic reachability from the driver entry points and
//!   the summary hot paths (replaces the old name-list heuristics);
//! * [`shared`] — derives the set of types that ride the parallel sweep
//!   pool and checks each has a compile-time `assert_send` audit.

pub mod panics;
pub mod purity;
pub mod shared;

use std::collections::BTreeMap;

use super::callgraph::{self, CallGraph};
use super::config::Role;
use super::items::{FnId, ItemIndex};
use super::scanner::{self, ScannedFile};
use super::tokens::{self, Token};
use super::Diagnostic;

pub use purity::{CertStatus, ModelCertificate};

/// One workspace source file with everything the analyses need.
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Crate directory name (`"."` for the root package).
    pub crate_name: String,
    /// The crate's role.
    pub role: Role,
    /// True for files under `tests/`, `benches/`, or `examples/`.
    pub test_file: bool,
    /// Scanner output (cleaned lines, allows, test regions).
    pub scanned: ScannedFile,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Per-file item info (local fns + token owner map).
    pub items: super::items::FileItems,
}

/// Raw input for [`Workspace::build`].
pub struct FileInput {
    /// Workspace-relative path.
    pub rel: String,
    /// Crate directory name.
    pub crate_name: String,
    /// The crate's role.
    pub role: Role,
    /// True for files under `tests/`/`benches/`/`examples/`.
    pub test_file: bool,
    /// Source text.
    pub src: String,
}

/// The analyzed workspace: files, item index, call graph.
pub struct Workspace {
    /// All files, in walk order.
    pub files: Vec<SourceFile>,
    /// The whole-workspace item index.
    pub index: ItemIndex,
    /// The call graph over it.
    pub graph: CallGraph,
    by_rel: BTreeMap<String, usize>,
}

impl Workspace {
    /// Scans, tokenizes, indexes, and graph-builds every input file.
    pub fn build(inputs: Vec<FileInput>) -> Workspace {
        let mut index = ItemIndex::default();
        let mut files = Vec::with_capacity(inputs.len());
        for input in inputs {
            let scanned = scanner::scan(&input.src);
            let toks = tokens::tokenize(&scanned);
            let items = index.add_file(
                &input.crate_name,
                &input.rel,
                &toks,
                &scanned,
                input.test_file,
            );
            files.push(SourceFile {
                rel: input.rel,
                crate_name: input.crate_name,
                role: input.role,
                test_file: input.test_file,
                scanned,
                tokens: toks,
                items,
            });
        }
        let graph = callgraph::build(
            &index,
            files.iter().map(|f| (&f.tokens[..], &f.items.owner[..])),
        );
        let by_rel = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel.clone(), i))
            .collect();
        Workspace {
            files,
            index,
            graph,
            by_rel,
        }
    }

    /// The file a function was defined in.
    pub fn file_of_fn(&self, id: FnId) -> &SourceFile {
        let rel = &self.index.fns[id].file;
        &self.files[self.by_rel[rel]]
    }

    /// The file at a workspace-relative path, if indexed.
    pub fn file_at(&self, rel: &str) -> Option<&SourceFile> {
        self.by_rel.get(rel).map(|&i| &self.files[i])
    }

    /// A function's body tokens (empty for bodiless declarations).
    pub fn body_tokens(&self, id: FnId) -> &[Token] {
        match self.index.fns[id].body {
            Some((start, end)) => &self.file_of_fn(id).tokens[start..end],
            None => &[],
        }
    }

    /// The role of the crate a function belongs to.
    pub fn role_of_fn(&self, id: FnId) -> Role {
        super::config::role_of(&self.index.fns[id].crate_name)
    }
}

/// Everything the analyses produce.
#[derive(Debug, Default)]
pub struct AnalysisResult {
    /// Findings, unsorted (the engine sorts the merged report).
    pub diagnostics: Vec<Diagnostic>,
    /// One purity certificate per summary / bounded-universe crate.
    pub certificates: Vec<ModelCertificate>,
}

/// Runs all three analyses.
pub fn run(ws: &Workspace) -> AnalysisResult {
    let mut out = AnalysisResult::default();
    purity::run(ws, &mut out);
    panics::run(ws, &mut out.diagnostics);
    shared::run(ws, &mut out.diagnostics);
    out
}
