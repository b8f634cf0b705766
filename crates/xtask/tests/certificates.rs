//! Whole-workspace analysis tests: purity certification across crate
//! boundaries (the flow the per-file lexical rules cannot see) and the
//! byte-stable JSON surface the golden file pins down.

use cqs_xtask::lint::analysis::{CertStatus, FileInput};
use cqs_xtask::lint::{json, lint_inputs};

fn file(rel: &str, crate_name: &str, src: &str) -> FileInput {
    FileInput {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        role: cqs_xtask::lint::config::role_of(crate_name),
        test_file: false,
        src: src.to_string(),
    }
}

/// A summary whose `insert` hands the item to a helper in another
/// crate. Every line here is clean under the lexical rules.
const SUMMARY_SRC: &str = "#![forbid(unsafe_code)]\n\
    #![warn(missing_docs)]\n\
    //! Fixture summary. Never compiled.\n\
    \n\
    /// A toy summary.\n\
    pub struct Toy<T> {\n\
    \x20   items: Vec<T>,\n\
    }\n\
    \n\
    impl<T: Ord + Clone> Toy<T> {\n\
    \x20   /// Inserts one item.\n\
    \x20   pub fn insert(&mut self, item: T) {\n\
    \x20       let key = fingerprint(item.clone());\n\
    \x20       let _ = key;\n\
    \x20       self.items.push(item);\n\
    }\n\
    }\n";

/// The harness-side helper chain. The lexical comparison rules do not
/// apply to a Harness crate, so only the call graph can connect the
/// summary's item to the byte access two hops away.
fn harness_src(leaky: bool) -> String {
    let probe_body = if leaky {
        "    let bits = x as u64;\n    bits ^ 2654435769\n"
    } else {
        "    let _ = x;\n    0\n"
    };
    format!(
        "#![forbid(unsafe_code)]\n\
         #![warn(missing_docs)]\n\
         //! Fixture harness. Never compiled.\n\
         \n\
         /// Fingerprint of any value.\n\
         pub fn fingerprint<T>(x: T) -> u64 {{\n\
         \x20   probe(x)\n\
         }}\n\
         \n\
         fn probe<T>(x: T) -> u64 {{\n{probe_body}}}\n"
    )
}

fn leak_report(leaky: bool) -> cqs_xtask::LintReport {
    lint_inputs(vec![
        file("crates/gk/src/lib.rs", "gk", SUMMARY_SRC),
        file("crates/bench/src/lib.rs", "bench", &harness_src(leaky)),
    ])
}

#[test]
fn item_leak_through_a_cross_crate_helper_refuses_the_certificate() {
    let report = leak_report(true);
    let cert = report
        .certificates
        .iter()
        .find(|c| c.crate_name == "gk")
        .expect("no certificate for gk");
    assert_eq!(
        cert.status,
        CertStatus::Refused,
        "byte access behind two helper hops went uncaught: {:?}",
        report.diagnostics
    );
    // The violation sits in the *harness* file — invisible to the
    // per-file lexical rules there — and is attributed to the summary's
    // certificate with the full call chain spelled out.
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "model-purity")
        .expect("no model-purity diagnostic");
    assert_eq!(d.file, "crates/bench/src/lib.rs");
    assert!(d.message.contains("[cqs-gk]"), "{}", d.message);
    assert!(
        d.message.contains("insert")
            && d.message.contains("fingerprint")
            && d.message.contains("probe"),
        "chain missing from message: {}",
        d.message
    );
}

#[test]
fn opaque_cross_crate_helper_keeps_the_certificate() {
    let report = leak_report(false);
    let cert = report
        .certificates
        .iter()
        .find(|c| c.crate_name == "gk")
        .expect("no certificate for gk");
    assert_eq!(cert.status, CertStatus::Certified, "{:?}", cert.reasons);
    // The external `push` on the container plus nothing else: the
    // helper chain is traversed, not assumed.
    assert!(cert.fns_analyzed >= 3, "{cert:?}");
}

/// The JSON surface is a contract: same findings in, same bytes out.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test -p cqs-xtask`.
#[test]
fn json_report_matches_the_golden_file() {
    let a = json::render(&leak_report(true));
    let b = json::render(&leak_report(true));
    assert_eq!(a, b, "two identical runs rendered different bytes");

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &a).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "missing tests/golden/lint_report.json — run UPDATE_GOLDEN=1 cargo test -p cqs-xtask",
    );
    assert_eq!(
        a, golden,
        "JSON output drifted from the golden file; if intentional, \
         refresh it with UPDATE_GOLDEN=1 cargo test -p cqs-xtask"
    );
}
