//! T7 — Theorem 6.5: biased quantiles need Ω((1/ε)·log² εN) space.
//!
//! Runs the k-phase construction (each phase's items larger than all
//! before) against:
//!
//! * CKMS — an actual biased-quantile summary: because the relative
//!   guarantee pins every phase's rank range forever, it must *retain*
//!   Ω((1/ε)·i) items from phase i, totalling Ω((1/ε)·k²);
//! * uniform GK — which is allowed to forget early phases as N grows,
//!   illustrating why the uniform bound is a log factor weaker.
//!
//! Expected shape: CKMS per-phase retention at stream end stays ≈ flat
//! in i (each phase keeps its Ω((1/ε)·i)-worth of items), whereas GK's
//! early-phase retention decays; CKMS total grows ~quadratically in k,
//! GK's ~linearly.
//!
//! Run: `cargo run -p cqs-bench --release --bin thm65_biased_phases`

use cqs_bench::{emit, f1};
use cqs_ckms::CkmsSummary;
use cqs_core::biased::run_biased_phases;
use cqs_core::{Eps, Item};
use cqs_gk::GkSummary;
use cqs_streams::Table;

fn main() -> std::process::ExitCode {
    let eps = Eps::from_inverse(32);
    let k = 8u32;

    let ckms = run_biased_phases(eps, k, || CkmsSummary::<Item>::new(eps.value()))
        .unwrap_or_else(|e| panic!("ckms phases failed: {e}"));
    let gk = run_biased_phases(eps, k, || GkSummary::<Item>::new(eps.value()))
        .unwrap_or_else(|e| panic!("gk phases failed: {e}"));

    let mut t = Table::new(&[
        "phase",
        "N_i",
        "ckms@phase-end",
        "ckms@stream-end",
        "gk@phase-end",
        "gk@stream-end",
        "per-phase-bound",
    ]);
    for i in 0..k as usize {
        let c = &ckms.phase_audits[i];
        let g = &gk.phase_audits[i];
        t.row(&[
            &c.phase.to_string(),
            &c.n_i.to_string(),
            &c.stored_at_phase_end.to_string(),
            &c.stored_at_stream_end.to_string(),
            &g.stored_at_phase_end.to_string(),
            &g.stored_at_stream_end.to_string(),
            &f1(c.bound),
        ]);
    }
    emit(
        "Theorem 6.5 — biased quantiles: per-phase retention (CKMS vs uniform GK)",
        &t,
        "thm65_biased_phases.csv",
    );

    let mut totals = Table::new(&["summary", "total-N", "final|I|", "peak|I|", "sum-of-bounds"]);
    totals.row(&[
        "ckms",
        &ckms.total_len.to_string(),
        &ckms.stored_final.to_string(),
        &ckms.max_stored.to_string(),
        &f1(ckms.total_bound),
    ]);
    totals.row(&[
        "gk (uniform)",
        &gk.total_len.to_string(),
        &gk.stored_final.to_string(),
        &gk.max_stored.to_string(),
        &f1(gk.total_bound),
    ]);
    emit(
        "Theorem 6.5 — totals (the quadratic-vs-linear contrast)",
        &totals,
        "thm65_biased_totals.csv",
    );
    cqs_bench::exit_status()
}
