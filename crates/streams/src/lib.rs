//! # cqs-streams — deterministic workload generators and report helpers
//!
//! Workloads for the benchmark harness (the Luo-et-al.-style comparison
//! table and the upper-bound profiles), all seeded and replayable:
//! sorted, reverse-sorted, uniformly shuffled, Zipf-skewed, clustered
//! ("normal-ish"), and a sawtooth pattern that stresses interior
//! insertion paths. Plus small helpers for writing the experiment tables
//! as aligned text and CSV.

mod ordf64;
mod report;
mod workloads;

pub use ordf64::OrdF64;
pub use report::{write_csv, Table};
pub use workloads::{workload, workload_names, Workload};

/// Compile-time audit that workload specs and result tables can cross
/// `cqs-bench` pool workers: cells carry a [`Workload`] out, rows come
/// back into a [`Table`]. Never called — the `sharding-send-sync` lint
/// rule derives this list from the spawn-site call graph and keeps the
/// lines from being deleted.
#[allow(dead_code)]
fn sharding_send_audit() {
    fn assert_send<T: Send>() {}
    assert_send::<Table>();
    assert_send::<Workload>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_have_right_length_and_are_deterministic() {
        for &name in workload_names() {
            let which: Workload = name.parse().expect("known workload");
            let w = workload(which, 10_000, 42).expect("non-empty");
            let w2 = workload(which, 10_000, 42).expect("non-empty");
            assert_eq!(w.len(), 10_000, "{name}: wrong length");
            assert_eq!(w, w2, "{name}: not deterministic");
        }
    }

    #[test]
    fn different_seeds_differ_for_random_workloads() {
        let a = workload(Workload::Shuffled, 1000, 1).unwrap();
        let b = workload(Workload::Shuffled, 1000, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn sorted_is_sorted_and_reverse_is_reverse() {
        let s = workload(Workload::Sorted, 500, 0).unwrap();
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let r = workload(Workload::Reverse, 500, 0).unwrap();
        assert!(r.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn shuffled_is_a_permutation() {
        let mut s = workload(Workload::Shuffled, 2000, 7).unwrap();
        s.sort_unstable();
        let expect: Vec<u64> = (1..=2000).collect();
        assert_eq!(s, expect);
    }

    #[test]
    fn zipf_is_skewed() {
        let z = workload(Workload::Zipf, 50_000, 3).unwrap();
        // Heavy head: the most common value should appear many times.
        let mut counts = std::collections::HashMap::new();
        for &x in &z {
            *counts.entry(x).or_insert(0u64) += 1;
        }
        let max_count = counts.values().copied().max().unwrap();
        assert!(max_count > 1_000, "zipf not skewed: top count {max_count}");
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(workload_by_name("nope", 10, 0).is_none());
    }

    fn workload_by_name(name: &str, n: u64, seed: u64) -> Option<Vec<u64>> {
        name.parse::<Workload>()
            .ok()
            .and_then(|w| workload(w, n, seed))
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bb", "ccc"]);
        t.row(&["1", "22", "333"]);
        t.row(&["4444", "5", "6"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, two rows
        assert!(lines[0].contains("ccc"));
        assert!(lines.iter().all(|l| !l.is_empty()));
    }
}
