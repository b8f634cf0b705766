//! Workspace layout: which crate plays which role in the model.
//!
//! The rules are role-sensitive: the adversary harness may read the
//! wall clock, the universe crate may construct labels, but a summary
//! crate may do neither. Unknown crates default to [`Role::Summary`],
//! the strictest role, so a newly added crate is guarded until someone
//! consciously classifies it here.

/// What part of the paper's cast a crate implements.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Role {
    /// `cqs-universe`: the only crate allowed to mint `Item`s / labels —
    /// including the `LabelArena` batch interner and the process-wide
    /// arena-id mint, which exist so minting stays O(1)-clone and
    /// cache-adjacent without widening the comparison API.
    Universe,
    /// `cqs-core` and the root package: traits, adversary, shared infra.
    /// Deterministic, but not itself a summary under test.
    Core,
    /// A quantile summary implementation — the algorithms the lower
    /// bound constrains. Full comparison-model + determinism rules, and
    /// a [`ModelCertificate`](super::analysis::ModelCertificate) from
    /// the purity analysis.
    Summary,
    /// A bounded-universe sketch (`cqs-qdigest`): consumes concrete
    /// `u64` keys, deliberately *outside* the comparison model — it is
    /// refused a purity certificate by construction (that contrast is
    /// the paper's separation story, cf. arXiv 2404.03847). Hot-path
    /// and determinism rules still apply; the item-opacity rules do not.
    BoundedUniverse,
    /// Supporting data structures (streams, order machinery). Must be
    /// deterministic but handles concrete key types by design.
    Substrate,
    /// Benchmarks and CLI drivers: exempt from determinism/wall-clock
    /// rules (they time things and print), still unsafe-free.
    Harness,
    /// `cqs-snapshot`: the wire format and restore path. Deterministic
    /// and covered by the driver no-panic analysis (a corrupt file must
    /// surface as a typed `RestoreError`, never a panic), but exempt
    /// from item opacity — serialization legitimately reads label bytes
    /// and reconstructs `Item`s via `from_label`.
    Snapshot,
    /// `cqs-service`: the concurrent registry/handle facade. Carries the
    /// Core-strength determinism rules (its merge worker must be woken
    /// by counters, never a clock) *and* a model-purity certificate —
    /// handles move items into summaries and must stay item-opaque —
    /// plus the driver no-panic analysis for its snapshot restore path.
    Service,
    /// This lint engine itself.
    Tooling,
}

impl Role {
    /// Whether the lexical comparison-model rules (item opacity) apply.
    pub fn comparison_rules(self) -> bool {
        matches!(self, Role::Summary)
    }

    /// Whether the hot-path reachability rules apply (`insert`/`query`
    /// paths must not panic): summaries, plus the bounded-universe
    /// sketch — its hot paths face the same adversarial streams.
    pub fn hot_path_rules(self) -> bool {
        matches!(self, Role::Summary | Role::BoundedUniverse)
    }

    /// Whether the determinism rules apply.
    pub fn determinism_rules(self) -> bool {
        !matches!(self, Role::Harness)
    }

    /// Whether the wall-clock rule applies (harnesses time things).
    pub fn wall_clock_rule(self) -> bool {
        !matches!(self, Role::Harness)
    }

    /// Whether `Item`/label construction is permitted.
    pub fn may_mint_items(self) -> bool {
        matches!(self, Role::Universe)
    }

    /// Whether the panic-free-driver rules apply: the guarded adversary
    /// driver (`try_run` and friends) lives in `cqs-core` and promises
    /// typed errors, never raw panics. The snapshot restore path makes
    /// the same promise — every corruption is a typed `RestoreError` —
    /// so its roots (`read_sections` and friends) are analysed too.
    pub fn driver_rules(self) -> bool {
        matches!(self, Role::Core | Role::Snapshot | Role::Service)
    }

    /// Whether the crate earns a model-purity certificate: summaries by
    /// definition, and the service facade — its registry and handles
    /// are generic over the summaries they move items into, and the
    /// certificate proves they never inspect those items on the way.
    pub fn purity_certified(self) -> bool {
        matches!(self, Role::Summary | Role::Service)
    }
}

/// Classifies a crate directory name (or the root package) into a role.
pub fn role_of(crate_name: &str) -> Role {
    match crate_name {
        "universe" => Role::Universe,
        "core" | "." => Role::Core,
        "gk" | "mrl" | "ckms" | "kll" | "sampling" | "ostree" => Role::Summary,
        "qdigest" => Role::BoundedUniverse,
        "streams" => Role::Substrate,
        "snapshot" => Role::Snapshot,
        "service" => Role::Service,
        "bench" | "cli" | "faults" => Role::Harness,
        "xtask" => Role::Tooling,
        // Strictest by default: new crates opt *out* of summary rules by
        // being added here, not by silence.
        _ => Role::Summary,
    }
}

/// Function names that form the query/update hot path of a summary —
/// the *roots* of the hot-path panic reachability analysis. Unlike the
/// old name-list rule, helpers these functions call are covered by the
/// call graph and do not need to be listed.
pub const HOT_PATH_FNS: &[&str] = &[
    "insert",
    "insert_sorted_run",
    "query_rank",
    "quantile",
    "estimate_rank",
    "merge",
    // Batched order-statistic walks (the stream index in cqs-core and
    // `RunTree` in cqs-ostree): the adversary's gap scans and
    // equivalence checks funnel every per-leaf query through these, so
    // they face the same adversarial input as insert/query.
    "multi_count_le",
    "multi_tag_of",
    "multi_locate",
    // The summaries' clone-free read: both per-leaf audits borrow every
    // stored item through it.
    "with_items_between",
    // GK's per-period sort and splice of the inserts buffered in arrival
    // order: every per-item insert pays a share of it.
    "flush_pending",
    // The batched φ read: the service's exports answer every key's grid
    // through it, in one walk for the GK family.
    "quantiles",
];

/// Entry points of the panic-free adversary driver — the *roots* of the
/// driver panic reachability analysis. Every abort must surface as a
/// typed `AdversaryError`; the helpers these reach (`try_adv`,
/// `try_leaf`, `audit_node`, `payload_string`, ...) are found by the
/// call graph — the old `DRIVER_PATH_FNS` list named eleven functions
/// and still missed `audit_node`, `size_divergence`, `payload_string`,
/// and `compute_gap_scratch`.
pub const DRIVER_ROOT_FNS: &[&str] = &[
    "try_run",
    "try_run_adversary",
    "try_refine_from",
    // Witness extraction runs on driver output (`cqs adversary` calls it
    // after try_run), so it shares the no-panic promise.
    "quantile_failure_witness",
    "rank_failure_witness",
    // The snapshot restore path: adversarial (corrupt) bytes in, typed
    // `RestoreError` out — a panic here would turn a detectable disk
    // fault into a crash loop on resume.
    "read_sections",
    "from_snapshot_bytes",
    "restore_from_file",
    "restore_with_fallback",
];

/// Method names that collide with the std containers and iterator
/// vocabulary. A call to one of these on an *unknown* receiver is
/// treated as external (unresolved) by the call graph rather than
/// fanned out to every same-named workspace function — `self.v.push(x)`
/// almost never means `GkSummary::push`. Calls with a known receiver
/// (`self.insert(...)`, `Type::insert(...)`) resolve precisely and are
/// unaffected.
pub const COMMON_METHOD_NAMES: &[&str] = &[
    "abs",
    "and_then",
    "as_mut",
    "as_ref",
    "binary_search",
    "binary_search_by",
    "clear",
    "clone",
    "cmp",
    "contains",
    "contains_key",
    "default",
    "drain",
    "drop",
    "entry",
    "eq",
    "extend",
    "filter",
    "first",
    "flush",
    "fmt",
    "for_each",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "ne",
    "new",
    "next",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "push_str",
    "remove",
    "resize",
    "retain",
    "rev",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "spawn",
    "split_off",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "truncate",
    "try_from",
    "try_into",
    "with_capacity",
    "write",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_roles() {
        assert_eq!(role_of("universe"), Role::Universe);
        assert_eq!(role_of("gk"), Role::Summary);
        assert_eq!(role_of("qdigest"), Role::BoundedUniverse);
        assert_eq!(role_of("bench"), Role::Harness);
        assert_eq!(role_of("faults"), Role::Harness);
        assert_eq!(role_of("snapshot"), Role::Snapshot);
        assert_eq!(role_of("."), Role::Core);
    }

    #[test]
    fn driver_rules_apply_to_core_and_snapshot() {
        assert!(role_of("core").driver_rules());
        assert!(role_of("snapshot").driver_rules());
        assert!(!role_of("gk").driver_rules());
        assert!(!role_of("faults").driver_rules());
        assert!(!role_of("xtask").driver_rules());
    }

    #[test]
    fn snapshot_is_exempt_from_item_opacity_but_not_determinism() {
        let s = role_of("snapshot");
        assert!(!s.comparison_rules());
        assert!(s.determinism_rules());
        assert!(!s.may_mint_items());
    }

    #[test]
    fn restore_entry_points_are_driver_roots() {
        for f in [
            "read_sections",
            "from_snapshot_bytes",
            "restore_from_file",
            "restore_with_fallback",
        ] {
            assert!(
                DRIVER_ROOT_FNS.contains(&f),
                "{f} missing from driver roots"
            );
        }
    }

    #[test]
    fn unknown_crates_default_to_summary() {
        assert_eq!(role_of("brand-new-sketch"), Role::Summary);
    }

    #[test]
    fn service_keeps_core_rules_and_earns_a_certificate() {
        let s = role_of("service");
        assert_eq!(s, Role::Service);
        // Core-strength profile: deterministic, clock-free, no lexical
        // item rules (the purity certificate covers opacity instead).
        assert!(s.determinism_rules());
        assert!(s.wall_clock_rule());
        assert!(!s.comparison_rules());
        assert!(!s.hot_path_rules());
        assert!(!s.may_mint_items());
        // Its snapshot restore path shares the no-panic promise.
        assert!(s.driver_rules());
        // And it is purity-certified alongside the summaries.
        assert!(s.purity_certified());
        assert!(role_of("gk").purity_certified());
        assert!(!role_of("core").purity_certified());
    }

    #[test]
    fn harness_is_exempt_from_determinism() {
        assert!(!role_of("bench").determinism_rules());
        assert!(role_of("gk").determinism_rules());
        assert!(role_of("streams").determinism_rules());
    }

    #[test]
    fn bounded_universe_keeps_hot_path_rules_but_not_comparison() {
        let q = role_of("qdigest");
        assert!(q.hot_path_rules());
        assert!(!q.comparison_rules());
        assert!(q.determinism_rules());
    }

    #[test]
    fn batched_walks_are_hot_path_roots() {
        for f in [
            "multi_count_le",
            "multi_tag_of",
            "multi_locate",
            "with_items_between",
            "flush_pending",
            "quantiles",
        ] {
            assert!(HOT_PATH_FNS.contains(&f), "{f} missing from hot-path roots");
        }
    }

    #[test]
    fn common_names_are_sorted_and_unique() {
        let mut sorted = COMMON_METHOD_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, COMMON_METHOD_NAMES);
    }
}
