//! One-pass multi-key quantile export over the `cqs-snapshot` wire
//! format.
//!
//! [`QuantileRegistry::export_quantiles`] walks every key in
//! lexicographic order, folds its shards once, and evaluates a shared φ
//! grid — one pass over the registry, one fold per key. The resulting
//! [`QuantileExport`] serializes through the workspace snapshot format
//! (versioned framing, per-section CRC32), so exports are byte-diffable
//! across runs: the deterministic ingest contract guarantees the bytes
//! are identical for every thread count.

use cqs_core::{MergeError, MergeableSummary};
use cqs_snapshot::{
    RestoreError, SnapshotItem, SnapshotRead, SnapshotReader, SnapshotWrite, SnapshotWriter,
};

use crate::registry::QuantileRegistry;

/// One key's row in a [`QuantileExport`].
#[derive(Debug, Clone, PartialEq)]
pub struct KeyQuantiles<T> {
    /// The registry key.
    pub key: String,
    /// Items recorded under the key at export time.
    pub n: u64,
    /// Composed worst-case ε after folding (`None` for randomized
    /// sketches or empty keys).
    pub eps_bound: Option<f64>,
    /// One value per φ in the export's grid; `None` while empty.
    pub values: Vec<Option<T>>,
}

/// A multi-key quantile snapshot: a φ grid plus one row per key.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileExport<T> {
    /// The φ grid every row was evaluated on.
    pub phis: Vec<f64>,
    /// Rows in lexicographic key order.
    pub keys: Vec<KeyQuantiles<T>>,
}

impl<T: SnapshotItem> SnapshotWrite for QuantileExport<T> {
    const KIND: [u8; 4] = *b"QSVC";

    fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section_with(*b"META", |e| {
            e.put_u64(self.phis.len() as u64);
            for &phi in &self.phis {
                e.put_f64(phi);
            }
            e.put_u64(self.keys.len() as u64);
        });
        for row in &self.keys {
            w.section_with(*b"KEYQ", |e| {
                e.put_str(&row.key);
                e.put_u64(row.n);
                match row.eps_bound {
                    Some(eps) => {
                        e.put_bool(true);
                        e.put_f64(eps);
                    }
                    None => e.put_bool(false),
                }
                e.put_u64(row.values.len() as u64);
                for value in &row.values {
                    match value {
                        Some(v) => {
                            e.put_bool(true);
                            v.encode_item(e);
                        }
                        None => e.put_bool(false),
                    }
                }
            });
        }
    }
}

impl<T: SnapshotItem> SnapshotRead for QuantileExport<T> {
    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let mut meta = r.section(*b"META")?;
        let phi_count = meta.take_count(8)?;
        let mut phis = Vec::with_capacity(phi_count);
        for _ in 0..phi_count {
            phis.push(meta.take_f64()?);
        }
        // Key rows live in their own sections, so META cannot vouch for
        // their bytes — read a plain count and let each missing KEYQ
        // section fail the restore.
        let key_count = meta.take_u64()? as usize;
        meta.finish()?;
        let mut keys = Vec::new();
        for _ in 0..key_count {
            let mut d = r.section(*b"KEYQ")?;
            let key = d.take_str()?.to_string();
            let n = d.take_u64()?;
            let eps_bound = if d.take_bool()? {
                Some(d.take_f64()?)
            } else {
                None
            };
            let value_count = d.take_count(1)?;
            let mut values = Vec::with_capacity(value_count);
            for _ in 0..value_count {
                values.push(if d.take_bool()? {
                    Some(T::decode_item(&mut d)?)
                } else {
                    None
                });
            }
            d.finish()?;
            keys.push(KeyQuantiles {
                key,
                n,
                eps_bound,
                values,
            });
        }
        Ok(QuantileExport { phis, keys })
    }
}

impl<T, S> QuantileRegistry<T, S>
where
    T: Ord + Clone,
    S: MergeableSummary<T> + Clone,
{
    /// Folds every key once, in lexicographic order, and evaluates the
    /// φ grid — the one-pass export behind `cqs service`.
    pub fn export_quantiles(&self, phis: &[f64]) -> Result<QuantileExport<T>, MergeError> {
        let mut keys = Vec::new();
        for slot in self.slots_sorted() {
            let (n, eps_bound, values) = slot.with_fold::<T, _>(|folded| match folded {
                Some(s) => {
                    let mut values = Vec::with_capacity(phis.len());
                    s.quantiles(phis, &mut values);
                    (s.items_processed(), s.eps_bound(), values)
                }
                None => (0, None, vec![None; phis.len()]),
            })?;
            keys.push(KeyQuantiles {
                key: slot.key().to_string(),
                n,
                eps_bound,
                values,
            });
        }
        Ok(QuantileExport {
            phis: phis.to_vec(),
            keys,
        })
    }
}

/// The default export grid: deciles plus the p95/p99/p999 tail.
pub const DEFAULT_PHI_GRID: [f64; 12] = [
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parallel_ingest, QuantileRegistry, ServiceConfig};
    use cqs_gk::GkSummary;

    fn filled_registry() -> QuantileRegistry<u64, GkSummary<u64>> {
        let reg = QuantileRegistry::new(
            ServiceConfig {
                shards: 4,
                stripes: 4,
                fold_cadence: 1024,
            },
            || GkSummary::new(0.01),
        );
        for (key, base) in [("api.latency", 0u64), ("db.latency", 10_000)] {
            let batches: Vec<Vec<u64>> = (0..20)
                .map(|b| (0..100).map(|i| base + b * 100 + i).collect())
                .collect();
            parallel_ingest(&reg.handle(key), &batches, 4);
        }
        reg
    }

    #[test]
    fn export_roundtrips_through_the_wire_format() {
        let reg = filled_registry();
        let export = reg.export_quantiles(&DEFAULT_PHI_GRID).expect("export");
        assert_eq!(export.keys.len(), 2);
        assert_eq!(export.keys[0].key, "api.latency");
        assert_eq!(export.keys[0].n, 2000);
        let bytes = export.to_snapshot_bytes();
        let back = QuantileExport::<u64>::from_snapshot_bytes(&bytes).expect("restore");
        assert_eq!(back, export);
    }

    #[test]
    fn export_bytes_are_identical_across_thread_counts() {
        let export_with = |threads: usize| {
            let reg: QuantileRegistry<u64, GkSummary<u64>> = QuantileRegistry::new(
                ServiceConfig {
                    shards: 4,
                    stripes: 4,
                    fold_cadence: 1024,
                },
                || GkSummary::new(0.01),
            );
            let batches: Vec<Vec<u64>> = (0..30u64)
                .map(|b| (0..64).map(|i| b * 64 + i).collect())
                .collect();
            parallel_ingest(&reg.handle("k"), &batches, threads);
            reg.export_quantiles(&DEFAULT_PHI_GRID)
                .expect("export")
                .to_snapshot_bytes()
        };
        let serial = export_with(1);
        for threads in [2, 4] {
            assert_eq!(export_with(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn corrupted_export_is_rejected() {
        let reg = filled_registry();
        let mut bytes = reg
            .export_quantiles(&DEFAULT_PHI_GRID)
            .expect("export")
            .to_snapshot_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(QuantileExport::<u64>::from_snapshot_bytes(&bytes).is_err());
    }

    #[test]
    fn empty_keys_export_empty_rows() {
        let reg: QuantileRegistry<u64, GkSummary<u64>> =
            QuantileRegistry::new(ServiceConfig::default(), || GkSummary::new(0.05));
        let _ = reg.handle("silent");
        let export = reg.export_quantiles(&[0.5]).expect("export");
        assert_eq!(export.keys.len(), 1);
        assert_eq!(export.keys[0].n, 0);
        assert_eq!(export.keys[0].values, vec![None]);
    }
}
