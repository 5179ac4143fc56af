//! Row-store datasets and the per-item vertical (tid-list) index.

use crate::attribute::{AttributeId, ItemId, ValueId};
use crate::error::DataError;
use crate::itemset::Itemset;
use crate::schema::Schema;
use crate::tidset::Tidset;
use crate::view::SliceView;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The physical record storage behind a [`Dataset`]: either owned rows
/// (the builder / decode path) or a borrowed row-major value matrix (the
/// zero-copy snapshot-mapping path). Both expose records as `&[ValueId]`
/// slices, so everything above this enum is representation-independent.
#[derive(Debug, Clone)]
enum RecordStore {
    /// `rows[t][a]` = value code of attribute `a` in record `t`.
    Rows(Vec<Box<[ValueId]>>),
    /// Row-major `m × arity` matrix borrowed from a mapped snapshot.
    Flat {
        values: SliceView<ValueId>,
        arity: usize,
        count: usize,
    },
}

impl RecordStore {
    fn len(&self) -> usize {
        match self {
            RecordStore::Rows(rows) => rows.len(),
            RecordStore::Flat { count, .. } => *count,
        }
    }

    #[inline]
    fn row(&self, tid: u32) -> &[ValueId] {
        match self {
            RecordStore::Rows(rows) => &rows[tid as usize],
            RecordStore::Flat { values, arity, .. } => {
                &values.as_slice()[tid as usize * arity..][..*arity]
            }
        }
    }
}

/// A relational dataset: a schema plus `m` records, each holding exactly one
/// value code per attribute (paper §2.1).
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Arc<Schema>,
    records: RecordStore,
}

// Serde preserves the legacy JSON shape (`records` as a list of rows)
// regardless of the physical store, so flat-backed datasets serialize
// identically to owned ones and old snapshots keep deserializing.
impl Serialize for Dataset {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("Dataset", 2)?;
        st.serialize_field("schema", &self.schema)?;
        let rows: Vec<&[ValueId]> = (0..self.num_records() as u32)
            .map(|t| self.record(t))
            .collect();
        st.serialize_field("records", &rows)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for Dataset {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Dataset, D::Error> {
        #[derive(Deserialize)]
        struct DatasetDe {
            schema: Arc<Schema>,
            records: Vec<Box<[ValueId]>>,
        }
        let de = DatasetDe::deserialize(deserializer)?;
        Ok(Dataset {
            schema: de.schema,
            records: RecordStore::Rows(de.records),
        })
    }
}

impl Dataset {
    /// Wrap a borrowed row-major `count × arity` value matrix (the
    /// zero-copy snapshot-mapping path). Every value code is validated
    /// against its attribute's domain up front — a flat dataset must be
    /// as panic-free under indexing as a builder-validated one — but no
    /// per-record allocation happens, which is what makes mapped loading
    /// O(values) compares instead of O(records) heap traffic.
    pub fn from_flat(
        schema: Arc<Schema>,
        values: SliceView<ValueId>,
        count: usize,
    ) -> Result<Dataset, DataError> {
        let dataset = Self::from_flat_deferred(schema, values, count)?;
        dataset.validate_domains()?;
        Ok(dataset)
    }

    /// [`Dataset::from_flat`] with the per-value domain sweep deferred:
    /// only the shape (`count × arity == len`) is checked here, and the
    /// caller promises to run [`Dataset::validate_domains`] before any
    /// record value is read. The checksummed snapshot-mapping path uses
    /// this to fold the sweep into its deferred section validation, so a
    /// lazily-validated load never scans bytes the first query does not
    /// touch.
    pub fn from_flat_deferred(
        schema: Arc<Schema>,
        values: SliceView<ValueId>,
        count: usize,
    ) -> Result<Dataset, DataError> {
        let arity = schema.num_attributes();
        let expected = count
            .checked_mul(arity)
            .ok_or(DataError::ArityMismatch { expected: arity, got: usize::MAX })?;
        if values.len() != expected {
            return Err(DataError::ArityMismatch {
                expected,
                got: values.len(),
            });
        }
        Ok(Dataset {
            schema,
            records: RecordStore::Flat {
                values,
                arity,
                count,
            },
        })
    }

    /// Check every stored value code against its attribute's domain.
    /// Always true for builder-constructed row storage (values are
    /// validated at insert); for a flat matrix wrapped with
    /// [`Dataset::from_flat_deferred`] this is the deferred sweep.
    pub fn validate_domains(&self) -> Result<(), DataError> {
        let RecordStore::Flat { values, arity, .. } = &self.records else {
            return Ok(());
        };
        let arity = *arity;
        let domains: Vec<usize> = (0..arity)
            .map(|a| self.schema.attribute(AttributeId(a as u16)).domain_size())
            .collect();
        // Fast path first: one branch-free compare against the smallest
        // domain vectorizes to a SIMD sweep over the whole matrix and
        // accepts almost every valid snapshot without touching the
        // per-attribute table. Only when some value clears that bar does
        // the exact per-column scan run to locate (or clear) it.
        let vals = values.as_slice();
        let min_domain = domains.iter().copied().min().unwrap_or(0);
        let fast_ok = match ValueId::try_from(min_domain) {
            // A max-reduction has no early exit, so it vectorizes; the
            // rare failure falls through to the exact per-attribute scan.
            Ok(limit) => vals.iter().copied().max().unwrap_or(0) < limit,
            // The smallest domain covers the whole ValueId range.
            Err(_) => true,
        };
        if !fast_ok {
            for row in vals.chunks_exact(arity) {
                for (a, (&v, &domain)) in row.iter().zip(&domains).enumerate() {
                    if v as usize >= domain {
                        let attr = self.schema.attribute(AttributeId(a as u16));
                        return Err(DataError::ValueOutOfDomain {
                            attribute: attr.name().to_string(),
                            code: v,
                            domain: attr.domain_size(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The dataset's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of records (`m` in the paper).
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Value code of attribute `a` in record `tid`.
    #[inline]
    pub fn value(&self, tid: u32, attribute: AttributeId) -> ValueId {
        self.records.row(tid)[attribute.index()]
    }

    /// The full record, as value codes in schema order.
    pub fn record(&self, tid: u32) -> &[ValueId] {
        self.records.row(tid)
    }

    /// Iterate `(tid, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[ValueId])> {
        (0..self.num_records() as u32).map(move |t| (t, self.records.row(t)))
    }

    /// True when record `tid` supports (contains) every item of `itemset`.
    pub fn record_supports(&self, tid: u32, itemset: &Itemset) -> bool {
        itemset.items().iter().all(|&item| {
            let it = self.schema.decode(item);
            self.value(tid, it.attribute) == it.value
        })
    }

    /// Global absolute support count of an itemset by scanning all records
    /// (reference implementation used by tests and the ARM baseline).
    pub fn count_support(&self, itemset: &Itemset) -> usize {
        (0..self.num_records() as u32)
            .filter(|&t| self.record_supports(t, itemset))
            .count()
    }

    /// Materialize a new dataset containing only the given records (tids
    /// must be in range). The schema is shared.
    pub fn select_records(&self, tids: &crate::tidset::Tidset) -> Dataset {
        Dataset {
            schema: self.schema.clone(),
            records: RecordStore::Rows(
                tids.iter().map(|t| self.records.row(t).into()).collect(),
            ),
        }
    }

    /// Materialize a projection onto a subset of attributes (given in the
    /// desired order). Returns an error for unknown attributes.
    pub fn project(&self, attributes: &[AttributeId]) -> Result<Dataset, DataError> {
        for &a in attributes {
            if a.index() >= self.schema.num_attributes() {
                return Err(DataError::UnknownAttribute(format!("{a}")));
            }
        }
        let schema = Arc::new(Schema::new(
            attributes
                .iter()
                .map(|&a| self.schema.attribute(a).clone())
                .collect(),
        )?);
        let records = (0..self.num_records() as u32)
            .map(|t| {
                let r = self.records.row(t);
                attributes
                    .iter()
                    .map(|&a| r[a.index()])
                    .collect::<Vec<_>>()
                    .into()
            })
            .collect();
        Ok(Dataset {
            schema,
            records: RecordStore::Rows(records),
        })
    }

    /// The record encoded as a sorted itemset of its `n` items.
    pub fn record_as_itemset(&self, tid: u32) -> Itemset {
        Itemset::from_sorted(
            self.record(tid)
                .iter()
                .enumerate()
                .map(|(a, &v)| self.schema.encode(AttributeId(a as u16), v))
                .collect(),
        )
    }
}

/// Builder validating record arity and value domains.
#[derive(Debug)]
pub struct DatasetBuilder {
    schema: Arc<Schema>,
    records: Vec<Box<[ValueId]>>,
}

impl DatasetBuilder {
    /// Start building a dataset over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        DatasetBuilder {
            schema,
            records: Vec::new(),
        }
    }

    /// Append a record given as value codes in schema order.
    pub fn push(&mut self, values: &[ValueId]) -> Result<(), DataError> {
        if values.len() != self.schema.num_attributes() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.num_attributes(),
                got: values.len(),
            });
        }
        for (a, &v) in values.iter().enumerate() {
            let attr = self.schema.attribute(AttributeId(a as u16));
            if v as usize >= attr.domain_size() {
                return Err(DataError::ValueOutOfDomain {
                    attribute: attr.name().to_string(),
                    code: v,
                    domain: attr.domain_size(),
                });
            }
        }
        self.records.push(values.into());
        Ok(())
    }

    /// Append a record given as value *labels* in schema order.
    pub fn push_named(&mut self, labels: &[&str]) -> Result<(), DataError> {
        if labels.len() != self.schema.num_attributes() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.num_attributes(),
                got: labels.len(),
            });
        }
        let mut codes = Vec::with_capacity(labels.len());
        for (a, label) in labels.iter().enumerate() {
            let attr = self.schema.attribute(AttributeId(a as u16));
            let v = attr.value_code(label).ok_or_else(|| DataError::UnknownValue {
                attribute: attr.name().to_string(),
                value: label.to_string(),
            })?;
            codes.push(v);
        }
        self.records.push(codes.into());
        Ok(())
    }

    /// Finish building.
    pub fn build(self) -> Dataset {
        Dataset {
            schema: self.schema,
            records: RecordStore::Rows(self.records),
        }
    }
}

/// Vertical index: one sorted tid-list per global item id.
///
/// This is both the input format of the CHARM miner and the engine of
/// focal-subset resolution — the tidset of a range selection is a union of
/// per-value tid-lists intersected across attributes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerticalIndex {
    tidlists: Vec<Tidset>,
    num_records: u32,
}

impl VerticalIndex {
    /// Build the vertical index with one pass over the dataset.
    pub fn build(dataset: &Dataset) -> Self {
        let schema = dataset.schema();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); schema.num_items()];
        for (tid, record) in dataset.iter() {
            for (a, &v) in record.iter().enumerate() {
                let item = schema.encode(AttributeId(a as u16), v);
                lists[item.index()].push(tid);
            }
        }
        VerticalIndex {
            tidlists: lists.into_iter().map(Tidset::from_sorted).collect(),
            num_records: dataset.num_records() as u32,
        }
    }

    /// Reassemble a vertical index from persisted per-item tid-lists —
    /// the snapshot load path, which skips the O(records × arity)
    /// rebuild of [`VerticalIndex::build`]. The caller (the snapshot
    /// loader) is responsible for supplying one tid-list per item of the
    /// accompanying schema, each bounded by `num_records`.
    pub fn from_parts(tidlists: Vec<Tidset>, num_records: u32) -> Self {
        VerticalIndex {
            tidlists,
            num_records,
        }
    }

    /// Number of records in the underlying dataset.
    pub fn num_records(&self) -> u32 {
        self.num_records
    }

    /// Number of items covered.
    pub fn num_items(&self) -> usize {
        self.tidlists.len()
    }

    /// Tid-list of a single item.
    #[inline]
    pub fn tids(&self, item: ItemId) -> &Tidset {
        &self.tidlists[item.index()]
    }

    /// Tidset of an itemset: the intersection of its items' tid-lists,
    /// intersecting smallest-first to keep intermediates small.
    pub fn itemset_tids(&self, itemset: &Itemset) -> Tidset {
        let mut items: Vec<&Tidset> = itemset.items().iter().map(|&i| self.tids(i)).collect();
        if items.is_empty() {
            return Tidset::full(self.num_records);
        }
        items.sort_by_key(|t| t.len());
        let mut acc = items[0].clone();
        for t in &items[1..] {
            if acc.is_empty() {
                break;
            }
            acc = acc.intersect(t);
        }
        acc
    }

    /// Absolute global support count of an itemset.
    pub fn support(&self, itemset: &Itemset) -> usize {
        self.itemset_tids(itemset).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn small() -> Dataset {
        let schema = SchemaBuilder::new()
            .attribute("A", ["a0", "a1"])
            .attribute("B", ["b0", "b1", "b2"])
            .build()
            .unwrap();
        let mut b = DatasetBuilder::new(schema);
        b.push(&[0, 0]).unwrap();
        b.push(&[0, 1]).unwrap();
        b.push(&[1, 1]).unwrap();
        b.push(&[0, 0]).unwrap();
        b.build()
    }

    #[test]
    fn builder_validates() {
        let schema = SchemaBuilder::new().attribute("A", ["a0"]).build().unwrap();
        let mut b = DatasetBuilder::new(schema);
        assert!(matches!(
            b.push(&[0, 1]),
            Err(DataError::ArityMismatch { expected: 1, got: 2 })
        ));
        assert!(matches!(
            b.push(&[7]),
            Err(DataError::ValueOutOfDomain { .. })
        ));
        b.push(&[0]).unwrap();
        assert_eq!(b.build().num_records(), 1);
    }

    #[test]
    fn push_named_resolves_labels() {
        let schema = SchemaBuilder::new()
            .attribute("A", ["a0", "a1"])
            .attribute("B", ["b0"])
            .build()
            .unwrap();
        let mut b = DatasetBuilder::new(schema);
        b.push_named(&["a1", "b0"]).unwrap();
        assert!(matches!(
            b.push_named(&["zz", "b0"]),
            Err(DataError::UnknownValue { .. })
        ));
        let d = b.build();
        assert_eq!(d.value(0, AttributeId(0)), 1);
    }

    #[test]
    fn vertical_index_matches_scan_counts() {
        let d = small();
        let v = VerticalIndex::build(&d);
        let schema = d.schema();
        // Item A=a0 appears in records 0,1,3.
        let a0 = schema.encode_named("A", "a0").unwrap();
        assert_eq!(v.tids(a0).to_vec(), &[0, 1, 3]);
        // Itemset (A=a0, B=b0) in records 0 and 3.
        let iset = Itemset::from_items([a0, schema.encode_named("B", "b0").unwrap()]);
        assert_eq!(v.itemset_tids(&iset).to_vec(), &[0, 3]);
        assert_eq!(v.support(&iset), d.count_support(&iset));
        // Empty itemset supported by every record.
        assert_eq!(v.support(&Itemset::empty()), 4);
    }

    #[test]
    fn select_records_materializes_a_subset() {
        let d = small();
        let sub = d.select_records(&crate::tidset::Tidset::from_sorted(vec![1, 3]));
        assert_eq!(sub.num_records(), 2);
        assert_eq!(sub.record(0), d.record(1));
        assert_eq!(sub.record(1), d.record(3));
        assert!(Arc::ptr_eq(sub.schema(), d.schema()));
    }

    #[test]
    fn project_keeps_and_reorders_attributes() {
        let d = small();
        let b = d.schema().attribute_by_name("B").unwrap();
        let a = d.schema().attribute_by_name("A").unwrap();
        let p = d.project(&[b, a]).unwrap();
        assert_eq!(p.schema().num_attributes(), 2);
        assert_eq!(p.schema().attributes()[0].name(), "B");
        for tid in 0..d.num_records() as u32 {
            assert_eq!(p.value(tid, AttributeId(0)), d.value(tid, b));
            assert_eq!(p.value(tid, AttributeId(1)), d.value(tid, a));
        }
        assert!(d.project(&[AttributeId(9)]).is_err());
    }

    #[test]
    fn record_as_itemset_has_one_item_per_attribute() {
        let d = small();
        let i = d.record_as_itemset(2);
        assert_eq!(i.len(), 2);
        assert!(i.is_relational(d.schema()));
        assert!(d.record_supports(2, &i));
        assert!(!d.record_supports(0, &i));
    }
}
