//! Vertical mining inputs: `(item, tid-list)` pairs.
//!
//! CHARM consumes a vertical database. Helpers here build one from
//! a dataset's [`VerticalIndex`], optionally restricted to a subset of
//! records (COLARM's ARM plan mines the extracted focal subset from
//! scratch) and/or to the items of selected attributes (the query's
//! `Aitem` clause).

use colarm_data::{AttributeId, Dataset, ItemId, Tidset, VerticalIndex};

/// One vertical-database column: an item and the records containing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemTids {
    /// The item.
    pub item: ItemId,
    /// Records containing the item, sorted.
    pub tids: Tidset,
}

/// Build the full vertical database of a dataset.
pub fn full_vertical(vertical: &VerticalIndex) -> Vec<ItemTids> {
    (0..vertical.num_items() as u32)
        .map(|i| ItemTids {
            item: ItemId(i),
            tids: vertical.tids(ItemId(i)).clone(),
        })
        .collect()
}

/// Build a vertical database restricted to the records of `subset` and
/// (optionally) to the items of `item_attrs`. Tid-lists are intersected
/// with the subset, so supports computed downstream are *local* supports.
pub fn restricted_vertical(
    dataset: &Dataset,
    vertical: &VerticalIndex,
    subset: Option<&Tidset>,
    item_attrs: Option<&[AttributeId]>,
) -> Vec<ItemTids> {
    restricted_vertical_par(dataset, vertical, subset, item_attrs, 1)
}

/// [`restricted_vertical`] with the per-item subset intersections spread
/// across up to `threads` workers (`0` = session default, `1` =
/// sequential). Column order is by item id either way.
pub fn restricted_vertical_par(
    dataset: &Dataset,
    vertical: &VerticalIndex,
    subset: Option<&Tidset>,
    item_attrs: Option<&[AttributeId]>,
    threads: usize,
) -> Vec<ItemTids> {
    let schema = dataset.schema();
    let wanted = |item: ItemId| -> bool {
        match item_attrs {
            None => true,
            Some(attrs) => attrs.contains(&schema.item_attribute(item)),
        }
    };
    let items: Vec<ItemId> = (0..vertical.num_items() as u32)
        .map(ItemId)
        .filter(|&i| wanted(i))
        .collect();
    // Below ~64 columns the intersections are cheaper than thread setup.
    let threads = if items.len() < 64 {
        1
    } else {
        colarm_data::par::resolve_threads(threads)
    };
    colarm_data::par::parallel_map(&items, threads, |_, &i| ItemTids {
        item: i,
        tids: match subset {
            None => vertical.tids(i).clone(),
            Some(s) => vertical.tids(i).intersect(s),
        },
    })
    .into_iter()
    .filter(|it| !it.tids.is_empty())
    .collect()
}

/// Derive the restricted vertical database of a *refined* subset from a
/// parent materialization: intersect each parent column with the refined
/// tidset and drop emptied columns, instead of probing every global
/// tid-list again. Requires `refined ⊆ parent-subset` and the same item
/// restriction the parent columns were built with; then the output is
/// **bit-identical** to
/// `restricted_vertical_par(…, Some(refined), same attrs, …)` — for
/// `r ⊆ p`, `(g ∩ p) ∩ r = g ∩ r`, column order is inherited (item-id
/// ascending), and tidset representations are a pure function of content.
pub fn derive_restricted_par(
    parent: &[ItemTids],
    refined: &Tidset,
    threads: usize,
) -> Vec<ItemTids> {
    // Same parallelism threshold as the fresh scan: below ~64 columns the
    // intersections are cheaper than handing work to the pool.
    let threads = if parent.len() < 64 {
        1
    } else {
        colarm_data::par::resolve_threads(threads)
    };
    colarm_data::par::parallel_map(parent, threads, |_, col| ItemTids {
        item: col.item,
        tids: col.tids.intersect(refined),
    })
    .into_iter()
    .filter(|it| !it.tids.is_empty())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use colarm_data::synth::salary;

    #[test]
    fn full_vertical_covers_all_items() {
        let d = salary();
        let v = VerticalIndex::build(&d);
        let cols = full_vertical(&v);
        assert_eq!(cols.len(), d.schema().num_items());
        let total: usize = cols.iter().map(|c| c.tids.len()).sum();
        assert_eq!(total, d.num_records() * d.schema().num_attributes());
    }

    #[test]
    fn restriction_by_subset_and_attrs() {
        let d = salary();
        let v = VerticalIndex::build(&d);
        let s = d.schema();
        let subset = Tidset::from_sorted(vec![7, 8, 9, 10]); // Seattle women
        let age = s.attribute_by_name("Age").unwrap();
        let cols = restricted_vertical(&d, &v, Some(&subset), Some(&[age]));
        // Only Age items, only those present in the subset: 30-40 (3 recs)
        // and 20-30 (1 rec).
        assert_eq!(cols.len(), 2);
        for c in &cols {
            assert_eq!(s.item_attribute(c.item), age);
            assert!(c.tids.is_subset_of(&subset));
        }
        let total: usize = cols.iter().map(|c| c.tids.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn derived_columns_match_fresh_scan_bit_for_bit() {
        let d = salary();
        let v = VerticalIndex::build(&d);
        let parent_subset = Tidset::from_sorted(vec![4, 5, 6, 7, 8, 9, 10]); // Seattle
        let refined = Tidset::from_sorted(vec![7, 8, 9, 10]); // Seattle women
        for attrs in [None, Some(vec![d.schema().attribute_by_name("Age").unwrap()])] {
            for threads in [1usize, 2, 8] {
                let parent = restricted_vertical_par(
                    &d,
                    &v,
                    Some(&parent_subset),
                    attrs.as_deref(),
                    threads,
                );
                let derived = derive_restricted_par(&parent, &refined, threads);
                let fresh =
                    restricted_vertical_par(&d, &v, Some(&refined), attrs.as_deref(), threads);
                assert_eq!(derived, fresh, "attrs={attrs:?} threads={threads}");
                for (a, b) in derived.iter().zip(&fresh) {
                    assert_eq!(a.tids.kind(), b.tids.kind(), "repr drifted");
                }
            }
        }
    }
}
