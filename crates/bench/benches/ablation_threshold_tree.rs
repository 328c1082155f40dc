//! Layout ablation: the array-backed core structures against the PR 1
//! `BTreeSet` baselines retained in `cts_index::baseline` (§III-B), with the
//! impact list compared across all three layouts — flat sorted `Vec`,
//! B-tree, and the production segmented impact list.
//!
//! Identical generic driver code for every layout:
//!
//! * `threshold_{flat,btree}/probe/N` — the `θ_{Q,t} ≤ w` arrival probe
//!   (one `partition_point` + prefix scan vs a B-tree range walk) over a
//!   tree of N entries, executed for every term of every arriving document.
//! * `threshold_{flat,btree}/update/N` — moving a query's local threshold
//!   (refill bookkeeping).
//! * `impact_{flat,btree,segmented}/descent/N` — resuming a bounded descent
//!   at a mid-list weight, the refill access path, over a list of N postings.
//! * `impact_{flat,btree,segmented}/insert_expire/N` — one posting insertion
//!   plus one removal (the per-term cost of a document arrival + expiration
//!   pair). This is where the flat list's `memmove` grows with N while the
//!   segmented list's stays bounded by the segment capacity.
//!
//! Run with `cargo bench --bench ablation_threshold_tree`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cts_index::baseline::{
    BTreeInvertedList, BTreeThresholdTree, ImpactListLayout, ThresholdLayout,
};
use cts_index::{DocId, FlatImpactList, QueryId, SegmentedImpactList, ThresholdTree};
use cts_text::Weight;

const SIZES: [usize; 3] = [100, 1_000, 10_000];

fn theta(i: usize) -> Weight {
    Weight::new((i % 97) as f64 * 0.01)
}

fn impact(i: usize) -> Weight {
    Weight::new(0.001 + (i % 997) as f64 * 0.00097)
}

fn populated_tree<T: ThresholdLayout>(n: usize) -> T {
    let mut tree = T::default();
    for i in 0..n {
        tree.insert(QueryId(i as u32), theta(i));
    }
    tree
}

fn populated_list<L: ImpactListLayout>(n: usize) -> L {
    let mut list = L::default();
    for i in 0..n {
        list.insert(DocId(i as u64), impact(i));
    }
    list
}

fn bench_threshold_layout<T: ThresholdLayout>(c: &mut Criterion, label: &str) {
    for n in SIZES {
        let tree: T = populated_tree(n);
        // A mid-range impact weight: roughly half the entries match, the
        // paper's expected case for a popular term.
        c.bench_function(&format!("threshold_{label}/probe/{n}"), |b| {
            b.iter(|| black_box(tree.probe(Weight::new(0.48))))
        });

        let mut tree: T = populated_tree(n);
        c.bench_function(&format!("threshold_{label}/update/{n}"), |b| {
            // Move the entry away and back so tree state is identical across
            // iterations (and across harness warm-up passes).
            b.iter(|| {
                tree.update(QueryId(7), theta(7), Weight::new(0.93));
                tree.update(QueryId(7), Weight::new(0.93), theta(7));
            })
        });
    }
}

fn bench_impact_layout<L: ImpactListLayout>(c: &mut Criterion, label: &str) {
    for n in SIZES {
        let list: L = populated_list(n);
        // The refill access path: resume at a mid-list local threshold and
        // read a handful of postings.
        c.bench_function(&format!("impact_{label}/descent/{n}"), |b| {
            b.iter(|| black_box(list.descend_at_or_below(Weight::new(0.5), 16)))
        });

        let mut list: L = populated_list(n);
        let mut next = n as u64;
        c.bench_function(&format!("impact_{label}/insert_expire/{n}"), |b| {
            b.iter(|| {
                let id = DocId(next);
                let w = impact(next as usize);
                list.insert(id, w);
                list.remove(id, w);
                next += 1;
            })
        });
    }
}

fn bench_threshold_trees(c: &mut Criterion) {
    bench_threshold_layout::<ThresholdTree>(c, "flat");
    bench_threshold_layout::<BTreeThresholdTree>(c, "btree");
}

fn bench_impact_lists(c: &mut Criterion) {
    bench_impact_layout::<FlatImpactList>(c, "flat");
    bench_impact_layout::<BTreeInvertedList>(c, "btree");
    bench_impact_layout::<SegmentedImpactList>(c, "segmented");
}

criterion_group!(benches, bench_threshold_trees, bench_impact_lists);
criterion_main!(benches);
