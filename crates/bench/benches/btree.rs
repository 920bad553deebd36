//! Criterion microbench: the product's slotted B-tree — insert and search
//! throughput, plus grouped-vs-interleaved access order (the cache-locality
//! effect behind the §III.C regrouping claim).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ii_core::dict::{classify, SlottedStore};
use ii_core::corpus::Vocabulary;
use std::collections::HashMap;

fn keys(n: usize) -> Vec<(u32, String)> {
    let vocab = Vocabulary::generate(n, 7);
    vocab
        .terms()
        .iter()
        .map(|t| {
            let (idx, suffix) = classify(t);
            (idx.0, suffix.to_string())
        })
        .collect()
}

fn bench_insert(c: &mut Criterion) {
    let ks = keys(20_000);
    let mut g = c.benchmark_group("btree_insert");
    g.throughput(Throughput::Elements(ks.len() as u64));
    g.bench_function("20k_terms_single_tree", |b| {
        b.iter(|| {
            let mut store = SlottedStore::new();
            let mut tree = store.new_tree();
            for (_, k) in &ks {
                store.insert(&mut tree, black_box(k.as_bytes()));
            }
            store.term_count()
        })
    });
    g.bench_function("20k_terms_grouped_by_collection", |b| {
        // One tree per trie collection, grouped insertion order.
        let mut grouped: Vec<(u32, Vec<&str>)> = {
            let mut m: HashMap<u32, Vec<&str>> = HashMap::new();
            for (ti, k) in &ks {
                m.entry(*ti).or_default().push(k);
            }
            m.into_iter().collect()
        };
        grouped.sort_by_key(|(ti, _)| *ti);
        b.iter(|| {
            let mut store = SlottedStore::new();
            for (_, terms) in &grouped {
                let mut tree = store.new_tree();
                for k in terms {
                    store.insert(&mut tree, black_box(k.as_bytes()));
                }
            }
            store.term_count()
        })
    });
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let ks = keys(20_000);
    let mut store = SlottedStore::new();
    let mut tree = store.new_tree();
    for (_, k) in &ks {
        store.insert(&mut tree, k.as_bytes());
    }
    let mut g = c.benchmark_group("btree_search");
    g.throughput(Throughput::Elements(ks.len() as u64));
    g.bench_function("20k_hits", |b| {
        b.iter(|| {
            let mut found = 0u32;
            for (_, k) in &ks {
                if store.get(&tree, black_box(k.as_bytes())).is_some() {
                    found += 1;
                }
            }
            found
        })
    });
    g.finish();
}

criterion_group!(benches, bench_insert, bench_search);
criterion_main!(benches);
