//! Criterion microbench: the postings gap-compression codecs the index
//! writes (variable-byte as in the paper, BP128 and PForDelta) in the block
//! layout, plus the LZSS collection codec.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ii_core::corpus::compress;
use ii_core::postings::block::{decode_list, encode_list};
use ii_core::postings::{Codec, Posting};
use ii_core::corpus::DocId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn postings(n: usize, mean_gap: u32) -> Vec<Posting> {
    let mut rng = StdRng::seed_from_u64(3);
    let mut doc = 0u32;
    (0..n)
        .map(|_| {
            doc += rng.gen_range(1..=mean_gap * 2);
            Posting { doc: DocId(doc), tf: rng.gen_range(1..8) }
        })
        .collect()
}

fn bench_postings_codecs(c: &mut Criterion) {
    let list = postings(50_000, 40);
    let mut g = c.benchmark_group("postings_codecs");
    g.throughput(Throughput::Elements(list.len() as u64));
    for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor] {
        g.bench_function(format!("encode_{codec:?}"), |b| {
            b.iter(|| encode_list(black_box(&list), codec).bytes.len())
        });
        let buf = encode_list(&list, codec).bytes;
        g.bench_function(format!("decode_{codec:?}"), |b| {
            b.iter(|| decode_list(black_box(&buf), list.len(), codec).unwrap().len())
        });
    }
    g.finish();

    // Report-style size comparison (printed once under --nocapture-like
    // bench output): sizes matter as much as speed for codecs.
    for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor] {
        let bytes = encode_list(&list, codec).bytes.len();
        eprintln!(
            "codec {:?}: {:.2} bytes/posting",
            codec,
            bytes as f64 / list.len() as f64
        );
    }
}

fn bench_lzss(c: &mut Criterion) {
    // Web-ish text block.
    let text = "<html><body><p>the quick brown fox jumped over the lazy dog</p></body></html>\n"
        .repeat(2_000);
    let data = text.as_bytes();
    let mut g = c.benchmark_group("lzss");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress_html", |b| b.iter(|| compress::compress(black_box(data)).len()));
    let packed = compress::compress(data);
    g.bench_function("decompress_html", |b| {
        b.iter(|| compress::decompress(black_box(&packed)).unwrap().len())
    });
    g.finish();
}

criterion_group!(benches, bench_postings_codecs, bench_lzss);
criterion_main!(benches);
