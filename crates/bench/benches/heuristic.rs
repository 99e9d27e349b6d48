//! Criterion bench: the guaranteed LP heuristic and the closed form at
//! paper scale (n = 817,101, p = 16) — "instantaneous" in §5.2 — and on
//! a 64-processor linear platform with full-mantissa slopes, where the
//! rational operands are four times wider.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gs_bench::experiments::runtimes::wide_linear_platform;
use gs_scatter::closed_form::closed_form_distribution;
use gs_scatter::heuristic::heuristic_distribution;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::paper::{table1_platform, N_RAYS_1999};

fn bench_heuristic(c: &mut Criterion) {
    let table1 = table1_platform();
    let wide = wide_linear_platform(64);
    let mut group = c.benchmark_group("heuristic");
    group.sample_size(10);
    for (label, platform, sizes) in [
        ("p16", &table1, &[10_000usize, N_RAYS_1999][..]),
        ("p64", &wide, &[N_RAYS_1999][..]),
    ] {
        let order = scatter_order(platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        for &n in sizes {
            let id = format!("{label}/{n}");
            group.bench_with_input(BenchmarkId::new("lp_heuristic", &id), &n, |b, &n| {
                b.iter(|| heuristic_distribution(&view, n).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("closed_form", &id), &n, |b, &n| {
                b.iter(|| closed_form_distribution(&view, n).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_heuristic);
criterion_main!(benches);
