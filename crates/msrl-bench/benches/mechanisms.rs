//! Criterion micro-benchmarks of the FDG mechanisms — the ablations for
//! the design choices DESIGN.md calls out:
//!
//! * **fusion** — fused batched execution of N fragment replicas vs. N
//!   separate executions (§5.2, the Fig. 9a/10a mechanism);
//! * **partitioning** — the cost of running Algorithm 2 itself;
//! * **interpretation** — operator-graph evaluation throughput (the
//!   "DL engine" hot path);
//! * **collectives** — real channel-based AllReduce/AllGather latency at
//!   several group sizes;
//! * **co-location** — shared-memory versus remote interface cost models
//!   (§4.2's co-location trade-off);
//! * **granularity** — one coarse fragment versus per-op fragments in
//!   the analytic cost model (§4.2's granularity trade-off).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msrl_comm::model::{LinkModel, NetworkModel};
use msrl_comm::{DeviceId, Fabric};
use msrl_core::fusion::fuse_graph;
use msrl_core::interp::Interpreter;
use msrl_core::partition::build_fdg;
use msrl_core::trace::{trace_mlp, TraceCtx};
use msrl_core::{cost, DataflowGraph};
use msrl_tensor::Tensor;

fn inference_graph(batch: usize) -> DataflowGraph {
    let ctx = TraceCtx::new();
    let x = ctx.input("x", &[batch, 17]);
    trace_mlp(&ctx, "pi", &x, &[17, 64, 64, 6]);
    ctx.finish()
}

fn bind_params(interp: &mut Interpreter<'_>) {
    interp.bind_param("pi.w0", Tensor::full(&[17, 64], 0.01));
    interp.bind_param("pi.b0", Tensor::zeros(&[64]));
    interp.bind_param("pi.w1", Tensor::full(&[64, 64], 0.01));
    interp.bind_param("pi.b1", Tensor::zeros(&[64]));
    interp.bind_param("pi.w2", Tensor::full(&[64, 6], 0.01));
    interp.bind_param("pi.b2", Tensor::zeros(&[6]));
}

fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion");
    let replicas = 16;
    let g = inference_graph(8);
    let fused = fuse_graph(&g, replicas).expect("row-parallel graph");
    group.bench_function("separate_16_replicas", |b| {
        b.iter(|| {
            for r in 0..replicas {
                let mut interp = Interpreter::new();
                bind_params(&mut interp);
                interp.bind_input("x", Tensor::full(&[8, 17], r as f32 * 0.1));
                std::hint::black_box(interp.eval(&g).expect("evaluates"));
            }
        })
    });
    group.bench_function("fused_16_replicas", |b| {
        b.iter(|| {
            let mut interp = Interpreter::new();
            bind_params(&mut interp);
            interp.bind_input("x", Tensor::full(&[8 * replicas, 17], 0.1));
            std::hint::black_box(interp.eval(&fused).expect("evaluates"));
        })
    });
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm2");
    for layers in [3usize, 7, 15] {
        let widths: Vec<usize> =
            std::iter::once(17).chain(std::iter::repeat_n(64, layers)).chain([6]).collect();
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[32, 17]);
        let out = trace_mlp(&ctx, "pi", &x, &widths);
        ctx.annotate(msrl_core::FragmentKind::Action, msrl_core::Collective::AllGather, &[&out]);
        let g = ctx.finish();
        group.bench_with_input(BenchmarkId::new("build_fdg", layers), &g, |b, g| {
            b.iter(|| std::hint::black_box(build_fdg(g.clone()).expect("partitions")))
        });
    }
    group.finish();
}

fn bench_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("interpreter");
    for batch in [8usize, 64, 512] {
        let g = inference_graph(batch);
        group.bench_with_input(BenchmarkId::new("mlp_forward", batch), &g, |b, g| {
            let mut interp = Interpreter::new();
            bind_params(&mut interp);
            interp.bind_input("x", Tensor::full(&[batch, 17], 0.1));
            b.iter(|| std::hint::black_box(interp.eval(g).expect("evaluates")))
        });
    }
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    for ranks in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("all_reduce_mean", ranks), &ranks, |b, &n| {
            b.iter(|| {
                let eps = Fabric::new(n);
                let handles: Vec<_> = eps
                    .into_iter()
                    .map(|mut ep| {
                        std::thread::spawn(move || {
                            ep.all_reduce_mean(vec![1.0; 4096]).expect("reduces")
                        })
                    })
                    .collect();
                for h in handles {
                    std::hint::black_box(h.join().expect("joins"));
                }
            })
        });
    }
    group.finish();
}

fn bench_colocation(c: &mut Criterion) {
    // Analytic: the §4.2 co-location trade-off. Not a hot loop — measure
    // the model evaluation itself and print the modelled times once.
    let net = NetworkModel::local();
    let shared = LinkModel::shared_memory();
    let bytes = 4 * 1000 * 20 * 26u64; // one actor's episode trajectory
    println!(
        "co-location model: shared-memory {:.1} µs vs NVLink {:.1} µs vs IB {:.1} µs",
        shared.transfer_time(bytes) * 1e6,
        net.intra_node.transfer_time(bytes) * 1e6,
        net.inter_node.transfer_time(bytes) * 1e6,
    );
    c.bench_function("colocation_model_eval", |b| {
        b.iter(|| {
            std::hint::black_box(
                net.p2p_time(DeviceId::gpu(0, 0), DeviceId::gpu(0, 1), bytes)
                    + net.p2p_time(DeviceId::gpu(0, 0), DeviceId::gpu(1, 0), bytes),
            )
        })
    });
}

fn bench_granularity(c: &mut Criterion) {
    // §4.2: coarse fragments amortise launches; fine fragments expose
    // parallelism. Compare modelled kernel-launch totals.
    let g = inference_graph(64);
    let flops = cost::graph_flops(&g);
    println!(
        "granularity model: graph flops {flops}, nodes {} (coarse: 1 launch bundle; fine: {} launches)",
        g.len(),
        g.len()
    );
    c.bench_function("granularity_cost_model", |b| {
        b.iter(|| std::hint::black_box(cost::graph_flops(&g)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_fusion,
        bench_partition,
        bench_interp,
        bench_collectives,
        bench_colocation,
        bench_granularity
);
criterion_main!(benches);
