//! `bench_report` — prices the mechanisms the drivers rely on and writes
//! `BENCH_backend.json` at the workspace root (or the path given as the
//! first argument).
//!
//! The report records the cost of the telemetry layer: one span — the
//! one guard every instrumented site opens — with tracing off, without a
//! class (`span_ns`: its start alone is timed) and classed for
//! attribution (`span_classed_ns`: start and end), and with tracing on;
//! an always-on counter, a `RunEvent` JSONL emit, and the end-to-end
//! fused-MLP evaluation with tracing off vs. on.
//! Because the instrumentation is always compiled in, the always-on
//! overhead is measured directly at the probe: `disabled_probe_share_pct`
//! is the span-plus-counter cost times the probes one evaluation
//! executes, one of those spans classed (the evaluation's
//! `fragment.eval`), as a share of that evaluation — the number the <5%
//! acceptance bound applies to. The bound is enforced here: the binary
//! exits non-zero when the share reaches 5%. The attribution engine's
//! iteration-level cost (`attr_finish_iter_mean_ns`: the run observers'
//! `attr.finish_iteration.ns` over `attr.finish_iteration.calls` across
//! the 160 iterations of the DP-A macro runs) is held to the same 5%
//! bound as a share of a DP-A iteration period.
//!
//! The `matmul_at` section prices the weight-gradient product `aᵀ·b`
//! at the shapes the learners actually run (25,600-row hidden layer and
//! 2-column heads of DP-D, the 6-wide head of the wide DP-C model):
//! `transpose` then `matmul` — both on the live kernels, the
//! composition the tape would otherwise record — vs the blocked
//! `matmul_at` row kernel, GFLOP/s both ways, with hard floors ≥2x /
//! ≥10x / ≥8x on the ratios (3.8–4.2x / 19–20x / 15–18x on the
//! reference host; the composed `matmul` runs the
//! heads' 2- and 6-column outputs on row lanes, so the transpose is most
//! of what the direct kernel saves there).
//!
//! The `transcendentals` section records the absolute cost of the
//! polynomial exp/tanh kernels (DESIGN §3.14) at two shapes —
//! `softmax_rows` on [512, 64] and the tanh-MLP batched rollout forward
//! on the e2e policy shape — as host-dependent ns rows (there is no
//! second arithmetic to take a ratio against). The `actsrv` section
//! prices DP-B's hub forward, one forward over 128 actors' rows, vs 128
//! one-row forwards (floor ≥1.5x). Every
//! kernel section also records
//! `dispatch` — the microkernel family `kernels::select()` actually
//! chose on this host (avx512/avx2/portable) — so trend comparisons
//! across machines are interpretable.
//!
//! When the output file already exists from a previous run, the binary
//! first compares against it (`bench_trend`): per-entry deltas are
//! printed, and host-independent gated ratios — fusion speedup,
//! disabled-probe share — fail the run on a >25%
//! regression. Host-dependent ns columns are reported but never gate.

use std::time::{Duration, Instant};

use msrl_algos::ppo::{PackedPpo, PpoConfig, PpoPolicy};
use msrl_core::interp::Interpreter;
use msrl_core::trace::{trace_mlp, TraceCtx};
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, DistPpoConfig};
use msrl_tensor::autograd::{Tape, Var};
use msrl_tensor::nn::{Activation, Mlp, MlpBinding};
use msrl_tensor::{init, ops, par, Backend, Tensor};

/// Median ns/iter of `f` over `samples` timed samples, auto-scaling the
/// per-sample iteration count to ~2 ms (mirrors the criterion shim).
fn time_ns<O>(samples: usize, mut f: impl FnMut() -> O) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once_ns = t0.elapsed().as_nanos().max(1);
    let iters = (2_000_000 / once_ns).clamp(1, 10_000) as u64;
    let mut med = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        med.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    med.sort_by(|a, b| a.total_cmp(b));
    med[med.len() / 2]
}

/// The microkernel family `kernels::select()` chose on this host,
/// recorded in each kernel section of the report so trend numbers stay
/// interpretable across machines.
fn dispatch_label() -> &'static str {
    match msrl_tensor::kernels::select() {
        msrl_tensor::kernels::MatKernel::Avx512 => "avx512",
        msrl_tensor::kernels::MatKernel::Avx2 => "avx2",
        msrl_tensor::kernels::MatKernel::Portable => "portable",
    }
}

/// Measured cost of the telemetry layer on this host.
struct TelemetryCost {
    /// One span open/close with tracing off and no class (start only).
    span_ns: f64,
    /// The same span classed for attribution (start and end timed).
    span_classed_ns: f64,
    /// A span with no class, tracing on (timed, and kept for `drain`).
    span_traced_ns: f64,
    /// One always-on counter increment.
    counter_add_ns: f64,
    /// One `RunEvent` formatted and appended to the JSONL stream.
    run_event_emit_ns: f64,
    /// Fused-MLP evaluation, tracing off / on.
    mlp_off_ns: f64,
    mlp_on_ns: f64,
    /// Instrumentation probes one evaluation executes.
    probes_per_eval: u64,
    /// Upper-bound share of the always-on probes in one evaluation.
    disabled_probe_share_pct: f64,
    /// End-to-end overhead of recording vs. not recording.
    traced_on_overhead_pct: f64,
}

/// Median ns of one span over nine samples of 4,000 on a lane hosting
/// run `run` — inside its 4,096 classed records, with the run's window
/// closed (untimed) between samples, as an iteration boundary does.
fn span_cost_ns(run: u64, class: Option<msrl_telemetry::StepClass>, traced: bool) -> f64 {
    use msrl_telemetry as tel;
    const SPANS: u32 = 4000;
    tel::set_enabled(traced);
    let mut window = tel::now_ns();
    let mut med: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SPANS {
                let _s = tel::span("bench.probe", None, class);
            }
            let ns = start.elapsed().as_nanos() as f64 / f64::from(SPANS);
            let _ = tel::finish_iteration(run, &mut window);
            tel::drain();
            ns
        })
        .collect();
    tel::set_enabled(false);
    med.sort_by(|a, b| a.total_cmp(b));
    med[med.len() / 2]
}

fn telemetry_cost() -> TelemetryCost {
    use msrl_telemetry as tel;
    let run = tel::next_run();
    tel::set_fragment(run, "bench", 0);
    let span_ns = span_cost_ns(run, None, false);
    let span_classed_ns = span_cost_ns(run, Some(tel::StepClass::Eval), false);
    let span_traced_ns = span_cost_ns(run, None, true);
    tel::release_run(run);
    let counter_add_ns = time_ns(9, || tel::static_counter!("bench.counter").add(1));
    // RunEvent emit cost, measured against a real (temp) JSONL file so
    // the formatting *and* the append are both priced.
    let metrics_path =
        std::env::temp_dir().join(format!("msrl-bench-metrics-{}.jsonl", std::process::id()));
    tel::set_metrics_file(metrics_path.to_str());
    let mut iter = 0u64;
    let run_event_emit_ns = time_ns(9, || {
        iter += 1;
        tel::emit_run_event(&tel::RunEvent {
            run,
            policy: "bench".into(),
            iteration: iter,
            reward: 1.5,
            loss: Some(0.25),
            entropy: Some(1.1),
            iters_per_sec: 80.0,
            comm_bytes: 4096,
            staleness: 1,
            attr: None,
            health: None,
        })
    });
    tel::set_metrics_file(None);
    let _ = std::fs::remove_file(&metrics_path);

    // A fused-MLP evaluation (16 replicas × 8 rows of a [17, 64, 64, 6]
    // policy), timed with tracing off and on.
    let ctx = TraceCtx::new();
    let x = ctx.input("x", &[16 * 8, 17]);
    trace_mlp(&ctx, "pi", &x, &[17, 64, 64, 6]);
    let g = ctx.finish();
    let mut interp = Interpreter::new();
    interp.bind_param("pi.w0", Tensor::full(&[17, 64], 0.01));
    interp.bind_param("pi.b0", Tensor::zeros(&[64]));
    interp.bind_param("pi.w1", Tensor::full(&[64, 64], 0.01));
    interp.bind_param("pi.b1", Tensor::zeros(&[64]));
    interp.bind_param("pi.w2", Tensor::full(&[64, 6], 0.01));
    interp.bind_param("pi.b2", Tensor::zeros(&[6]));
    interp.bind_input("x", Tensor::full(&[16 * 8, 17], 0.1));

    let before = tel::counter_total("interp.ops");
    interp.eval(&g).expect("evaluates");
    let probes_per_eval = tel::counter_total("interp.ops") - before;

    let mlp_off_ns = time_ns(9, || interp.eval(&g).expect("evaluates"));
    tel::set_enabled(true);
    let mlp_on_ns = time_ns(9, || interp.eval(&g).expect("evaluates"));
    tel::drain();
    tel::set_enabled(false);

    TelemetryCost {
        span_ns,
        span_classed_ns,
        span_traced_ns,
        counter_add_ns,
        run_event_emit_ns,
        mlp_off_ns,
        mlp_on_ns,
        probes_per_eval,
        // One span per probe, the evaluation's fragment.eval among them
        // (classed).
        disabled_probe_share_pct: (probes_per_eval as f64 * (span_ns + counter_add_ns)
            + (span_classed_ns - span_ns))
            / mlp_off_ns.max(1.0)
            * 100.0,
        traced_on_overhead_pct: (mlp_on_ns - mlp_off_ns) / mlp_off_ns.max(1.0) * 100.0,
    }
}

/// Measured per-iteration cost of the run-health watchdog on this host
/// (DESIGN §3.15): the three pieces every learner-side iteration pays.
struct HealthCost {
    /// One streaming-detector pass over a fully populated sample.
    observe_ns: f64,
    /// The fused non-finite scan over a policy-sized (8k) f32 vector.
    nonfinite_scan_ns: f64,
    /// The parameter flatten the drivers clone for that scan.
    params_clone_ns: f64,
}

impl HealthCost {
    fn per_iter_ns(&self) -> f64 {
        self.observe_ns + self.nonfinite_scan_ns + self.params_clone_ns
    }
}

fn health_cost() -> HealthCost {
    use msrl_telemetry::{HealthMonitor, HealthSample};
    let mut monitor = HealthMonitor::default();
    let mut iter = 0u64;
    let observe_ns = time_ns(9, || {
        iter += 1;
        monitor.observe(&HealthSample {
            iteration: iter,
            reward: 10.0 + (iter % 7) as f64,
            loss: Some(0.3),
            entropy: Some(1.1),
            iters_per_sec: 50.0,
            grad_norm: Some(2.0),
            weight_norm: Some(40.0),
            update_ratio: Some(1e-3),
            nonfinite_params: Some(0),
        })
    });
    // A policy-sized parameter vector: the e2e nets flatten to a few
    // thousand weights; 8k rounds up.
    let params: Vec<f32> = (0..8192).map(|i| (i as f32 * 0.0137).sin()).collect();
    let nonfinite_scan_ns = time_ns(9, || msrl_tensor::kernels::count_nonfinite(&params));
    let params_clone_ns = time_ns(9, || params.clone());
    HealthCost { observe_ns, nonfinite_scan_ns, params_clone_ns }
}

/// One gated, host-independent ratio compared release over release by
/// the trend check.
struct Gated {
    name: &'static str,
    /// Whether larger values are better (speedups) or worse (shares).
    higher_is_better: bool,
    /// Absolute noise floor: values this small never gate (a 0.1% →
    /// 0.2% share move is measurement noise, not a regression).
    floor: f64,
    value: f64,
}

/// `bench_trend`: compares this run against the previous committed
/// report. Prints per-entry deltas for everything recognisable and
/// returns a description of every gated ratio that regressed >25%.
fn bench_trend(prev: &str, gated: &[Gated]) -> Vec<String> {
    fn num(v: &serde_json::Value) -> Option<f64> {
        match v {
            serde_json::Value::I64(n) => Some(*n as f64),
            serde_json::Value::U64(n) => Some(*n as f64),
            serde_json::Value::F64(n) => Some(*n),
            _ => None,
        }
    }
    let Ok(old) = serde_json::value_from_str(prev) else {
        println!("bench_trend: previous report unparsable; starting a fresh trajectory");
        return Vec::new();
    };
    println!("bench_trend: deltas vs previous report (host-dependent ns columns never gate)");
    let lookup = |section: &str, key: &str| -> Option<f64> {
        old.field(section).ok()?.field(key).ok().and_then(num)
    };
    let mut regressions = Vec::new();
    for g in gated {
        let (section, key) = g.name.split_once('.').expect("gated names are section.key");
        let Some(prev_v) = lookup(section, key) else {
            println!("  {:<40} (new gated entry; no previous value)", g.name);
            continue;
        };
        let delta = (g.value - prev_v) / prev_v.abs().max(1e-9) * 100.0;
        println!("  {:<40} {:>8.3} -> {:>8.3} ({:+.1}%)", g.name, prev_v, g.value, delta);
        let regressed = if g.higher_is_better {
            g.value < prev_v * 0.75
        } else {
            g.value > prev_v * 1.25 && g.value > g.floor
        };
        if regressed {
            regressions
                .push(format!("{}: {:.3} regressed >25% from {:.3}", g.name, g.value, prev_v));
        }
    }
    regressions
}

/// Measured effect of the tape's fused linear kernel on this host.
struct GraphCompile {
    /// RL-scale MLP forward+backward, the layers spelled as separate
    /// operators / as the fused kernel, pinned to the scalar backend so
    /// the gain is pure fusion (one memory pass instead of
    /// matmul→broadcast-add→activation), not threading.
    fwd_bwd_unfused_ns: f64,
    fwd_bwd_fused_ns: f64,
}

impl GraphCompile {
    fn fusion_speedup(&self) -> f64 {
        self.fwd_bwd_unfused_ns / self.fwd_bwd_fused_ns.max(1.0)
    }
}

fn graph_compile_cost() -> GraphCompile {
    // The learn-phase workload of every driver: a PPO-sized MLP's
    // forward and backward over one minibatch. `MlpBinding::forward`
    // runs each layer as `linear_act` (and its fused gradient) instead
    // of three separate kernels; at this scale the extra memory passes
    // dominate, which is exactly the regime RL training lives in.
    let mut rng = init::rng(42);
    let mut mlp = Mlp::seven_layer(17, 6, 32, &mut rng);
    let x = Tensor::full(&[2, 17], 0.1);
    // The same layers as `matmul → add → tanh`, the output layer linear.
    let composed = |net: &MlpBinding, x: &Var| {
        let layers = net.param_vars().chunks(2).collect::<Vec<_>>();
        let mut h = x.clone();
        for (i, wb) in layers.iter().enumerate() {
            h = h.matmul(&wb[0]).and_then(|p| p.add(&wb[1])).expect("shapes conform");
            if i + 1 < layers.len() {
                h = h.tanh();
            }
        }
        h
    };
    let fused = |net: &MlpBinding, x: &Var| net.forward(x).expect("shapes conform");
    // One pass a call: the lent parameters and their panels are the
    // pass's, as a learner's are.
    let mut time = |forward: &dyn Fn(&MlpBinding, &Var) -> Var| {
        let mut fwd_bwd = || {
            let shared = mlp.share();
            let tape = Tape::new();
            let net = shared.bind(&tape);
            let loss = forward(&net, &tape.var(x.clone())).square().sum();
            let mut grads = tape.backward(&loss).expect("loss is scalar");
            net.take_grads(&mut grads)
        };
        par::with_backend(Backend::Scalar, || time_ns(9, &mut fwd_bwd))
    };
    GraphCompile { fwd_bwd_unfused_ns: time(&composed), fwd_bwd_fused_ns: time(&fused) }
}

/// One weight-gradient product `aᵀ·b` (`a: [p, m]`, `b: [p, n]`) at a
/// shape a real learner runs, priced both ways the tape can take it.
struct MatmulAt {
    /// `section.key` of the gated composed÷direct ratio.
    gate: &'static str,
    p: usize,
    m: usize,
    n: usize,
    /// Hard floor on the ratio.
    floor: f64,
    /// `matmul(transpose(a), b)`: the materialised transpose plus the
    /// packed matmul kernel.
    composed_ns: f64,
    /// `ops::matmul_at` — the blocked row kernel the tape records.
    direct_ns: f64,
}

impl MatmulAt {
    fn speedup(&self) -> f64 {
        self.composed_ns / self.direct_ns.max(1.0)
    }
    fn gflops(&self, ns: f64) -> f64 {
        2.0 * (self.p * self.m * self.n) as f64 / ns.max(1.0)
    }
    /// JSON key stem: the gate's key without `_speedup`.
    fn stem(&self) -> &'static str {
        let (_, key) = self.gate.split_once('.').expect("gated names are section.key");
        key.strip_suffix("_speedup").expect("gate keys end in _speedup")
    }
}

/// The learner's real `xᵀ·g` shapes: the hidden layer and the 2-column
/// policy/value heads of `dpd-cartpole-batched` (25,600 rows per learn
/// pass) and the 6-wide action head of `dpc-cheetah-wide`. Square 512³
/// says nothing about these — tall, thin, and for the heads narrower
/// than one SIMD lane group. Interleaved minima on the scalar backend.
fn matmul_at_cost() -> Vec<MatmulAt> {
    let shapes = [
        ("matmul_at.dpd_hidden_speedup", 25_600, 64, 64, 2.0),
        ("matmul_at.dpd_heads_speedup", 25_600, 64, 2, 10.0),
        ("matmul_at.dpc_head_speedup", 1024, 256, 6, 8.0),
    ];
    let fill = |rows: usize, cols: usize, seed: usize| {
        let data = (0..rows * cols).map(|i| ((i * 31 + seed) % 199) as f32 / 100.0 - 1.0).collect();
        Tensor::from_vec(data, &[rows, cols]).expect("volume matches")
    };
    par::with_backend(Backend::Scalar, || {
        shapes
            .into_iter()
            .map(|(gate, p, m, n, floor)| {
                let (a, b) = (fill(p, m, 1), fill(p, n, 2));
                let mut composed = || {
                    ops::matmul(&ops::transpose(&a).expect("matrix"), &b).expect("shapes conform")
                };
                let mut direct = || ops::matmul_at(&a, &b).expect("shapes conform");
                let (mut composed_ns, mut direct_ns) = (f64::INFINITY, f64::INFINITY);
                for _ in 0..5 {
                    composed_ns = composed_ns.min(time_ns(3, &mut composed));
                    direct_ns = direct_ns.min(time_ns(3, &mut direct));
                }
                MatmulAt { gate, p, m, n, floor, composed_ns, direct_ns }
            })
            .collect()
    })
}

/// Absolute cost of the transcendental kernels on this host (scalar
/// backend, minimum of five timed rounds).
struct Transcendentals {
    /// `softmax_rows` on [512, 64].
    softmax_ns: f64,
    /// The batched rollout forward on the e2e policy shape — a tanh
    /// [17, 32, 32, 6] MLP over 128 actors' rows through the pack
    /// cache; the tanh epilogue dominates it.
    rollout_tanh_ns: f64,
}

/// One rollout step's policy forwards for 128 actors × 1 row: each
/// actor forwarding its own row on the packed weights vs one forward
/// over the stacked block, as DP-B's hub runs every step over all its
/// actors' rows. The section keeps the `actsrv` name of the act server
/// it first priced, so its trend stays comparable.
struct ActSrv {
    per_actor_ns: f64,
    batched_ns: f64,
}

impl ActSrv {
    fn batch_speedup(&self) -> f64 {
        self.per_actor_ns / self.batched_ns.max(1.0)
    }
}

/// The [128, 17] observation block both sections below forward.
fn rollout_block() -> Tensor {
    Tensor::from_vec((0..128 * 17).map(|i| (i as f32 * 0.011).sin()).collect(), &[128, 17])
        .expect("shape matches")
}

fn transcendental_cost() -> Transcendentals {
    let s =
        Tensor::from_vec((0..512 * 64).map(|i| (i as f32 * 0.0213).cos()).collect(), &[512, 64])
            .expect("shape matches");
    let mut rng = init::rng(42);
    let mlp = Mlp::new(&[17, 32, 32, 6], Activation::Tanh, Activation::Linear, &mut rng);
    let packed = mlp.pack();
    let big = rollout_block();
    par::with_backend(Backend::Scalar, || {
        let mut softmax_ns = f64::INFINITY;
        let mut rollout_tanh_ns = f64::INFINITY;
        for _ in 0..5 {
            softmax_ns = softmax_ns.min(time_ns(3, || ops::softmax_rows(&s).expect("rank 2")));
            rollout_tanh_ns =
                rollout_tanh_ns.min(time_ns(3, || packed.infer(&big).expect("shapes conform")));
        }
        Transcendentals { softmax_ns, rollout_tanh_ns }
    })
}

fn actsrv_cost() -> ActSrv {
    // The real PPO policy forward (actor head + critic) at 128 actors ×
    // 1 row.
    let big = rollout_block();
    let policy = PpoPolicy::discrete(17, 6, &[32, 32], 42);
    let ppacked = PackedPpo::pack(&policy);
    let rows: Vec<Tensor> = (0..128)
        .map(|k| {
            Tensor::from_vec(big.data()[k * 17..(k + 1) * 17].to_vec(), &[1, 17])
                .expect("shape matches")
        })
        .collect();
    par::with_backend(Backend::Scalar, || {
        let mut per = f64::INFINITY;
        let mut bat = f64::INFINITY;
        for _ in 0..5 {
            per = per.min(time_ns(3, || {
                let mut outs = Vec::with_capacity(rows.len());
                for x in &rows {
                    outs.push(policy.forward_with(x, Some(&ppacked)).expect("forwards"));
                }
                outs
            }));
            bat = bat
                .min(time_ns(3, || policy.forward_with(&big, Some(&ppacked)).expect("forwards")));
        }
        ActSrv { per_actor_ns: per, batched_ns: bat }
    })
}

/// DP-A's iterations/sec with every reply waited for (staleness 0,
/// the `off` column) and with one reply hidden behind each rollout
/// (staleness 1, `on`).
struct OverlapRow {
    off_iters_per_sec: f64,
    on_iters_per_sec: f64,
}

impl OverlapRow {
    fn speedup(&self) -> f64 {
        self.on_iters_per_sec / self.off_iters_per_sec.max(1e-9)
    }
}

/// End-to-end PPO CartPole throughput under DP-A at staleness 0 vs 1 —
/// the wall-clock counterpart of `tests/overlap_e2e.rs`' exact span
/// counts, tracked release over release like the backend numbers. The
/// workload has a simulated 10 ms wire latency and a rollout/learn
/// balance that is communication-bound, so a reply owed during the
/// rollout has real transfer time to hide. Telemetry stays disabled:
/// these are wall-clock numbers. The two runs' 160 iterations are also
/// what the attribution cost is averaged over.
fn comm_overlap_row() -> OverlapRow {
    let base = DistPpoConfig {
        actors: 2,
        envs_per_actor: 1,
        steps_per_iter: 128,
        iterations: 80,
        hidden: vec![32],
        seed: 7,
        link_latency: Duration::from_millis(10),
        ppo: PpoConfig { epochs: 1, ..PpoConfig::default() },
        ..DistPpoConfig::default()
    };
    let iters_per_sec = |staleness: usize| {
        let dist = DistPpoConfig { staleness, ..base.clone() };
        let t0 = Instant::now();
        run_dp_a(|a, i| CartPole::new((a * 13 + i) as u64), &dist).expect("dp_a runs");
        base.iterations as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    };
    OverlapRow { off_iters_per_sec: iters_per_sec(0), on_iters_per_sec: iters_per_sec(1) }
}

fn main() {
    msrl_bench::backend_or_exit();
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_backend.json".to_string());
    let tel = telemetry_cost();
    let gc = graph_compile_cost();
    let mat = matmul_at_cost();
    let tc = transcendental_cost();
    let actsrv = actsrv_cost();
    let attr_counters = || {
        let total = msrl_telemetry::counter_total;
        (total("attr.finish_iteration.ns"), total("attr.finish_iteration.calls"))
    };
    let (ns_before, calls_before) = attr_counters();
    let overlap = comm_overlap_row();
    let (ns_after, calls_after) = attr_counters();

    // Per-iteration attribution cost, measured on the DP-A runs above:
    // each run's observer counts the nanoseconds and calls of every
    // iteration's take of its run's classed records and the priority
    // sweep that prices them per fragment. Their exact mean as a share
    // of the DP-A iteration period is the iteration-level counterpart of
    // `disabled_probe_share_pct` and is held to the same <5% acceptance
    // bound.
    let attr_finish_count = calls_after - calls_before;
    let attr_finish_mean_ns = (ns_after - ns_before) as f64 / attr_finish_count.max(1) as f64;
    let dp_a_period_ns = 1e9 / overlap.off_iters_per_sec.max(1e-9);
    let attr_share_pct = attr_finish_mean_ns / dp_a_period_ns * 100.0;

    // Health-watchdog probe cost per iteration (detector pass +
    // non-finite scan + parameter clone), held to the same <5% share of
    // a DP-A iteration as the attribution pass.
    let hc = health_cost();
    let health_share_pct = hc.per_iter_ns() / dp_a_period_ns * 100.0;

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"telemetry\": {{\"span_ns\": {:.2}, \"span_classed_ns\": {:.2}, \
         \"span_traced_ns\": {:.2}, \"counter_add_ns\": {:.2}, \
         \"run_event_emit_ns\": {:.0}, \"attr_finish_iter_mean_ns\": {:.0}, \
         \"attr_finish_iter_count\": {}, \"attr_share_pct\": {:.3}, \
         \"mlp_eval_traced_off_ns\": {:.0}, \
         \"mlp_eval_traced_on_ns\": {:.0}, \"probes_per_eval\": {}, \
         \"disabled_probe_share_pct\": {:.3}, \"traced_on_overhead_pct\": {:.2}}},\n",
        tel.span_ns,
        tel.span_classed_ns,
        tel.span_traced_ns,
        tel.counter_add_ns,
        tel.run_event_emit_ns,
        attr_finish_mean_ns,
        attr_finish_count,
        attr_share_pct,
        tel.mlp_off_ns,
        tel.mlp_on_ns,
        tel.probes_per_eval,
        tel.disabled_probe_share_pct,
        tel.traced_on_overhead_pct,
    ));
    json.push_str(&format!(
        "  \"graph_compile\": {{\"mlp_fwd_bwd_unfused_ns\": {:.0}, \
         \"mlp_fwd_bwd_fused_ns\": {:.0}, \"fusion_speedup\": {:.2}}},\n",
        gc.fwd_bwd_unfused_ns,
        gc.fwd_bwd_fused_ns,
        gc.fusion_speedup(),
    ));
    json.push_str(&format!("  \"matmul_at\": {{\"dispatch\": \"{}\"", dispatch_label()));
    for r in &mat {
        json.push_str(&format!(
            ", \"{0}_composed_ns\": {1:.0}, \"{0}_direct_ns\": {2:.0}, \
             \"{0}_composed_gflops\": {3:.2}, \"{0}_direct_gflops\": {4:.2}, \
             \"{0}_speedup\": {5:.2}",
            r.stem(),
            r.composed_ns,
            r.direct_ns,
            r.gflops(r.composed_ns),
            r.gflops(r.direct_ns),
            r.speedup(),
        ));
    }
    json.push_str("},\n");
    json.push_str(&format!(
        "  \"transcendentals\": {{\"dispatch\": \"{0}\", \"softmax_ns\": {1:.0}, \
         \"rollout_tanh_ns\": {2:.0}}},\n  \"actsrv\": {{\"dispatch\": \"{0}\", \
         \"per_actor_ns\": {3:.0}, \"batched_ns\": {4:.0}, \"batch_speedup\": {5:.2}}},\n",
        dispatch_label(),
        tc.softmax_ns,
        tc.rollout_tanh_ns,
        actsrv.per_actor_ns,
        actsrv.batched_ns,
        actsrv.batch_speedup(),
    ));
    json.push_str(&format!(
        "  \"health\": {{\"observe_ns\": {:.0}, \"nonfinite_scan_ns\": {:.0}, \
         \"params_clone_ns\": {:.0}, \"per_iter_ns\": {:.0}, \"share_pct\": {:.3}}},\n",
        hc.observe_ns,
        hc.nonfinite_scan_ns,
        hc.params_clone_ns,
        hc.per_iter_ns(),
        health_share_pct,
    ));
    json.push_str(&format!(
        "  \"comm_overlap\": [\n    {{\"policy\": \"dp_a\", \"off_iters_per_sec\": {:.2}, \
         \"on_iters_per_sec\": {:.2}, \"speedup\": {:.2}}}\n  ]\n}}\n",
        overlap.off_iters_per_sec,
        overlap.on_iters_per_sec,
        overlap.speedup(),
    ));

    let mut gated = vec![
        Gated {
            name: "graph_compile.fusion_speedup",
            higher_is_better: true,
            floor: 0.0,
            value: gc.fusion_speedup(),
        },
        Gated {
            name: "telemetry.disabled_probe_share_pct",
            higher_is_better: false,
            floor: 1.0,
            value: tel.disabled_probe_share_pct,
        },
        Gated {
            name: "telemetry.attr_share_pct",
            higher_is_better: false,
            floor: 1.0,
            value: attr_share_pct,
        },
        Gated {
            name: "health.share_pct",
            higher_is_better: false,
            floor: 1.0,
            value: health_share_pct,
        },
        Gated {
            name: "actsrv.batch_speedup",
            higher_is_better: true,
            floor: 0.0,
            value: actsrv.batch_speedup(),
        },
    ];
    gated.extend(mat.iter().map(|r| Gated {
        name: r.gate,
        higher_is_better: true,
        floor: 0.0,
        value: r.speedup(),
    }));
    let regressions = match std::fs::read_to_string(&out_path) {
        Ok(prev) => bench_trend(&prev, &gated),
        Err(_) => {
            println!("bench_trend: no previous {out_path}; starting the trajectory");
            Vec::new()
        }
    };
    std::fs::write(&out_path, &json).expect("report path writable");

    println!(
        "telemetry: span {:.2} ns / classed {:.2} ns / traced {:.2} ns, counter {:.2} ns, \
         run-event emit {:.0} ns; \
         mlp eval off {:.0} ns / on {:.0} ns ({} probes, disabled share {:.3}%, \
         tracing overhead {:.2}%)",
        tel.span_ns,
        tel.span_classed_ns,
        tel.span_traced_ns,
        tel.counter_add_ns,
        tel.run_event_emit_ns,
        tel.mlp_off_ns,
        tel.mlp_on_ns,
        tel.probes_per_eval,
        tel.disabled_probe_share_pct,
        tel.traced_on_overhead_pct,
    );
    println!(
        "attribution: finish_iteration mean {:.0} ns over {} iteration(s) = {:.3}% of a DP-A \
         iteration",
        attr_finish_mean_ns, attr_finish_count, attr_share_pct,
    );
    println!(
        "graph_compile: mlp fwd+bwd unfused {:.0} ns / fused {:.0} ns ({:.2}x, scalar backend)",
        gc.fwd_bwd_unfused_ns,
        gc.fwd_bwd_fused_ns,
        gc.fusion_speedup(),
    );
    for r in &mat {
        println!(
            "matmul_at [{}]: [{p},{}]ᵀ·[{p},{}] transpose+matmul {:.0} ns ({:.2} GFLOP/s) / \
             matmul_at {:.0} ns ({:.2} GFLOP/s, {:.2}x)",
            dispatch_label(),
            r.m,
            r.n,
            r.composed_ns,
            r.gflops(r.composed_ns),
            r.direct_ns,
            r.gflops(r.direct_ns),
            r.speedup(),
            p = r.p,
        );
    }
    println!(
        "transcendentals [{}]: softmax_rows[512,64] {:.0} ns; tanh rollout fwd {:.0} ns; \
         actsrv fwd per-actor {:.0} ns / batched {:.0} ns ({:.2}x)",
        dispatch_label(),
        tc.softmax_ns,
        tc.rollout_tanh_ns,
        actsrv.per_actor_ns,
        actsrv.batched_ns,
        actsrv.batch_speedup(),
    );
    println!(
        "health: observe {:.0} ns + nonfinite scan {:.0} ns + params clone {:.0} ns \
         = {:.0} ns/iteration = {:.3}% of a DP-A iteration",
        hc.observe_ns,
        hc.nonfinite_scan_ns,
        hc.params_clone_ns,
        hc.per_iter_ns(),
        health_share_pct,
    );
    println!(
        "comm_overlap dp_a staleness 0 {:.2} it/s, staleness 1 {:.2} it/s ({:.2}x)",
        overlap.off_iters_per_sec,
        overlap.on_iters_per_sec,
        overlap.speedup()
    );
    println!("wrote {out_path}");

    // The acceptance bound on always-on instrumentation: always-on
    // probes must stay under 5% of one fused-MLP evaluation.
    if tel.disabled_probe_share_pct >= 5.0 {
        eprintln!(
            "bench_report: disabled-probe share {:.3}% breaches the 5% bound",
            tel.disabled_probe_share_pct
        );
        std::process::exit(1);
    }
    // The same bound applies to the iteration-level attribution cost:
    // the per-fragment sweep at every iteration end must stay under 5%
    // of a DP-A iteration period.
    if attr_share_pct >= 5.0 {
        eprintln!("bench_report: attribution share {attr_share_pct:.3}% breaches the 5% bound");
        std::process::exit(1);
    }
    // And to the health watchdog's per-iteration probes (acceptance
    // criterion of the run-health subsystem).
    if health_share_pct >= 5.0 {
        eprintln!("bench_report: health-probe share {health_share_pct:.3}% breaches the 5% bound");
        std::process::exit(1);
    }
    // Batched-forward and weight-gradient kernel acceptance floors, each
    // well under the ratio measured on the reference host so a loaded
    // runner does not trip them.
    let mut floors = vec![("actsrv.batch_speedup", actsrv.batch_speedup(), 1.5)];
    floors.extend(mat.iter().map(|r| (r.gate, r.speedup(), r.floor)));
    let mut breached = false;
    for (name, value, floor) in floors {
        if value < floor {
            eprintln!("bench_report: {name} {value:.2} breaches the {floor} floor");
            breached = true;
        }
    }
    if breached {
        std::process::exit(1);
    }
    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("bench_trend: {r}");
        }
        std::process::exit(1);
    }
}
