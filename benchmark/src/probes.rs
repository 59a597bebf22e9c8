//! Probes: `msrl-comm`, `msrl-core` and `msrl-tensor` called directly at
//! the workload's sizes, outside any driver.

use std::collections::HashMap;
use std::time::Instant;

use msrl_algos::ppo::PpoPolicy;
use msrl_comm::Fabric;
use msrl_core::compile::compile;
use msrl_core::interp::Interpreter;
use msrl_core::{FragmentKind, OpKind};
use msrl_tensor::{ops, Tensor};

use crate::stats::median;
use crate::workloads::{Driver, Workload};

/// Per-step messages of the drivers (a batch-16 observation block) are
/// this size; the ping-pong probe uses it on every workload.
const SMALL_MSG_ELEMS: usize = 64;
const PINGPONG_ROUNDS: usize = 2_000;
const COLLECTIVE_ROUNDS: usize = 20;

pub struct CommProbe {
    /// Median round trip of a small message between two threads.
    pub pingpong_us: f64,
    pub allreduce_ms: f64,
    /// Payload bytes one rank contributes per second of all-reduce.
    pub allreduce_gbps: f64,
    /// Broadcast of the parameter vector plus a one-float acknowledgement.
    pub broadcast_us: f64,
}

/// Number of policy parameters the workload synchronises.
pub fn param_count(w: &Workload) -> usize {
    let (obs_dim, act_dim) = w.dims();
    if w.driver == Driver::DpC {
        PpoPolicy::continuous(obs_dim, act_dim, w.hidden, 0).num_params()
    } else {
        PpoPolicy::discrete(obs_dim, act_dim, w.hidden, 0).num_params()
    }
}

/// Two ranks on two threads; rank 0's timings are reported.
pub fn comm(w: &Workload) -> Result<CommProbe, String> {
    let params = param_count(w);
    let mut endpoints = Fabric::new(2);
    let mut peer = endpoints.pop().expect("two endpoints");
    let mut root = endpoints.pop().expect("two endpoints");
    let e = |e: msrl_comm::CommError| format!("comm probe: {e}");
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            for _ in 0..PINGPONG_ROUNDS {
                let m = peer.recv(0).map_err(e)?;
                peer.send(0, m).map_err(e)?;
            }
            for _ in 0..COLLECTIVE_ROUNDS {
                peer.all_reduce_mean(vec![2.0; params]).map_err(e)?;
            }
            for _ in 0..COLLECTIVE_ROUNDS {
                peer.broadcast(0, Vec::new()).map_err(e)?;
                peer.send(0, vec![0.0]).map_err(e)?;
            }
            Ok(())
        });
        let mut rtt = Vec::with_capacity(PINGPONG_ROUNDS);
        for _ in 0..PINGPONG_ROUNDS {
            let msg = vec![1.0; SMALL_MSG_ELEMS];
            let t = Instant::now();
            root.send(1, msg).map_err(e)?;
            std::hint::black_box(root.recv(1).map_err(e)?);
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut reduce = Vec::with_capacity(COLLECTIVE_ROUNDS);
        for _ in 0..COLLECTIVE_ROUNDS {
            let payload = vec![1.0; params];
            let t = Instant::now();
            let mean = root.all_reduce_mean(payload).map_err(e)?;
            reduce.push(t.elapsed().as_secs_f64());
            if mean.first() != Some(&1.5) {
                return Err("comm probe: all_reduce_mean of 1 and 2 is not 1.5".to_string());
            }
        }
        let mut bcast = Vec::with_capacity(COLLECTIVE_ROUNDS);
        for _ in 0..COLLECTIVE_ROUNDS {
            // The root's broadcast returns once its sends are queued, so
            // the clock stops on a one-float acknowledgement instead.
            let payload = vec![1.0; params];
            let t = Instant::now();
            root.broadcast(0, payload).map_err(e)?;
            root.recv(1).map_err(e)?;
            bcast.push(t.elapsed().as_secs_f64() * 1e6);
        }
        echo.join().map_err(|_| "comm probe: echo thread panicked".to_string())??;
        let reduce_s = median(&reduce);
        Ok(CommProbe {
            pingpong_us: median(&rtt),
            allreduce_ms: reduce_s * 1e3,
            allreduce_gbps: (4 * params) as f64 / reduce_s / 1e9,
            broadcast_us: median(&bcast),
        })
    })
}

pub struct CoreProbe {
    pub deploy_ms: f64,
    pub plan_compile_us: f64,
    pub fragment_eval_us: f64,
}

/// `trace_ppo` → `build_fdg` → `place` (all inside `deploy_ppo`), then
/// the actor fragment of that FDG compiled and interpreted.
pub fn core(w: &Workload) -> Result<CoreProbe, String> {
    let mut deploy_ms = Vec::new();
    let mut deployment = None;
    for _ in 0..5 {
        let t = Instant::now();
        deployment = Some(w.deploy()?);
        deploy_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let fdg = deployment.expect("deployed five times").fdg;
    let frag = fdg
        .fragments
        .iter()
        .find(|f| f.kind == FragmentKind::Action)
        .ok_or("core probe: the PPO trace has no action fragment")?;
    let nodes = frag.all_nodes();

    let mut interp = Interpreter::new();
    interp.register("SampleAction", Box::new(|node, _| Ok(Tensor::zeros(&node.shape))));
    for &id in &nodes {
        if let OpKind::Param { name } = &fdg.graph.nodes[id].kind {
            interp.bind_param(name, Tensor::full(&fdg.graph.nodes[id].shape, 0.01));
        }
    }
    let preset: HashMap<usize, Tensor> = frag
        .entries
        .iter()
        .map(|i| (i.node, Tensor::full(&fdg.graph.nodes[i.node].shape, 0.1)))
        .collect();
    let preset_ids: Vec<usize> = preset.keys().copied().collect();

    let mut compile_us = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let plan = compile(&fdg.graph, &nodes, &preset_ids, None, true)
            .map_err(|e| format!("core probe: compile: {e}"))?;
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(plan);
    }
    let mut eval_us = Vec::new();
    for round in 0..55 {
        let t = Instant::now();
        let values = interp
            .eval_fragment(&fdg.graph, frag, preset.clone())
            .map_err(|e| format!("core probe: eval_fragment: {e}"))?;
        // The first rounds compile the plan and promote it to the
        // kernel tier; only the steady state is reported.
        if round >= 5 {
            eval_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if !frag.exits.iter().all(|x| values.contains_key(&x.node)) {
            return Err("core probe: fragment evaluation lost an exit value".to_string());
        }
    }
    Ok(CoreProbe {
        deploy_ms: median(&deploy_ms),
        plan_compile_us: median(&compile_us),
        fragment_eval_us: median(&eval_us),
    })
}

/// GFLOP/s of the matmul that dominates the workload's learn pass:
/// `[learner rows, hidden] × [hidden, hidden]`.
pub fn matmul_gflops(w: &Workload) -> Result<f64, String> {
    let rows = match w.driver {
        // One replica / device learns on its own rows only.
        Driver::DpC | Driver::DpD => w.envs * w.steps,
        Driver::DpA | Driver::DpB => w.fragments * w.envs * w.steps,
    };
    let h = w.hidden[0];
    let a = Tensor::full(&[rows, h], 0.5);
    let b = Tensor::full(&[h, h], 0.25);
    let mut secs = Vec::new();
    for round in 0..12 {
        let t = Instant::now();
        let c = ops::matmul(&a, &b).map_err(|e| format!("tensor probe: {e}"))?;
        if round >= 2 {
            secs.push(t.elapsed().as_secs_f64());
        }
        if c.data()[0] != 0.125 * h as f32 {
            return Err("tensor probe: matmul result is wrong".to_string());
        }
        c.recycle();
    }
    Ok(2.0 * (rows * h * h) as f64 / median(&secs) / 1e9)
}
