//! Workspace integration tests: every distribution policy end-to-end.
//!
//! Each test deploys the FDG under one of Tab. 2's policies *and* runs
//! the corresponding real threaded driver on a small workload, asserting
//! both the placement properties the paper describes and that training
//! actually works.

use msrl_core::config::{AlgorithmConfig, DeploymentConfig, PolicyName};
use msrl_env::batched::BatchedCartPole;
use msrl_env::cartpole::CartPole;
use msrl_env::mpe::SimpleSpread;
use msrl_runtime::exec::{
    run_dp_a, run_dp_b, run_dp_c, run_dp_d, run_dp_e, run_dp_f, DistPpoConfig, DpDConfig, DpEConfig,
};
use msrl_runtime::policy::Role;
use msrl_runtime::Coordinator;

fn dist(seed: u64) -> DistPpoConfig {
    DistPpoConfig {
        actors: 2,
        envs_per_actor: 2,
        steps_per_iter: 48,
        iterations: 20,
        hidden: vec![32],
        seed,
        ..DistPpoConfig::default()
    }
}

fn deploy(policy: PolicyName) -> (AlgorithmConfig, DeploymentConfig) {
    (AlgorithmConfig::ppo(2, 2), DeploymentConfig::workers(4, 2, policy))
}

#[test]
fn dp_a_placement_and_training() {
    let (algo, dep) = deploy(PolicyName::SingleLearnerCoarse);
    let d = Coordinator::deploy_ppo(&algo, &dep, 4, 2, 32).unwrap();
    assert_eq!(d.placement.count(Role::Learner), 1, "single learner");
    assert_eq!(d.placement.count(Role::ActorEnv), 2, "replicated actors");
    let report = run_dp_a(|a, i| CartPole::new((a * 2 + i) as u64), &dist(1)).unwrap();
    assert!(report.recent_reward(5) > report.early_reward(5));
}

#[test]
fn dp_b_placement_and_training() {
    let (algo, dep) = deploy(PolicyName::SingleLearnerFine);
    let d = Coordinator::deploy_ppo(&algo, &dep, 4, 2, 32).unwrap();
    assert!(!d.placement.role_on_gpu(Role::ActorEnv), "actor+env fused on CPU");
    assert!(d.placement.role_on_gpu(Role::Learner), "learner on GPU");
    let report = run_dp_b(|a, i| CartPole::new((a * 2 + i) as u64), &dist(2)).unwrap();
    assert!(report.recent_reward(5) > report.early_reward(5));
}

#[test]
fn dp_c_placement_and_training() {
    let (algo, dep) = deploy(PolicyName::MultipleLearners);
    let d = Coordinator::deploy_ppo(&algo, &dep, 4, 2, 32).unwrap();
    assert!(d.placement.count(Role::ActorLearner) >= 2, "fused replicas");
    assert_eq!(d.placement.count(Role::Learner), 0, "no separate learner");
    let report = run_dp_c(|a, i| CartPole::new((a * 2 + i) as u64), &dist(3)).unwrap();
    assert!(report.recent_reward(5) > report.early_reward(5));
}

#[test]
fn dp_d_placement_and_training() {
    let (algo, dep) = deploy(PolicyName::GpuOnly);
    let d = Coordinator::deploy_ppo(&algo, &dep, 4, 2, 32).unwrap();
    assert_eq!(d.placement.count(Role::FusedLoop), 8, "one fused loop per GPU");
    let cfg = DpDConfig {
        devices: 2,
        episodes: 6,
        hidden: vec![16],
        ppo: Default::default(),
        seed: 4,
        ..DpDConfig::default()
    };
    let report = run_dp_d(|r| BatchedCartPole::new(8, r as u64), &cfg).unwrap();
    assert_eq!(report.iteration_rewards.len(), 6);
    assert!(report.iteration_rewards.iter().all(|r| r.is_finite()));
}

#[test]
fn dp_e_placement_and_training() {
    let (mut algo, dep) = deploy(PolicyName::Environments);
    algo.agents = 3;
    algo.actors = 1;
    let d = Coordinator::deploy_ppo(&algo, &dep, 4, 2, 32).unwrap();
    assert!(d.placement.count(Role::Env) > 0, "dedicated env fragments");
    let cfg = DpEConfig {
        episodes: 8,
        hidden: vec![16],
        ppo: Default::default(),
        seed: 5,
        ..DpEConfig::default()
    };
    let report = run_dp_e(|| SimpleSpread::new(3, 1).with_horizon(12), &cfg).unwrap();
    assert_eq!(report.iteration_rewards.len(), 8);
}

#[test]
fn dp_f_placement_and_training() {
    let (algo, dep) = deploy(PolicyName::Central);
    let d = Coordinator::deploy_ppo(&algo, &dep, 4, 2, 32).unwrap();
    assert_eq!(d.placement.count(Role::ParamServer), 1, "one parameter server");
    let report = run_dp_f(|a, i| CartPole::new((a * 2 + i) as u64), &dist(6)).unwrap();
    assert!(report.recent_reward(5) > report.early_reward(5));
}

/// The paper's central claim, as an executable assertion: the FDG is a
/// function of the algorithm alone; policies only change placement.
#[test]
fn fdg_is_invariant_across_policies() {
    let algo = AlgorithmConfig::ppo(2, 2);
    let fdgs: Vec<_> = [
        PolicyName::SingleLearnerCoarse,
        PolicyName::SingleLearnerFine,
        PolicyName::MultipleLearners,
        PolicyName::GpuOnly,
        PolicyName::Environments,
        PolicyName::Central,
    ]
    .into_iter()
    .map(|p| {
        let dep = DeploymentConfig::workers(4, 2, p);
        Coordinator::deploy_ppo(&algo, &dep, 4, 2, 32).unwrap().fdg
    })
    .collect();
    for f in &fdgs[1..] {
        assert_eq!(f, &fdgs[0]);
    }
}

/// The busiest ledger shape for the lanes — `dpb-cartpole-step`'s one
/// actor × 16 envs × 128 steps, for 3 iterations, ≈ 640 spans per
/// iteration — drops no classed span before attribution takes it.
#[test]
fn dp_b_step_shape_drops_no_attribution_record() {
    let before = msrl_telemetry::counter_total("attr.dropped");
    let cfg = DistPpoConfig {
        actors: 1,
        envs_per_actor: 16,
        steps_per_iter: 128,
        iterations: 3,
        hidden: vec![64, 64],
        seed: 5,
        ..DistPpoConfig::default()
    };
    let report = run_dp_b(|a, i| CartPole::new((a * 16 + i) as u64), &cfg).unwrap();
    assert_eq!(report.iteration_rewards.len(), 3);
    assert_eq!(msrl_telemetry::counter_total("attr.dropped"), before, "attr.dropped moved");
}
