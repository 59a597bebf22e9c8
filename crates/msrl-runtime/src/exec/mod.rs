//! Real multi-threaded fragment execution (§5.2): one runner, five sync
//! rules, and a table that picks the rule.
//!
//! A distribution policy is a row of [`rule_for`]'s table, spelled in the
//! vocabulary `policy::place` returns: the [`Role`] of the replicated
//! *worker* seat, the role of the singleton *hub* seat if there is one,
//! and the [`SyncGranularity`] between them.
//!
//! | Policy | hub | workers | sync | rule (`rules.rs`) |
//! |--------|-----|---------|------|-------------------|
//! | DP-A | `Learner` | `ActorEnv` | `PerEpisode` | push–pull, one group of every actor |
//! | DP-B | `Learner` | `ActorEnv` | `PerStep` | per-step exchange |
//! | DP-C | — | `ActorLearner` | `PerEpoch` | gradient all-reduce |
//! | DP-D | — | `FusedLoop` | `PerEpisode` | weight all-reduce |
//! | DP-E | `Env` | `ActorLearner` | `PerEpisode` | env-worker messaging |
//! | DP-F, A3C | `ParamServer` | `ActorLearner` | `PerEpisode` | push–pull, groups of one |
//!
//! The skeleton (`runner.rs`) owns everything the rules share: the
//! fabric, the starting policy, the one `thread::scope`, a fragment
//! thread per worker with the hub on the calling thread, the join, the
//! replica check, the metrics stream and the report. A rule is only the
//! bodies of its seats. Every rule consumes the *same* algorithm
//! components from `msrl-algos` — the executable form of the paper's
//! claim that distribution policies require no algorithm changes — and
//! [`run_ppo`] switches between the four that share [`DistPpoConfig`] by
//! a [`PolicyName`] value. `run_dp_a` … `run_a3c` are the same calls with
//! the row fixed.
//!
//! # Interaction with the tensor backend
//!
//! Every tensor kernel the rules invoke runs as one chunk on its
//! fragment's thread. The one fork is the value branch of every PPO learn
//! pass: under the default [`msrl_tensor::Backend::Threaded`] it runs on
//! `msrl_tensor::par`'s helper pool only while fewer fragment threads
//! compute than the host has cores: the runner counts
//! each fragment thread as computing for its lifetime, and the fabric
//! takes it out of the count while it is parked. So a fragment parked
//! on a receive lends its core to a peer's learn pass (DP-A's actor to
//! its learner), and fragments that all compute (DP-C's replicas) run
//! everything inline. Every fragment thread runs under the backend
//! ([`msrl_tensor::par::backend`]) of the thread that called the runner,
//! so two runs at once under different backends (two tests) never see
//! each other's.

mod rules;
mod runner;

pub use crate::config::{A3cDistConfig, DistPpoConfig, DpDConfig, DpEConfig};

use msrl_algos::a3c::{A3cLearner, A3cWorker};
use msrl_algos::ppo::{PpoActor, PpoAgent, PpoLearner};
use msrl_core::config::PolicyName;
use msrl_core::{FdgError, Result};
use msrl_env::batched::BatchedEnv;
use msrl_env::{ActionSpec, Environment, MultiAgentEnvironment, VecEnv};

use crate::policy::Role::{self, ActorEnv, ActorLearner, Env, FusedLoop, Learner, ParamServer};
use crate::policy::SyncGranularity::{self, PerEpisode, PerEpoch, PerStep};
use runner::{no_hub, run, Setup};

/// The outcome of a distributed training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Mean return of episodes finished in each iteration (NaN-free; an
    /// iteration with no finished episode repeats the previous value).
    pub iteration_rewards: Vec<f32>,
    /// Learner loss per iteration (empty for gradient-only policies).
    pub losses: Vec<f32>,
    /// Final policy weights (flat), for evaluation by the caller.
    pub final_params: Vec<f32>,
}

impl TrainingReport {
    /// Mean reward over the last `n` iterations.
    pub fn recent_reward(&self, n: usize) -> f32 {
        mean(self.iteration_rewards.iter().rev().take(n))
    }

    /// Mean reward over the first `n` iterations.
    pub fn early_reward(&self, n: usize) -> f32 {
        mean(self.iteration_rewards.iter().take(n))
    }
}

fn mean<'a>(values: impl ExactSizeIterator<Item = &'a f32>) -> f32 {
    match values.len() {
        0 => 0.0,
        n => values.sum::<f32>() / n as f32,
    }
}

/// One seat of a sync rule: the placement role it fills and the
/// `fragment.<role>` span (and attribution tag) its threads open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seat {
    /// The role, in `policy::place`'s vocabulary.
    pub role: Role,
    /// The span of the seat's fragment threads.
    pub span: &'static str,
}

/// One row of the rule table: which seats a distribution policy runs
/// and how often they synchronise. The three together select the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// The `policy` string of the run's RunEvents.
    pub name: &'static str,
    /// The replicated seat, one fragment thread per replica.
    pub worker: Seat,
    /// The singleton seat on the calling thread, if the rule has one.
    pub hub: Option<Seat>,
    /// How often the seats synchronise.
    pub sync: SyncGranularity,
}

const fn seat(role: Role, span: &'static str) -> Seat {
    Seat { role, span }
}
const ACTOR: Seat = seat(ActorEnv, "fragment.actor");
const LEARNER: Seat = seat(Learner, "fragment.learner");
const WORKER: Seat = seat(ActorLearner, "fragment.worker");

const DP_A: Rule = Rule { name: "dp_a", worker: ACTOR, hub: Some(LEARNER), sync: PerEpisode };
const DP_B: Rule = Rule { name: "dp_b", worker: ACTOR, hub: Some(LEARNER), sync: PerStep };
const DP_C: Rule = Rule {
    name: "dp_c",
    worker: seat(ActorLearner, "fragment.actor_learner"),
    hub: None,
    sync: PerEpoch,
};
const DP_D: Rule = Rule {
    name: "dp_d",
    worker: seat(FusedLoop, "fragment.fused_loop"),
    hub: None,
    sync: PerEpisode,
};
const DP_E: Rule = Rule {
    name: "dp_e",
    worker: seat(ActorLearner, "fragment.agent"),
    hub: Some(seat(Env, "fragment.env_worker")),
    sync: PerEpisode,
};
const DP_F: Rule = Rule {
    name: "dp_f",
    worker: WORKER,
    hub: Some(seat(ParamServer, "fragment.param_server")),
    sync: PerEpisode,
};
/// DP-F's row under A3C's names: the server seat is A3C's learner.
const A3C: Rule = Rule {
    name: "a3c",
    worker: WORKER,
    hub: Some(seat(ParamServer, "fragment.learner")),
    sync: PerEpisode,
};

/// The rule table: the row a built-in distribution policy runs.
///
/// # Errors
///
/// [`FdgError::NoSyncRule`] for [`PolicyName::Custom`]: a custom policy
/// places fragments but names no rule to run them.
pub fn rule_for(policy: &PolicyName) -> Result<&'static Rule> {
    match policy {
        PolicyName::SingleLearnerCoarse => Ok(&DP_A),
        PolicyName::SingleLearnerFine => Ok(&DP_B),
        PolicyName::MultipleLearners => Ok(&DP_C),
        PolicyName::GpuOnly => Ok(&DP_D),
        PolicyName::Environments => Ok(&DP_E),
        PolicyName::Central => Ok(&DP_F),
        PolicyName::Custom(name) => Err(FdgError::NoSyncRule { policy: name.clone() }),
    }
}

/// Runs PPO under the distribution policy named by `policy` — one of the
/// four whose rules take [`DistPpoConfig`] and a [`VecEnv`] per worker
/// (DP-A, DP-B, DP-C, DP-F). `make_env(worker, instance)` constructs one
/// environment. Switching policy is changing the first argument.
///
/// # Errors
///
/// [`FdgError::NoSyncRule`] for a custom policy and for DP-D / DP-E
/// (batched and multi-agent environments: [`run_dp_d`], [`run_dp_e`]);
/// otherwise the first algorithm or communication failure of the run,
/// the hub's before any worker's.
pub fn run_ppo<E, F>(
    policy: &PolicyName,
    make_env: F,
    dist: &DistPpoConfig,
) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    let rule = rule_for(policy)?;
    let probe = make_env(0, 0);
    let (obs_dim, spec) = (probe.obs_dim(), probe.action_spec());
    drop(probe);
    let (p, n) = (dist.actors.max(1), dist.envs_per_actor.max(1));
    let envs = |worker: usize| VecEnv::from_fn(n, |i| make_env(worker, i));
    // The push–pull rows (per episode): rounds, steps, staleness bound.
    let (rounds, steps, bound) = (dist.iterations, dist.steps_per_iter, dist.staleness);
    let setup = Setup {
        link_latency: dist.link_latency,
        staleness: if rule.sync == PerEpisode { bound } else { 0 },
        ..Setup::new(p, obs_dim, spec, &dist.hidden, dist.seed)
    };
    match (rule.hub.map(|hub| hub.role), rule.worker.role, rule.sync) {
        (Some(Learner), ActorEnv, PerEpisode) => {
            let learner = PpoLearner::new(setup.policy.clone(), dist.ppo.clone());
            run(
                rule,
                &setup,
                |f| {
                    let actor = PpoActor::new(f.policy.clone(), dist.seed + 1 + f.rank as u64);
                    rules::push_pull_worker(f, actor, envs(f.rank), rounds, steps, bound)
                },
                move |f| rules::push_pull_hub(f, learner, rounds, p, p, rules::learn_union),
            )
        }
        (Some(Learner), ActorEnv, PerStep) => run(
            rule,
            &setup,
            |f| rules::step_actor(f, envs(f.rank), dist),
            |f| rules::step_learner(f, dist, obs_dim),
        ),
        (None, ActorLearner, PerEpoch) => {
            run(rule, &setup, |f| rules::grad_all_reduce(f, envs(f.rank), dist), no_hub)
        }
        (Some(ParamServer), ActorLearner, PerEpisode) => {
            let server = PpoLearner::new(setup.policy.clone(), dist.ppo.clone());
            run(
                rule,
                &setup,
                |f| {
                    let seed = dist.seed + 1 + f.rank as u64;
                    let seat = PpoAgent::new(f.policy.clone(), dist.ppo.clone(), seed);
                    rules::push_pull_worker(f, seat, envs(f.rank), rounds, steps, bound)
                },
                move |f| rules::push_pull_hub(f, server, rounds, 1, p, rules::apply_grads),
            )
        }
        _ => Err(FdgError::NoSyncRule { policy: policy.code().into() }),
    }
}

/// Runs PPO under DP-A: [`run_ppo`] with the row fixed.
pub fn run_dp_a<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    run_ppo(&PolicyName::SingleLearnerCoarse, make_env, dist)
}

/// Runs PPO under DP-B: [`run_ppo`] with the row fixed.
pub fn run_dp_b<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    run_ppo(&PolicyName::SingleLearnerFine, make_env, dist)
}

/// Runs PPO under DP-C: [`run_ppo`] with the row fixed.
pub fn run_dp_c<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    run_ppo(&PolicyName::MultipleLearners, make_env, dist)
}

/// Runs PPO under DP-F: [`run_ppo`] with the row fixed.
pub fn run_dp_f<E, F>(make_env: F, dist: &DistPpoConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize, usize) -> E + Send + Sync,
{
    run_ppo(&PolicyName::Central, make_env, dist)
}

/// Runs the fused training loop (DP-D) on `devices` replicas, each
/// owning the batched environment produced by `make_env(replica)`.
/// Reports the per-episode mean reward, averaged over replicas.
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_dp_d<B, F>(make_env: F, cfg: &DpDConfig) -> Result<TrainingReport>
where
    B: BatchedEnv + 'static,
    F: Fn(usize) -> B + Send + Sync,
{
    let probe = make_env(0);
    let (obs_dim, spec) = (probe.obs_dim(), ActionSpec::Discrete { n: probe.n_actions() });
    drop(probe);
    let setup = Setup {
        mean_rewards: true,
        ..Setup::new(cfg.devices.max(1), obs_dim, spec, &cfg.hidden, cfg.seed)
    };
    run(&DP_D, &setup, |f| rules::weight_all_reduce(f, make_env(f.rank), cfg), no_hub)
}

/// Runs MAPPO under DP-E on the environment produced by `make_env`: one
/// agent fragment per agent, the environment on the calling thread.
/// Reports the per-episode mean per-agent step reward.
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_dp_e<M, F>(make_env: F, cfg: &DpEConfig) -> Result<TrainingReport>
where
    M: MultiAgentEnvironment + 'static,
    F: FnOnce() -> M + Send,
{
    let env = make_env();
    let (n, obs_dim, spec) = (env.n_agents(), env.obs_dim(), env.action_spec());
    let setup = Setup::new(n, obs_dim, spec, &cfg.hidden, cfg.seed);
    run(&DP_E, &setup, |f| rules::env_agent(f, cfg), |f| rules::env_worker(f, env, cfg.episodes))
}

/// Runs A3C with asynchronous gradient pushes: the push–pull rule with
/// every reply taken before the next rollout, one environment
/// (`make_env(worker)`) per worker, and one report entry per push.
///
/// # Errors
///
/// Propagates algorithm/communication failures from any fragment.
pub fn run_a3c<E, F>(make_env: F, dist: &A3cDistConfig) -> Result<TrainingReport>
where
    E: Environment + 'static,
    F: Fn(usize) -> E + Send + Sync,
{
    let probe = make_env(0);
    let (obs_dim, spec) = (probe.obs_dim(), probe.action_spec());
    drop(probe);
    let p = dist.workers.max(1);
    let setup = Setup::new(p, obs_dim, spec, &dist.hidden, dist.seed);
    let learner = A3cLearner::new(setup.policy.clone(), &dist.a3c);
    run(
        &A3C,
        &setup,
        |f| {
            let seed = dist.seed + 1 + f.rank as u64;
            let worker = A3cWorker::new(f.policy.clone(), dist.a3c.clone(), seed);
            let envs = VecEnv::from_fn(1, |_| make_env(f.rank));
            rules::push_pull_worker(f, worker, envs, dist.pushes_per_worker, dist.rollout_steps, 0)
        },
        move |f| rules::push_pull_hub(f, learner, dist.pushes_per_worker, 1, 1, rules::apply_grads),
    )
}

// `#[cfg(test)]` modules under the paths the training tests had when each
// policy was a file of its own (`exec::dp_a::tests::…`): their ids stay.
include!("tests.rs");
