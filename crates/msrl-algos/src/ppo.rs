//! Proximal Policy Optimization (Schulman et al. 2017) on the MSRL
//! component API.
//!
//! The implementation mirrors the paper's algorithm structure: a
//! [`PpoActor`] performs policy inference and carries the behaviour
//! statistics PPO's clipped ratio needs; a [`PpoLearner`] recomputes GAE
//! over the sampled trajectories (as in Alg. 1 lines 18–19) and runs
//! several clipped-surrogate epochs. Both halves share one
//! [`PpoPolicy`], whose flat-weight serialisation is the payload of the
//! runtime's weight-sync collectives.

use std::rc::Rc;

use msrl_core::api::{ActOutput, Actor, Learner, SampleBatch, Signals};
use msrl_core::{FdgError, Result};
use msrl_tensor::autograd::{Tape, Var};
use msrl_tensor::dist::{policy_loss, Categorical, DiagGaussian, Head, PolicyLoss, Surrogate};
use msrl_tensor::nn::{Activation, Mlp};
use msrl_tensor::ops::{self, Panels};
use msrl_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use msrl_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gae;

/// PPO hyper-parameters (defaults follow the common MuJoCo settings the
/// paper's evaluation uses).
#[derive(Debug, Clone)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub gae_lambda: f32,
    /// Clipping radius ε of the surrogate ratio.
    pub clip: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Optimisation epochs per batch.
    pub epochs: usize,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl PpoConfig {
    /// Refuses a configuration no pass can run: a clip radius that is
    /// negative or NaN leaves the ratio no interval to be clipped into.
    ///
    /// # Errors
    ///
    /// [`FdgError::InvalidConfig`] naming the field.
    pub fn validate(&self) -> Result<()> {
        if self.clip < 0.0 || self.clip.is_nan() {
            return Err(FdgError::InvalidConfig { field: "PpoConfig::clip", value: self.clip });
        }
        Ok(())
    }
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            gamma: 0.99,
            gae_lambda: 0.95,
            clip: 0.2,
            lr: 3e-4,
            epochs: 4,
            entropy_coef: 0.01,
            value_coef: 0.5,
            max_grad_norm: 0.5,
        }
    }
}

/// The PPO policy: an actor network, a critic network, and (for
/// continuous control) a state-independent log-std vector.
#[derive(Debug, Clone)]
pub struct PpoPolicy {
    /// Maps observations to action logits (discrete) or means
    /// (continuous).
    pub actor: Mlp,
    /// Maps observations to a scalar value estimate.
    pub critic: Mlp,
    /// Per-dimension log standard deviation (continuous only).
    pub log_std: Tensor,
    /// Whether actions are discrete indices.
    pub discrete: bool,
}

impl PpoPolicy {
    /// A discrete-action policy with the given hidden widths.
    pub fn discrete(obs_dim: usize, n_actions: usize, hidden: &[usize], seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let mut actor_sizes = vec![obs_dim];
        actor_sizes.extend_from_slice(hidden);
        actor_sizes.push(n_actions);
        let mut critic_sizes = vec![obs_dim];
        critic_sizes.extend_from_slice(hidden);
        critic_sizes.push(1);
        PpoPolicy {
            actor: Mlp::new(&actor_sizes, Activation::Tanh, Activation::Linear, &mut rng),
            critic: Mlp::new(&critic_sizes, Activation::Tanh, Activation::Linear, &mut rng),
            log_std: Tensor::zeros(&[0]),
            discrete: true,
        }
    }

    /// A continuous (diagonal-Gaussian) policy with the given hidden
    /// widths.
    pub fn continuous(obs_dim: usize, act_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut p = Self::discrete(obs_dim, act_dim, hidden, seed);
        p.log_std = Tensor::full(&[act_dim], -0.5);
        p.discrete = false;
        p
    }

    /// The seven-layer configuration of the paper's evaluation (§7.1).
    pub fn seven_layer_continuous(obs_dim: usize, act_dim: usize, seed: u64) -> Self {
        Self::continuous(obs_dim, act_dim, &[64, 64, 64, 64, 64], seed)
    }

    /// Total scalar parameters (actor + critic + log-std).
    pub fn num_params(&self) -> usize {
        self.actor.num_params() + self.critic.num_params() + self.log_std.len()
    }

    /// Every parameter tensor, in [`PpoPolicy::flatten`]'s order (the
    /// log-std vector last, empty for a discrete policy).
    pub fn params(&self) -> impl Iterator<Item = &Tensor> {
        self.actor.params().into_iter().chain(self.critic.params()).chain([&self.log_std])
    }

    /// Serialises all weights to a flat vector (weight-sync payload).
    pub fn flatten(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.num_params());
        for p in self.params() {
            v.extend_from_slice(p.data());
        }
        v
    }

    /// Whether `flat` equals [`PpoPolicy::flatten`]'s output, compared in
    /// place rather than through a parameter-sized flatten.
    pub fn holds(&self, flat: &[f32]) -> bool {
        let mut rest = flat;
        flat.len() == self.num_params()
            && self.params().all(|p| {
                let (head, tail) = rest.split_at(p.len());
                rest = tail;
                head == p.data()
            })
    }

    /// Loads weights from [`PpoPolicy::flatten`] output.
    ///
    /// # Errors
    ///
    /// Returns an error on a length mismatch.
    pub fn unflatten(&mut self, flat: &[f32]) -> Result<()> {
        if flat.len() != self.num_params() {
            return Err(FdgError::Tensor(msrl_tensor::TensorError::LengthMismatch {
                expected: self.num_params(),
                actual: flat.len(),
            }));
        }
        let a = self.actor.num_params();
        let c = self.critic.num_params();
        self.actor.unflatten_params(&flat[..a])?;
        self.critic.unflatten_params(&flat[a..a + c])?;
        if !self.log_std.is_empty() {
            self.log_std.data_mut().copy_from_slice(&flat[a + c..]);
        }
        Ok(())
    }

    /// Policy inference + sampling for a batch of observations.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed observations.
    pub fn act(&self, obs: &Tensor, rng: &mut StdRng) -> Result<ActOutput> {
        self.act_with(obs, rng, None)
    }

    /// [`PpoPolicy::act`], optionally over this policy's packed weights
    /// (the rollout fast path). The packed forward replays the same fused
    /// per-layer arithmetic, so both paths are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed observations.
    pub fn act_with(
        &self,
        obs: &Tensor,
        rng: &mut StdRng,
        packed: Option<&PackedPpo>,
    ) -> Result<ActOutput> {
        let (out, values) = self.forward_with(obs, packed)?;
        self.sample_from(&out, values, rng)
    }

    /// The deterministic forward half of [`PpoPolicy::act`]: actor head
    /// outputs (`[batch, act]` logits or means) and critic values
    /// (`[batch]`). Matmul rows are independent, so one forward over
    /// rows stacked from many actors (DP-B's hub) is bit-identical to
    /// each actor's forward over its own rows.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed observations.
    pub fn forward_with(
        &self,
        obs: &Tensor,
        packed: Option<&PackedPpo>,
    ) -> Result<(Tensor, Tensor)> {
        Ok((self.head_with(obs, packed)?, self.values_with(obs, packed)?))
    }

    /// The actor head of [`PpoPolicy::forward_with`] alone: what sampling
    /// needs. A seat that acts for remote environments runs only this
    /// before it sends the actions, and the critic after.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed observations.
    pub fn head_with(&self, obs: &Tensor, packed: Option<&PackedPpo>) -> Result<Tensor> {
        Ok(self.actor.infer_with(obs, packed.map(|p| &p.actor[..]))?)
    }

    /// The critic of [`PpoPolicy::forward_with`] alone, `[batch]`.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed observations.
    pub fn values_with(&self, obs: &Tensor, packed: Option<&PackedPpo>) -> Result<Tensor> {
        let values = self.critic.infer_with(obs, packed.map(|p| &p.critic[..]))?;
        Ok(values.reshape(&[obs.shape()[0]])?)
    }

    /// The sampling half of [`PpoPolicy::act`]: builds the action
    /// distribution from forward outputs and draws with `rng`. It
    /// operates on whatever row block it is given.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed head outputs.
    pub fn sample_from(&self, out: &Tensor, values: Tensor, rng: &mut StdRng) -> Result<ActOutput> {
        Ok(ActOutput { values: Some(values), ..self.sample(out, rng)? })
    }

    /// [`PpoPolicy::sample_from`] without the critic: actions and their
    /// log-probabilities, `values` left `None` for whoever computes
    /// them later.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed head outputs.
    pub fn sample(&self, out: &Tensor, rng: &mut StdRng) -> Result<ActOutput> {
        let batch = out.shape()[0];
        if self.discrete {
            let dist = Categorical::from_logits(out)?;
            let actions = dist.sample(rng);
            let log_probs = dist.log_prob(&actions)?;
            let actions_t =
                Tensor::from_vec(actions.iter().map(|&a| a as f32).collect(), &[batch])?;
            Ok(ActOutput { actions: actions_t, log_probs, values: None })
        } else {
            let dist = DiagGaussian::new(out.clone(), self.log_std.clone())?;
            let actions = dist.sample(rng);
            let log_probs = dist.log_prob(&actions)?;
            Ok(ActOutput { actions, log_probs, values: None })
        }
    }

    /// Critic value estimates, `[batch]`.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed observations.
    pub fn values(&self, obs: &Tensor) -> Result<Tensor> {
        self.values_with(obs, None)
    }
}

/// A policy's weights packed into the kernel tier's panel layout: one
/// [`Panels::packed`] per actor and critic weight, paid once per weight
/// version and read by every rollout forward until the next change.
/// It holds no bias and no weight values: it is read against the
/// policy it was packed from ([`PpoPolicy::forward_with`]), whose
/// outputs it keeps bit for bit while every layer, the narrow heads and
/// the small per-step batches included, runs the packed tile.
pub struct PackedPpo {
    actor: Vec<Panels>,
    critic: Vec<Panels>,
}

impl PackedPpo {
    /// Packs every weight of both heads of `p`.
    pub fn pack(p: &PpoPolicy) -> Self {
        let pack = |m: &Mlp| m.layers.iter().map(|l| Panels::packed(&l.w)).collect();
        PackedPpo { actor: pack(&p.actor), critic: pack(&p.critic) }
    }
}

/// The data-collection half of PPO (`Actor.act()` in the paper's API):
/// a policy replica acting through a [`PackedPpo`] of its weights,
/// packed on the first act after a weight change; a sync that changes
/// them ([`Actor::set_policy_params`]) drops it.
pub struct PpoActor {
    /// The (replicated) policy.
    pub policy: PpoPolicy,
    rng: StdRng,
    packed: Option<PackedPpo>,
}

impl PpoActor {
    /// Creates an actor over a policy replica.
    pub fn new(policy: PpoPolicy, seed: u64) -> Self {
        PpoActor { policy, rng: StdRng::seed_from_u64(seed), packed: None }
    }
}

impl Actor for PpoActor {
    fn act(&mut self, obs: &Tensor) -> Result<ActOutput> {
        let packed = self.packed.get_or_insert_with(|| PackedPpo::pack(&self.policy));
        self.policy.act_with(obs, &mut self.rng, Some(packed))
    }

    fn policy_params(&self) -> Vec<f32> {
        self.policy.flatten()
    }

    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()> {
        // A sync carrying the weights the actor already holds (a
        // re-broadcast of the same epoch) keeps the packed weights: the
        // partial-update path can deliver the same version more than once.
        if self.packed.is_some() && self.policy.holds(flat) {
            return Ok(());
        }
        self.packed = None;
        self.policy.unflatten(flat)
    }
}

/// A seat that acts and learns on one copy of the weights: a
/// [`PpoLearner`] that acts, as a [`PpoActor`] with the same seed does,
/// through a [`PackedPpo`] of its own policy. Every mutable reach into
/// the learner ([`PpoAgent::learner_mut`]) drops the packed weights, so
/// there is no second policy to re-sync after an update.
pub struct PpoAgent {
    learner: PpoLearner,
    packed: Option<PackedPpo>,
    rng: StdRng,
}

impl PpoAgent {
    /// An agent training `policy` under `cfg`, sampling from `seed`.
    pub fn new(policy: PpoPolicy, cfg: PpoConfig, seed: u64) -> Self {
        let (learner, rng) = (PpoLearner::new(policy, cfg), StdRng::seed_from_u64(seed));
        PpoAgent { learner, packed: None, rng }
    }

    /// The learner, to read.
    pub fn learner(&self) -> &PpoLearner {
        &self.learner
    }

    /// The learner, to train or overwrite: the next act packs again.
    pub fn learner_mut(&mut self) -> &mut PpoLearner {
        self.packed = None;
        &mut self.learner
    }

    /// The policy, its packed weights and the generator, for a seat that
    /// splits a step into head, sampling and critic.
    pub fn acting(&mut self) -> (&PpoPolicy, &PackedPpo, &mut StdRng) {
        let policy = &self.learner.policy;
        (policy, self.packed.get_or_insert_with(|| PackedPpo::pack(policy)), &mut self.rng)
    }
}

impl Actor for PpoAgent {
    fn act(&mut self, obs: &Tensor) -> Result<ActOutput> {
        let (policy, packed, rng) = self.acting();
        policy.act_with(obs, rng, Some(packed))
    }

    fn policy_params(&self) -> Vec<f32> {
        self.learner.policy_params()
    }

    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()> {
        self.learner_mut().set_policy_params(flat)
    }
}

/// Floats one `[rows, width]` operand of a learn block may hold at the
/// policy's widest layer: 256 KB, which sits in L2. A pass keeps every
/// tape node's value until the backward sweep reads it, so a taller
/// batch is differentiated in blocks of [`PpoLearner::block_rows`] rows,
/// this budget over the widest layer counted as at least 64 wide: 1,024
/// rows of a `[64, 64]` policy, 256 of a `[256, 256]` one (DESIGN.md
/// §3.19 has the timings). One constant, not a knob.
const LEARN_BLOCK_FLOATS: usize = 1024 * 64;

/// The epoch-invariant leaves of the PPO loss for one batch
/// ([`PpoLearner::loss_inputs`]), cut into the row blocks
/// [`PpoLearner::loss_and_grads`] differentiates one tape at a time.
struct LossInputs {
    /// Rows of the whole batch: what every mean of the loss divides by.
    rows: usize,
    /// At least one; a batch of up to [`PpoLearner::block_rows`] rows is
    /// one.
    blocks: Vec<LossBlock>,
}

/// One row block's leaves as shared handles: every epoch's tape
/// registers these, not copies.
struct LossBlock {
    obs: Rc<Tensor>,
    actions: Actions,
    old_log_probs: Rc<Tensor>,
    adv: Rc<Tensor>,
    ret: Rc<Tensor>,
}

/// Rows `lo..hi` of an `[n]` or `[n, width]` tensor as a leaf handle.
fn row_block(t: &Tensor, n: usize, lo: usize, hi: usize) -> Result<Rc<Tensor>> {
    if t.shape().first() != Some(&n) {
        return Err(FdgError::Tensor(msrl_tensor::TensorError::LengthMismatch {
            expected: n,
            actual: t.shape().first().copied().unwrap_or(0),
        }));
    }
    let width: usize = t.shape()[1..].iter().product();
    let mut dims = t.shape().to_vec();
    dims[0] = hi - lo;
    Ok(Rc::new(Tensor::from_vec(t.data()[lo * width..hi * width].to_vec(), &dims)?))
}

enum Actions {
    Discrete(Vec<usize>),
    Continuous(Rc<Tensor>),
}

/// Runs the policy branch (first) and the value branch (second) of a
/// learn pass, both to completion.
type Join<'j> = &'j mut dyn FnMut(&mut dyn FnMut(), &mut (dyn FnMut() + Send));

/// A tensor of `shape` drawn from the calling thread's pool, every
/// element to be overwritten.
fn pooled(shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(msrl_tensor::alloc::take_for_overwrite(len), shape).expect("volume matches")
}

/// The value branch of the PPO loss: the critic and the value loss
/// `mean((v − ret)²)` over `rows` rows, differentiated block by block
/// as [`policy_branch`] is, scaled by `value_coef` as the
/// loss weighs it. Writes the critic's gradients into `grads` and
/// returns the value loss.
///
/// It may run on another thread than the learner's, and a tape recycles
/// every buffer it holds into the pool of the thread it runs on: so it
/// draws everything from that pool, its copies of `obs` and `ret`
/// included, and recycles its own gradients there once copied out. It
/// shares the critic on that thread too ([`Mlp::share`]): the panels of
/// each weight are packed from that pool by the first block that needs
/// them and go back to it when the branch ends.
fn value_branch(
    critic: &mut Mlp,
    blocks: &[(&Tensor, &Tensor)],
    rows: usize,
    value_coef: f32,
    grads: &mut [Tensor],
) -> Result<f32> {
    let shared = critic.share();
    let mut gs: Vec<Tensor> = Vec::new();
    let mut sum = None;
    let mut value_loss = 0.0;
    for &(obs, ret) in blocks {
        let tape = Tape::new();
        let critic = shared.bind(&tape);
        let obs = tape.constant(obs.reshape(obs.shape())?);
        let ret_t = tape.constant(ret.reshape(ret.shape())?);
        let values = critic.forward(&obs)?.reshape(&[ret.len()])?;
        let mse = values.sub(&ret_t)?.square().mean_over(rows, &mut sum);
        let loss = mse.mul_scalar(value_coef);
        let params = critic.param_vars();
        let carried = params.iter().zip(gs.drain(..)).collect();
        let mut block_grads = tape.backward_onto(&loss, carried)?;
        gs.extend(params.iter().map(|p| block_grads.take_or_zeros(p)));
        value_loss = mse.value().item()?;
    }
    for (out, g) in grads.iter_mut().zip(gs) {
        out.data_mut().copy_from_slice(g.data());
        g.recycle();
    }
    Ok(value_loss)
}

/// The policy branch of the loss on the calling thread: the actor,
/// log-std and the policy loss — the action distribution's statistics,
/// the clipped surrogate and the entropy bonus, recorded as one tape
/// node ([`policy_loss`]) that reads the block's advantages and old
/// log-probabilities in place. Returns the surrogate loss, the mean
/// entropy and the gradients of the actor's parameters, then of log-std
/// (continuous only).
///
/// The batch is differentiated block by block, each block on a tape of
/// its own that is dropped — its buffers back in the pool — before the
/// next one is recorded, so the working set is one block's. Each mean is
/// over the *batch*: the node carries both sums from the previous
/// block's and seeds its rule with `g / n` for the batch's `n`, as
/// [`Var::mean_over`] does, and the parameter gradients of one block are
/// handed to the next block's backward pass, where every `Linear` weight
/// and bias continues its reduction over the rows
/// ([`Tape::backward_onto`]) — bit for bit what one tape over the whole
/// batch computes. `log_std`'s gradient is the sum of its per-block
/// gradients. A batch of one block runs the loop once: one tape, plain
/// means, nothing carried. Every block's tape registers the actor that
/// [`Mlp::share`] lent the pass — no copy of a weight, and each weight's
/// panels packed once between the blocks — and one copy of `log_std`.
/// [`value_branch`] runs the same loop.
///
/// [`Var::mean_over`]: msrl_tensor::autograd::Var::mean_over
/// [`Tape::backward_onto`]: msrl_tensor::autograd::Tape::backward_onto
fn policy_branch(
    actor: &mut Mlp,
    log_std: &Tensor,
    cfg: &PpoConfig,
    inputs: &LossInputs,
) -> Result<(f32, f32, Vec<Tensor>)> {
    let n = inputs.rows;
    let shared = actor.share();
    let log_std = Rc::new(log_std.clone());
    let mut gs: Vec<Tensor> = Vec::new();
    let mut sums = [None; 2];
    let mut means = (0.0, 0.0);
    for block in &inputs.blocks {
        let tape = Tape::new();
        let actor = shared.bind(&tape);
        let obs = tape.constant(Rc::clone(&block.obs));
        let out = actor.forward(&obs)?;
        let mut log_std_var = None;
        let head = match &block.actions {
            Actions::Discrete(idx) => Head::Categorical(idx),
            Actions::Continuous(actions) => Head::Gaussian {
                log_std: log_std_var.insert(tape.var(Rc::clone(&log_std))),
                actions: Rc::clone(actions),
            },
        };
        let PolicyLoss { loss, surrogate, entropy } =
            policy_loss(&out, head, &block.adv, clipped(cfg, &block.old_log_probs, n), &mut sums)?;
        let params: Vec<&Var> = actor.param_vars().iter().chain(&log_std_var).collect();
        let carried = params.iter().copied().zip(gs.drain(..)).collect();
        let mut grads = tape.backward_onto(&loss, carried)?;
        gs.extend(params.iter().map(|p| grads.take_or_zeros(p)));
        // Of the batch once the last block is in.
        means = (surrogate, entropy);
    }
    Ok((means.0, means.1, gs))
}

/// PPO's surrogate for a block of a batch of `rows` rows.
fn clipped<'a>(cfg: &PpoConfig, old_log_probs: &'a Rc<Tensor>, rows: usize) -> Surrogate<'a> {
    Surrogate::Clipped { clip: cfg.clip, old_log_probs, entropy_coef: cfg.entropy_coef, rows }
}

/// The training half of PPO (`Learner.learn()` in the paper's API).
pub struct PpoLearner {
    /// The policy being optimised.
    pub policy: PpoPolicy,
    /// Hyper-parameters.
    pub cfg: PpoConfig,
    opt: Adam,
    /// What the most recent pass and update computed
    /// ([`Learner::signals`]). A `Cell` because the pass sets it through
    /// `&self`.
    signals: std::cell::Cell<Signals>,
    /// The parameters before the current update, for the health
    /// sentinel. Allocated with the learner and reused by every update:
    /// the same buffer first allocated mid-run, amid the tape's pooled
    /// buffers, raised dpc's peak RSS by about 1 MB.
    before: Vec<f32>,
}

impl PpoLearner {
    /// Creates a learner owning a policy.
    pub fn new(policy: PpoPolicy, cfg: PpoConfig) -> Self {
        let opt = Adam::new(cfg.lr);
        let before = Vec::with_capacity(policy.num_params());
        PpoLearner { policy, cfg, opt, signals: std::cell::Cell::default(), before }
    }

    /// Computes GAE advantages and value targets over the batch's
    /// env-major segments.
    fn advantages(&self, batch: &SampleBatch) -> Result<(Vec<f32>, Vec<f32>)> {
        let n = batch.len();
        let seg = if batch.segment_len > 0 { batch.segment_len } else { n };
        if !n.is_multiple_of(seg) {
            return Err(FdgError::Tensor(msrl_tensor::TensorError::LengthMismatch {
                expected: seg,
                actual: n,
            }));
        }
        let boot = self.bootstrap_values(batch, seg)?;
        let mut adv = Vec::with_capacity(n);
        let mut ret = Vec::with_capacity(n);
        for (lo, &bootstrap) in (0..n).step_by(seg).zip(&boot) {
            let hi = lo + seg;
            let rewards = &batch.rewards.data()[lo..hi];
            let values = &batch.values.data()[lo..hi];
            let dones = &batch.dones[lo..hi];
            // Bootstrap from the critic at the segment's last next-state
            // unless the episode ended there.
            let last_value = if dones[seg - 1] { 0.0 } else { bootstrap };
            let (a, r) =
                gae::gae(rewards, values, dones, last_value, self.cfg.gamma, self.cfg.gae_lambda);
            adv.extend(a);
            ret.extend(r);
        }
        gae::normalize(&mut adv);
        Ok((adv, ret))
    }

    /// The critic at the last next-state of every `seg`-row segment, in
    /// segment order: one forward over those rows. Rows of a product are
    /// independent and every kernel keeps one per-element sequence
    /// whatever the row count, so each value is bit for bit the one a
    /// `[1, obs]` forward of its row gives. A segment whose episode ended
    /// does not use its value; it is computed anyway, so the forward's
    /// shape — and the pooled buffers it draws — are the same every
    /// batch.
    fn bootstrap_values(&self, batch: &SampleBatch, seg: usize) -> Result<Vec<f32>> {
        let width = batch.next_obs.shape()[1];
        let lasts: Vec<f32> = (seg..=batch.len())
            .step_by(seg)
            .flat_map(|hi| &batch.next_obs.data()[(hi - 1) * width..hi * width])
            .copied()
            .collect();
        let rows = Tensor::from_vec(lasts, &[batch.len() / seg, width])?;
        Ok(self.policy.values(&rows)?.into_vec())
    }

    /// Rows of one learn block: [`LEARN_BLOCK_FLOATS`] over the widest
    /// layer of either network, counted as at least 64 wide.
    fn block_rows(&self) -> usize {
        let layers = self.policy.actor.layers.iter().chain(&self.policy.critic.layers);
        let widest = layers.map(|l| l.fan_in().max(l.fan_out())).max().unwrap_or(0);
        LEARN_BLOCK_FLOATS / widest.clamp(64, LEARN_BLOCK_FLOATS)
    }

    /// Builds the leaves of the loss that no epoch changes, once per
    /// batch. GAE and the advantage normalisation see the whole batch;
    /// only then is it cut into blocks of `block_rows` rows (the tests
    /// compare heights; the learner cuts at [`PpoLearner::block_rows`]).
    fn loss_inputs(&self, batch: &SampleBatch, block_rows: usize) -> Result<LossInputs> {
        let (adv, ret) = self.advantages(batch)?;
        let n = batch.len();
        let adv = Tensor::from_vec(adv, &[n])?;
        let ret = Tensor::from_vec(ret, &[n])?;
        // An empty batch is one empty block, not none.
        let blocks = (0..n.max(1))
            .step_by(block_rows)
            .map(|lo| {
                let hi = (lo + block_rows).min(n);
                let actions = row_block(&batch.actions, n, lo, hi)?;
                Ok(LossBlock {
                    obs: row_block(&batch.obs, n, lo, hi)?,
                    actions: if self.policy.discrete {
                        Actions::Discrete(actions.data().iter().map(|&a| a as usize).collect())
                    } else {
                        Actions::Continuous(actions)
                    },
                    old_log_probs: row_block(&batch.log_probs, n, lo, hi)?,
                    adv: row_block(&adv, n, lo, hi)?,
                    ret: row_block(&ret, n, lo, hi)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(LossInputs { rows: n, blocks })
    }

    /// One clipped-surrogate optimisation pass; returns `(loss, grads)`
    /// and leaves the policy's values as it found them (each branch lends
    /// its network to the pass, [`Mlp::share`], an error included). The
    /// loss's two branches run side by side through `par::join`: the
    /// value branch on a helper when a core is free, else after the
    /// policy branch on this thread.
    fn loss_and_grads(&mut self, inputs: &LossInputs) -> Result<(f32, Vec<Tensor>)> {
        self.loss_and_grads_joined(inputs, &mut |policy, value| {
            msrl_tensor::par::join(policy, value);
        })
    }

    /// [`PpoLearner::loss_and_grads`] with the join spelled out (the
    /// tests also run the branches one after the other).
    ///
    /// The loss is `policy + value_coef·value − entropy_coef·entropy`,
    /// and its dataflow is two branches that meet only in that sum and
    /// the global norm clip: the actor with the surrogate and entropy
    /// terms ([`policy_branch`]), and the critic with the
    /// value loss ([`value_branch`]). Each is differentiated on tapes of
    /// its own; every gradient it sends to its parameters is the one the
    /// single tape over both sends, in the same order, so the split is
    /// bit for bit that tape. Gradients come back in actor, critic,
    /// log-std order, and the loss is summed in the single tape's `f32`
    /// order.
    fn loss_and_grads_joined(
        &mut self,
        inputs: &LossInputs,
        join: Join,
    ) -> Result<(f32, Vec<Tensor>)> {
        // Drawn here: each thread recycles only what its own pool lent.
        let mut critic_grads: Vec<Tensor> =
            self.policy.critic.params().iter().map(|p| pooled(p.shape())).collect();
        let blocks: Vec<(&Tensor, &Tensor)> =
            inputs.blocks.iter().map(|b| (&*b.obs, &*b.ret)).collect();
        let PpoPolicy { actor, critic, log_std, .. } = &mut self.policy;
        let (cfg, n, value_coef) = (&self.cfg, inputs.rows, self.cfg.value_coef);
        let (mut policy, mut value) = (None, None);
        join(&mut || policy = Some(policy_branch(actor, log_std, cfg, inputs)), &mut || {
            value = Some(value_branch(critic, &blocks, n, value_coef, &mut critic_grads));
        });
        let (policy_loss, entropy, mut gs) = policy.expect("the join ran the policy branch")?;
        let value_loss = value.expect("the join ran the value branch")?;
        let log_std = if self.policy.discrete { None } else { gs.pop() };
        gs.extend(critic_grads);
        gs.extend(log_std);
        let loss = (policy_loss + value_loss * value_coef) + entropy * -self.cfg.entropy_coef;
        let grad_norm = Some(clip_grad_norm(&mut gs, self.cfg.max_grad_norm));
        let signals = Signals { loss: Some(loss), entropy: Some(entropy), grad_norm, update: None };
        self.signals.set(signals);
        Ok((loss, gs))
    }

    /// [`Learner::learn`] from the batch's leaves: `epochs` passes, each
    /// followed by its update.
    fn learn_from(&mut self, inputs: &LossInputs) -> Result<f32> {
        crate::sentinel::snapshot(&mut self.before, self.policy.params());
        let mut loss = 0.0;
        for _ in 0..self.cfg.epochs {
            let (epoch_loss, grads) = self.loss_and_grads(inputs)?;
            self.apply(&grads)?;
            loss = epoch_loss;
        }
        let update = Some(crate::sentinel::update(&self.before, self.policy.params()));
        self.signals.set(Signals { update, ..self.signals.get() });
        Ok(loss)
    }

    fn apply(&mut self, grads: &[Tensor]) -> Result<()> {
        self.opt.step(&mut trained(&mut self.policy), grads).map_err(FdgError::Tensor)
    }
}

/// The tensors a learner updates, in gradient order: actor, critic, and
/// the log-std vector of a continuous policy.
fn trained(policy: &mut PpoPolicy) -> Vec<&mut Tensor> {
    let mut params = policy.actor.params_mut();
    params.extend(policy.critic.params_mut());
    if !policy.discrete {
        params.push(&mut policy.log_std);
    }
    params
}

impl Learner for PpoLearner {
    fn learn(&mut self, batch: &SampleBatch) -> Result<f32> {
        if batch.is_empty() {
            return Err(FdgError::Tensor(msrl_tensor::TensorError::EmptyInput { op: "PPO learn" }));
        }
        self.cfg.validate()?;
        let inputs = self.loss_inputs(batch, self.block_rows())?;
        self.learn_from(&inputs)
    }

    fn policy_params(&self) -> Vec<f32> {
        self.policy.flatten()
    }

    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()> {
        self.policy.unflatten(flat)
    }

    fn grads(&mut self, batch: &SampleBatch) -> Result<Vec<f32>> {
        self.cfg.validate()?;
        let inputs = self.loss_inputs(batch, self.block_rows())?;
        let (_, grads) = self.loss_and_grads(&inputs)?;
        let mut flat = Vec::with_capacity(self.policy.num_params());
        for g in &grads {
            flat.extend_from_slice(g.data());
        }
        Ok(flat)
    }

    fn apply_grads(&mut self, flat: &[f32]) -> Result<()> {
        crate::sentinel::snapshot(&mut self.before, self.policy.params());
        // Read in place: a copy per parameter would be, on the wide model,
        // two weight-sized allocations the allocator maps and unmaps each
        // call.
        self.opt.step_flat(&mut trained(&mut self.policy), flat).map_err(FdgError::Tensor)?;
        // External-gradient path (DP-C/DP-F): the pre-clip norm was
        // computed worker-side, so report the norm of the flat gradient
        // actually applied.
        self.signals.set(Signals {
            grad_norm: Some(crate::sentinel::l2_norm(flat) as f32),
            update: Some(crate::sentinel::update(&self.before, self.policy.params())),
            ..self.signals.get()
        });
        Ok(())
    }

    fn signals(&self) -> Signals {
        self.signals.get()
    }
}

/// Evaluates a policy greedily for one episode; returns the total reward.
/// Shared by tests and examples.
pub fn evaluate<E: msrl_env::Environment>(
    policy: &PpoPolicy,
    env: &mut E,
    max_steps: usize,
) -> Result<f32> {
    let mut obs = env.reset();
    let mut total = 0.0;
    for _ in 0..max_steps {
        let row = obs.reshape(&[1, env.obs_dim()]).map_err(FdgError::Tensor)?;
        let out = policy.actor.infer(&row)?;
        let action = if policy.discrete {
            let am = ops::argmax_rows(&out).map_err(FdgError::Tensor)?;
            msrl_env::Action::Discrete(am.data()[0] as usize)
        } else {
            msrl_env::Action::Continuous(
                out.reshape(&[policy.actor.output_dim()]).map_err(FdgError::Tensor)?,
            )
        };
        let step = env.step(&action);
        total += step.reward;
        obs = step.obs;
        if step.done {
            break;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::collect;
    use msrl_env::cartpole::CartPole;
    use msrl_env::VecEnv;

    #[test]
    fn policy_flatten_roundtrip() {
        let p = PpoPolicy::continuous(4, 2, &[8], 0);
        let flat = p.flatten();
        assert_eq!(flat.len(), p.num_params());
        let mut q = PpoPolicy::continuous(4, 2, &[8], 1);
        assert_ne!(q.flatten(), flat);
        q.unflatten(&flat).unwrap();
        assert_eq!(q.flatten(), flat);
        assert!(q.unflatten(&[1.0]).is_err());
    }

    #[test]
    fn act_shapes_discrete_and_continuous() {
        let mut rng = init::rng(0);
        let obs = Tensor::zeros(&[5, 4]);
        let d = PpoPolicy::discrete(4, 3, &[8], 0);
        let out = d.act(&obs, &mut rng).unwrap();
        assert_eq!(out.actions.shape(), &[5]);
        assert_eq!(out.log_probs.shape(), &[5]);
        assert!(out.actions.data().iter().all(|&a| (0.0..3.0).contains(&a)));
        let c = PpoPolicy::continuous(4, 2, &[8], 0);
        let out = c.act(&obs, &mut rng).unwrap();
        assert_eq!(out.actions.shape(), &[5, 2]);
        assert_eq!(out.values.unwrap().shape(), &[5]);
    }

    #[test]
    fn batched_rollout_forward_is_bit_identical_and_repacks_on_sync() {
        let policy = PpoPolicy::discrete(4, 3, &[32, 32], 5);
        let obs =
            Tensor::from_vec((0..24).map(|i| (i as f32 * 0.21).sin()).collect(), &[6, 4]).unwrap();
        // Same seed → same sampling stream; the actor's packed weights
        // vs the per-call forward: actions, log-probs and values must
        // agree bitwise.
        let mut actor = PpoActor::new(policy.clone(), 9);
        let packed = actor.act(&obs).unwrap();
        assert!(actor.packed.is_some(), "acting packs");
        let per_call = policy.act(&obs, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(packed.actions.data(), per_call.actions.data());
        assert_eq!(packed.log_probs.data(), per_call.log_probs.data());
        assert_eq!(packed.values.unwrap().data(), per_call.values.unwrap().data());
        // A weight sync carrying *new* weights drops the packed weights;
        // the next act packs every weight of both heads again: it acts as
        // a policy built on those weights does.
        let mut actor = PpoActor::new(policy.clone(), 9);
        actor.act(&obs).unwrap();
        assert!(actor.packed.is_some());
        let flat: Vec<f32> = actor
            .policy_params()
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.01 * (i % 7) as f32)
            .collect();
        actor.set_policy_params(&flat).unwrap();
        assert!(actor.packed.is_none(), "sync must drop the packed weights");
        let repacked = actor.act(&obs).unwrap();
        assert!(actor.packed.is_some(), "next act must pack again");
        let mut synced = policy.clone();
        synced.unflatten(&flat).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        synced.act(&obs, &mut rng).unwrap();
        let expect = synced.act(&obs, &mut rng).unwrap();
        assert_eq!(repacked.actions.data(), expect.actions.data());
        assert_eq!(repacked.log_probs.data(), expect.log_probs.data());
        assert_eq!(repacked.values.unwrap().data(), expect.values.unwrap().data());
    }

    /// The partial-update gap: a sync that delivers the *identical*
    /// epoch (a re-broadcast) must keep the packed weights, so the next
    /// act does not pack (`tests/learn_alloc.rs` counts the packs).
    #[test]
    fn identical_weight_sync_does_not_repack() {
        let policy = PpoPolicy::discrete(4, 3, &[16, 16], 7);
        let obs =
            Tensor::from_vec((0..16).map(|i| (i as f32 * 0.3).cos()).collect(), &[4, 4]).unwrap();
        let mut actor = PpoActor::new(policy, 11);
        actor.act(&obs).unwrap();
        assert!(actor.packed.is_some());
        let flat = actor.policy_params();
        actor.set_policy_params(&flat).unwrap();
        assert!(actor.packed.is_some(), "identical sync keeps the packed weights");
        actor.act(&obs).unwrap();
        // A genuinely new epoch still drops them.
        let mut changed = flat.clone();
        changed[1] -= 0.25;
        actor.set_policy_params(&changed).unwrap();
        assert!(actor.packed.is_none(), "changed sync must drop the packed weights");
        actor.act(&obs).unwrap();
        assert!(actor.packed.is_some());
    }

    /// The single-copy seat acts on its learner's current weights: after
    /// `apply_grads`, `learn` and `set_policy_params` alike it draws what
    /// a `PpoActor` synced to those weights draws from the same seed, bit
    /// for bit: the weights are packed again, not left on the old ones.
    #[test]
    fn agent_acts_on_the_weights_it_learned() {
        for policy in
            [PpoPolicy::discrete(4, 3, &[16, 16], 7), PpoPolicy::continuous(4, 2, &[16], 8)]
        {
            let obs = Tensor::from_vec((0..24).map(|i| (i as f32 * 0.37).sin()).collect(), &[6, 4])
                .unwrap();
            let batch = synthetic_batch(64, &policy, 3);
            let mut agent = PpoAgent::new(policy.clone(), PpoConfig::default(), 21);
            let mut twin = PpoActor::new(policy.clone(), 21);
            let mut same = |agent: &mut PpoAgent, what: &str| {
                twin.set_policy_params(&agent.policy_params()).unwrap();
                let (got, expect) = (agent.act(&obs).unwrap(), twin.act(&obs).unwrap());
                let what = format!("{what}, discrete {}", policy.discrete);
                assert_eq!(got.actions.data(), expect.actions.data(), "actions after {what}");
                assert_eq!(got.log_probs.data(), expect.log_probs.data(), "log-probs after {what}");
                let values = (got.values.unwrap(), expect.values.unwrap());
                assert_eq!(values.0.data(), values.1.data(), "values after {what}");
            };
            same(&mut agent, "nothing");
            let before = agent.policy_params();
            let grads = agent.learner_mut().grads(&batch).unwrap();
            agent.learner_mut().apply_grads(&grads).unwrap();
            assert_ne!(agent.policy_params(), before, "apply_grads moves the weights");
            same(&mut agent, "apply_grads");
            agent.learner_mut().learn(&batch).unwrap();
            same(&mut agent, "learn");
            let flat: Vec<f32> = before.iter().map(|v| v * 0.5).collect();
            agent.set_policy_params(&flat).unwrap();
            assert_eq!(agent.learner().policy_params(), flat);
            same(&mut agent, "set_policy_params");
        }
    }

    #[test]
    fn learn_reduces_loss_on_fixed_batch() {
        let policy = PpoPolicy::discrete(4, 2, &[16], 3);
        let mut learner = PpoLearner::new(policy.clone(), PpoConfig::default());
        let mut actor = PpoActor::new(policy, 4);
        let mut envs = VecEnv::from_fn(4, |i| CartPole::new(i as u64));
        let batch = collect(&mut actor, &mut envs, 32).unwrap();
        let inputs = learner.loss_inputs(&batch, learner.block_rows()).unwrap();
        let (loss0, _) = learner.loss_and_grads(&inputs).unwrap();
        for _ in 0..20 {
            let (_, grads) = learner.loss_and_grads(&inputs).unwrap();
            learner.apply(&grads).unwrap();
        }
        let (loss1, _) = learner.loss_and_grads(&inputs).unwrap();
        assert!(loss1 < loss0, "loss {loss0} → {loss1}");
    }

    #[test]
    fn grads_match_learn_direction() {
        // DP-C path: grads() then apply_grads() must change the policy.
        let policy = PpoPolicy::discrete(4, 2, &[8], 5);
        let mut learner = PpoLearner::new(policy.clone(), PpoConfig::default());
        let mut actor = PpoActor::new(policy, 6);
        let mut envs = VecEnv::from_fn(2, |i| CartPole::new(10 + i as u64));
        let batch = collect(&mut actor, &mut envs, 16).unwrap();
        let before = learner.policy_params();
        let g = learner.grads(&batch).unwrap();
        assert_eq!(g.len(), learner.policy.actor.num_params() + learner.policy.critic.num_params());
        learner.apply_grads(&g).unwrap();
        assert_ne!(learner.policy_params(), before);
        assert!(learner.apply_grads(&[0.0]).is_err());
    }

    /// An empty batch is an empty input, not a missing kernel.
    #[test]
    fn learn_rejects_empty_batch() {
        let policy = PpoPolicy::discrete(4, 2, &[8], 0);
        let mut learner = PpoLearner::new(policy, PpoConfig::default());
        let err = learner.learn(&SampleBatch::default()).unwrap_err();
        assert!(
            matches!(err, FdgError::Tensor(msrl_tensor::TensorError::EmptyInput { .. })),
            "{err}"
        );
    }

    /// A NaN observation must reach the heads as NaN on the plain and
    /// the packed forward alike (the tanh layers propagate it), so the
    /// loss goes non-finite and the health watchdog's `nonfinite`
    /// detector sees it — never a saturated, plausible-looking policy.
    #[test]
    fn nan_observation_yields_nonfinite_logits_and_values() {
        let policy = PpoPolicy::discrete(4, 2, &[32, 32], 3);
        let packed = PackedPpo::pack(&policy);
        let obs =
            Tensor::from_vec(vec![0.1, -0.2, f32::NAN, 0.4, 0.5, 0.6, 0.7, 0.8], &[2, 4]).unwrap();
        for packed in [None, Some(&packed)] {
            let (logits, values) = policy.forward_with(&obs, packed).unwrap();
            assert!(logits.data()[..2].iter().all(|v| v.is_nan()), "{logits:?}");
            assert!(values.data()[0].is_nan(), "{values:?}");
            assert!(logits.data()[2..].iter().all(|v| v.is_finite()), "clean row stays clean");
            assert!(values.data()[1].is_finite());
        }
    }

    /// A rollout-shaped batch without an environment: env-major segments
    /// of 16 steps, an episode end every 23rd row, the rest drawn from
    /// one seeded stream.
    fn synthetic_batch(rows: usize, policy: &PpoPolicy, seed: u64) -> SampleBatch {
        use rand::Rng;
        let (obs_dim, act_dim) = (policy.actor.input_dim(), policy.actor.output_dim());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |n: usize, lo: f32, hi: f32| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(lo..hi)).collect()
        };
        let t = |data: Vec<f32>, dims: &[usize]| Tensor::from_vec(data, dims).unwrap();
        let actions = if policy.discrete {
            t(draw(rows, 0.0, act_dim as f32).into_iter().map(f32::floor).collect(), &[rows])
        } else {
            t(draw(rows * act_dim, -1.0, 1.0), &[rows, act_dim])
        };
        SampleBatch {
            obs: t(draw(rows * obs_dim, -1.0, 1.0), &[rows, obs_dim]),
            actions,
            rewards: t(draw(rows, 0.0, 1.0), &[rows]),
            next_obs: t(draw(rows * obs_dim, -1.0, 1.0), &[rows, obs_dim]),
            dones: (0..rows).map(|i| i % 23 == 22).collect(),
            log_probs: t(draw(rows, -1.5, -0.3), &[rows]),
            values: t(draw(rows, -0.5, 0.5), &[rows]),
            segment_len: if rows.is_multiple_of(16) { 16 } else { 0 },
        }
    }

    /// A pass that fails mid-way — the third of four blocks'
    /// observations a column too wide, after both branches bound their
    /// network to the first two — returns `Err` and leaves the policy as
    /// it found it: the lent parameters move back on the error path too.
    /// A good `learn()` after it is a fresh learner's bit for bit.
    #[test]
    fn a_pass_that_fails_mid_way_leaves_the_policy_unchanged() {
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        for policy in
            [PpoPolicy::discrete(4, 2, &[16, 16], 3), PpoPolicy::continuous(5, 2, &[16], 4)]
        {
            let batch = synthetic_batch(64, &policy, 5);
            let mut learner = PpoLearner::new(policy.clone(), PpoConfig::default());
            let mut inputs = learner.loss_inputs(&batch, 16).unwrap();
            assert_eq!(inputs.blocks.len(), 4);
            let width = batch.obs.shape()[1];
            inputs.blocks[2].obs = Rc::new(Tensor::zeros(&[16, width + 1]));
            let before = bits(learner.policy_params());
            assert!(learner.learn_from(&inputs).is_err(), "discrete {}", policy.discrete);
            assert_eq!(bits(learner.policy_params()), before, "discrete {}", policy.discrete);
            let mut fresh = PpoLearner::new(policy.clone(), PpoConfig::default());
            fresh.learn(&batch).unwrap();
            learner.learn(&batch).unwrap();
            assert_eq!(
                bits(learner.policy_params()),
                bits(fresh.policy_params()),
                "discrete {}",
                policy.discrete
            );
        }
    }

    /// `(loss bits, entropy bits, gradient bits per parameter)` of one
    /// pass over `batch` in blocks of `block` rows.
    fn pass_bits(
        policy: &PpoPolicy,
        batch: &SampleBatch,
        block: usize,
    ) -> (u32, u32, Vec<Vec<u32>>) {
        let mut learner = PpoLearner::new(policy.clone(), PpoConfig::default());
        let inputs = learner.loss_inputs(batch, block).unwrap();
        assert_eq!(inputs.blocks.len(), batch.len().div_ceil(block));
        let (loss, grads) = learner.loss_and_grads(&inputs).unwrap();
        let bits = |g: &Tensor| g.data().iter().map(|v| v.to_bits()).collect();
        (
            loss.to_bits(),
            learner.signals().entropy.unwrap().to_bits(),
            grads.iter().map(bits).collect(),
        )
    }

    #[test]
    fn gae_bootstrap_in_one_forward_is_the_per_segment_forward_bit_for_bit() {
        // 16-row segments, on the discrete and the continuous heads.
        for policy in
            [PpoPolicy::discrete(4, 2, &[64, 64], 4), PpoPolicy::continuous(17, 6, &[32], 5)]
        {
            let batch = synthetic_batch(512, &policy, 6);
            let learner = PpoLearner::new(policy.clone(), PpoConfig::default());
            let width = batch.next_obs.shape()[1];
            let mut expect = Vec::new();
            for hi in (16..=512).step_by(16) {
                let row = &batch.next_obs.data()[(hi - 1) * width..hi * width];
                let row = Tensor::from_vec(row.to_vec(), &[1, width]).unwrap();
                expect.push(policy.values(&row).unwrap().item().unwrap().to_bits());
            }
            assert_eq!(expect.len(), 32);
            let got: Vec<u32> =
                learner.bootstrap_values(&batch, 16).unwrap().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "discrete {}", policy.discrete);
        }
    }

    proptest::proptest! {
        /// The tentpole's contract: a pass cut into row blocks — shorter
        /// than, equal to and not dividing the batch — gives the loss,
        /// the entropy and every `Linear` gradient of one tape over the
        /// whole batch bit for bit; a continuous policy's `log_std`, the
        /// one parameter that is a sum of per-block gradients, to 1e-6.
        /// Under the scalar backend, where the branches never fork, the
        /// gradients agree bitwise too.
        #[test]
        fn blocked_learn_pass_is_the_one_tape_pass_bit_for_bit(
            rows in 1usize..150,
            cut in 0usize..4,
            block_seed in 1usize..150,
            obs_dim in 1usize..7,
            hidden in 1usize..24,
            deep in proptest::prelude::any::<bool>(),
            seed in 0u64..1000,
        ) {
            use msrl_tensor::par;
            use proptest::{prop_assert, prop_assert_eq};
            let block = match cut {
                0 => rows + block_seed,
                1 => rows,
                _ => 1 + block_seed % rows,
            };
            let widths = if deep { vec![hidden, hidden] } else { vec![hidden] };
            let policies = [
                PpoPolicy::discrete(obs_dim, 3, &widths, seed),
                PpoPolicy::continuous(obs_dim, 2, &widths, seed),
            ];
            for policy in &policies {
                let batch = synthetic_batch(rows, policy, seed);
                let linear = policy.actor.params().len() + policy.critic.params().len();
                let what = format!("{rows} rows in {block}s, discrete {}", policy.discrete);
                let (one_tape, blocked) =
                    (pass_bits(policy, &batch, rows), pass_bits(policy, &batch, block));
                prop_assert_eq!(blocked.0, one_tape.0, "loss, {}", what);
                prop_assert_eq!(blocked.1, one_tape.1, "entropy, {}", what);
                let scalar = par::with_backend(msrl_tensor::Backend::Scalar, || {
                    pass_bits(policy, &batch, block)
                });
                // `log_std` is judged at the scale of the gradient it is
                // clipped and applied with, its largest component.
                let floats = |g: &[Vec<u32>]| -> Vec<f32> {
                    g.iter().flatten().map(|&b| f32::from_bits(b)).collect()
                };
                let scale = floats(&one_tape.2).iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for (name, got) in [("", &blocked), (" scalar", &scalar)] {
                    let (got_linear, got_rest) = got.2.split_at(linear);
                    let (linear, rest) = one_tape.2.split_at(linear);
                    prop_assert_eq!(got_linear, linear, "Linear grads{}, {}", name, what);
                    for (g, e) in floats(got_rest).into_iter().zip(floats(rest)) {
                        let ok = (g - e).abs() <= 1e-6 * scale;
                        prop_assert!(ok, "log_std {g} vs {e} at scale {scale}{name}, {what}");
                    }
                }
            }
        }
    }

    /// `(loss, entropy, pre-clip gradient norm, gradients)` as bits.
    type PassBits = (u32, u32, u32, Vec<Vec<u32>>);

    fn bits_of(loss: f32, entropy: f32, norm: f32, grads: &[Tensor]) -> PassBits {
        let bits = |g: &Tensor| g.data().iter().map(|v| v.to_bits()).collect();
        (loss.to_bits(), entropy.to_bits(), norm.to_bits(), grads.iter().map(bits).collect())
    }

    /// The learn pass as it was spelled before its branches split: both
    /// on one tape per block, one loss, one backward pass.
    fn one_tape_pass(learner: &PpoLearner, inputs: &LossInputs) -> PassBits {
        let (mut policy, cfg) = (learner.policy.clone(), &learner.cfg);
        let (shared_actor, shared_critic) = (policy.actor.share(), policy.critic.share());
        let n = inputs.rows;
        let mut gs: Vec<Tensor> = Vec::new();
        let (mut sums, mut value_sum) = ([None; 2], None);
        let mut metrics = (0.0, 0.0);
        for block in &inputs.blocks {
            let tape = Tape::new();
            let actor = shared_actor.bind(&tape);
            let critic = shared_critic.bind(&tape);
            let obs = tape.constant(Rc::clone(&block.obs));
            let out = actor.forward(&obs).unwrap();
            let mut log_std_var = None;
            let head = match &block.actions {
                Actions::Discrete(idx) => Head::Categorical(idx),
                Actions::Continuous(actions) => Head::Gaussian {
                    log_std: log_std_var.insert(tape.var(policy.log_std.clone())),
                    actions: Rc::clone(actions),
                },
            };
            let surrogate = clipped(cfg, &block.old_log_probs, n);
            let pl = policy_loss(&out, head, &block.adv, surrogate, &mut sums).unwrap();
            let ret_t = tape.constant(Rc::clone(&block.ret));
            let values = critic.forward(&obs).unwrap().reshape(&[block.ret.len()]).unwrap();
            let value_loss = values.sub(&ret_t).unwrap().square().mean_over(n, &mut value_sum);
            let loss = pl.loss.add(&value_loss.mul_scalar(cfg.value_coef)).unwrap();
            let params: Vec<&Var> =
                actor.param_vars().iter().chain(critic.param_vars()).chain(&log_std_var).collect();
            let carried = params.iter().copied().zip(gs.drain(..)).collect();
            let mut grads = tape.backward_onto(&loss, carried).unwrap();
            gs.extend(params.iter().map(|p| grads.take_or_zeros(p)));
            // In the `f32` order of the loss the composition summed.
            let value = value_loss.value().item().unwrap() * cfg.value_coef;
            metrics = ((pl.surrogate + value) + pl.entropy * -cfg.entropy_coef, pl.entropy);
        }
        let norm = clip_grad_norm(&mut gs, cfg.max_grad_norm);
        bits_of(metrics.0, metrics.1, norm, &gs)
    }

    /// The split pass with its branches joined by `join`.
    fn split_pass(learner: &mut PpoLearner, inputs: &LossInputs, join: Join) -> PassBits {
        let (loss, grads) = learner.loss_and_grads_joined(inputs, join).unwrap();
        let Signals { entropy, grad_norm, .. } = learner.signals();
        bits_of(loss, entropy.unwrap(), grad_norm.unwrap(), &grads)
    }

    /// The split pass is the one-tape pass bit for bit, whether the value
    /// branch runs on a helper or after the policy branch on the caller:
    /// discrete and continuous heads, one block and three (the last one
    /// ragged).
    #[test]
    fn branch_split_keeps_every_bit() {
        use msrl_tensor::par;
        let me = std::thread::current().id();
        let has_helper = !par::on_helpers(|| ()).is_empty();
        let policies =
            [PpoPolicy::discrete(4, 2, &[32, 32], 3), PpoPolicy::continuous(17, 6, &[32, 32], 4)];
        for policy in &policies {
            for rows in [300, 2 * 1024 + 77] {
                let what = format!("discrete {}, {rows} rows", policy.discrete);
                let batch = synthetic_batch(rows, policy, 11);
                let mut learner = PpoLearner::new(policy.clone(), PpoConfig::default());
                let inputs = learner.loss_inputs(&batch, learner.block_rows()).unwrap();
                assert_eq!(inputs.blocks.len(), rows.div_ceil(1024));
                let reference = one_tape_pass(&learner, &inputs);
                let inline = split_pass(&mut learner, &inputs, &mut |policy, value| {
                    policy();
                    value();
                });
                assert_eq!(inline, reference, "inline, {what}");
                // A concurrent test may hold the helper: retry until the
                // value branch ran on it.
                for attempt in 0.. {
                    let mut ran_on = me;
                    let forked = split_pass(&mut learner, &inputs, &mut |policy, value| {
                        let on = || {
                            value();
                            std::thread::current().id()
                        };
                        // The scalar backend never forks.
                        let threaded = msrl_tensor::Backend::Threaded;
                        ran_on = par::with_backend(threaded, || par::join(policy, on)).1;
                    });
                    assert_eq!(forked, reference, "forked {}, {what}", ran_on != me);
                    if ran_on != me || !has_helper {
                        break;
                    }
                    assert!(attempt < 10_000, "the value branch never forked");
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        }
    }

    /// The shipped block heights on batches that need three blocks, the
    /// last one ragged, against one tape over all of it: 1,024 rows of a
    /// narrow policy, and the 256 rows the budget gives a `[256, 256]`
    /// one. Every gradient is bitwise but a continuous policy's
    /// `log_std`, which the proptest's 1e-6 of scale bounds.
    #[test]
    fn blocked_learn_pass_at_the_shipped_height_keeps_every_bit() {
        let cases = [
            (PpoPolicy::discrete(4, 2, &[8, 8], 2), 1024),
            (PpoPolicy::discrete(17, 6, &[256, 256], 3), 256),
            (PpoPolicy::continuous(17, 6, &[256, 256], 3), 256),
        ];
        for (policy, height) in cases {
            let what = format!("{height}-row blocks, discrete {}", policy.discrete);
            let rows = 2 * height + 77;
            let batch = synthetic_batch(rows, &policy, 9);
            let mut learner = PpoLearner::new(policy.clone(), PpoConfig::default());
            assert_eq!(learner.block_rows(), height, "{what}");
            assert_eq!(
                learner.loss_inputs(&batch, learner.block_rows()).unwrap().blocks.len(),
                3,
                "{what}"
            );
            let (blocked, one_tape) =
                (pass_bits(&policy, &batch, height), pass_bits(&policy, &batch, rows));
            assert_eq!((blocked.0, blocked.1), (one_tape.0, one_tape.1), "loss, {what}");
            let linear = policy.actor.params().len() + policy.critic.params().len();
            assert_eq!(blocked.2[..linear], one_tape.2[..linear], "Linear grads, {what}");
            let floats = |g: &[Vec<u32>]| -> Vec<f32> {
                g.iter().flatten().map(|&b| f32::from_bits(b)).collect()
            };
            let scale = floats(&one_tape.2).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (g, e) in
                floats(&blocked.2[linear..]).into_iter().zip(floats(&one_tape.2[linear..]))
            {
                assert!((g - e).abs() <= 1e-6 * scale, "log_std {g} vs {e} at {scale}, {what}");
            }
            // And through the public entry: `grads` is the shipped height.
            let flat: Vec<u32> =
                learner.grads(&batch).unwrap().iter().map(|v| v.to_bits()).collect();
            assert_eq!(flat, blocked.2.concat(), "grads(), {what}");
        }
    }

    /// End-to-end: PPO must actually solve CartPole. This is the
    /// ground-truth test that the whole algorithm stack (tensor ops,
    /// autograd, distributions, GAE, optimizer) is correct. The policy
    /// seed is one whose trajectory clears the bar with margin
    /// (EXPERIMENTS.md "One transcendental path" has the seed table).
    /// A clip radius that is negative or NaN is refused with a typed
    /// error before any pass: `f32::clamp` panics on it, and a panic in a
    /// learner fragment reaches the runner's join instead of an `Err`.
    #[test]
    fn a_clip_without_an_interval_is_refused_before_any_pass() {
        let policy = PpoPolicy::discrete(4, 2, &[8], 3);
        let batch = synthetic_batch(64, &policy, 5);
        for clip in [-0.5, f32::NAN] {
            let cfg = PpoConfig { clip, ..PpoConfig::default() };
            let mut learner = PpoLearner::new(policy.clone(), cfg);
            let refused = |r: Result<()>| match r {
                Err(FdgError::InvalidConfig { field: "PpoConfig::clip", value }) => {
                    value.to_bits() == clip.to_bits()
                }
                _ => false,
            };
            assert!(refused(learner.learn(&batch).map(drop)), "learn() with clip {clip}");
            assert!(refused(learner.grads(&batch).map(drop)), "grads() with clip {clip}");
            assert_eq!(learner.policy_params(), policy.flatten(), "clip {clip}: weights moved");
        }
    }

    #[test]
    fn ppo_solves_cartpole() {
        let policy = PpoPolicy::discrete(4, 2, &[32, 32], 8);
        let cfg = PpoConfig { lr: 3e-3, epochs: 6, ..PpoConfig::default() };
        let mut learner = PpoLearner::new(policy.clone(), cfg);
        let mut actor = PpoActor::new(policy, 8);
        let mut envs = VecEnv::from_fn(8, |i| CartPole::new(100 + i as u64));

        let mut eval_env = CartPole::new(999);
        let before = evaluate(&learner.policy, &mut eval_env, 500).unwrap();

        for _ in 0..40 {
            let batch = collect(&mut actor, &mut envs, 64).unwrap();
            learner.learn(&batch).unwrap();
            actor.set_policy_params(&learner.policy_params()).unwrap();
        }
        let mut total = 0.0;
        for seed in 0..5 {
            let mut env = CartPole::new(2000 + seed);
            total += evaluate(&learner.policy, &mut env, 500).unwrap();
        }
        let after = total / 5.0;
        assert!(
            after > before + 50.0 && after > 150.0,
            "PPO must improve markedly: {before} → {after}"
        );
    }
}
