//! Cross-actor micro-batching act server.
//!
//! The PR 8 pack cache batches one actor's observation rows per rollout
//! step; with 1–2 envs per actor the panel kernels still see sliver
//! matrices. This module batches *across* actor fragments: every actor
//! registered with an [`ActServer`] submits its observation rows once
//! per rollout step, the last arriver (the *leader*) runs one fused
//! forward over the concatenated row block against the shared policy's
//! packed panels, and each actor receives its
//! row slice back, sampling actions with its own generator.
//!
//! Matmul rows are independent and every epilogue in the fused forward
//! is element-wise, so the batched forward is **bit-identical** to the
//! per-actor forwards it replaces at equal weights: enabling the act
//! server (`DistPpoConfig::act_server`) changes throughput, never results.
//!
//! The rendezvous is deliberately structured around [`ActServer::submit`]
//! — a blocking "rows in, row-slice out" exchange with no knowledge of
//! the rollout loop — so any caller that registers as a client joins the
//! same batch; the DP-A actors are the only clients today.
//!
//! Weight sync is versioned by content: [`ActServer::sync_weights`]
//! applies a flat vector only when it differs from the weights it holds,
//! so the p replicated actors of DP-A delivering the same broadcast
//! trigger exactly one unflatten + repack, in place
//! ([`ActingSnapshot`]).
//!
//! Telemetry: `actsrv.batches` / `actsrv.rows` counters and the
//! `actsrv.batch_rows` histogram record every leader forward.

use std::sync::{Arc, Condvar, Mutex};

use msrl_algos::ppo::{ActingSnapshot, PpoPolicy};
use msrl_core::api::{ActOutput, Actor};
use msrl_core::{FdgError, Result};
use msrl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared rendezvous state for one batching round.
struct Round {
    policy: PpoPolicy,
    snapshot: ActingSnapshot,
    /// Per-client observation rows submitted this round.
    pending: Vec<Option<Tensor>>,
    arrived: usize,
    /// Per-client forward slices: (head rows, value rows).
    results: Vec<Option<(Tensor, Tensor)>>,
    /// Clients that dropped (thread exited); excluded from rendezvous.
    departed: usize,
    /// A leader forward failed; every waiter must error out.
    poisoned: Option<String>,
}

/// Process-level micro-batching stage shared by all actor fragments.
pub struct ActServer {
    state: Mutex<Round>,
    cv: Condvar,
    clients: usize,
}

impl ActServer {
    /// Creates a server over a policy snapshot for exactly `clients`
    /// registered submitters.
    pub fn new(policy: PpoPolicy, clients: usize) -> Arc<Self> {
        Arc::new(ActServer {
            state: Mutex::new(Round {
                policy,
                snapshot: ActingSnapshot::default(),
                pending: (0..clients).map(|_| None).collect(),
                arrived: 0,
                results: (0..clients).map(|_| None).collect(),
                departed: 0,
                poisoned: None,
            }),
            cv: Condvar::new(),
            clients,
        })
    }

    /// Builds the [`Actor`] adapter for client slot `id` (one per actor
    /// fragment, ids `0..clients`). `seed` drives the client's private
    /// sampling stream, exactly like a standalone `PpoActor`'s.
    pub fn client(self: &Arc<Self>, id: usize, seed: u64) -> ActClient {
        ActClient { srv: Arc::clone(self), id, rng: StdRng::seed_from_u64(seed) }
    }

    /// Submits one client's observation rows for the current round and
    /// blocks until the round's batched forward has run; returns the
    /// client's slice of head outputs (`[rows, act]`) and values
    /// (`[rows]`). The last arriver runs the forward for everyone.
    pub fn submit(&self, id: usize, obs: Tensor) -> Result<(Tensor, Tensor)> {
        let mut st = self.state.lock().expect("act server lock");
        st.pending[id] = Some(obs);
        st.arrived += 1;
        loop {
            if let Some(msg) = &st.poisoned {
                return Err(FdgError::MissingKernel { op: format!("act server poisoned: {msg}") });
            }
            if let Some(r) = st.results[id].take() {
                return Ok(r);
            }
            if st.arrived > 0 && st.arrived + st.departed == self.clients {
                // Leader: every live client has arrived.
                if let Err(e) = Self::forward_round(&mut st) {
                    st.poisoned = Some(e.to_string());
                    self.cv.notify_all();
                    return Err(e);
                }
                self.cv.notify_all();
                continue;
            }
            st = self.cv.wait(st).expect("act server lock");
        }
    }

    /// One batched forward over all pending rows, scattered back into
    /// per-client result slots. Runs under the state lock — every other
    /// client is parked on the condvar.
    fn forward_round(st: &mut Round) -> Result<()> {
        let parts: Vec<(usize, Tensor)> =
            (0..st.pending.len()).filter_map(|i| st.pending[i].take().map(|t| (i, t))).collect();
        let obs_dim = parts.first().map(|(_, t)| t.shape()[1]).unwrap_or(0);
        let total: usize = parts.iter().map(|(_, t)| t.shape()[0]).sum();
        let mut rows = Vec::with_capacity(total * obs_dim);
        for (_, t) in &parts {
            rows.extend_from_slice(t.data());
        }
        let big = Tensor::from_vec(rows, &[total, obs_dim])?;
        let packed = st.snapshot.of(&st.policy);
        let (out, values) = st.policy.forward_with(&big, Some(packed))?;
        msrl_telemetry::static_counter!("actsrv.batches").add(1);
        msrl_telemetry::static_counter!("actsrv.rows").add(total as u64);
        msrl_telemetry::static_histogram!("actsrv.batch_rows").record(total as u64);
        let width = out.shape()[1];
        let (od, vd) = (out.data(), values.data());
        let mut row0 = 0;
        for (id, t) in &parts {
            let m = t.shape()[0];
            let head =
                Tensor::from_vec(od[row0 * width..(row0 + m) * width].to_vec(), &[m, width])?;
            let vals = Tensor::from_vec(vd[row0..row0 + m].to_vec(), &[m])?;
            st.results[*id] = Some((head, vals));
            row0 += m;
        }
        st.arrived = 0;
        Ok(())
    }

    /// Full act for one client: rendezvous forward, then sample the
    /// client's rows with its own generator — the same draws the
    /// unbatched per-actor path would make.
    fn act(&self, id: usize, obs: Tensor, rng: &mut StdRng) -> Result<ActOutput> {
        let (out, values) = self.submit(id, obs)?;
        let st = self.state.lock().expect("act server lock");
        st.policy.sample_from(&out, values, rng)
    }

    /// Content-versioned weight sync: applies `flat` only when it
    /// differs from the cached weights, so replicated actors delivering
    /// the same broadcast cost one unflatten + one repack total.
    pub fn sync_weights(&self, flat: &[f32]) -> Result<()> {
        let mut st = self.state.lock().expect("act server lock");
        if st.policy.holds(flat) {
            return Ok(());
        }
        st.policy.unflatten(flat)?;
        st.snapshot.invalidate();
        Ok(())
    }

    /// The current flat weights (shared across all clients).
    pub fn params(&self) -> Vec<f32> {
        self.state.lock().expect("act server lock").policy.flatten()
    }

    fn depart(&self) {
        let mut st = self.state.lock().expect("act server lock");
        st.departed += 1;
        // A waiter may now be the last live arriver: wake everyone so
        // one of them claims leadership instead of deadlocking.
        self.cv.notify_all();
    }
}

/// Per-actor handle: an [`Actor`] whose forwards go through the shared
/// batching server while sampling stays local (own `StdRng` stream).
pub struct ActClient {
    srv: Arc<ActServer>,
    id: usize,
    rng: StdRng,
}

impl Actor for ActClient {
    fn act(&mut self, obs: &Tensor) -> Result<ActOutput> {
        self.srv.act(self.id, obs.clone(), &mut self.rng)
    }

    fn policy_params(&self) -> Vec<f32> {
        self.srv.params()
    }

    fn set_policy_params(&mut self, flat: &[f32]) -> Result<()> {
        self.srv.sync_weights(flat)
    }
}

impl Drop for ActClient {
    fn drop(&mut self) {
        self.srv.depart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrl_algos::ppo::PpoActor;

    fn obs_block(rows: usize, dim: usize, salt: u64) -> Tensor {
        let data: Vec<f32> =
            (0..rows * dim).map(|i| ((i as u64 * 37 + salt * 101) as f32 * 0.013).sin()).collect();
        Tensor::from_vec(data, &[rows, dim]).unwrap()
    }

    /// The paper-level contract: batching across actors must be
    /// bit-identical to per-actor forwards — actions, log-probs and
    /// values — because matmul rows are independent and sampling uses
    /// the same per-client streams.
    #[test]
    fn batched_act_is_bit_identical_to_per_actor_path() {
        let policy = PpoPolicy::discrete(4, 3, &[16, 16], 21);
        let n = 3;
        let srv = ActServer::new(policy.clone(), n);
        let mut clients: Vec<ActClient> = (0..n).map(|i| srv.client(i, 500 + i as u64)).collect();
        let obs: Vec<Tensor> = (0..n).map(|i| obs_block(2, 4, i as u64)).collect();

        // Drive one round from three threads (the rendezvous needs all
        // clients), collecting each client's output.
        let outs: Vec<ActOutput> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&obs)
                .map(|(c, o)| s.spawn(move || c.act(o).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (i, out) in outs.iter().enumerate() {
            let mut solo = PpoActor::new(policy.clone(), 500 + i as u64);
            let expect = solo.act(&obs[i]).unwrap();
            assert_eq!(out.actions.data(), expect.actions.data(), "client {i} actions");
            assert_eq!(out.log_probs.data(), expect.log_probs.data(), "client {i} log-probs");
            assert_eq!(
                out.values.as_ref().unwrap().data(),
                expect.values.as_ref().unwrap().data(),
                "client {i} values"
            );
        }
    }

    /// Whether the packed panel snapshot holds the current weights.
    fn packed_weights(srv: &ActServer) -> bool {
        srv.state.lock().unwrap().snapshot.is_fresh()
    }

    /// Identical re-broadcasts must not repack; changed weights must.
    #[test]
    fn content_versioned_sync_packs_once() {
        let policy = PpoPolicy::discrete(4, 2, &[8], 3);
        let srv = ActServer::new(policy, 2);
        let mut a = srv.client(0, 1);
        let mut b = srv.client(1, 2);
        std::thread::scope(|s| {
            let o0 = obs_block(1, 4, 0);
            let o1 = obs_block(1, 4, 1);
            let h = s.spawn(move || b.act(&o1).map(|_| b));
            a.act(&o0).unwrap();
            b = h.join().unwrap().unwrap();
            assert!(packed_weights(&srv));
            let flat = a.policy_params();
            a.set_policy_params(&flat).unwrap();
            b.set_policy_params(&flat).unwrap();
            // (Not the process-wide `tensor.pack_b` counter: every sibling
            // test's backward pass packs `wᵀ` and moves it.)
            assert!(packed_weights(&srv), "identical syncs keep the panels");
            let mut changed = flat;
            changed[0] += 1.0;
            a.set_policy_params(&changed).unwrap();
            assert!(!packed_weights(&srv), "new weights stale the panels");
        });
    }

    /// A departing client (dropped handle) must not deadlock the
    /// remaining clients' rounds.
    #[test]
    fn departure_releases_the_rendezvous() {
        let policy = PpoPolicy::discrete(4, 2, &[8], 9);
        let srv = ActServer::new(policy, 2);
        let mut a = srv.client(0, 1);
        let b = srv.client(1, 2);
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                // Arrives first, then the other client departs instead
                // of submitting; this client must become leader of a
                // 1-client round.
                a.act(&obs_block(2, 4, 7)).unwrap()
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(b);
            let out = h.join().unwrap();
            assert_eq!(out.actions.shape(), &[2]);
        });
    }
}
