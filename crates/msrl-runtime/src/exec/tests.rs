#[cfg(test)]
mod dp_a {
    mod tests {
        use super::super::*;
        use msrl_env::cartpole::CartPole;

        #[test]
        fn dp_a_trains_cartpole_distributed() {
            // lr raised from the 3e-4 default so the improvement margin is
            // robust under the default overlapped (staleness-1) weight
            // sync.
            let dist = DistPpoConfig {
                actors: 3,
                envs_per_actor: 2,
                steps_per_iter: 64,
                iterations: 25,
                hidden: vec![32],
                seed: 1,
                ppo: msrl_algos::ppo::PpoConfig {
                    lr: 2e-3,
                    ..msrl_algos::ppo::PpoConfig::default()
                },
                ..DistPpoConfig::default()
            };
            let report = run_dp_a(|a, i| CartPole::new((a * 100 + i) as u64), &dist).unwrap();
            assert_eq!(report.iteration_rewards.len(), 25);
            assert_eq!(report.losses.len(), 25);
            assert!(!report.final_params.is_empty());
            assert!(
                report.recent_reward(5) > report.early_reward(5),
                "distributed PPO must improve: {:?} → {:?}",
                report.early_reward(5),
                report.recent_reward(5)
            );
        }

        /// An actor fragment that dies drops its endpoint; the learner
        /// blocked on it must come back with the typed comm error, not a
        /// `MissingKernel` string.
        /// CartPole that claims `dim` observation columns.
        struct Claims(usize, CartPole);

        impl Environment for Claims {
            fn obs_dim(&self) -> usize {
                self.0
            }
            fn action_spec(&self) -> msrl_env::ActionSpec {
                self.1.action_spec()
            }
            fn reset_into(&mut self, obs: &mut [f32]) {
                self.1.reset_into(obs)
            }
            fn step_into(&mut self, action: &msrl_env::Action, obs: &mut [f32]) -> (f32, bool) {
                self.1.step_into(action, obs)
            }
        }

        #[test]
        fn claims_steps_in_place_as_its_wrappers_do() {
            let make = |i: usize| Claims(4, CartPole::new(i as u64).with_horizon(6));
            msrl_env::conformance::assert_in_place_matches_wrappers(make, 3, 20);
        }

        #[test]
        fn a_dropped_peer_surfaces_as_a_comm_error() {
            // A driver error leaves a flight-recorder dump; keep it out of
            // the source tree.
            msrl_telemetry::flightrec::set_dump_dir(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../target/flightrec-tests"
            ));
            // The probe (first call) sizes the policy for 5 columns; the
            // actor's real envs have 4, so its first forward is a shape
            // error and the fragment returns early.
            let calls = std::sync::atomic::AtomicUsize::new(0);
            let make_env = |_: usize, i: usize| {
                let probe = calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0;
                Claims(if probe { 5 } else { 4 }, CartPole::new(i as u64))
            };
            let dist = DistPpoConfig {
                actors: 1,
                envs_per_actor: 1,
                steps_per_iter: 4,
                iterations: 1,
                hidden: vec![4],
                ..DistPpoConfig::default()
            };
            let err = run_dp_a(make_env, &dist).expect_err("the learner's peer is gone");
            assert_eq!(err, msrl_core::FdgError::Comm(msrl_comm::CommError::Disconnected));
        }

        #[test]
        fn dp_a_single_actor_matches_shape() {
            let dist = DistPpoConfig {
                actors: 1,
                envs_per_actor: 2,
                steps_per_iter: 16,
                iterations: 3,
                hidden: vec![8],
                seed: 2,
                ..DistPpoConfig::default()
            };
            let report = run_dp_a(|a, i| CartPole::new((a + i) as u64), &dist).unwrap();
            assert_eq!(report.iteration_rewards.len(), 3);
        }
    }
}

#[cfg(test)]
mod dp_b {
    mod tests {
        use super::super::*;
        use msrl_algos::buffer::{step_batch, TrajectoryBuffer};
        use msrl_core::api::{Learner, SampleBatch};
        use msrl_env::cartpole::CartPole;
        use msrl_env::pendulum::Pendulum;
        use msrl_tensor::{ops, Tensor};

        use super::super::runner::{learn, rollout, Frame};

        /// The DP-B learner seat as it was before the critic and the
        /// recording moved into the shadow of the actors' env step: act
        /// with both heads on the plain modules, send, then wait for the
        /// feedback and record the step, one step at a time.
        fn act_then_record_learner(f: &mut Frame, dist: &DistPpoConfig, obs_dim: usize) -> Result<()> {
            let (p, n) = (f.workers, dist.envs_per_actor.max(1));
            let mut learner = PpoLearner::new(f.policy.clone(), dist.ppo.clone());
            let mut rng = msrl_tensor::init::rng(dist.seed + 17);
            for _ in 0..dist.iterations {
                let mut buffers: Vec<TrajectoryBuffer> =
                    (0..p).map(|_| TrajectoryBuffer::new()).collect();
                rollout(|| -> Result<()> {
                    let mut per_actor_obs = Vec::with_capacity(p);
                    for rank in 0..p {
                        per_actor_obs.push(Tensor::from_vec(f.ep.recv(rank)?, &[n, obs_dim])?);
                    }
                    for _ in 0..dist.steps_per_iter {
                        let stacked = if p == 1 {
                            per_actor_obs.pop().expect("one actor, one observation block")
                        } else {
                            let refs: Vec<&Tensor> = per_actor_obs.iter().collect();
                            ops::concat(&refs, 0)?
                        };
                        per_actor_obs.clear();
                        let out = learner.policy.act(&stacked, &mut rng)?;
                        let values = out.values.expect("PPO policy has a critic");
                        let per = out.actions.len() / p;
                        for (rank, block) in out.actions.data().chunks(per).enumerate() {
                            f.ep.send(rank, block.to_vec())?;
                        }
                        let mut stacked_rows = [stacked, out.actions, out.log_probs, values]
                            .map(|t| rules::actor_rows(t, p, n).into_iter());
                        for (rank, buffer) in buffers.iter_mut().enumerate() {
                            let fb = f.ep.recv(rank)?;
                            let rewards = Tensor::from_vec(fb[..n].to_vec(), &[n])?;
                            let dones: Vec<bool> = fb[n..2 * n].iter().map(|&d| d > 0.5).collect();
                            let next_obs = Tensor::from_vec(fb[2 * n..].to_vec(), &[n, obs_dim])?;
                            per_actor_obs.push(next_obs.clone());
                            let [obs, actions, log_probs, values] = stacked_rows
                                .each_mut()
                                .map(|rows| rows.next().expect("a block per actor"));
                            buffer.insert(step_batch(
                                obs, actions, rewards, next_obs, dones, log_probs, values,
                            ));
                        }
                    }
                    Ok(())
                })?;
                let mut batches = Vec::with_capacity(p);
                for buffer in &mut buffers {
                    batches.push(buffer.drain_env_major()?);
                }
                let batch = SampleBatch::concat(&batches)?;
                let loss = learn(|| learner.learn(&batch))?;
                let mut finished = Vec::new();
                for rank in 0..p {
                    finished.extend(f.ep.recv(rank)?);
                }
                f.report.losses.push(loss);
                f.close_finished(&finished, Some(&learner))?;
            }
            f.report.final_params = learner.policy_params();
            Ok(())
        }

        /// `run_dp_b`, with the learner seat's body replaced by the
        /// act-then-record reference.
        fn reference_run<E, F>(make_env: F, dist: &DistPpoConfig) -> TrainingReport
        where
            E: Environment + 'static,
            F: Fn(usize, usize) -> E + Send + Sync,
        {
            let probe = make_env(0, 0);
            let (obs_dim, spec) = (probe.obs_dim(), probe.action_spec());
            let p = dist.actors.max(1);
            let setup = Setup::new(p, obs_dim, spec, &dist.hidden, dist.seed);
            let envs = |w: usize| VecEnv::from_fn(dist.envs_per_actor.max(1), |i| make_env(w, i));
            run(
                &DP_B,
                &setup,
                |f| rules::step_actor(f, envs(f.rank), dist),
                |f| act_then_record_learner(f, dist, obs_dim),
            )
            .unwrap()
        }

        /// The shipped DP-B round trip (a packed acting snapshot, the
        /// critic and the recording in the shadow of the env step) trains
        /// exactly what acting, valuing and recording one step at a time
        /// trains: `p` actors × `n` environments each, CartPole and one
        /// continuous case, weights, rewards and losses bit for bit.
        #[test]
        fn shadowed_round_trip_is_the_act_then_record_loop_bit_for_bit() {
            let cart = |a: usize, i: usize| CartPole::new((a * 17 + i) as u64).with_horizon(20);
            for (p, n) in [1, 2, 3].into_iter().flat_map(|p| [1, 3, 16].map(|n| (p, n))) {
                let dist = DistPpoConfig {
                    actors: p,
                    envs_per_actor: n,
                    steps_per_iter: 24,
                    iterations: 3,
                    hidden: vec![16, 16],
                    seed: 40 + (p * n) as u64,
                    ..DistPpoConfig::default()
                };
                let shipped = run_dp_b(cart, &dist).unwrap();
                let reference = reference_run(cart, &dist);
                let what = format!("{p} actors x {n} envs");
                assert_eq!(bits(&shipped.final_params), bits(&reference.final_params), "{what}");
                assert_eq!(bits(&shipped.iteration_rewards), bits(&reference.iteration_rewards));
                assert_eq!(bits(&shipped.losses), bits(&reference.losses), "{what}");
            }
            let dist = DistPpoConfig {
                actors: 2,
                envs_per_actor: 3,
                steps_per_iter: 24,
                iterations: 3,
                hidden: vec![16],
                seed: 49,
                ..DistPpoConfig::default()
            };
            let pendulum = |a: usize, i: usize| Pendulum::new((a * 5 + i) as u64);
            let shipped = run_dp_b(pendulum, &dist).unwrap();
            let reference = reference_run(pendulum, &dist);
            assert_eq!(bits(&shipped.final_params), bits(&reference.final_params), "pendulum");
            assert_eq!(bits(&shipped.losses), bits(&reference.losses), "pendulum");
        }

        fn bits(values: &[f32]) -> Vec<u32> {
            values.iter().map(|v| v.to_bits()).collect()
        }

        #[test]
        fn dp_b_trains_cartpole_with_central_inference() {
            let dist = DistPpoConfig {
                actors: 2,
                envs_per_actor: 2,
                steps_per_iter: 48,
                iterations: 25,
                hidden: vec![32],
                seed: 3,
                ..DistPpoConfig::default()
            };
            let report = run_dp_b(|a, i| CartPole::new((a * 7 + i) as u64), &dist).unwrap();
            assert_eq!(report.iteration_rewards.len(), 25);
            assert!(
                report.recent_reward(5) > report.early_reward(5),
                "DP-B must improve: {} → {}",
                report.early_reward(5),
                report.recent_reward(5)
            );
        }
    }
}

#[cfg(test)]
mod dp_c {
    mod tests {
        use super::super::*;
        use msrl_env::cartpole::CartPole;

        #[test]
        fn dp_c_trains_cartpole_data_parallel() {
            let dist = DistPpoConfig {
                actors: 3,
                envs_per_actor: 2,
                steps_per_iter: 48,
                iterations: 25,
                hidden: vec![32],
                seed: 5,
                ..DistPpoConfig::default()
            };
            let report = run_dp_c(|a, i| CartPole::new((a * 31 + i) as u64), &dist).unwrap();
            assert_eq!(report.iteration_rewards.len(), 25);
            assert!(
                report.recent_reward(5) > report.early_reward(5),
                "DP-C must improve: {} → {}",
                report.early_reward(5),
                report.recent_reward(5)
            );
        }

        #[test]
        fn dp_c_replicas_stay_synchronised() {
            // With identical initial weights and averaged gradients, all
            // replicas end with the same policy. The runner compares the
            // replicas' `final_params` bit for bit in debug builds (this
            // one) for every hub-less rule, so a run that comes back `Ok`
            // has passed the check.
            let dist = DistPpoConfig {
                actors: 2,
                envs_per_actor: 1,
                steps_per_iter: 16,
                iterations: 2,
                hidden: vec![8],
                seed: 6,
                ..DistPpoConfig::default()
            };
            let report = run_dp_c(|a, i| CartPole::new((a + i) as u64), &dist).unwrap();
            assert!(report.final_params.iter().all(|v| v.is_finite()));
            // Three replicas (an odd mean), more iterations.
            let dist = DistPpoConfig { actors: 3, iterations: 5, ..dist };
            let report = run_dp_c(|a, i| CartPole::new((a + i) as u64), &dist).unwrap();
            assert!(report.final_params.iter().all(|v| v.is_finite()));
            // The weight all-reduce goes through the same check.
            let cfg = DpDConfig {
                devices: 2,
                episodes: 3,
                hidden: vec![8],
                ppo: dist.ppo.clone(),
                seed: 6,
                ..DpDConfig::default()
            };
            let make = |r: usize| msrl_env::batched::BatchedCartPole::new(4, r as u64);
            let report = run_dp_d(make, &cfg).unwrap();
            assert!(report.final_params.iter().all(|v| v.is_finite()));
        }

        #[test]
        fn an_iteration_with_no_epoch_still_reports_its_returns() {
            // With no epoch there is no gradient to reduce: the returns
            // travel on one all-reduce of nothing, the weights never move
            // and every iteration still reports the episodes it finished.
            let dist = DistPpoConfig {
                actors: 2,
                envs_per_actor: 2,
                steps_per_iter: 64,
                iterations: 3,
                hidden: vec![8],
                seed: 4,
                ppo: msrl_algos::ppo::PpoConfig {
                    epochs: 0,
                    ..msrl_algos::ppo::PpoConfig::default()
                },
                ..DistPpoConfig::default()
            };
            let report = run_dp_c(|a, i| CartPole::new((a * 5 + i) as u64), &dist).unwrap();
            let start = msrl_algos::ppo::PpoPolicy::discrete(4, 2, &dist.hidden, dist.seed);
            assert_eq!(report.final_params, start.flatten(), "no epoch, no update");
            assert_eq!(report.iteration_rewards.len(), 3);
            // A random CartPole policy ends an episode within ~20 steps,
            // so both replicas' returns reach every iteration's report.
            assert!(report.iteration_rewards.iter().all(|&r| r > 0.0), "{report:?}");
        }

        #[test]
        fn a_run_reads_only_its_own_learner() {
            // Another learner in the process trains on NaN rewards the
            // whole time; the run's health pass must not see it.
            use msrl_algos::ppo::{PpoActor, PpoConfig, PpoLearner, PpoPolicy};
            use msrl_core::api::Learner;
            use msrl_tensor::Tensor;
            use std::sync::atomic::{AtomicBool, Ordering};
            let policy = PpoPolicy::discrete(4, 2, &[8], 1);
            let mut actor = PpoActor::new(policy.clone(), 2);
            let mut envs = VecEnv::from_fn(1, |i| CartPole::new(i as u64));
            let mut batch = msrl_algos::rollout::collect(&mut actor, &mut envs, 32).unwrap();
            batch.rewards = Tensor::full(&[32], f32::NAN);
            let (stop, poisoned) = (AtomicBool::new(false), AtomicBool::new(false));
            let dist = DistPpoConfig {
                actors: 2,
                iterations: 20,
                hidden: vec![8],
                seed: 9,
                ..DistPpoConfig::default()
            };
            let result = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut learner = PpoLearner::new(policy, PpoConfig::default());
                    while !stop.load(Ordering::Relaxed) {
                        learner.learn(&batch).unwrap();
                        poisoned.store(true, Ordering::Release);
                    }
                    assert!(learner.signals().grad_norm.is_some_and(f32::is_nan));
                });
                while !poisoned.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let result = run_dp_c(|a, i| CartPole::new((a * 7 + i) as u64), &dist);
                stop.store(true, Ordering::Relaxed);
                result
            });
            assert_eq!(result.unwrap().iteration_rewards.len(), 20);
        }
    }
}

#[cfg(test)]
mod dp_d {
    mod tests {
        use super::super::*;
        use msrl_algos::ppo::PpoConfig;
        use msrl_env::batched::{BatchedCartPole, BatchedTag};

        #[test]
        fn dp_d_runs_fused_cartpole_loop() {
            let cfg = DpDConfig {
                devices: 2,
                episodes: 8,
                hidden: vec![16],
                ppo: PpoConfig { lr: 1e-3, epochs: 2, ..PpoConfig::default() },
                seed: 7,
                ..DpDConfig::default()
            };
            let report = run_dp_d(|r| BatchedCartPole::new(16, r as u64), &cfg).unwrap();
            assert_eq!(report.iteration_rewards.len(), 8);
            assert!(report.final_params.iter().all(|v| v.is_finite()));
        }

        #[test]
        fn dp_d_runs_batched_tag() {
            let cfg = DpDConfig {
                devices: 1,
                episodes: 4,
                hidden: vec![16],
                ppo: PpoConfig { epochs: 1, ..PpoConfig::default() },
                seed: 8,
                ..DpDConfig::default()
            };
            let report = run_dp_d(|r| BatchedTag::new(8, 3, 1, r as u64), &cfg).unwrap();
            assert_eq!(report.iteration_rewards.len(), 4);
        }
    }
}

#[cfg(test)]
mod dp_e {
    mod tests {
        use super::super::*;
        use msrl_algos::ppo::PpoConfig;
        use msrl_env::mpe::SimpleSpread;

        #[test]
        fn dp_e_runs_mappo_with_env_worker() {
            let cfg = DpEConfig {
                episodes: 20,
                hidden: vec![32],
                ppo: PpoConfig { lr: 7e-4, epochs: 4, entropy_coef: 0.005, ..PpoConfig::default() },
                seed: 9,
                ..DpEConfig::default()
            };
            let report = run_dp_e(|| SimpleSpread::new(3, 5).with_horizon(20), &cfg).unwrap();
            assert_eq!(report.iteration_rewards.len(), 20);
            assert!(report.iteration_rewards.iter().all(|r| r.is_finite()));
        }
    }
}

#[cfg(test)]
mod dp_f {
    mod tests {
        use super::super::*;
        use msrl_env::cartpole::CartPole;

        #[test]
        fn dp_f_trains_cartpole_through_parameter_server() {
            // Overlapped pulls make the server's update order (and thus the
            // reward curve) timing-dependent, so the workload must learn
            // decisively: a higher learning rate keeps the improvement check
            // robust across schedules.
            let dist = DistPpoConfig {
                actors: 3,
                envs_per_actor: 2,
                steps_per_iter: 48,
                iterations: 25,
                hidden: vec![32],
                seed: 10,
                ppo: msrl_algos::ppo::PpoConfig { lr: 2e-3, ..Default::default() },
                ..DistPpoConfig::default()
            };
            let report = run_dp_f(|a, i| CartPole::new((a * 13 + i) as u64), &dist).unwrap();
            assert_eq!(report.iteration_rewards.len(), 25);
            assert!(
                report.recent_reward(5) > report.early_reward(5),
                "DP-F must improve: {} → {}",
                report.early_reward(5),
                report.recent_reward(5)
            );
        }
    }
}

#[cfg(test)]
mod a3c {
    mod tests {
        use super::super::*;
        use msrl_algos::a3c::A3cConfig;
        use msrl_env::cartpole::CartPole;

        #[test]
        fn async_a3c_trains_cartpole() {
            // Gradient arrival order is scheduler-dependent (the asynchrony
            // under test), so any single seed is noisy; the learning signal
            // must show up within a few.
            let mut improved = false;
            for seed in [1, 2, 3] {
                let dist = A3cDistConfig {
                    workers: 3,
                    rollout_steps: 32,
                    pushes_per_worker: 40,
                    hidden: vec![32],
                    a3c: A3cConfig { lr: 2e-3, ..A3cConfig::default() },
                    seed,
                    ..A3cDistConfig::default()
                };
                let report = run_a3c(|w| CartPole::new(seed + w as u64), &dist).unwrap();
                assert_eq!(report.iteration_rewards.len(), 3 * 40);
                if report.recent_reward(20) > report.early_reward(20) {
                    improved = true;
                    break;
                }
            }
            assert!(improved, "async A3C must improve on at least one of three seeds");
        }

        #[test]
        fn async_updates_apply_every_push() {
            let dist = A3cDistConfig {
                workers: 2,
                rollout_steps: 8,
                pushes_per_worker: 3,
                hidden: vec![8],
                seed: 18,
                ..A3cDistConfig::default()
            };
            let report = run_a3c(|w| CartPole::new(10 + w as u64), &dist).unwrap();
            assert_eq!(report.iteration_rewards.len(), 6, "one entry per applied push");
            assert!(!report.final_params.is_empty());
        }
    }
}
