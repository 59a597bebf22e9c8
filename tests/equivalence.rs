//! Workspace integration tests: distribution must not change algorithm
//! semantics.
//!
//! The FDG abstraction's correctness contract is that partitioning,
//! replication and fusion change *where* computation runs, never *what*
//! it computes. These tests pin that contract across crates.

use msrl_core::api::Learner;
use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, run_dp_c, run_dp_f, DistPpoConfig};

fn dist(actors: usize, seed: u64, iterations: usize) -> DistPpoConfig {
    DistPpoConfig {
        actors,
        envs_per_actor: 2,
        steps_per_iter: 32,
        iterations,
        hidden: vec![16],
        seed,
        ..DistPpoConfig::default()
    }
}

/// With a single fragment replica, DP-A (trajectory exchange) and DP-F
/// (gradient push/pull) see the same rollouts and run mathematically
/// related updates; both must learn, and DP-A twice with the same seed
/// must be bit-identical (the runtime is deterministic).
#[test]
fn dp_a_is_deterministic_under_fixed_seed() {
    let make = |a: usize, i: usize| CartPole::new((a * 3 + i) as u64);
    let r1 = run_dp_a(make, &dist(2, 9, 6)).unwrap();
    let r2 = run_dp_a(make, &dist(2, 9, 6)).unwrap();
    assert_eq!(r1.final_params, r2.final_params, "bit-identical replay");
    assert_eq!(r1.iteration_rewards, r2.iteration_rewards);
}

/// DP-C with one replica degenerates to plain single-learner PPO: its
/// AllReduce averages one contribution, so training must match the
/// undistributed learner applying its own gradients.
#[test]
fn single_replica_dp_c_matches_local_learning() {
    use msrl_algos::ppo::{PpoActor, PpoLearner, PpoPolicy};
    use msrl_algos::rollout::collect;
    use msrl_core::api::Actor;
    use msrl_env::VecEnv;

    let d = dist(1, 11, 4);
    let distributed = run_dp_c(|a, i| CartPole::new((a * 3 + i) as u64), &d).unwrap();

    // Local re-enactment with identical seeds and schedule.
    let policy = PpoPolicy::discrete(4, 2, &d.hidden, d.seed);
    let mut actor = PpoActor::new(policy.clone(), d.seed + 1);
    let mut learner = PpoLearner::new(policy, d.ppo.clone());
    let mut envs = VecEnv::from_fn(2, |i| CartPole::new(i as u64));
    for _ in 0..d.iterations {
        let batch = collect(&mut actor, &mut envs, d.steps_per_iter).unwrap();
        for _ in 0..d.ppo.epochs {
            let g = learner.grads(&batch).unwrap();
            learner.apply_grads(&g).unwrap();
        }
        actor.set_policy_params(&learner.policy_params()).unwrap();
    }
    let local = learner.policy_params();
    assert_eq!(distributed.final_params.len(), local.len());
    for (a, b) in distributed.final_params.iter().zip(&local) {
        assert!((a - b).abs() < 1e-5, "distributed {a} vs local {b}");
    }
}

/// All drivers accept the same environment factory and the same
/// hyper-parameters — the "no algorithm change" property, typed.
#[test]
fn drivers_share_one_configuration_type() {
    let d = dist(2, 13, 3);
    let make = |a: usize, i: usize| CartPole::new((a + i) as u64);
    let a = run_dp_a(make, &d).unwrap();
    let c = run_dp_c(make, &d).unwrap();
    let f = run_dp_f(make, &d).unwrap();
    for r in [&a, &c, &f] {
        assert_eq!(r.iteration_rewards.len(), 3);
        assert!(!r.final_params.is_empty());
    }
    // Same seed ⇒ same initial policy across drivers: their first
    // iteration sees identical rollouts, so first-iteration rewards agree
    // for the policies that collect rollouts actor-side.
    assert_eq!(a.iteration_rewards[0], c.iteration_rewards[0]);
}

/// Golden runs: one small fixed configuration per distribution policy,
/// pinned bit for bit. The values were recorded from the seven
/// hand-written drivers that preceded the fragment runner; the runner
/// must reproduce every one of them.
///
/// `comm.msgs_sent`, `comm.bytes_sent`, `env.steps` and `tensor.pack_b`
/// are process-wide counters and the tests of this file run
/// concurrently, so the cases run in a child process of this test
/// binary (`golden_child`, filtered with `--exact`), one after another,
/// and print one line each.
mod golden {
    use msrl_algos::a3c::A3cConfig;
    use msrl_algos::ppo::PpoConfig;
    use msrl_env::batched::BatchedCartPole;
    use msrl_env::cartpole::CartPole;
    use msrl_env::halfcheetah::HalfCheetah;
    use msrl_env::mpe::SimpleSpread;
    use msrl_runtime::exec::{
        run_a3c, run_dp_a, run_dp_b, run_dp_c, run_dp_d, run_dp_e, run_dp_f, A3cDistConfig,
        DistPpoConfig, DpDConfig, DpEConfig, TrainingReport,
    };
    use msrl_telemetry::counter_total;
    use msrl_tensor::kernels;

    const CHILD_ENV: &str = "EQUIVALENCE_GOLDEN_CHILD";
    const COUNTERS: [&str; 4] = ["comm.msgs_sent", "comm.bytes_sent", "env.steps", "tensor.pack_b"];

    /// `case params rewards losses msgs bytes env_steps packs`, checksums
    /// in hex; `packs` counts `tensor.pack_b`, every weight panel packed
    /// for acting or learning. It was recorded while acting still kept
    /// its own panel cache and held, unchanged, when acting moved onto
    /// the learner's `ops::Panels`: one pack per weight per version.
    /// The `dp_e` row's params checksum and step count were re-recorded
    /// when the env worker began reporting the agents' shared weights and
    /// the MPE environments began counting their steps. `dp_f_stale` was
    /// added when DP-F's worker began taking DP-A's weight schedule. The
    /// two `dp_a` rows' bytes fell by 32 when the hub's replies lost
    /// their one-float version stamp (8 replies × 4 B). `dp_a_sync` ran
    /// through a cross-actor act server until it was deleted; the act
    /// server forced staleness 0 and forwarded bit for bit as each actor
    /// does, so the row kept its values. `dp_c_cheetah` is the one row
    /// with a Gaussian head: it was recorded while the PPO loss was still
    /// a composition of tape ops, held when the loss became one node, and
    /// its params checksum was re-recorded (from `ec2f18b13e4a42fe`) when
    /// acting's sampled actions and stored log-probabilities moved onto
    /// the learner's `fast_exp` standard deviation and log-density.
    /// Every row holds on every lane family the host runs.
    const PINNED: [&str; 10] = [
        "dp_a f24fe81df38fc20f 09d13124a175800d 135f03777098274d 24 20208 256 56",
        "dp_a_sync 4d0e6d802c2ca75e 09d13124a175800d e566de11611a2491 24 20208 256 64",
        "dp_b 86c7a20bbd7c0291 95f8b0fef68733ed 6d0190a80067c424 272 7448 256 48",
        "dp_c 5c37d20d61a913c8 48499eb4ccd12c25 cbf29ce484222325 32 27088 256 96",
        "dp_d cd2a4dd4d834c204 2174271dce75576b cbf29ce484222325 6 5064 9600 48",
        "dp_e cc8bb9bc5a68abdf 9dd402fa701a38d2 cbf29ce484222325 144 25200 60 48",
        "dp_f de2386011304c3f0 d5b267f92adcd405 cbf29ce484222325 12 6764 128 24",
        "a3c 513c333b2238c052 3624fd7a0381b465 cbf29ce484222325 15 8452 80 30",
        "dp_f_stale 42fe7e802d71182b d5b267f92adcd405 cbf29ce484222325 12 6764 128 24",
        "dp_c_cheetah 3824e8f23d07ee52 88201fb960ff6465 cbf29ce484222325 32 89760 256 96",
    ];

    /// Every field that decides how the seats synchronise is spelled
    /// out, so a change of `DistPpoConfig::default()` cannot move a row.
    fn dist(actors: usize, seed: u64) -> DistPpoConfig {
        DistPpoConfig {
            actors,
            envs_per_actor: 2,
            steps_per_iter: 16,
            iterations: 4,
            hidden: vec![16],
            ppo: PpoConfig::default(),
            seed,
            staleness: 1,
            link_latency: std::time::Duration::ZERO,
            ..DistPpoConfig::default()
        }
    }

    /// FNV-1a over the bit patterns.
    fn checksum(values: &[f32]) -> u64 {
        values.iter().flat_map(|v| v.to_bits().to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn line(case: &str, run: impl FnOnce() -> TrainingReport) -> String {
        let before = COUNTERS.map(counter_total);
        let r = run();
        let delta: Vec<u64> =
            COUNTERS.iter().zip(before).map(|(c, b)| counter_total(c) - b).collect();
        format!(
            "{case} {:016x} {:016x} {:016x} {} {} {} {}",
            checksum(&r.final_params),
            checksum(&r.iteration_rewards),
            checksum(&r.losses),
            delta[0],
            delta[1],
            delta[2],
            delta[3]
        )
    }

    fn lines() -> Vec<String> {
        let cart = |a: usize, i: usize| CartPole::new((a * 5 + i) as u64);
        let ppo = PpoConfig { epochs: 2, ..PpoConfig::default() };
        vec![
            line("dp_a", || run_dp_a(cart, &dist(2, 21)).unwrap()),
            line("dp_a_sync", || {
                run_dp_a(cart, &DistPpoConfig { staleness: 0, ..dist(2, 21) }).unwrap()
            }),
            line("dp_b", || run_dp_b(cart, &dist(2, 22)).unwrap()),
            line("dp_c", || run_dp_c(cart, &dist(2, 23)).unwrap()),
            line("dp_d", || {
                let cfg = DpDConfig {
                    devices: 2,
                    episodes: 3,
                    hidden: vec![16],
                    ppo: ppo.clone(),
                    seed: 24,
                    ..DpDConfig::default()
                };
                run_dp_d(|r| BatchedCartPole::new(8, 40 + r as u64), &cfg).unwrap()
            }),
            line("dp_e", || {
                let cfg = DpEConfig {
                    episodes: 3,
                    hidden: vec![16],
                    ppo: ppo.clone(),
                    seed: 25,
                    ..DpEConfig::default()
                };
                run_dp_e(|| SimpleSpread::new(2, 25).with_horizon(10), &cfg).unwrap()
            }),
            // One worker, blocking pulls: with more workers the server's
            // arrival order decides the result.
            line("dp_f", || {
                run_dp_f(cart, &DistPpoConfig { staleness: 0, ..dist(1, 26) }).unwrap()
            }),
            line("a3c", || {
                let cfg = A3cDistConfig {
                    workers: 1,
                    rollout_steps: 16,
                    pushes_per_worker: 5,
                    hidden: vec![16],
                    a3c: A3cConfig::default(),
                    seed: 27,
                    ..A3cDistConfig::default()
                };
                run_a3c(|w| CartPole::new(50 + w as u64), &cfg).unwrap()
            }),
            // DP-F's one worker with a pull outstanding: it takes the
            // reply to round `i − 2`'s push at round `i`, never whichever
            // has landed.
            line("dp_f_stale", || run_dp_f(cart, &dist(1, 26)).unwrap()),
            line("dp_c_cheetah", || {
                let cheetah =
                    |a: usize, i: usize| HalfCheetah::new((60 + a * 5 + i) as u64).with_horizon(24);
                run_dp_c(cheetah, &dist(2, 28)).unwrap()
            }),
        ]
    }

    /// The body of the child process, a no-op in an ordinary run. The
    /// variable names the lane family the whole run is pinned to
    /// (`Avx512`, `Avx2`, `Portable`); any other value runs on the one
    /// `kernels::select` detects.
    #[test]
    fn golden_child() {
        let Some(family) = std::env::var_os(CHILD_ENV) else { return };
        let named = kernels::families().into_iter().find(|f| *format!("{f:?}") == *family);
        if let Some(family) = named {
            assert!(kernels::pin(family), "{family:?}: a kernel ran before the pin");
        }
        for l in lines() {
            println!("GOLDEN {l}");
        }
    }

    /// Each row on every lane family this host runs, one child process a
    /// family (a process selects its family once): a kernel or lane body
    /// whose bits depend on the family's width fails here.
    #[test]
    fn every_policy_reproduces_its_pinned_run() {
        for family in kernels::families() {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", "golden::golden_child", "--nocapture", "--test-threads=1"])
                .env(CHILD_ENV, format!("{family:?}"))
                .output()
                .expect("the test binary re-executes");
            assert!(out.status.success(), "{family:?}: {}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let got: Vec<&str> =
                stdout.lines().filter_map(|l| Some(l.split_once("GOLDEN ")?.1)).collect();
            assert_eq!(
                got, PINNED,
                "on {family:?}: a distribution policy no longer computes what it did"
            );
        }
    }
}

/// A fragment that fails must not park its healthy peers: every seat's
/// endpoint closes when its body returns, so whoever is blocked on it
/// comes back with `Disconnected` and the run ends in a typed error.
/// Each case has one healthy and one failing worker (rank 1's
/// observations are a column wider than the policy was built for) and
/// runs on a helper thread so that a hang fails the test instead of
/// hanging it.
mod no_park {
    use std::sync::mpsc;
    use std::time::Duration;

    use msrl_comm::CommError;
    use msrl_core::FdgError;
    use msrl_env::cartpole::CartPole;
    use msrl_env::{Action, ActionSpec, Environment};
    use msrl_runtime::exec::{
        run_dp_a, run_dp_b, run_dp_c, run_dp_f, DistPpoConfig, TrainingReport,
    };

    /// CartPole, its observations zero-padded by one column when `wide`.
    struct Padded {
        wide: bool,
        inner: CartPole,
    }

    impl Environment for Padded {
        fn obs_dim(&self) -> usize {
            self.inner.obs_dim() + usize::from(self.wide)
        }
        fn action_spec(&self) -> ActionSpec {
            self.inner.action_spec()
        }
        fn reset_into(&mut self, obs: &mut [f32]) {
            let (inner, pad) = obs.split_at_mut(self.inner.obs_dim());
            pad.fill(0.0);
            self.inner.reset_into(inner);
        }
        fn step_into(&mut self, action: &Action, obs: &mut [f32]) -> (f32, bool) {
            let (inner, pad) = obs.split_at_mut(self.inner.obs_dim());
            pad.fill(0.0);
            self.inner.step_into(action, inner)
        }
    }

    #[test]
    fn padded_steps_in_place_as_its_wrappers_do() {
        for wide in [false, true] {
            let make = |i: usize| Padded { wide, inner: CartPole::new(i as u64).with_horizon(6) };
            msrl_env::conformance::assert_in_place_matches_wrappers(make, 3, 20);
        }
    }

    fn make_env(rank: usize, i: usize) -> Padded {
        Padded { wide: rank == 1, inner: CartPole::new(i as u64) }
    }

    fn dist() -> DistPpoConfig {
        DistPpoConfig {
            actors: 2,
            envs_per_actor: 1,
            steps_per_iter: 8,
            iterations: 3,
            hidden: vec![8],
            seed: 31,
            ..DistPpoConfig::default()
        }
    }

    /// The run's error, provided it arrives within two seconds and
    /// leaves no thread behind.
    fn error_of(
        run: impl FnOnce() -> msrl_core::Result<TrainingReport> + Send + 'static,
    ) -> FdgError {
        // A driver error leaves a flight-recorder dump; keep it out of
        // the source tree.
        msrl_telemetry::flightrec::set_dump_dir(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/flightrec-tests"
        ));
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || tx.send(run()));
        let outcome = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("a failed fragment parked its healthy peers");
        helper.join().expect("the helper thread ends with the run").expect("the test is listening");
        outcome.expect_err("one fragment cannot run")
    }

    #[test]
    fn dp_a_failed_actor_does_not_park_its_peer() {
        let err = error_of(|| run_dp_a(make_env, &dist()));
        assert_eq!(err, FdgError::Comm(CommError::Disconnected), "the learner's error comes first");
    }

    #[test]
    fn dp_b_failed_learner_does_not_park_its_actors() {
        let err = error_of(|| run_dp_b(make_env, &dist()));
        assert!(matches!(err, FdgError::Tensor(_)), "the hub's own error, got {err:?}");
    }

    #[test]
    fn dp_c_failed_replica_does_not_park_its_peer() {
        let err = error_of(|| run_dp_c(make_env, &dist()));
        assert_eq!(err, FdgError::Comm(CommError::Disconnected), "rank 0's error comes first");
    }

    #[test]
    fn dp_f_failed_worker_does_not_park_its_peer() {
        let err = error_of(|| run_dp_f(make_env, &dist()));
        assert_eq!(err, FdgError::Comm(CommError::Disconnected), "the server's error comes first");
    }
}

/// The rule table speaks `policy::place`'s vocabulary: every built-in
/// policy resolves to a row whose seats are exactly the roles its
/// placement contains and whose granularity is the placement's, and a
/// policy without a row is a typed error, not a panic.
#[test]
fn every_built_in_policy_runs_the_roles_its_placement_has() {
    use std::collections::HashSet;

    use msrl_core::config::{AlgorithmConfig, DeploymentConfig, PolicyName};
    use msrl_core::FdgError;
    use msrl_runtime::exec::{rule_for, run_ppo};
    use msrl_runtime::policy::{place, Role};

    let algo = AlgorithmConfig::ppo(2, 2);
    for policy in [
        PolicyName::SingleLearnerCoarse,
        PolicyName::SingleLearnerFine,
        PolicyName::MultipleLearners,
        PolicyName::GpuOnly,
        PolicyName::Environments,
        PolicyName::Central,
    ] {
        let placement = place(&algo, &DeploymentConfig::workers(4, 2, policy.clone())).unwrap();
        let placed: HashSet<Role> = placement.fragments.iter().map(|f| f.role).collect();
        let rule = rule_for(&policy).unwrap();
        let seats: HashSet<Role> =
            std::iter::once(rule.worker.role).chain(rule.hub.map(|hub| hub.role)).collect();
        assert_eq!(seats, placed, "{}", policy.code());
        assert_eq!(rule.sync, placement.sync, "{}", policy.code());
    }

    let make = |a: usize, i: usize| CartPole::new((a + i) as u64);
    let no_rule = |policy: &str| FdgError::NoSyncRule { policy: policy.into() };
    let custom = PolicyName::Custom("mine".into());
    assert_eq!(rule_for(&custom), Err(no_rule("mine")));
    assert_eq!(run_ppo(&custom, make, &dist(1, 1, 1)).unwrap_err(), no_rule("mine"));
    // DP-D and DP-E have rows, but not behind this entry point: their
    // environments are batched and multi-agent.
    assert_eq!(run_ppo(&PolicyName::GpuOnly, make, &dist(1, 1, 1)).unwrap_err(), no_rule("DP-D"));
}
