//! Workspace integration tests: the execution context is scoped to the
//! calling thread and inherited by a driver's fragment threads — two
//! claims that only mean something with several threads in flight.

use std::sync::{Barrier, Mutex};

use msrl_env::cartpole::CartPole;
use msrl_runtime::exec::{run_dp_a, DistPpoConfig};
use msrl_tensor::par::{self, Backend};

fn dist(actors: usize, seed: u64) -> DistPpoConfig {
    DistPpoConfig {
        actors,
        envs_per_actor: 2,
        steps_per_iter: 32,
        iterations: 6,
        hidden: vec![16],
        seed,
        ..DistPpoConfig::default()
    }
}

/// Two drivers at once, each under its own `with_backend`/`with_fusion`
/// scope: every actor fragment sees the context of the thread that
/// called *its* driver (inheritance through `spawn_fragment`), never the
/// sibling's and never the process default (threaded, fused).
#[test]
fn concurrent_drivers_each_see_their_own_context_in_their_fragments() {
    let both_scoped = Barrier::new(2);
    let observe = |backend: Backend, fusion: bool| {
        let seen = Mutex::new(Vec::new());
        par::with_backend(backend, || {
            par::with_fusion(fusion, || {
                // The run's `fusion` defaults to the scope's.
                let cfg = dist(2, 32);
                // Both scopes are open before either driver starts and
                // stay open until both have finished.
                both_scoped.wait();
                run_dp_a(
                    |a, i| {
                        let ctx = (par::backend(), par::fusion_enabled());
                        seen.lock().expect("no panics").push(ctx);
                        CartPole::new((a * 5 + i) as u64)
                    },
                    &cfg,
                )
                .expect("dp_a runs");
                both_scoped.wait();
            })
        });
        seen.into_inner().expect("no panics")
    };
    let (scalar, unfused) = std::thread::scope(|s| {
        let a = s.spawn(|| observe(Backend::Scalar, true));
        let b = s.spawn(|| observe(Backend::Threaded, false));
        (a.join().expect("driver thread"), b.join().expect("driver thread"))
    });
    // The probe env on the driver thread plus 2 actors × 2 envs on
    // fragment threads.
    assert_eq!(scalar, vec![(Backend::Scalar, true); 5]);
    assert_eq!(unfused, vec![(Backend::Threaded, false); 5]);
}
