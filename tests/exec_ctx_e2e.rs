//! Workspace integration tests: the backend is scoped to the calling
//! thread and inherited by a driver's fragment threads — two claims that
//! only mean something with several threads in flight.

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

/// Two drivers at once, each under its own `with_backend` scope: every
/// actor fragment sees the backend of the thread that called *its*
/// driver (inheritance through `spawn_fragment`), never the sibling's
/// and never the process default.
#[test]
fn concurrent_drivers_each_see_their_own_context_in_their_fragments() {
    let both_scoped = Barrier::new(2);
    let observe = |backend: Backend| {
        let seen = Mutex::new(Vec::new());
        par::with_backend(backend, || {
            let cfg = dist(2, 32);
            // Both scopes are open before either driver starts and stay
            // open until both have finished.
            both_scoped.wait();
            run_dp_a(
                |a, i| {
                    seen.lock().expect("no panics").push(par::backend());
                    CartPole::new((a * 5 + i) as u64)
                },
                &cfg,
            )
            .expect("dp_a runs");
            both_scoped.wait();
        });
        seen.into_inner().expect("no panics")
    };
    let (scalar, threaded) = std::thread::scope(|s| {
        let a = s.spawn(|| observe(Backend::Scalar));
        let b = s.spawn(|| observe(Backend::Threaded));
        (a.join().expect("driver thread"), b.join().expect("driver thread"))
    });
    // The probe env on the driver thread plus 2 actors × 2 envs on
    // fragment threads.
    assert_eq!(scalar, vec![Backend::Scalar; 5]);
    assert_eq!(threaded, vec![Backend::Threaded; 5]);
}
