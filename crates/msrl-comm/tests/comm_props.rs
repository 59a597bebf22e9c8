//! Property-based tests for the communication substrate.

use std::thread;

use msrl_comm::model::{LinkModel, NetworkModel};
use msrl_comm::{DeviceId, Fabric};
use proptest::prelude::*;

proptest! {
    /// AllReduce-mean equals the arithmetic mean of the contributions for
    /// any payloads (all ranks agree on the result).
    #[test]
    fn all_reduce_mean_is_the_mean(
        payload_a in proptest::collection::vec(-10.0f32..10.0, 5),
        payload_b in proptest::collection::vec(-10.0f32..10.0, 5),
        payload_c in proptest::collection::vec(-10.0f32..10.0, 5),
    ) {
        let payloads = [payload_a, payload_b, payload_c];
        let expect: Vec<f32> = (0..5)
            .map(|i| payloads.iter().map(|p| p[i]).sum::<f32>() / 3.0)
            .collect();
        let eps = Fabric::new(3);
        let handles: Vec<_> = eps
            .into_iter()
            .zip(payloads)
            .map(|(mut ep, p)| thread::spawn(move || ep.all_reduce_mean(p).unwrap()))
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g - e).abs() < 1e-4);
            }
        }
    }

    /// AllGather preserves rank order and payload contents for ragged
    /// payload sizes.
    #[test]
    fn all_gather_preserves_order_and_content(sizes in proptest::collection::vec(0usize..6, 4)) {
        let eps = Fabric::new(4);
        let sizes2 = sizes.clone();
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(rank, mut ep)| {
                let mine = vec![rank as f32; sizes2[rank]];
                thread::spawn(move || ep.all_gather(mine).unwrap())
            })
            .collect();
        for h in handles {
            let parts = h.join().unwrap();
            for (rank, part) in parts.iter().enumerate() {
                prop_assert_eq!(part.len(), sizes[rank]);
                prop_assert!(part.iter().all(|&v| v == rank as f32));
            }
        }
    }

    /// α–β transfer time is monotone in bytes and additive in latency.
    #[test]
    fn link_model_monotone(bytes in 0u64..1_000_000, extra in 0.0f64..0.01) {
        let base = LinkModel::ethernet_10g();
        let slower = LinkModel::new(base.latency_s + extra, base.bandwidth_bps);
        prop_assert!(slower.transfer_time(bytes) >= base.transfer_time(bytes));
        prop_assert!(base.transfer_time(bytes + 1) >= base.transfer_time(bytes));
        let dt = slower.transfer_time(bytes) - base.transfer_time(bytes);
        prop_assert!((dt - extra).abs() < 1e-12);
    }

    /// Collective cost formulas are non-negative and grow with
    /// participants for fixed payloads.
    #[test]
    fn collective_costs_grow_with_participants(p in 2usize..32, bytes in 1u64..10_000_000) {
        let net = NetworkModel::cloud();
        let small: Vec<DeviceId> = (0..p).map(|i| DeviceId::gpu(i, 0)).collect();
        let large: Vec<DeviceId> = (0..p + 1).map(|i| DeviceId::gpu(i, 0)).collect();
        for f in [
            NetworkModel::allreduce_time,
            NetworkModel::allgather_time,
            NetworkModel::gather_time,
        ] {
            let a = f(&net, &small, bytes);
            let b = f(&net, &large, bytes);
            prop_assert!(a >= 0.0);
            prop_assert!(b >= a, "{} vs {}", a, b);
        }
    }

    /// The fused collective is bit-identical to the unfused pair: for
    /// any payload length, rank count, and ragged extras, one
    /// `all_reduce_mean_concat` returns exactly what separate
    /// `all_reduce_mean` + `all_gather` calls return.
    #[test]
    fn fused_collective_matches_separate_calls(
        p in 2usize..5,
        reduce_len in 0usize..12,
        seed in 0u64..1000,
        extra_sizes in proptest::collection::vec(0usize..6, 4),
    ) {
        // Deterministic pseudo-random payloads per rank (proptest drives
        // the seed); extras are ragged across ranks.
        let payload = |rank: usize| -> Vec<f32> {
            (0..reduce_len)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((rank * 31 + i) as u64);
                    (x % 2000) as f32 / 100.0 - 10.0
                })
                .collect()
        };
        let extra = |rank: usize| vec![rank as f32 + 0.5; extra_sizes[rank % 4]];

        let run = |fused: bool| -> Vec<(Vec<f32>, Vec<Vec<f32>>)> {
            let eps = Fabric::new(p);
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(rank, mut ep)| {
                    let (r, e) = (payload(rank), extra(rank));
                    thread::spawn(move || {
                        if fused {
                            ep.all_reduce_mean_concat(r, e).unwrap()
                        } else {
                            let avg = ep.all_reduce_mean(r).unwrap();
                            (avg, ep.all_gather(e).unwrap())
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };

        let fused = run(true);
        let unfused = run(false);
        for ((fa, fe), (ua, ue)) in fused.iter().zip(&unfused) {
            // Bit-identical, not approximately equal: both paths reduce
            // in rank order via the same kernel.
            prop_assert_eq!(
                fa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ua.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(fe, ue);
        }
    }

    /// Point-to-point messages arrive in FIFO order per sender.
    #[test]
    fn p2p_is_fifo(values in proptest::collection::vec(-5.0f32..5.0, 1..20)) {
        let mut eps = Fabric::new(2);
        let receiver = eps.pop().unwrap();
        let sender = eps.pop().unwrap();
        for &v in &values {
            sender.send(1, vec![v]).unwrap();
        }
        for &v in &values {
            prop_assert_eq!(receiver.recv(0).unwrap(), vec![v]);
        }
    }
}
