//! Property-based tests of the engine's core guarantees.

use proptest::prelude::*;

use mgrid_desim::channel::channel;
use mgrid_desim::time::SimDuration;
use mgrid_desim::{sleep, spawn, with_rng, Simulation};

proptest! {
    /// Determinism: any mix of sleeping tasks produces the identical
    /// completion trace when re-run with the same seed.
    #[test]
    fn identical_seed_identical_trace(
        seed in any::<u64>(),
        tasks in prop::collection::vec(0u64..1_000_000, 1..25),
    ) {
        fn trace(seed: u64, tasks: &[u64]) -> Vec<(u64, u64)> {
            let mut sim = Simulation::new(seed);
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            for (i, &d) in tasks.iter().enumerate() {
                let log = log.clone();
                sim.spawn(async move {
                    // Mix fixed delays with seeded random ones.
                    let extra = with_rng(|r| r.below(1000));
                    sleep(SimDuration::from_nanos(d + extra)).await;
                    log.borrow_mut().push((i as u64, mgrid_desim::now().as_nanos()));
                });
            }
            sim.run_to_completion();
            let v = log.borrow().clone();
            v
        }
        prop_assert_eq!(trace(seed, &tasks), trace(seed, &tasks));
    }

    /// Channel FIFO: any interleaving of producers preserves per-producer
    /// order at the consumer.
    #[test]
    fn channel_per_producer_fifo(
        counts in prop::collection::vec(1usize..20, 1..5),
        delays in prop::collection::vec(0u64..500, 1..5),
    ) {
        let mut sim = Simulation::new(3);
        let n_producers = counts.len();
        let counts2 = counts.clone();
        let received = sim.block_on(async move {
            let (tx, rx) = channel();
            for (p, (&count, delay)) in counts2.iter().zip(delays.iter().cycle()).enumerate() {
                let tx = tx.clone();
                let delay = *delay;
                spawn(async move {
                    for i in 0..count {
                        sleep(SimDuration::from_nanos(delay)).await;
                        tx.send((p, i)).await.unwrap();
                    }
                });
            }
            drop(tx);
            let mut got: Vec<(usize, usize)> = Vec::new();
            while let Ok(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        // Per-producer subsequences are 0..count in order.
        for (p, &count) in counts.iter().enumerate().take(n_producers) {
            let seq: Vec<usize> = received.iter().filter(|(q, _)| *q == p).map(|(_, i)| *i).collect();
            prop_assert_eq!(seq, (0..count).collect::<Vec<_>>());
        }
    }

    /// RNG `below(n)` is always in range.
    #[test]
    fn rng_contracts(seed in any::<u64>(), n in 1u64..10_000) {
        let mut rng = mgrid_desim::SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }
}
