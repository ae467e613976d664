//! IS — Integer Sort.
//!
//! NPB IS ranks small integer keys with a bucket sort: per iteration each
//! rank counts its keys into buckets, the bucket counts are summed with an
//! `MPI_Allreduce`, and the keys are redistributed with a large
//! `MPI_Alltoallv`. Communication is coarse but *bulky* — IS moves more
//! bytes than any other benchmark in the suite, making it the most
//! bandwidth-sensitive (the paper's Fig 10 match for IS is within 2%).
//!
//! The miniature real kernel actually sorts keys and verifies the result
//! is a sorted permutation.

use mgrid_mpi::Comm;

use super::{compute, mops_for, progress_value, timed, NpbClass, NpbResult, NpbSensors};

struct IsShape {
    /// log2 of the total key count (class A: 23, class S: 16).
    total_keys_log2: u32,
    iters: u32,
    four_rank_total_mops: f64,
}

fn shape(class: NpbClass) -> IsShape {
    match class {
        NpbClass::A => IsShape {
            total_keys_log2: 23,
            iters: 10,
            four_rank_total_mops: mops_for(27.0) * 4.0,
        },
        NpbClass::S => IsShape {
            total_keys_log2: 16,
            iters: 10,
            four_rank_total_mops: mops_for(1.2) * 4.0,
        },
    }
}

/// Keys actually sorted by the miniature real kernel, per rank.
const MINI_KEYS: usize = 1 << 12;
const MINI_KEY_MAX: u32 = 1 << 11;

/// Run IS.
pub async fn run(comm: Comm, class: NpbClass, sensors: Option<NpbSensors>) -> NpbResult {
    let sh = shape(class);
    let p = comm.size();
    let keys_per_rank = (1u64 << sh.total_keys_log2) / p as u64;
    // Each iteration redistributes the keys: every rank sends ~1/p of its
    // keys to each other rank, 4 bytes per key.
    let chunk_bytes = keys_per_rank * 4 / p as u64 + 64;
    let mops_per_iter = sh.four_rank_total_mops / p as f64 / sh.iters as f64;

    let (secs, sorted_ok) = timed(&comm, || {
        let comm = comm.clone();
        let sensors = sensors.clone();
        async move {
            // Real kernel state: each rank draws keys deterministically.
            let mut rng = mgrid_desim::SimRng::new(314_159_265 ^ (comm.rank() as u64) << 8);
            let mut keys: Vec<u32> = (0..MINI_KEYS)
                .map(|_| rng.below(u64::from(MINI_KEY_MAX)) as u32)
                .collect();
            let mut all_sorted = true;

            for iter in 0..sh.iters {
                // Local bucket counting.
                compute(&comm, mops_per_iter * 0.6).await;
                // Bucket-count allreduce (1024 buckets x 4 bytes).
                let local_counts = vec![0u64; 0]; // counts modeled by cost only
                let _ = comm
                    .allreduce(local_counts, 4096, |a: &Vec<u64>, _b| a.clone())
                    .await
                    .expect("bucket allreduce");
                // Key redistribution: the big all-to-all.
                let chunks: Vec<(u8, u64)> = (0..p).map(|_| (0u8, chunk_bytes)).collect();
                let _ = comm.alltoall(chunks).await.expect("key alltoall");
                // Local ranking of the received keys.
                compute(&comm, mops_per_iter * 0.4).await;

                // Real kernel: split keys by range, exchange, and merge —
                // a genuine parallel bucket sort on the mini key set.
                let splits: Vec<Vec<u32>> = {
                    let mut out: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
                    let per = MINI_KEY_MAX / p as u32;
                    for &k in &keys {
                        let dest = ((k / per.max(1)) as usize).min(p - 1);
                        out[dest].push(k);
                    }
                    out
                };
                let exchanged = comm
                    .alltoall(
                        splits
                            .into_iter()
                            .map(|v| {
                                let bytes = v.len() as u64 * 4;
                                (v, bytes)
                            })
                            .collect(),
                    )
                    .await
                    .expect("mini alltoall");
                keys = exchanged.into_iter().flatten().collect();
                keys.sort_unstable();
                all_sorted &= keys.windows(2).all(|w| w[0] <= w[1]);

                if let Some(s) = &sensors {
                    s.counter.set(progress_value(iter as u64 + 1));
                }
            }
            // Global verification: total key count is conserved and key
            // ranges are correctly partitioned across ranks.
            let local_count = keys.len() as u64;
            let total = comm
                .allreduce(local_count, 8, |a, b| a + b)
                .await
                .expect("count allreduce");
            let conserved = total == (MINI_KEYS * p) as u64;
            // Boundary check with the next rank: my max <= its min.
            let my_max = keys.last().copied().unwrap_or(0);
            let maxes = comm.gather(my_max, 4).await.expect("gather maxes");
            let mins = comm
                .gather(keys.first().copied().unwrap_or(u32::MAX), 4)
                .await
                .expect("gather mins");
            let partitioned = if comm.rank() == 0 {
                let maxes = maxes.expect("root");
                let mins = mins.expect("root");
                (0..p - 1).all(|r| maxes[r] <= mins[r + 1])
            } else {
                true
            };
            all_sorted && conserved && partitioned
        }
    })
    .await;

    NpbResult {
        benchmark: "IS".into(),
        class,
        ranks: p,
        virtual_seconds: secs,
        verified: sorted_ok,
        checksum: (MINI_KEYS * p) as f64,
    }
}
