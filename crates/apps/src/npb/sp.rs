//! SP — Scalar Pentadiagonal solver (extension beyond the paper's five
//! codes).
//!
//! NPB SP is BT's sibling: the same ADI time-stepping structure but with
//! scalar pentadiagonal line solves, which shifts the balance toward more
//! frequent, smaller messages along each sweep (SP sends per-substage
//! rather than per-block). Its quantum sensitivity therefore sits between
//! BT's and LU's.

use mgrid_mpi::{Comm, MpiData};

use super::{compute, mops_for, progress_value, timed, NpbClass, NpbResult, NpbSensors};

struct SpShape {
    n: u32,
    iters: u32,
    four_rank_total_mops: f64,
}

fn shape(class: NpbClass) -> SpShape {
    match class {
        NpbClass::A => SpShape {
            n: 64,
            iters: 400,
            four_rank_total_mops: mops_for(310.0) * 4.0,
        },
        NpbClass::S => SpShape {
            n: 12,
            iters: 100,
            four_rank_total_mops: mops_for(7.0) * 4.0,
        },
    }
}

const SWEEP_TAG: i32 = 600;
/// Forward-elimination and back-substitution substages per sweep; SP
/// exchanges thinner faces more often than BT.
const STAGES_PER_SWEEP: u32 = 4;

fn square_grid(p: usize) -> usize {
    let q = (p as f64).sqrt().round() as usize;
    assert_eq!(q * q, p, "SP requires a square rank count");
    q
}

/// Run SP.
pub async fn run(comm: Comm, class: NpbClass, sensors: Option<NpbSensors>) -> NpbResult {
    let sh = shape(class);
    let p = comm.size();
    let q = square_grid(p);
    let row = comm.rank() / q;
    let col = comm.rank() % q;
    let xpeer_fwd = row * q + (col + 1) % q;
    let xpeer_bwd = row * q + (col + q - 1) % q;
    let ypeer_fwd = ((row + 1) % q) * q + col;
    let ypeer_bwd = ((row + q - 1) % q) * q + col;

    // Scalar (not 5x5 block) faces: 5x smaller than BT's.
    let cells_per_edge = u64::from(sh.n) / q as u64;
    let face_bytes = cells_per_edge * cells_per_edge * 5 * 8 + 64;
    let mops_per_stage = sh.four_rank_total_mops
        / p as f64
        / sh.iters as f64
        / (3.0 * STAGES_PER_SWEEP as f64 + 1.0);

    let (secs, checksum) = timed(&comm, || {
        let comm = comm.clone();
        let sensors = sensors.clone();
        async move {
            // Real kernel: a pentadiagonal (five-band) solve per step via
            // banded Gaussian elimination on a diagonally dominant system.
            let m = 24usize;
            let mut rhs: Vec<f64> = (0..m).map(|i| 1.0 + ((i * 3) % 7) as f64 * 0.1).collect();
            let mut norm = 0.0f64;

            for step in 0..sh.iters {
                compute(&comm, mops_per_stage).await; // rhs phase
                for (dir, (fwd, bwd)) in [
                    (0, (xpeer_fwd, xpeer_bwd)),
                    (1, (ypeer_fwd, ypeer_bwd)),
                    (2, (comm.rank(), comm.rank())),
                ] {
                    let tag = SWEEP_TAG + dir;
                    for stage in 0..STAGES_PER_SWEEP {
                        compute(&comm, mops_per_stage).await;
                        if fwd != comm.rank() {
                            let (to, from) = if stage % 2 == 0 {
                                (fwd, bwd)
                            } else {
                                (bwd, fwd)
                            };
                            comm.sendrecv(
                                to,
                                tag + stage as i32 * 8,
                                MpiData::bytes_only(face_bytes),
                                from,
                                tag + stage as i32 * 8,
                            )
                            .await
                            .expect("face exchange");
                        }
                    }
                }
                // Pentadiagonal bands: (1, -4, 7, -4, 1)-ish, dominant.
                let bands = [0.5f64, -1.5, 8.0, -1.5, 0.5];
                let mut a = vec![vec![0.0f64; m]; m];
                for (i, row) in a.iter_mut().enumerate() {
                    for (o, &bv) in bands.iter().enumerate() {
                        let j = i as i64 + o as i64 - 2;
                        if (0..m as i64).contains(&j) {
                            row[j as usize] = bv;
                        }
                    }
                }
                // Gaussian elimination without pivoting (dominant matrix).
                let mut aug = a.clone();
                let mut x = rhs.clone();
                for i in 0..m {
                    let piv = aug[i][i];
                    for j in i + 1..(i + 3).min(m) {
                        let f = aug[j][i] / piv;
                        #[allow(
                            clippy::needless_range_loop,
                            reason = "reads one row of `aug` while writing another; iterators need split_at_mut"
                        )]
                        for k in i..(i + 3).min(m) {
                            aug[j][k] -= f * aug[i][k];
                        }
                        x[j] -= f * x[i];
                    }
                }
                for i in (0..m).rev() {
                    let mut v = x[i];
                    for j in i + 1..(i + 3).min(m) {
                        v -= aug[i][j] * x[j];
                    }
                    x[i] = v / aug[i][i];
                }
                norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
                for (r, v) in rhs.iter_mut().zip(&x) {
                    *r = 0.95 * *r + 0.05 * v;
                }
                if let Some(s) = &sensors {
                    s.counter.set(progress_value(step as u64 + 1));
                }
            }
            comm.allreduce(norm, 8, |a, b| a + b).await.expect("norm")
        }
    })
    .await;

    let verified = checksum.is_finite() && checksum > 0.0 && checksum < 50.0 * p as f64;
    NpbResult {
        benchmark: "SP".into(),
        class,
        ranks: p,
        virtual_seconds: secs,
        verified,
        checksum,
    }
}
