//! Timeout combinator: race a future against the simulation clock.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::executor::sleep;
use crate::time::SimDuration;

/// Run `fut` with a deadline of `d` from now. Returns `Some(output)` if the
/// future completes first, `None` if the deadline fires first.
///
/// ```
/// use mgrid_desim::{Simulation, timeout::with_timeout, time::SimDuration};
///
/// let mut sim = Simulation::new(0);
/// let out = sim.block_on(async {
///     with_timeout(SimDuration::from_millis(1), async {
///         mgrid_desim::sleep(SimDuration::from_millis(5)).await;
///         42
///     })
///     .await
/// });
/// assert_eq!(out, None);
/// ```
pub async fn with_timeout<F: Future>(d: SimDuration, fut: F) -> Option<F::Output> {
    // Pin on the stack: no per-call heap allocation, which matters on hot
    // paths like the transport's per-window ack wait.
    let mut fut = std::pin::pin!(fut);
    let mut timer = sleep(d);
    std::future::poll_fn(move |cx: &mut Context<'_>| {
        if let Poll::Ready(v) = fut.as_mut().poll(cx) {
            return Poll::Ready(Some(v));
        }
        match Pin::new(&mut timer).poll(cx) {
            Poll::Ready(()) => Poll::Ready(None),
            Poll::Pending => Poll::Pending,
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel;
    use crate::executor::{now, sleep as dsleep, spawn, Simulation};
    use crate::time::SimTime;

    #[test]
    fn completes_before_deadline() {
        let mut sim = Simulation::new(0);
        let out = sim.block_on(async {
            with_timeout(SimDuration::from_millis(10), async {
                dsleep(SimDuration::from_millis(2)).await;
                7
            })
            .await
        });
        assert_eq!(out, Some(7));
    }

    #[test]
    fn deadline_fires_first() {
        let mut sim = Simulation::new(0);
        let (out, t) = sim.block_on(async {
            let r = with_timeout(SimDuration::from_millis(3), async {
                dsleep(SimDuration::from_secs(100)).await;
            })
            .await;
            (r, now())
        });
        assert_eq!(out, None);
        assert_eq!(t, SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn losing_future_is_dropped_cleanly() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let (tx, rx) = channel::<u8>();
            let r = with_timeout(
                SimDuration::from_millis(1),
                async move { rx.recv().await.ok() },
            )
            .await;
            assert_eq!(r, None);
            // The receiver was dropped with the timed-out future.
            dsleep(SimDuration::from_millis(1)).await;
            assert!(tx.send_now(1).is_err());
        });
        sim.run_to_completion();
    }

    #[test]
    fn timeout_in_loop_retries() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let (tx, rx) = channel::<u8>();
            spawn(async move {
                dsleep(SimDuration::from_millis(25)).await;
                tx.send_now(9).unwrap();
            });
            let mut attempts = 0;
            let v = loop {
                attempts += 1;
                if let Some(v) = with_timeout(SimDuration::from_millis(10), rx.recv()).await {
                    break v.unwrap();
                }
            };
            assert_eq!(v, 9);
            assert_eq!(attempts, 3);
        });
        sim.run_to_completion();
    }
}
