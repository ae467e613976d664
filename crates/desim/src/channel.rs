//! Message channels between simulation tasks.
//!
//! All channels are single-threaded (the whole simulation runs on one
//! thread) but fully async: receivers park until a message or disconnect
//! arrives. Channels are unbounded, so a send never waits. Delivery is
//! FIFO per channel.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned when sending on a channel with no live receiver.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned when receiving on an empty channel with no live senders.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}

impl std::error::Error for RecvError {}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "receiver dropped")
    }
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    recv_wakers: VecDeque<Waker>,
}

impl<T> ChannelState<T> {
    fn wake_one_receiver(&mut self) {
        if let Some(w) = self.recv_wakers.pop_front() {
            w.wake();
        }
    }
    fn wake_all(&mut self) {
        for w in self.recv_wakers.drain(..) {
            w.wake();
        }
    }
}

/// Create an unbounded FIFO channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChannelState {
        queue: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
        recv_wakers: VecDeque::new(),
    }));
    (
        Sender {
            state: state.clone(),
        },
        Receiver { state },
    )
}

/// Sending half of a channel. Cloneable (multi-producer).
pub struct Sender<T> {
    state: Rc<RefCell<ChannelState<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: self.state.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.senders -= 1;
        if s.senders == 0 {
            s.wake_all();
        }
    }
}

impl<T> Sender<T> {
    /// Send without waiting. Errors when the receiver has been dropped.
    pub fn send_now(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.state.borrow_mut();
        if !s.receiver_alive {
            return Err(SendError(value));
        }
        s.queue.push_back(value);
        s.wake_one_receiver();
        Ok(())
    }

    /// [`Sender::send_now`] for `.await` call sites: ready at once, it
    /// never yields to the executor.
    pub async fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_now(value)
    }
}

/// Receiving half of a channel.
pub struct Receiver<T> {
    state: Rc<RefCell<ChannelState<T>>>,
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.receiver_alive = false;
        s.queue.clear();
        s.wake_all();
    }
}

impl<T> Receiver<T> {
    /// Receive the next message, parking until one arrives. Errors when the
    /// channel is empty and every sender has been dropped.
    pub async fn recv(&self) -> Result<T, RecvError> {
        RecvFuture { state: &self.state }.await
    }
}

struct RecvFuture<'a, T> {
    state: &'a Rc<RefCell<ChannelState<T>>>,
}

impl<T> Future for RecvFuture<'_, T> {
    type Output = Result<T, RecvError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.state.borrow_mut();
        if let Some(v) = s.queue.pop_front() {
            return Poll::Ready(Ok(v));
        }
        if s.senders == 0 {
            return Poll::Ready(Err(RecvError));
        }
        s.recv_wakers.push_back(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Oneshot
// ---------------------------------------------------------------------------

struct OneshotState<T> {
    value: Option<T>,
    sender_alive: bool,
    waker: Option<Waker>,
}

/// Create a oneshot channel: a single value handed from one task to another.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let state = Rc::new(RefCell::new(OneshotState {
        value: None,
        sender_alive: true,
        waker: None,
    }));
    (
        OneshotSender {
            state: state.clone(),
        },
        OneshotReceiver { state },
    )
}

/// Sending half of a oneshot channel.
pub struct OneshotSender<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver.
    pub fn send(self, value: T) {
        let mut s = self.state.borrow_mut();
        s.value = Some(value);
        if let Some(w) = s.waker.take() {
            w.wake();
        }
        // Keep sender_alive true: a value is present, so recv will succeed.
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.sender_alive = false;
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }
}

/// Receiving half of a oneshot channel.
pub struct OneshotReceiver<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

impl<T> OneshotReceiver<T> {
    /// Wait for the value. Errors if the sender is dropped without sending.
    pub async fn recv(self) -> Result<T, RecvError> {
        OneshotRecvFuture { state: self.state }.await
    }
}

struct OneshotRecvFuture<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

impl<T> Future for OneshotRecvFuture<T> {
    type Output = Result<T, RecvError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.state.borrow_mut();
        if let Some(v) = s.value.take() {
            return Poll::Ready(Ok(v));
        }
        if !s.sender_alive {
            return Poll::Ready(Err(RecvError));
        }
        s.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, spawn, Simulation};
    use crate::time::SimDuration;

    #[test]
    fn fifo_order_preserved() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let (tx, rx) = channel();
            spawn(async move {
                for i in 0..10 {
                    tx.send(i).await.unwrap();
                    sleep(SimDuration::from_micros(1)).await;
                }
            });
            for i in 0..10 {
                assert_eq!(rx.recv().await.unwrap(), i);
            }
        });
        sim.run_to_completion();
    }

    #[test]
    fn recv_parks_until_send() {
        let mut sim = Simulation::new(0);
        let t = sim.block_on(async {
            let (tx, rx) = channel();
            spawn(async move {
                sleep(SimDuration::from_millis(3)).await;
                tx.send(7u32).await.unwrap();
            });
            let v = rx.recv().await.unwrap();
            assert_eq!(v, 7);
            crate::executor::now()
        });
        assert_eq!(t.as_millis(), 3);
    }

    #[test]
    fn send_never_yields() {
        let mut sim = Simulation::new(0);
        let queued = sim.block_on(async {
            let (tx, rx) = channel();
            for i in 0..10_000u32 {
                tx.send(i).await.unwrap();
            }
            drop(tx);
            let mut queued = 0;
            while rx.recv().await.is_ok() {
                queued += 1;
            }
            queued
        });
        assert_eq!(queued, 10_000);
        // One poll ran the task to completion: no send (and no receive of
        // a queued message) was Pending.
        assert_eq!(sim.poll_count(), 1);
    }

    #[test]
    fn recv_errors_when_senders_gone() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let (tx, rx) = channel::<u8>();
            tx.send_now(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv().await.unwrap(), 1);
            assert_eq!(rx.recv().await, Err(RecvError));
        });
        sim.run_to_completion();
    }

    #[test]
    fn send_errors_when_receiver_gone() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let (tx, rx) = channel::<u8>();
            drop(rx);
            assert!(tx.send(1).await.is_err());
        });
        sim.run_to_completion();
    }

    #[test]
    fn multi_producer_counts() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let (tx, rx) = channel();
            for p in 0..4u32 {
                let tx = tx.clone();
                spawn(async move {
                    for i in 0..25u32 {
                        tx.send(p * 100 + i).await.unwrap();
                    }
                });
            }
            drop(tx);
            let mut n = 0;
            while rx.recv().await.is_ok() {
                n += 1;
            }
            assert_eq!(n, 100);
        });
        sim.run_to_completion();
    }

    #[test]
    fn oneshot_delivers() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let (tx, rx) = oneshot();
            spawn(async move {
                sleep(SimDuration::from_micros(50)).await;
                tx.send("value");
            });
            assert_eq!(rx.recv().await.unwrap(), "value");
        });
        sim.run_to_completion();
    }

    #[test]
    fn oneshot_dropped_sender_errors() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            let (tx, rx) = oneshot::<u8>();
            drop(tx);
            assert_eq!(rx.recv().await, Err(RecvError));
        });
        sim.run_to_completion();
    }
}
