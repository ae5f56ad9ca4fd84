//! Multi-producer multi-consumer FIFO channels with the `crossbeam`
//! API subset the APAN crates use (`bounded`, `unbounded`, cloneable
//! `Sender`/`Receiver`, blocking `send`/`recv`, disconnect on last
//! drop). One mutex-guarded deque and two condvars per channel.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    /// `None` for an unbounded channel.
    cap: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Chan<T> {
    // A panic while holding the lock cannot leave the deque torn (every
    // update is one push or pop), so a poisoned lock is still valid.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending half; clone for more producers.
pub struct Sender<T>(Arc<Chan<T>>);

/// The receiving half; clone for more consumers.
pub struct Receiver<T>(Arc<Chan<T>>);

/// The message could not be sent because every receiver is gone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Every sender is gone and the queue is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

/// A channel holding at most `cap` messages; `send` blocks when full.
/// (The real crate's zero-capacity rendezvous is approximated by a
/// one-slot buffer.)
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap.max(1)))
}

/// A channel of unlimited capacity; `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

impl<T> Sender<T> {
    /// Blocks while the channel is full; fails once every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            if self.0.cap.is_none_or(|c| st.queue.len() < c) {
                st.queue.push_back(msg);
                drop(st);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            st = self
                .0
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks while the channel is empty; fails once it is empty and
    /// every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self
                .0
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            self.0.not_full.notify_all();
        }
    }
}
