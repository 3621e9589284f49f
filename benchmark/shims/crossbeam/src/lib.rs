//! Offline stand-in for `crossbeam`, backed by `std::sync`.
//!
//! `benchmark/Cargo.toml` patches `crossbeam` onto this crate because the
//! build container has no crates.io registry. The queues and channels here
//! are a mutex around a `VecDeque` (plus a condvar for channels), not
//! lock-free structures: correct under any number of producers and
//! consumers, but with different contention behaviour from the real crate.
//! Numbers measured through it compare commits of this repository, not
//! machines or queue implementations.

pub mod utils {
    //! `CachePadded` and `Backoff`.

    use std::cell::Cell;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes so neighbours never share a
    /// cache line (128 covers adjacent-line prefetching on x86-64 and the
    /// line size of aarch64 big cores, as the real crate does).
    #[derive(Clone, Copy, Default, Hash, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Pad `value`.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Unwrap the value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("CachePadded")
                .field("value", &self.value)
                .finish()
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }

    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    /// Exponential spin-then-yield backoff for retry loops.
    #[derive(Debug, Default)]
    pub struct Backoff {
        step: Cell<u32>,
    }

    impl Backoff {
        /// A fresh backoff.
        pub fn new() -> Self {
            Backoff::default()
        }

        /// Start over.
        pub fn reset(&self) {
            self.step.set(0);
        }

        /// Busy-wait, doubling each call up to a cap.
        pub fn spin(&self) {
            for _ in 0..1u32 << self.step.get().min(SPIN_LIMIT) {
                std::hint::spin_loop();
            }
            if self.step.get() <= SPIN_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }

        /// Busy-wait while young, yield the thread once old.
        pub fn snooze(&self) {
            if self.step.get() <= SPIN_LIMIT {
                for _ in 0..1u32 << self.step.get() {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if self.step.get() <= YIELD_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }

        /// Has backing off stopped helping (caller should block instead)?
        pub fn is_completed(&self) -> bool {
            self.step.get() > YIELD_LIMIT
        }
    }
}

pub mod queue {
    //! Unbounded and bounded MPMC queues.

    use std::collections::VecDeque;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    fn lock<T>(m: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Unbounded MPMC FIFO.
    #[derive(Debug, Default)]
    pub struct SegQueue<T>(Mutex<VecDeque<T>>);

    impl<T> SegQueue<T> {
        /// An empty queue.
        pub const fn new() -> Self {
            SegQueue(Mutex::new(VecDeque::new()))
        }

        /// Append at the back.
        pub fn push(&self, value: T) {
            lock(&self.0).push_back(value);
        }

        /// Remove from the front.
        pub fn pop(&self) -> Option<T> {
            lock(&self.0).pop_front()
        }

        /// Is the queue empty right now?
        pub fn is_empty(&self) -> bool {
            lock(&self.0).is_empty()
        }

        /// Elements queued right now.
        pub fn len(&self) -> usize {
            lock(&self.0).len()
        }
    }

    /// Bounded MPMC FIFO.
    #[derive(Debug)]
    pub struct ArrayQueue<T> {
        cap: usize,
        items: Mutex<VecDeque<T>>,
    }

    impl<T> ArrayQueue<T> {
        /// A queue holding at most `cap` elements.
        ///
        /// # Panics
        /// Panics if `cap` is zero.
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "capacity must be non-zero");
            ArrayQueue {
                cap,
                items: Mutex::new(VecDeque::with_capacity(cap)),
            }
        }

        /// Append at the back, or hand the value back when full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut q = lock(&self.items);
            if q.len() >= self.cap {
                return Err(value);
            }
            q.push_back(value);
            Ok(())
        }

        /// Append at the back, evicting and returning the oldest element
        /// when full.
        pub fn force_push(&self, value: T) -> Option<T> {
            let mut q = lock(&self.items);
            let evicted = if q.len() >= self.cap {
                q.pop_front()
            } else {
                None
            };
            q.push_back(value);
            evicted
        }

        /// Remove from the front.
        pub fn pop(&self) -> Option<T> {
            lock(&self.items).pop_front()
        }

        /// Maximum number of elements.
        pub fn capacity(&self) -> usize {
            self.cap
        }

        /// Is the queue empty right now?
        pub fn is_empty(&self) -> bool {
            lock(&self.items).is_empty()
        }

        /// Is the queue full right now?
        pub fn is_full(&self) -> bool {
            lock(&self.items).len() >= self.cap
        }

        /// Elements queued right now.
        pub fn len(&self) -> usize {
            lock(&self.items).len()
        }
    }
}

pub mod channel {
    //! MPMC channels with disconnect detection.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded. A zero capacity is treated as one: the
        /// rendezvous hand-off of the real crate is not reproduced.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Sending half; clone for more producers.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Receiving half; clone for more consumers.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// The channel is disconnected; the unsent value is handed back.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Why a non-blocking send failed.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// The channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a non-blocking receive failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    /// Why a timed receive failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived in time.
        Timeout,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for TryRecvError {}
    impl std::error::Error for RecvTimeoutError {}

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap: cap.map(|c| c.max(1)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    /// A channel of unlimited capacity: sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A channel holding at most `cap` messages: sends block when full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap))
    }

    impl<T> Sender<T> {
        /// Queue `value`, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let chan = &*self.0;
            let mut st = chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if chan.cap.is_none_or(|c| st.items.len() < c) {
                    st.items.push_back(value);
                    drop(st);
                    chan.not_empty.notify_one();
                    return Ok(());
                }
                st = chan
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Queue `value` only if that needs no waiting.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let chan = &*self.0;
            let mut st = chan.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if chan.cap.is_some_and(|c| st.items.len() >= c) {
                return Err(TrySendError::Full(value));
            }
            st.items.push_back(value);
            drop(st);
            chan.not_empty.notify_one();
            Ok(())
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.0.lock().items.len()
        }

        /// Is nothing queued right now?
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Take the next message, blocking until one arrives or every
        /// sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let chan = &*self.0;
            let mut st = chan.lock();
            loop {
                if let Some(v) = st.items.pop_front() {
                    drop(st);
                    chan.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = chan
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Take the next message if one is queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let chan = &*self.0;
            let mut st = chan.lock();
            match st.items.pop_front() {
                Some(v) => {
                    drop(st);
                    chan.not_full.notify_one();
                    Ok(v)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// [`Receiver::recv`] giving up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        /// [`Receiver::recv`] giving up at `deadline`.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let chan = &*self.0;
            let mut st = chan.lock();
            loop {
                if let Some(v) = st.items.pop_front() {
                    drop(st);
                    chan.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = chan
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        /// Drain messages as they are queued right now, without blocking.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        /// Block for messages until every sender is gone.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.0.lock().items.len()
        }

        /// Is nothing queued right now?
        pub fn is_empty(&self) -> bool {
            self.len() == 0
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

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError, TryRecvError, TrySendError};
    use super::queue::{ArrayQueue, SegQueue};
    use super::utils::CachePadded;
    use std::time::Duration;

    #[test]
    fn cache_padded_is_aligned() {
        let a = [CachePadded::new(1u8), CachePadded::new(2u8)];
        assert_eq!(std::mem::align_of_val(&a[0]), 128);
        assert_eq!(*a[0] + *a[1], 3);
    }

    #[test]
    fn queues_are_fifo_and_array_queue_is_bounded() {
        let q = SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(
            (q.len(), q.pop(), q.pop(), q.pop()),
            (2, Some(1), Some(2), None)
        );
        let a = ArrayQueue::new(2);
        assert_eq!((a.push(1), a.push(2), a.push(3)), (Ok(()), Ok(()), Err(3)));
        assert!(a.is_full());
        assert_eq!(a.force_push(4), Some(1));
        assert_eq!((a.pop(), a.pop(), a.pop()), (Some(2), Some(4), None));
    }

    #[test]
    fn channel_delivers_across_threads_and_reports_disconnect() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let t =
            std::thread::spawn(move || (0..100).map(|_| rx2.recv().expect("open")).sum::<u32>());
        for i in 0..100 {
            tx.send(i).expect("receiver alive");
        }
        assert_eq!(t.join().expect("consumer"), 4950);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn bounded_channel_pushes_back() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).expect("room");
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv(), Ok(1));
        drop(rx);
        assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
        assert!(tx.send(4).is_err());
    }
}
