//! Serving locks. Every lock on the serving path is a leaf: a thread holds
//! at most one of them at a time, so no two can deadlock. They are taken
//! only through [`lock`], [`read`] and [`write()`], which recover a poisoned
//! lock (each guarded value stays valid whatever state a panicking thread
//! left it in) and, in debug builds, panic when a thread takes a serving
//! lock while it holds one. Release builds carry no check.
//!
//! Two guards built as temporaries of one expression nest too:
//! `*lock(&a) + *read(&b)` holds the first guard until the statement ends,
//! so it panics in a debug build.

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

/// A held serving lock: the standard guard plus the token that marks the
/// thread as holding a serving lock until the guard drops.
#[derive(Debug)]
pub struct Guard<G> {
    guard: G,
    _held: Held,
}

/// Locks a serving mutex.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> Guard<MutexGuard<'_, T>> {
    let held = Held::take();
    Guard {
        guard: mutex.lock().unwrap_or_else(PoisonError::into_inner),
        _held: held,
    }
}

/// Takes a serving read-write lock for reading.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> Guard<RwLockReadGuard<'_, T>> {
    let held = Held::take();
    Guard {
        guard: lock.read().unwrap_or_else(PoisonError::into_inner),
        _held: held,
    }
}

/// Takes a serving read-write lock for writing.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> Guard<RwLockWriteGuard<'_, T>> {
    let held = Held::take();
    Guard {
        guard: lock.write().unwrap_or_else(PoisonError::into_inner),
        _held: held,
    }
}

impl<'a, T> Guard<MutexGuard<'a, T>> {
    /// Waits on `condvar` for at most `timeout`, releasing the mutex while
    /// it waits and returning with it held again. The thread counts as
    /// holding the lock throughout: it is blocked, so it takes no other.
    pub fn wait_timeout(self, condvar: &Condvar, timeout: Duration) -> (Self, WaitTimeoutResult) {
        let Guard { guard, _held } = self;
        let (guard, result) = condvar
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (Guard { guard, _held }, result)
    }
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// Marks the current thread as holding a serving lock (debug builds only).
#[derive(Debug)]
struct Held;

#[cfg(debug_assertions)]
thread_local! {
    static HOLDING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl Held {
    /// Marks the thread, first panicking if it already holds a serving lock:
    /// before the lock is taken, so a second acquisition of the same lock
    /// panics instead of deadlocking.
    #[cfg(debug_assertions)]
    #[expect(
        clippy::panic,
        reason = "the debug-only leaf check reports a nested serving lock"
    )]
    fn take() -> Held {
        if HOLDING.with(|holding| holding.replace(true)) {
            panic!(
                "serving locks are leaves: this thread took a serving lock \
                 while it held another (see dssddi_core::sync)"
            );
        }
        Held
    }

    #[cfg(not(debug_assertions))]
    fn take() -> Held {
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // `try_with` cannot panic, even while the thread's locals are torn
        // down.
        let _ = HOLDING.try_with(|holding| holding.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_taken_one_after_another_pass() {
        let (a, b) = (Mutex::new(1), RwLock::new(2));
        *lock(&a) += 1;
        *write(&b) += 1;
        assert_eq!(*lock(&a), 2);
        assert_eq!(*read(&b), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "serving locks are leaves")]
    fn a_nested_lock_panics() {
        let (a, b) = (Mutex::new(1), RwLock::new(2));
        let _sum = *lock(&a) + *read(&b);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let a = Mutex::new(1);
        let _ = std::panic::catch_unwind(|| {
            let _guard = lock(&a);
            panic!("poison the lock");
        });
        assert!(a.is_poisoned());
        *lock(&a) += 1;
        assert_eq!(*lock(&a), 2);
    }

    #[test]
    fn the_condvar_wait_returns_holding_the_lock() {
        let (a, freed) = (Mutex::new(1), Condvar::new());
        let (mut guard, result) = lock(&a).wait_timeout(&freed, Duration::from_millis(1));
        assert!(result.timed_out());
        *guard += 1;
        assert!(a.try_lock().is_err(), "the wait returned without the lock");
        drop(guard);
        assert_eq!(*lock(&a), 2);
    }
}
