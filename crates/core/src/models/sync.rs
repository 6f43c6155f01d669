//! What `crate::sync` names under `cfg(test)`: `parking_lot`'s locks and
//! `std`'s atomics and clock, each wrapped to carry the name the explorer
//! knows it by ([`explore::name`]) and, on a thread of an exploration, to
//! stop at a scheduling point — at every acquire (`MutexGuard::unlocked`'s
//! included), condvar wait and notify, and atomic operation that is not
//! `Relaxed` — to tell it of every release, and to read logical time. On
//! any other thread a wrapper passes straight through.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::time::Duration;

use super::explore;

const TAKEN: &str = "guard released";

/// A lock, condvar or atomic, and its name.
#[derive(Debug)]
pub struct Named<L: ?Sized>(u64, L);

pub type Mutex<T> = Named<parking_lot::Mutex<T>>;
pub type RwLock<T> = Named<parking_lot::RwLock<T>>;
pub type Condvar = Named<parking_lot::Condvar>;
pub type AtomicBool = Named<std::sync::atomic::AtomicBool>;
pub type AtomicU64 = Named<std::sync::atomic::AtomicU64>;
pub type AtomicUsize = Named<std::sync::atomic::AtomicUsize>;

impl<L: Default> Default for Named<L> {
    fn default() -> Self {
        Named(explore::name(), L::default())
    }
}

/// A held lock; `None` inside only while a condvar wait or
/// [`MutexGuard::unlocked`] has it released.
pub struct Held<'a, L, G>(&'a Named<L>, Option<G>);

pub type MutexGuard<'a, T> = Held<'a, parking_lot::Mutex<T>, parking_lot::MutexGuard<'a, T>>;

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Named(explore::name(), parking_lot::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        Held(self, Some(self.acquire()))
    }

    fn acquire(&self) -> parking_lot::MutexGuard<'_, T> {
        let taken = explore::acquire(self.0, true, || self.1.try_lock());
        taken.unwrap_or_else(|| self.1.lock())
    }
}

impl<T> MutexGuard<'_, T> {
    /// Releases the lock for the duration of `f` and re-locks it after,
    /// as `parking_lot`'s does.
    pub fn unlocked<U>(s: &mut Self, f: impl FnOnce() -> U) -> U {
        struct Relock<'g, 'a, T>(&'g mut MutexGuard<'a, T>);
        impl<T> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                if !explore::unwinding() {
                    self.0 .1 = Some(self.0 .0.acquire());
                }
            }
        }
        s.release();
        let _relock = Relock(s);
        f()
    }
}

impl<L, G> Held<'_, L, G> {
    fn release(&mut self) {
        if self.1.take().is_some() {
            explore::released(self.0 .0);
        }
    }
}

impl<L, G> Drop for Held<'_, L, G> {
    fn drop(&mut self) {
        self.release();
    }
}

impl<L, G: Deref> Deref for Held<'_, L, G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        self.1.as_deref().expect(TAKEN)
    }
}

impl<L, G: DerefMut> DerefMut for Held<'_, L, G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        self.1.as_deref_mut().expect(TAKEN)
    }
}

impl Condvar {
    pub fn wait<T>(&self, g: &mut MutexGuard<'_, T>) {
        if !explore::exploring() {
            return self.1.wait(g.1.as_mut().expect(TAKEN));
        }
        drop(g.1.take());
        explore::park(g.0 .0, self.0);
        g.1 = Some(g.0.acquire());
    }

    pub fn notify_all(&self) -> usize {
        explore::notify(self.0);
        self.1.notify_all()
    }
}

type ReadGuard<'a, T> = Held<'a, parking_lot::RwLock<T>, parking_lot::RwLockReadGuard<'a, T>>;
type WriteGuard<'a, T> = Held<'a, parking_lot::RwLock<T>, parking_lot::RwLockWriteGuard<'a, T>>;

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        Named(explore::name(), parking_lot::RwLock::new(value))
    }

    pub fn read(&self) -> ReadGuard<'_, T> {
        let taken = explore::acquire(self.0, false, || self.1.try_read());
        Held(self, Some(taken.unwrap_or_else(|| self.1.read())))
    }

    pub fn write(&self) -> WriteGuard<'_, T> {
        let taken = explore::acquire(self.0, true, || self.1.try_write());
        Held(self, Some(taken.unwrap_or_else(|| self.1.write())))
    }
}

macro_rules! atomic {
    ($name:ident, $t:ty $(, $rmw:ident)*) => {
        impl $name {
            pub fn new(value: $t) -> Self {
                Named(explore::name(), std::sync::atomic::$name::new(value))
            }
            /// A scheduling point, unless `order` publishes nothing.
            fn point(&self, order: Ordering, wrote: bool) {
                if order != Ordering::Relaxed {
                    explore::point(self.0, wrote);
                }
            }
            pub fn load(&self, order: Ordering) -> $t {
                self.point(order, false);
                self.1.load(order)
            }
            pub fn store(&self, value: $t, order: Ordering) {
                self.point(order, true);
                self.1.store(value, order)
            }
            pub fn swap(&self, value: $t, order: Ordering) -> $t {
                self.point(order, true);
                self.1.swap(value, order)
            }
            pub fn compare_exchange(&self, old: $t, new: $t, ok: Ordering, no: Ordering) -> Result<$t, $t> {
                self.point(ok, true);
                self.1.compare_exchange(old, new, ok, no)
            }
            $(pub fn $rmw(&self, value: $t, order: Ordering) -> $t {
                self.point(order, true);
                self.1.$rmw(value, order)
            })*
        }
    };
}

atomic!(AtomicBool, bool);
atomic!(AtomicU64, u64, fetch_add, fetch_sub);
atomic!(AtomicUsize, usize, fetch_add, fetch_sub);

/// A clock reading: logical time on an exploration thread (see
/// [`explore::now`]), so a schedule replays its waits; the wall clock
/// elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct Instant(std::time::Instant);

impl Instant {
    pub fn now() -> Self {
        Instant(explore::now().unwrap_or_else(std::time::Instant::now))
    }

    pub fn elapsed(&self) -> Duration {
        Self::now().0.saturating_duration_since(self.0)
    }
}
