//! The interleaving explorer: real threads over the real code, one at a
//! time. The wrappers `crate::sync` names under test ([`super::sync`]) and
//! the scenarios' watched devices stop at *scheduling points*, each before
//! an access to an object; every thread runs to its first one before the
//! first choice. A thread's run from one point to its next is an *event*:
//! the access it stopped at, and any release or condvar park before the
//! next. Two accesses conflict when they name one object and one writes —
//! an exclusive acquire or release, a store, a park or notify, a device
//! write, sync or `set_len`. Clock readings ([`now`]) are no access.
//!
//! Each schedule replays from a fresh world, depth-first, under dynamic
//! partial-order reduction (Flanagan & Godefroid, POPL 2005): an event
//! that conflicts with an earlier one of another thread, nothing ordering
//! the two (vector clocks over the conflicts so far), has its thread tried
//! before that event. A release orders an acquire but never races one. A
//! preemption bound caps the search — a switch away from a thread that
//! could go on counts — and since it can hide a reversal, each is also
//! tried at the last switch before (Coons et al., OOPSLA 2013). Sleep sets
//! keep the thread that stopped at a point, its event there explored, from
//! repeating it in a sibling branch until a conflicting event runs.
//!
//! A replay whose choices differ from its recorded prefix (a coin, a hash
//! order) is a violation; so is a deadlock, a lost wakeup's shape.
//! Reference counts are the one channel the explorer does not see.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// An access: the object's name, whether it writes, whether it releases
/// a lock.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Access(u64, bool, bool);

impl Access {
    fn conflicts(self, other: Access) -> bool {
        self.0 == other.0 && (self.1 || other.1)
    }
}

/// A scheduling point, and the event that followed it.
#[derive(Clone)]
struct Choice {
    runnable: u32,
    /// The thread that stopped here, if it could go on.
    current: Option<usize>,
    chosen: usize,
    /// Preemptions before this point.
    spent: usize,
    /// Threads to run here, and those run here so far.
    backtrack: u32,
    done: u32,
    /// Threads asleep on arrival.
    asleep: u32,
    /// The event `current` made here, once run.
    event: Vec<Access>,
}

impl Choice {
    fn preempts(&self, t: usize) -> usize {
        usize::from(self.current.is_some_and(|c| c != t))
    }

    /// Asks for `t` to run here — every thread that can, if `t` cannot —
    /// within `bound`.
    fn offer(&mut self, t: usize, bound: usize) {
        let runs = |u: usize| self.runnable & 1 << u != 0;
        let want = (0..32).filter(|&u| runs(u) && (u == t || !runs(t)));
        let fits = want.filter(|&u| self.spent + self.preempts(u) <= bound);
        self.backtrack |= fits.fold(0, |m, u| m | 1 << u);
    }
}

/// A schedule that broke something — a deadlock, a panic, a replay that
/// left its recorded prefix, or the oracle's complaint — with the thread
/// chosen at each point where more than one could run.
pub type Violation = (String, Vec<usize>);

/// The explorer; see the [module docs](self).
pub struct Explorer {
    pub bound: usize,
    /// Every condvar wait releases its lock, reaches a scheduling point,
    /// and only then parks: the lost-wakeup mutant.
    pub split_wait: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            bound: 3,
            split_wait: false,
        }
    }
}

impl Explorer {
    /// Runs `threads` over a world from `setup` in every schedule the
    /// reduction keeps within the bound, judging each run with `oracle`:
    /// the number of runs, or the first violation.
    pub fn run<W: Sync>(
        &self,
        setup: impl Fn() -> W,
        threads: &[fn(&W)],
        oracle: impl Fn(&W) -> Result<(), String>,
    ) -> Result<u64, Violation> {
        let (mut path, mut runs) = (Vec::new(), 0);
        loop {
            runs += 1;
            MADE.with(|made| made.set(0));
            let world = setup();
            let failure;
            (path, failure) = self.run_once(&world, threads, path);
            let failure = match failure {
                // A run cut short leaves the world wedged: never drop it.
                Some(failure) => Some(failure).inspect(|_| std::mem::forget(world)),
                None => oracle(&world).err(),
            };
            if let Some(message) = failure {
                let choices = path.iter().filter(|c| c.runnable.count_ones() > 1);
                return Err((message, choices.map(|c| c.chosen).collect()));
            }
            // Backtrack to the deepest point with a thread left to run.
            let left = |c: &Choice| c.backtrack & !c.done & !c.asleep;
            while path.last().is_some_and(|c| left(c) == 0) {
                path.pop();
            }
            let Some(last) = path.last_mut() else {
                return Ok(runs);
            };
            last.chosen = left(last).trailing_zeros() as usize;
            last.done |= 1 << last.chosen;
        }
    }

    /// One run over `world`, replaying `path`: the path it took, and its
    /// failure.
    fn run_once<W: Sync>(
        &self,
        world: &W,
        threads: &[fn(&W)],
        path: Vec<Choice>,
    ) -> (Vec<Choice>, Option<String>) {
        let n = threads.len();
        let state = State {
            status: vec![Status::New; n],
            pending: vec![None; n],
            clocks: vec![vec![0; n]; n],
            replay: path.len(),
            path,
            bound: self.bound,
            ..State::default()
        };
        let exec = Arc::new(Exec {
            state: Mutex::new(state),
            turn: Condvar::new(),
            split_wait: self.split_wait,
        });
        exec.pick(&mut exec.lock(), None);
        std::thread::scope(|scope| {
            for (me, body) in threads.iter().enumerate() {
                let exec = Arc::clone(&exec);
                scope.spawn(move || exec.host(me, || body(world)));
            }
        });
        let mut s = exec.lock();
        let diverged = s.at < s.replay;
        let message = format!("replay diverged from its prefix after {} choices", s.at);
        let failure = s.failure.take().or_else(|| diverged.then_some(message));
        let mut path = std::mem::take(&mut s.path);
        path.truncate(s.at);
        (path, failure)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Not started: it runs to its first point before any choice.
    New,
    Run,
    /// About to take the lock of this name, exclusively or shared: it can
    /// run only while no holder conflicts.
    Acquire(u64, bool),
    /// Waiting on the condvar of this name.
    Blocked(u64),
    Done,
}

#[derive(Default)]
struct State {
    status: Vec<Status>,
    /// Per thread: the access its next event starts with.
    pending: Vec<Option<Access>>,
    /// Locks held, and whether exclusively.
    held: Vec<(u64, bool)>,
    /// The points to replay, then the ones this run reached; `at` of them
    /// so far, the last one's event in progress.
    path: Vec<Choice>,
    replay: usize,
    at: usize,
    bound: usize,
    /// The accesses of the event in progress.
    accesses: Vec<Access>,
    /// Per thread, its vector clock; per event, the clock it ended with.
    clocks: Vec<Vec<u32>>,
    ended: Vec<Vec<u32>>,
    /// Per object, the events that accessed it.
    history: HashMap<u64, Vec<(usize, Access)>>,
    /// Threads asleep, and the event each would make.
    sleep: Vec<(usize, Vec<Access>)>,
    /// The one thread allowed to run.
    active: usize,
    /// Scheduling points passed and clock readings: the logical clock.
    steps: u64,
    /// Set once; every waiting thread then unwinds.
    failure: Option<String>,
}

impl State {
    /// Records an access by `t` in the event in progress. The last
    /// conflicting access by another thread that nothing orders before
    /// `t` is a race: `t` is offered at its point, and at the switch
    /// before that.
    fn access(&mut self, t: usize, access: Access) {
        let (path, ended) = (&self.path, &self.ended);
        let history = self.history.entry(access.0).or_default();
        let theirs: Vec<(usize, usize, Access)> = (history.iter().rev())
            .map(|&(e, a)| (e, path[e].chosen, a))
            .filter(|&(_, u, a)| u != t && a.conflicts(access))
            .collect();
        history.push((self.at - 1, access));
        self.accesses.push(access);
        let clock = &mut self.clocks[t];
        let race = theirs
            .iter()
            .find(|&&(e, u, a)| !(a.2 || access.2) && ended[e][u] > clock[u]);
        let race = race.map(|&(e, _, _)| e);
        for &(e, _, _) in &theirs {
            for (mine, &other) in clock.iter_mut().zip(&ended[e]) {
                *mine = (*mine).max(other);
            }
        }
        if let Some(e) = race {
            let switch = (1..e).rev().find(|&j| path[j].chosen != path[j - 1].chosen);
            let bound = self.bound;
            self.path[e].offer(t, bound);
            if e > 0 {
                self.path[switch.unwrap_or(0)].offer(t, bound);
            }
        }
    }

    /// Ends the event in progress: it wakes the sleepers it conflicts
    /// with, and its point remembers it.
    fn end_event(&mut self) {
        if self.at == 0 {
            return;
        }
        let choice = &mut self.path[self.at - 1];
        let t = choice.chosen;
        self.ended.push(self.clocks[t].clone());
        let accesses = std::mem::take(&mut self.accesses);
        let conflicts =
            |a: &Vec<Access>| a.iter().any(|&x| accesses.iter().any(|&y| x.conflicts(y)));
        self.sleep.retain(|(_, a)| !conflicts(a));
        if choice.current == Some(t) {
            choice.event = accesses;
        }
    }
}

/// One run in progress.
struct Exec {
    state: Mutex<State>,
    turn: Condvar,
    split_wait: bool,
}

/// The unwind payload that ends the threads of a failed run.
struct Aborted;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
    /// Objects this thread has made in this run.
    static MADE: Cell<u64> = const { Cell::new(0) };
}

impl Exec {
    /// Runs thread `me`'s `body` in this run.
    fn host(self: &Arc<Self>, me: usize, body: impl FnOnce()) {
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(self), me)));
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            self.wait_turn(me, self.lock());
            body();
        }));
        CURRENT.with(|c| *c.borrow_mut() = None);
        let mut s = self.lock();
        s.status[me] = Status::Done;
        match ran {
            Err(p) if !p.is::<Aborted>() => {
                let what = p.downcast_ref::<&str>().map(|m| m.to_string());
                let what = what.or_else(|| p.downcast_ref::<String>().cloned());
                s.failure = Some(format!("thread {me} panicked: {what:?}"));
            }
            _ if s.failure.is_none() => self.pick(&mut s, None),
            _ => {}
        }
        self.turn.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fail(&self, s: &mut State, message: String) {
        s.failure.get_or_insert(message);
        self.turn.notify_all();
    }

    fn runnable(s: &State, t: usize) -> bool {
        match s.status[t] {
            Status::New | Status::Run => true,
            Status::Acquire(lock, excl) => !s.held.iter().any(|&(l, x)| l == lock && (x || excl)),
            Status::Blocked(_) | Status::Done => false,
        }
    }

    /// Picks who runs next after `me` stopped: a thread yet to start, the
    /// replayed choice, `me` if it can go on and is awake, or the lowest
    /// awake thread that can (any, if all sleep).
    fn pick(&self, s: &mut State, me: Option<usize>) {
        if let Some(new) = s.status.iter().position(|&t| t == Status::New) {
            s.status[new] = Status::Run;
            s.active = new;
            return self.turn.notify_all();
        }
        s.end_event();
        let threads = 0..s.status.len();
        let runnable: u32 = threads
            .clone()
            .filter(|&t| Self::runnable(s, t))
            .fold(0, |m, t| m | 1 << t);
        if runnable == 0 {
            let blocked: Vec<usize> = threads.filter(|&t| s.status[t] != Status::Done).collect();
            if !blocked.is_empty() {
                self.fail(s, format!("deadlock: threads {blocked:?} blocked forever"));
            }
            return;
        }
        let current = me.filter(|&t| runnable & 1 << t != 0 && s.at > 0);
        let asleep = s.sleep.iter().fold(0, |m, &(t, _)| m | 1 << t);
        let awake = runnable & !asleep;
        let awake = if awake == 0 { runnable } else { awake };
        let first = current.filter(|&t| awake & 1 << t != 0);
        let first = first.unwrap_or(awake.trailing_zeros() as usize);
        let at = s.at;
        if let Some(recorded) = s.path.get(at) {
            if (recorded.runnable, recorded.current) != (runnable, current) {
                let message = format!("replay diverged from its recorded prefix at choice {at}");
                return self.fail(s, message);
            }
        } else {
            let spent = s.path.last().map_or(0, |c| c.spent + c.preempts(c.chosen));
            s.path.push(Choice {
                runnable,
                current,
                chosen: first,
                spent,
                backtrack: 1 << first,
                done: 1 << first,
                asleep,
                event: Vec::new(),
            });
        }
        let choice = &s.path[at];
        let chosen = choice.chosen;
        // Only the thread that stopped here sleeps once run here: any run
        // its sleep prunes has an equivalent it ran with no more preemptions.
        let slept = choice
            .current
            .filter(|&c| c != chosen && choice.done & 1 << c != 0);
        let slept = slept.map(|c| (c, choice.event.clone()));
        s.sleep.extend(slept);
        s.at += 1;
        s.clocks[chosen][chosen] += 1;
        if let Some(access) = s.pending[chosen].take() {
            s.access(chosen, access);
        }
        s.active = chosen;
        self.turn.notify_all();
    }

    fn wait_turn(&self, me: usize, mut s: MutexGuard<'_, State>) {
        loop {
            if s.failure.is_some() {
                drop(s);
                panic::resume_unwind(Box::new(Aborted));
            }
            if s.active == me {
                return;
            }
            s = self.turn.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A scheduling point of `me` (its status in `s` already set), before
    /// `next` if its next event starts with an access.
    fn switch(&self, me: usize, mut s: MutexGuard<'_, State>, next: Option<Access>) {
        s.steps += 1;
        s.pending[me] = next;
        if s.failure.is_none() {
            self.pick(&mut s, Some(me));
        }
        self.wait_turn(me, s);
    }
}

/// The run this thread belongs to, unless it has none or is unwinding
/// (its guards then release without scheduling).
fn current() -> Option<(Arc<Exec>, usize)> {
    let current = CURRENT.with(|c| c.borrow().clone());
    if !std::thread::panicking() {
        return current;
    }
    // A panic in the real code ends the run now, so no other thread
    // keeps a lock this one's unwinding may need.
    if let Some((exec, me)) = current {
        exec.fail(&mut exec.lock(), format!("thread {me} panicked"));
    }
    None
}

/// A name for a new lock, condvar, atomic or device that the same
/// schedule gives it again: the thread that made it (0 outside the run)
/// and how many it had made before.
pub(crate) fn name() -> u64 {
    let maker = CURRENT.with(|c| c.borrow().as_ref().map_or(0, |(_, me)| *me as u64 + 1));
    MADE.with(|made| {
        made.set(made.get() + 1);
        maker << 32 | made.get()
    })
}

pub(crate) fn exploring() -> bool {
    current().is_some()
}

/// An exploration thread unwinding: a released lock is not taken again.
pub(crate) fn unwinding() -> bool {
    std::thread::panicking() && CURRENT.with(|c| c.borrow().is_some())
}

/// A scheduling point before an access to `object`, a write or not.
pub(crate) fn point(object: u64, write: bool) {
    if let Some((exec, me)) = current() {
        exec.switch(me, exec.lock(), Some(Access(object, write, false)));
    }
}

/// Takes `lock` through `try_take` at a scheduling point that waits
/// until no other thread holds it in a conflicting mode; `None` off an
/// exploration thread.
pub(crate) fn acquire<G>(
    lock: u64,
    exclusive: bool,
    try_take: impl Fn() -> Option<G>,
) -> Option<G> {
    let (exec, me) = current()?;
    loop {
        let mut s = exec.lock();
        s.status[me] = Status::Acquire(lock, exclusive);
        exec.switch(me, s, Some(Access(lock, exclusive, false)));
        // Only a thread outside the exploration can make this fail.
        if let Some(guard) = try_take() {
            let mut s = exec.lock();
            s.status[me] = Status::Run;
            s.held.push((lock, exclusive));
            return Some(guard);
        }
    }
}

/// Releases `lock` in the event in progress.
fn release(s: &mut State, me: usize, lock: u64) {
    if let Some(at) = s.held.iter().position(|&(l, _)| l == lock) {
        let (_, exclusive) = s.held.swap_remove(at);
        s.access(me, Access(lock, exclusive, true));
    }
}

/// `lock` was released: part of the event in progress, no point.
pub(crate) fn released(lock: u64) {
    if let Some((exec, me)) = current() {
        release(&mut exec.lock(), me, lock);
    }
}

/// A condvar wait, `lock` just released: parks on `condvar` until a
/// notify — in the release's event, unless the run splits waits.
pub(crate) fn park(lock: u64, condvar: u64) {
    if let Some((exec, me)) = current() {
        let mut s = exec.lock();
        release(&mut s, me, lock);
        let park = Access(condvar, true, false);
        if exec.split_wait {
            exec.switch(me, s, Some(park));
            s = exec.lock();
        } else {
            s.access(me, park);
        }
        s.status[me] = Status::Blocked(condvar);
        exec.switch(me, s, None);
    }
}

pub(crate) fn notify(condvar: u64) {
    if let Some((exec, me)) = current() {
        exec.switch(me, exec.lock(), Some(Access(condvar, true, false)));
        for status in &mut exec.lock().status {
            if *status == Status::Blocked(condvar) {
                *status = Status::Run;
            }
        }
    }
}

/// Logical time on an exploration thread: each reading, like each
/// scheduling point, advances it ten microseconds.
pub(crate) fn now() -> Option<Instant> {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let (exec, _) = current()?;
    let mut s = exec.lock();
    s.steps += 1;
    Some(*ORIGIN.get_or_init(Instant::now) + Duration::from_micros(10 * s.steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{AtomicU64, Condvar, Mutex};
    use std::sync::atomic::Ordering::{Acquire, Release};

    fn explorer(bound: usize, split_wait: bool) -> Explorer {
        Explorer { bound, split_wait }
    }

    /// Both threads run to their one point; thread 0 stores `a` and exits,
    /// then thread 1 stores `b`. Nothing conflicts, so no point is tried
    /// with a second thread: 1 run.
    #[test]
    fn threads_on_disjoint_atomics_finish_in_one_run() {
        type Pair = (AtomicU64, AtomicU64);
        let threads = [
            |p: &Pair| p.0.store(1, Release),
            |p: &Pair| p.1.store(1, Release),
        ];
        assert_eq!(
            explorer(3, false).run(Pair::default, &threads, |_| Ok(())),
            Ok(1)
        );
    }

    fn add_one(m: &Mutex<u32>) {
        *m.lock() += 1;
    }

    fn add_two(m: &Mutex<u32>) {
        (0..2).for_each(|_| add_one(m));
    }

    /// Each thread takes the lock twice. A release is no point, so a
    /// thread's events are its two critical sections, and a schedule is an
    /// order of the four: six orders, none equivalent to another. Running
    /// a thread's section while the other has one in hand preempts it:
    /// 0011 and 1100 preempt never, 0110 and 1001 once, 0101 and 1010
    /// twice. Sleep sets keep any order from running twice: 2, 4, 6 and 6
    /// runs at bounds 0 to 3.
    #[test]
    fn two_incrementers_run_every_schedule_within_the_bound() {
        for (bound, runs) in [(0, 2), (1, 4), (2, 6), (3, 6)] {
            let total = |m: &Mutex<u32>| match *m.lock() {
                4 => Ok(()),
                n => Err(format!("{n} increments")),
            };
            let report = explorer(bound, false).run(Default::default, &[add_two, add_two], total);
            assert_eq!(report, Ok(runs), "bound {bound}");
        }
    }

    fn load_then_store(x: &AtomicU64) {
        let v = x.load(Acquire);
        x.store(v + 1, Release);
    }

    /// Run 1 runs thread 0, then thread 1, whose load races thread 0's
    /// store; run 2 puts it first, at thread 0's store, and both store 1.
    #[test]
    fn a_lost_update_is_found() {
        let sum = |x: &AtomicU64| match x.load(Acquire) {
            2 => Ok(()),
            n => Err(format!("{n} after two increments")),
        };
        let report = explorer(3, false).run(Default::default, &[load_then_store as fn(&_); 2], sum);
        assert_eq!(
            report,
            Err(("1 after two increments".into(), vec![0, 1, 1]))
        );
    }

    type Two = (Mutex<()>, Mutex<()>);

    /// Thread 1's first acquire races thread 0's; once it goes first, each
    /// thread holds the lock the other wants.
    #[test]
    fn blocked_thread_is_a_deadlock_violation() {
        let a_then_b = |t: &Two| drop((t.0.lock(), t.1.lock()));
        let b_then_a = |t: &Two| drop((t.1.lock(), t.0.lock()));
        let report = explorer(3, false).run(Two::default, &[a_then_b, b_then_a], |_| Ok(()));
        let (message, _) = report.expect_err("a lock-order inversion");
        assert!(message.contains("deadlock"), "{message}");
    }

    type Flag = (Mutex<bool>, Condvar);

    fn wait_for_flag(f: &Flag) {
        let mut set = f.0.lock();
        while !*set {
            f.1.wait(&mut set);
        }
    }

    fn raise_flag(f: &Flag) {
        *f.0.lock() = true;
        f.1.notify_all();
    }

    #[test]
    fn a_split_wait_loses_a_wakeup_as_a_deadlock() {
        let threads = [wait_for_flag, raise_flag];
        let run = |split| explorer(3, split).run(Flag::default, &threads, |_| Ok(()));
        assert!(run(false).is_ok(), "{:?}", run(false));
        let (message, schedule) = run(true).expect_err("a lost wakeup");
        assert!(
            message.contains("deadlock") && !schedule.is_empty(),
            "{message}"
        );
    }

    static TOSSES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    thread_local! {
        /// Heads for every other thread that asks.
        static COIN: bool = TOSSES.fetch_add(1, std::sync::atomic::Ordering::Relaxed).is_multiple_of(2);
    }

    fn toss_then_add(m: &Mutex<u32>) {
        if COIN.with(|heads| *heads) {
            add_one(m);
        }
        add_one(m);
    }

    #[test]
    fn a_scenario_that_tosses_a_coin_does_not_replay() {
        let threads = [toss_then_add, add_one];
        let report = Explorer::default().run(Default::default, &threads, |_| Ok(()));
        let (message, _) = report.expect_err("the replay diverges");
        assert!(message.contains("diverged"), "{message}");
    }
}
