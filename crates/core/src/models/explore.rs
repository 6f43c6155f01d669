//! Two interleaving explorers.
//!
//! * **Stateful**: a [`Model`] is a deterministic transition system whose
//!   only source of nondeterminism is *which thread steps next*;
//!   [`explore`] walks its whole reachable state graph (depth-first, with
//!   visited-state dedup), checking the invariant at every state.
//! * **Stateless**: an [`Explorer`] runs real threads over the real code,
//!   one at a time. The wrappers `crate::sync` names under test
//!   ([`super::sync`]) stop at *scheduling points*, where the explorer
//!   picks who goes on. It replays each schedule from a fresh world,
//!   depth-first under a preemption bound (a switch away from a thread
//!   that could go on counts; one forced by a block or an exit does not).
//!   Two reductions keep it small: a thread about to take a lock another
//!   holds cannot run, and a point before an object no two threads have
//!   shared (some thread wrote it, another reached it, in some run so far)
//!   offers no switch, since a switch there equals one at the thread's
//!   next point; a run that finds a new shared object restarts the search.
//!
//! A schedule must replay exactly: clock readings on an explored thread
//! are logical ([`now`]), and a replay whose choices differ from its
//! recorded prefix (a coin, a hash order) is itself a violation.
//!
//! Either reports a state where no thread can run but not every thread
//! has finished as a deadlock — the shape a lost wakeup takes.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A multithreaded protocol restated as per-thread step functions over
/// cloneable shared state.
pub trait Model: Clone + Eq + Hash {
    /// Number of threads in the model (fixed).
    fn threads(&self) -> usize;
    /// Whether thread `t` can take a step in this state: not finished and
    /// not blocked (on a lock or in a condvar wait-set).
    fn runnable(&self, t: usize) -> bool;
    /// Whether thread `t` has run to completion.
    fn finished(&self, t: usize) -> bool;
    /// Perform one atomic step of thread `t`. Only called when
    /// `runnable(t)`.
    fn step(&mut self, t: usize);
    /// Invariant check, run at every reachable state.
    fn check(&self) -> Result<(), String>;
}

/// What [`explore`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states: u64,
    /// First violation encountered, if any: the invariant message and the
    /// schedule (thread index per step) that reaches it from the initial
    /// state.
    pub violation: Option<(String, Vec<usize>)>,
    /// Whether the whole reachable graph was covered (false only if
    /// `max_states` was hit first).
    pub complete: bool,
}

/// Exhaustively explores every schedule of `initial`, visiting at most
/// `max_states` distinct states.
pub fn explore<M: Model>(initial: M, max_states: u64) -> ExploreReport {
    let mut visited: HashSet<M> = HashSet::new();
    // Each frame carries the state plus the schedule that produced it, so
    // a violation is reported with its witness interleaving.
    let mut stack: Vec<(M, Vec<usize>)> = vec![(initial, Vec::new())];
    let mut states = 0u64;

    let stop = |states, violation| ExploreReport {
        states,
        violation,
        complete: false,
    };
    while let Some((state, schedule)) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        states += 1;
        if states > max_states {
            return stop(states, None);
        }
        if let Err(msg) = state.check() {
            return stop(states, Some((msg, schedule)));
        }
        let threads = 0..state.threads();
        let runnable: Vec<usize> = threads.clone().filter(|&t| state.runnable(t)).collect();
        let blocked: Vec<usize> = threads.filter(|&t| !state.finished(t)).collect();
        if runnable.is_empty() && !blocked.is_empty() {
            let msg = format!("deadlock: threads {blocked:?} blocked forever (lost wakeup?)");
            return stop(states, Some((msg, schedule)));
        }
        for t in runnable {
            let mut next = state.clone();
            next.step(t);
            let mut sched = schedule.clone();
            sched.push(t);
            stack.push((next, sched));
        }
    }
    ExploreReport {
        states,
        violation: None,
        complete: true,
    }
}

/// The preemption bound of [`Explorer::default`]: deeper under `--cfg loom`.
pub const BOUND: usize = if cfg!(loom) { 3 } else { 2 };

/// A scheduling point where more than one thread could run.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Choice {
    runnable: u32,
    /// The thread that stopped here, if it could go on.
    current: Option<usize>,
    chosen: usize,
    /// Threads chosen here so far, this one included.
    tried: u32,
}

impl Choice {
    fn preempts(&self, t: usize) -> usize {
        usize::from(self.current.is_some_and(|c| c != t))
    }
}

/// A schedule that broke something — a deadlock, a panic, a replay that
/// left its recorded prefix, or the oracle's complaint — with the thread
/// chosen at each choice.
pub type Violation = (String, Vec<usize>);

/// The stateless explorer; see the [module docs](self).
pub struct Explorer {
    pub bound: usize,
    /// Every condvar wait releases its lock, reaches a scheduling point,
    /// and only then parks: the lost-wakeup mutant.
    pub split_wait: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            bound: BOUND,
            split_wait: false,
        }
    }
}

impl Explorer {
    /// Runs `threads` over a world from `setup` in every schedule within
    /// the bound, judging each run with `oracle`: the number of runs, or
    /// the first violation.
    pub fn run<W: Sync>(
        &self,
        setup: impl Fn() -> W,
        threads: &[fn(&W)],
        oracle: impl Fn(&W) -> Result<(), String>,
    ) -> Result<u64, Violation> {
        let (mut shared, mut path, mut runs) = (HashSet::new(), Vec::<Choice>::new(), 0);
        loop {
            runs += 1;
            MADE.with(|made| made.set(0));
            let (world, known) = (setup(), shared.len());
            let (trace, failure) = self.run_once(&world, threads, &path, &mut shared);
            let failure = match failure {
                // A run cut short leaves the world wedged: never drop it.
                Some(failure) => Some(failure).inspect(|_| std::mem::forget(world)),
                None => oracle(&world).err(),
            };
            if let Some(message) = failure {
                return Err((message, trace.iter().map(|c| c.chosen).collect()));
            }
            if shared.len() > known {
                path.clear();
                continue;
            }
            path.extend_from_slice(&trace[path.len()..]);
            // Backtrack to the deepest choice with an untried thread the
            // bound allows.
            loop {
                let Some(last) = path.pop() else {
                    return Ok(runs);
                };
                let spent: usize = path.iter().map(|c| c.preempts(c.chosen)).sum();
                let untried = last.runnable & !last.tried;
                let next = (0..32)
                    .find(|&t| untried & 1 << t != 0 && spent + last.preempts(t) <= self.bound);
                if let Some(t) = next {
                    let tried = last.tried | 1 << t;
                    path.push(Choice {
                        chosen: t,
                        tried,
                        ..last
                    });
                    break;
                }
            }
        }
    }

    /// One run over `world`, replaying `prefix`: its choices and its
    /// failure. Objects it finds shared join `shared`.
    fn run_once<W: Sync>(
        &self,
        world: &W,
        threads: &[fn(&W)],
        prefix: &[Choice],
        shared: &mut HashSet<u64>,
    ) -> (Vec<Choice>, Option<String>) {
        let state = State {
            status: vec![Status::Run; threads.len()],
            prefix: prefix.to_vec(),
            ..State::default()
        };
        let exec = Arc::new(Exec {
            state: Mutex::new(state),
            turn: Condvar::new(),
            shared: std::mem::take(shared),
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
        *shared = exec.shared.clone();
        let touched = s
            .touched
            .iter()
            .filter(|(_, &(by, wrote))| wrote && by.count_ones() > 1);
        shared.extend(touched.map(|(&name, _)| name));
        let trace = std::mem::take(&mut s.trace);
        let diverged = trace.len() < prefix.len();
        let message = format!(
            "replay diverged from its prefix after {} choices",
            trace.len()
        );
        let failure = s.failure.take().or_else(|| diverged.then_some(message));
        (trace, failure)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
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
    /// Locks held, and whether exclusively.
    held: Vec<(u64, bool)>,
    /// The choices to replay, then the ones this run made.
    prefix: Vec<Choice>,
    trace: Vec<Choice>,
    /// Per object: the threads that reached it, and whether one wrote.
    touched: HashMap<u64, (u32, bool)>,
    /// The one thread allowed to run.
    active: usize,
    /// Scheduling points passed and clock readings: the logical clock.
    steps: u64,
    /// Set once; every waiting thread then unwinds.
    failure: Option<String>,
}

/// One run in progress.
struct Exec {
    state: Mutex<State>,
    turn: Condvar,
    /// Objects two threads shared in an earlier run.
    shared: HashSet<u64>,
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
            Status::Run => true,
            Status::Acquire(lock, excl) => !s.held.iter().any(|&(l, x)| l == lock && (x || excl)),
            Status::Blocked(_) | Status::Done => false,
        }
    }

    /// Picks who runs next after `me` stopped: the replayed choice, else
    /// `me` if it can go on, else the lowest thread that can.
    fn pick(&self, s: &mut State, me: Option<usize>) {
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
        let current = me.filter(|&t| runnable & 1 << t != 0);
        let mut chosen = current.unwrap_or(runnable.trailing_zeros() as usize);
        if runnable.count_ones() > 1 {
            let at = s.trace.len();
            if let Some(recorded) = s.prefix.get(at) {
                if (recorded.runnable, recorded.current) != (runnable, current) {
                    let message =
                        format!("replay diverged from its recorded prefix at choice {at}");
                    return self.fail(s, message);
                }
                chosen = recorded.chosen;
            }
            let tried = 1 << chosen;
            s.trace.push(Choice {
                runnable,
                current,
                chosen,
                tried,
            });
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

    /// A scheduling point of `me` (its status in `s` already set) at an
    /// access to `object`: a choice unless `me` can go on and the object
    /// is not shared.
    fn switch(&self, me: usize, mut s: MutexGuard<'_, State>, object: (u64, bool)) {
        s.steps += 1;
        let (name, wrote) = object;
        let seen = s.touched.entry(name).or_insert((0, false));
        *seen = (seen.0 | 1 << me, seen.1 || wrote);
        if !self.shared.contains(&name) && Self::runnable(&s, me) {
            return;
        }
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

/// A name for a new lock, condvar or atomic that the same schedule gives
/// it again: the thread that made it (0 outside the run) and how many it
/// had made before.
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

/// A scheduling point at an access to `object`, a write or not.
pub(crate) fn point(object: u64, wrote: bool) {
    if let Some((exec, me)) = current() {
        exec.switch(me, exec.lock(), (object, wrote));
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
        exec.switch(me, s, (lock, exclusive));
        // Only a thread outside the exploration can make this fail.
        if let Some(guard) = try_take() {
            let mut s = exec.lock();
            s.status[me] = Status::Run;
            s.held.push((lock, exclusive));
            return Some(guard);
        }
    }
}

fn unhold(s: &mut State, lock: u64) {
    if let Some(at) = s.held.iter().position(|&(l, _)| l == lock) {
        s.held.swap_remove(at);
    }
}

/// A scheduling point after `lock` was released.
pub(crate) fn released(lock: u64, exclusive: bool) {
    if let Some((exec, me)) = current() {
        let mut s = exec.lock();
        unhold(&mut s, lock);
        exec.switch(me, s, (lock, exclusive));
    }
}

/// A condvar wait, `lock` just released: parks on `condvar` until a
/// notify — in the release's step, unless the run splits waits.
pub(crate) fn park(lock: u64, condvar: u64) {
    if let Some((exec, me)) = current() {
        let mut s = exec.lock();
        unhold(&mut s, lock);
        if exec.split_wait {
            exec.switch(me, s, (condvar, true));
            s = exec.lock();
        }
        s.status[me] = Status::Blocked(condvar);
        exec.switch(me, s, (condvar, true));
    }
}

pub(crate) fn notify(condvar: u64) {
    if let Some((exec, me)) = current() {
        exec.switch(me, exec.lock(), (condvar, true));
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

    /// Two threads increment a shared counter twice each; a third value
    /// records the max observed. Sanity-checks full coverage and dedup.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Counter {
        pcs: [u8; 2],
        value: u8,
    }

    impl Model for Counter {
        fn threads(&self) -> usize {
            2
        }
        fn runnable(&self, t: usize) -> bool {
            self.pcs[t] < 2
        }
        fn finished(&self, t: usize) -> bool {
            self.pcs[t] == 2
        }
        fn step(&mut self, t: usize) {
            self.pcs[t] += 1;
            self.value += 1;
        }
        fn check(&self) -> Result<(), String> {
            if self.value > 4 {
                return Err("counter exceeded theoretical max".into());
            }
            Ok(())
        }
    }

    #[test]
    fn explores_all_interleavings_of_a_trivial_model() {
        let report = explore(
            Counter {
                pcs: [0, 0],
                value: 0,
            },
            10_000,
        );
        assert!(report.complete);
        assert!(report.violation.is_none());
        // pcs ∈ {0,1,2}², value = pcs[0]+pcs[1]: 9 states.
        assert_eq!(report.states, 9);
    }

    /// A thread that blocks forever must be reported as a deadlock.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Stuck {
        done: bool,
    }

    impl Model for Stuck {
        fn threads(&self) -> usize {
            1
        }
        fn runnable(&self, _t: usize) -> bool {
            false
        }
        fn finished(&self, _t: usize) -> bool {
            self.done
        }
        fn step(&mut self, _t: usize) {}
        fn check(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn blocked_thread_is_a_deadlock_violation() {
        let report = explore(Stuck { done: false }, 100);
        let (msg, _) = report.violation.expect("deadlock found");
        assert!(msg.contains("deadlock"));
    }

    fn add_one(m: &crate::sync::Mutex<u32>) {
        *m.lock() += 1;
    }

    /// Each thread stops at two points — before its acquire and after its
    /// release — so it runs in three segments, and nothing blocks. A
    /// schedule interleaves the two threads' segments; cut into B runs of
    /// one thread, it preempts B − 2 times (the switch at the first exit is
    /// free): 2 schedules with B = 2, 4 with B = 3, 8 with B = 4. One more
    /// run first finds that both threads write the mutex.
    #[test]
    fn two_incrementers_run_every_schedule_within_the_bound() {
        for (bound, runs) in [(0, 1 + 2), (1, 1 + 6), (2, 1 + 14)] {
            let explorer = Explorer {
                bound,
                ..Explorer::default()
            };
            let total = |m: &crate::sync::Mutex<u32>| match *m.lock() {
                2 => Ok(()),
                n => Err(format!("{n} increments")),
            };
            let report = explorer.run(Default::default, &[add_one, add_one], total);
            assert_eq!(report, Ok(runs), "bound {bound}");
        }
    }

    #[derive(Default)]
    struct Flag {
        set: crate::sync::Mutex<bool>,
        changed: crate::sync::Condvar,
    }

    fn wait_for_flag(f: &Flag) {
        let mut set = f.set.lock();
        while !*set {
            f.changed.wait(&mut set);
        }
    }

    fn raise_flag(f: &Flag) {
        *f.set.lock() = true;
        f.changed.notify_all();
    }

    #[test]
    fn a_split_wait_loses_a_wakeup_as_a_deadlock() {
        let threads = [wait_for_flag, raise_flag];
        let atomic = Explorer::default().run(Flag::default, &threads, |_| Ok(()));
        assert!(atomic.is_ok(), "{atomic:?}");
        let split = Explorer {
            split_wait: true,
            ..Explorer::default()
        };
        let report = split.run(Flag::default, &threads, |_| Ok(()));
        let (message, schedule) = report.expect_err("a lost wakeup");
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

    fn toss_then_add(m: &crate::sync::Mutex<u32>) {
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

    #[test]
    fn state_budget_is_honored() {
        let report = explore(
            Counter {
                pcs: [0, 0],
                value: 0,
            },
            3,
        );
        assert!(!report.complete);
    }
}
