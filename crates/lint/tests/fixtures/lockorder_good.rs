// Known-good fixture for the lock-order pass: the same shapes as the
// bad fixture, written the way the canonical order demands. Zero
// findings expected.

/// Copy-out discipline: release `check` before taking `core`.
fn check_released_before_core(shared: &Shared) -> u64 {
    let copied = {
        let state = shared.check.lock();
        state.snapshots.len() as u64
    };
    let core = shared.core.lock();
    copied + core.seq
}

/// Rank-increasing nesting is fine: core -> regions -> mem_lock.
fn descending_the_order(shared: &Shared, region: &Region) {
    let _core = shared.core.lock();
    let _regions = shared.regions.read();
    let _mem = region.mem_lock.write();
}

/// A plain `if` condition's temporary guard drops at the `{`, so the
/// `core` acquisition inside the block is NOT nested under `check`.
fn plain_if_drops_guard(shared: &Shared) {
    if shared.check.lock().snapshots.is_empty() {
        let _core = shared.core.lock();
    }
}

/// An explicit `drop` ends the guard early.
fn explicit_drop(shared: &Shared) {
    let state = shared.check.lock();
    let n = state.snapshots.len();
    drop(state);
    let _core = shared.core.lock();
    consume(n);
}

/// Code inside `spawn(...)` runs on another thread: not "held across".
fn spawn_is_not_holding(shared: &Shared) {
    let _pv = shared.check.lock();
    std::thread::spawn(move || {
        let _core = shared.core.lock();
    });
}

/// `unlocked` releases the guard around its closure: the re-acquisition
/// inside (directly or through `relocks_core`) is not nested under it,
/// here or for a caller that holds `core` across `releases_around`.
fn releases_around(shared: &Shared, core: &mut CoreGuard) {
    MutexGuard::unlocked(core, || relocks_core(shared));
}

fn relocks_core(shared: &Shared) {
    let _core = shared.core.lock();
}

fn holds_core_across_release(shared: &Shared) {
    let mut core = shared.core.lock();
    releases_around(shared, &mut core);
    MutexGuard::unlocked(&mut core, || {
        let _again = shared.core.lock();
    });
}

/// A second guard stays held across the region; acquiring above it in
/// there is in order.
fn second_guard_in_order(shared: &Shared, region: &Region) {
    let mut core = shared.core.lock();
    let _regions = shared.regions.read();
    MutexGuard::unlocked(&mut core, || {
        let _pv = region.page_vector.lock();
    });
}

/// A callee that releases its caller's `core` may take a lock ranked
/// *below* `core` in there (a queue lock that is
/// never held together with `core`): it is not nested under the guard
/// the caller passed down.
fn holds_core_across_lower_release(shared: &Shared) {
    let mut core = shared.core.lock();
    takes_queue_around(shared, &mut core);
}

fn takes_queue_around(shared: &Shared, core: &mut CoreGuard) {
    MutexGuard::unlocked(core, || {
        let _queue = shared.queue.lock();
    });
}
