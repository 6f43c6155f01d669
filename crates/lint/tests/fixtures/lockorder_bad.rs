// Known-bad fixture for the lock-order pass. Each function is one
// conviction the fixture test pins down.

/// The historical `query` shape: `check` held across a `core`
/// acquisition (rank 25 -> rank 10, against the order).
fn check_then_core(shared: &Shared) -> u64 {
    let state = shared.check.lock();
    let core = shared.core.lock();
    state.snapshots.len() as u64 + core.seq
}

/// Re-acquisition: parking_lot mutexes are not reentrant.
fn core_reentrant(shared: &Shared) {
    let a = shared.core.lock();
    let b = shared.core.lock();
    drop(a);
    drop(b);
}

/// Inversion through a call: holding `page_vector` while calling a
/// helper whose transitive closure takes `mem_lock`.
fn vector_then_helper(region: &Region) {
    let pv = region.page_vector.lock();
    helper_touches_memory(region);
    drop(pv);
}

fn helper_touches_memory(region: &Region) {
    let _guard = region.mem_lock.write();
}

/// `if let` scrutinee temporary: the guard lives to the end of the
/// construct's block (Rust <= 2021 rules), so the `core` acquisition
/// inside the block happens with `check` still held.
fn if_let_extends_guard(shared: &Shared) {
    if let Some(snap) = shared.check.lock().snapshots.first() {
        let _core = shared.core.lock();
        consume(snap);
    }
}

/// Acquiring a lock nobody declared in lockorder.toml.
fn undeclared_lock(shared: &Shared) {
    let _g = shared.secret_side_table.lock();
}

/// `unlocked` releases only `core`: `check` stays held across the
/// region, so taking `core` again in there is rank 25 -> rank 10 — not
/// a re-acquisition, an inversion.
fn unlocked_with_second_guard(shared: &Shared) {
    let mut core = shared.core.lock();
    let state = shared.check.lock();
    MutexGuard::unlocked(&mut core, || {
        let _again = shared.core.lock();
    });
    consume(&state);
}

/// The same through a call: `releases_core_around` drops the caller's
/// `core` for its closure, but the `regions` acquisition in there still
/// happens under whatever else the caller holds — here `page_vector`
/// (rank 40 -> rank 20).
fn vector_across_unlocked_callee(shared: &Shared, region: &Region, core: &mut CoreGuard) {
    let pv = region.page_vector.lock();
    releases_core_around(shared, core);
    drop(pv);
}

fn releases_core_around(shared: &Shared, core: &mut CoreGuard) {
    MutexGuard::unlocked(core, || {
        let _regions = shared.regions.read();
    });
}

/// ... but only `core` was released: the queue lock (rank 5) taken in
/// the callee's region still nests under the caller's `regions`.
fn regions_across_lower_release(shared: &Shared, core: &mut CoreGuard) {
    let _regions = shared.regions.read();
    takes_queue_around(shared, core);
}

fn takes_queue_around(shared: &Shared, core: &mut CoreGuard) {
    MutexGuard::unlocked(core, || {
        let _queue = shared.queue.lock();
    });
}
