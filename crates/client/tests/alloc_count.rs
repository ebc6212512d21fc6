//! Counts heap allocations on the client hot path.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed` and
//! `realloc` per thread, and the heap bytes each thread holds live, so
//! tests running in parallel do not see each other's allocations. The
//! checks run at DB_MT's domain (k = 1412, 23 words per UE report) through
//! `ClientPool::sanitize_one`, the same `ClientState::report_into` the round
//! methods call:
//!
//! * a memo hit allocates nothing, for every method;
//! * an L-OSUE memo miss allocates only when the user's memo needs a new
//!   16-row page (or its page table grows);
//! * an L-OSUE memo holds at most one page of empty rows beyond its
//!   memoized ones;
//! * building an L-OSUE pool costs a pinned number of allocations and live
//!   heap bytes per user.
//!
//! If a bound fails, find the allocation; do not raise the bound.

use ldp_client::{ClientConfig, ClientPool, ReportBuf};
use ldp_obs::MetricsRegistry;
use ldp_runtime::Method;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation that changes this thread's live bytes by `delta`.
fn bump(delta: i64) {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    add_live(delta);
}

fn add_live(delta: i64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counters themselves never allocate (a
// `const`-initialized `Cell` thread local needs no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller's `layout` contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; both pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Growth of this thread's live heap bytes across `f`.
fn live_bytes_in(f: impl FnOnce()) -> i64 {
    let before = LIVE_BYTES.with(Cell::get);
    f();
    LIVE_BYTES.with(Cell::get) - before
}

const K: u64 = 1412;

fn pool(method: Method, n: usize, obs: &MetricsRegistry) -> ClientPool {
    let cfg = ClientConfig::for_method(method, K, 2.0, 1.0).unwrap();
    ClientPool::with_obs(cfg, 7, n, obs).unwrap()
}

#[test]
fn memo_hits_allocate_nothing_for_any_method() {
    let value = |u: usize, i: usize| ((u * 97 + (i % 3) * 5) % K as usize) as u64;
    for method in Method::all() {
        let obs = MetricsRegistry::new();
        let mut pool = pool(method, 8, &obs);
        let mut buf = ReportBuf::new();
        // Warm-up: memoize each user's three values and size the buffer.
        for u in 0..8 {
            for i in 0..3 {
                pool.sanitize_one(u, value(u, i), &mut buf);
            }
        }
        let n = allocs_in(|| {
            for i in 0..1_000 {
                pool.sanitize_one(i % 8, value(i % 8, i), &mut buf);
            }
        });
        assert_eq!(
            n, 0,
            "{method:?}: 1000 memo-hit reports allocated {n} times"
        );
    }
}

#[test]
fn memo_misses_allocate_only_when_the_arena_grows() {
    let obs = MetricsRegistry::new();
    let mut pool = pool(Method::LOsue, 2, &obs);
    let mut buf = ReportBuf::new();
    // Size the buffer on another user, so only user 0's memo can grow.
    pool.sanitize_one(1, 0, &mut buf);
    let n = allocs_in(|| {
        for v in 0..64 {
            pool.sanitize_one(0, v * 19, &mut buf);
        }
    });
    assert_eq!(pool.states().next().unwrap().distinct_classes(), 64);
    // 64 entries of 23 words fill 4 pages of 16 rows, and the page table
    // is allocated once (capacity 4).
    assert!(n <= 5, "64 memo misses allocated {n} times");
}

#[test]
fn memo_slack_stays_within_one_page() {
    const ROW_BYTES: i64 = 23 * 8;
    let obs = MetricsRegistry::new();
    let mut pool = pool(Method::LOsue, 2, &obs);
    let mut buf = ReportBuf::new();
    // Size the buffer on another user, so only user 0's memo can grow.
    pool.sanitize_one(1, 0, &mut buf);
    let grown = live_bytes_in(|| {
        for v in 0..65 {
            pool.sanitize_one(0, v * 19, &mut buf);
        }
    });
    assert_eq!(pool.states().next().unwrap().distinct_classes(), 65);
    // 65 rows, at most 15 empty rows in the last page, and the page table.
    let bound = (65 + 15) * ROW_BYTES + 256;
    assert!(
        grown <= bound,
        "65 memo misses grew live heap by {grown} B (bound {bound} B)"
    );
}

#[test]
fn pool_build_allocations_per_user_are_pinned() {
    // A fresh registry per build, so both register the same instruments.
    let build = |n: usize| {
        let obs = MetricsRegistry::new();
        allocs_in(|| drop(pool(Method::LOsue, n, &obs)))
    };
    let (small, large) = (build(10), build(110));
    // Per user: the boxed state and the memo's class index. The memo's
    // page table starts empty, and the privacy accounting reads the memo.
    assert_eq!((large - small) % 100, 0, "{small} vs {large}");
    assert_eq!((large - small) / 100, 2, "allocations per pooled user");
}

#[test]
fn pool_build_live_bytes_per_user_are_pinned() {
    let build = |n: usize| {
        let obs = MetricsRegistry::new();
        let mut kept = None;
        let bytes = live_bytes_in(|| kept = Some(pool(Method::LOsue, n, &obs)));
        drop(kept);
        bytes
    };
    let (small, large) = (build(10), build(110));
    // Per user: the boxed state (281 B) and the memo's class index, a
    // presence bitmap with group ranks and 80 rank slots (392 B). A dense
    // `u16` class index alone would take 2 824 B.
    let per_user = (large - small) / 100;
    assert!(
        per_user <= 768,
        "a pooled L-OSUE user holds {per_user} B after build (bound 768 B)"
    );
}
