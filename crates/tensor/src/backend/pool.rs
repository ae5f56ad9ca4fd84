//! A small persistent worker pool for data-parallel kernels.
//!
//! The pool exists to parallelise compute kernels **over output rows**:
//! every task is a contiguous `[start, end)` row range, and distinct
//! ranges write disjoint regions of the output buffer. Because the split
//! only decides *who* computes a row — never *how* it is computed — the
//! result is bit-identical to a serial run for any thread count (see the
//! determinism argument in `DESIGN.md` §5).
//!
//! This module owns that disjoint-rows rule: [`parallel_rows_mut`] (and
//! its two-output form) hands each task its own rows of the output as
//! `&mut`, so callers never hold a raw pointer. The only `unsafe` left is
//! the lifetime erasure that lets persistent workers run a borrowed
//! closure.
//!
//! **Panic safety.** A call returns, or unwinds, only after every worker
//! has finished its chunk: a panic in the caller's own chunk is resumed
//! after the join, so no worker outlives the borrows it runs on.
//!
//! Threads are spawned lazily on first parallel dispatch and live for the
//! rest of the process. Each worker owns a `std::sync::mpsc` channel, and
//! chunk `c` of a dispatch goes to worker `c - 1`; dispatch costs one
//! channel send + receive per chunk. That is cheap when the caller has
//! idle cores to fork onto. It is not when the caller is one of several
//! threads that already keep the cores busy: the serving daemon's
//! batcher and propagation worker each waited for pool chunks queued
//! behind the other's work (`DESIGN.md` §6.24). Such threads run their
//! kernels under [`inline`], at width 1 on themselves.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Mutex, Once};

/// Hard cap on worker threads, a guard against absurd `APAN_THREADS`.
const MAX_THREADS: usize = 64;

/// Requested degree of parallelism. 0 = not yet initialised.
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs inside [`inline`].
    static INLINE: Cell<bool> = const { Cell::new(false) };
}

/// Parses `var` as a positive integer. Unset returns `None` silently; a
/// set-but-invalid value (unparsable, or zero) also returns `None` but
/// warns on stderr — once per `once` guard, so a hot path consulting the
/// variable repeatedly produces a single line, not a flood.
pub fn parse_positive(var: &str, once: &'static Once) -> Option<usize> {
    let raw = std::env::var(var).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(v) if v >= 1 => Some(v),
        _ => {
            once.call_once(|| {
                eprintln!("apan: ignoring invalid {var}={raw:?} (want a positive integer); using the default");
            });
            None
        }
    }
}

/// Parses `var` as an on/off flag: `1`/`true`/`on`/`yes` are on,
/// `0`/`false`/`off`/`no` are off (case-insensitive). Unset returns
/// `default` silently; anything else returns `default` and warns once
/// per `once` guard.
pub fn parse_flag(var: &str, default: bool, once: &'static Once) -> bool {
    let Ok(raw) = std::env::var(var) else {
        return default;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => true,
        "0" | "false" | "off" | "no" => false,
        _ => {
            once.call_once(|| {
                eprintln!("apan: ignoring invalid {var}={raw:?} (want 0/1, true/false, on/off, yes/no); using the default");
            });
            default
        }
    }
}

/// The number of threads kernels may use (including the calling thread).
///
/// Initialised on first use from the `APAN_THREADS` environment variable,
/// falling back to `std::thread::available_parallelism()`; an invalid
/// value warns once and falls back the same way. Override at runtime
/// with [`set_num_threads`].
pub fn num_threads() -> usize {
    static WARN: Once = Once::new();
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let n = parse_positive("APAN_THREADS", &WARN)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .min(MAX_THREADS);
    THREADS.store(n, Ordering::Relaxed);
    n
}

/// Sets the degree of parallelism for all subsequent kernel calls.
///
/// Values are clamped to `[1, 64]`. Thread count never affects numerical
/// results — only how output rows are partitioned — so this is a pure
/// performance knob.
pub fn set_num_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Runs `f` with every kernel it calls on this thread at width 1: each
/// [`parallel_rows`]-family call runs its whole range as one chunk on
/// this thread, whatever [`num_threads`] says. The bits do not change,
/// since the split never decides how a row is computed. The previous
/// setting comes back when `f` returns or unwinds, so calls nest.
pub fn inline<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            INLINE.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(INLINE.with(|flag| flag.replace(true)));
    f()
}

/// One chunk of a [`dispatch`] call, borrowed from its caller.
///
/// The raw closure pointer is only dereferenced before the completion
/// signal is sent, and `dispatch` receives every signal before it
/// returns or unwinds, so the borrow never outlives its scope.
struct Task {
    f: *const (dyn Fn(usize) + Sync),
    chunk: usize,
    done: SyncSender<bool>,
}

// SAFETY: the closure is `Sync` (shared by reference across workers) and
// `dispatch` joins every task before the borrow expires.
unsafe impl Send for Task {}

/// One task channel per spawned worker, in spawn order. The lock also
/// serialises spawning and each dispatch's sends.
static WORKERS: Mutex<Vec<Sender<Task>>> = Mutex::new(Vec::new());

fn worker_loop(rx: Receiver<Task>) {
    while let Ok(task) = rx.recv() {
        let ok = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `dispatch` keeps the closure alive until this task
            // has signalled `done` (see `Task`).
            let f = unsafe { &*task.f };
            f(task.chunk);
        }))
        .is_ok();
        let _ = task.done.send(ok);
    }
}

/// Runs `f(c)` for every chunk `c` in `0..chunks` (at least two): chunk 0
/// on the calling thread, the rest on pool workers. Returns, or unwinds,
/// only after every worker has finished, so `f` and what it borrows
/// outlive all uses: a panic in chunk 0 is resumed after the join, one
/// in a worker's chunk is re-raised here after it.
fn dispatch(chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    let (done_tx, done_rx) = sync_channel::<bool>(chunks - 1);
    // SAFETY: erasing the borrow's lifetime is sound because every task is
    // joined below, before this call returns or unwinds and the borrow of
    // `f` ends.
    let f_erased: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync + '_)) };
    {
        let mut workers = WORKERS.lock().expect("pool lock poisoned");
        while workers.len() < chunks - 1 {
            let (tx, rx) = channel();
            std::thread::Builder::new()
                .name(format!("apan-worker-{}", workers.len()))
                .spawn(move || worker_loop(rx))
                .expect("spawn pool worker");
            workers.push(tx);
        }
        for (chunk, worker) in (1..chunks).zip(workers.iter()) {
            let task = Task {
                f: f_erased,
                chunk,
                done: done_tx.clone(),
            };
            worker.send(task).expect("pool workers alive");
        }
    }
    // The calling thread takes the first chunk instead of idling.
    let inline = catch_unwind(AssertUnwindSafe(|| f(0)));
    let mut all_ok = true;
    for _ in 1..chunks {
        all_ok &= done_rx.recv().expect("worker signals completion");
    }
    if let Err(payload) = inline {
        resume_unwind(payload);
    }
    assert!(all_ok, "a parallel kernel task panicked");
}

/// Runs `f(start, end)` over a partition of `0..rows` using up to
/// [`num_threads`] threads (the calling thread works too).
///
/// `min_rows` is the smallest chunk worth dispatching: the row range is
/// split into at most `rows / min_rows` chunks, so small problems fall
/// back to a single inline call with zero synchronisation cost.
///
/// `f` only reads shared state or uses its own synchronisation; a task
/// that writes rows of an output buffer uses [`parallel_rows_mut`].
pub fn parallel_rows(rows: usize, min_rows: usize, f: &(dyn Fn(usize, usize) + Sync)) {
    let cut = |(), _| ((), ());
    for_each_part(rows, min_rows, (), cut, |start, end, ()| f(start, end));
}

/// [`parallel_rows`] over the rows of `out`, a row-major buffer of
/// `row_len`-element rows: each task receives its range `[start, end)`
/// and exactly those rows as `&mut`, so no two tasks share an element
/// and the result does not depend on the thread count. An empty `out`
/// (or `row_len == 0`) runs nothing.
pub fn parallel_rows_mut<T: Send>(
    out: &mut [T],
    row_len: usize,
    min_rows: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let rows = out.len().checked_div(row_len).unwrap_or(0);
    debug_assert_eq!(rows * row_len, out.len());
    let cut = |part, n| <[T]>::split_at_mut(part, n * row_len);
    for_each_part(rows, min_rows, out, cut, f);
}

/// [`parallel_rows_mut`] over two outputs that share a row index: row
/// `r` is `a[r·a_len..]` and `b[r·b_len..]`, and a task receives the rows
/// of its range from both.
pub fn parallel_rows_mut2<A: Send, B: Send>(
    a: &mut [A],
    a_len: usize,
    b: &mut [B],
    b_len: usize,
    min_rows: usize,
    f: impl Fn(usize, usize, &mut [A], &mut [B]) + Sync,
) {
    let rows = a.len().checked_div(a_len);
    let rows = rows.or(b.len().checked_div(b_len)).unwrap_or(0);
    debug_assert!(rows * a_len == a.len() && rows * b_len == b.len());
    let cut = |(a, b), n| {
        let (a_head, a_tail) = <[A]>::split_at_mut(a, n * a_len);
        let (b_head, b_tail) = <[B]>::split_at_mut(b, n * b_len);
        ((a_head, b_head), (a_tail, b_tail))
    };
    for_each_part(rows, min_rows, (a, b), cut, |start, end, (a, b)| {
        f(start, end, a, b)
    });
}

/// The one partition every entry point uses: at most [`num_threads`]
/// chunks (one inside [`inline`]) of at least `min_rows` rows, chunk
/// `c` covering `rows / chunks` rows plus one for the first
/// `rows % chunks`. `cut(part, n)` splits `whole` into its first `n`
/// rows and the rest; `f(start, end, part)` runs once per chunk. Each
/// part sits behind its own lock and is taken once, so the borrow
/// checker, not a pointer, keeps the parts disjoint.
fn for_each_part<P: Send>(
    rows: usize,
    min_rows: usize,
    whole: P,
    cut: impl Fn(P, usize) -> (P, P),
    f: impl Fn(usize, usize, P) + Sync,
) {
    let width = if INLINE.with(Cell::get) {
        1
    } else {
        num_threads()
    };
    let chunks = width.min(rows.div_ceil(min_rows.max(1)));
    if chunks <= 1 {
        if rows > 0 {
            f(0, rows, whole);
        }
        return;
    }
    let start = |c: usize| c * (rows / chunks) + c.min(rows % chunks);
    let mut parts = Vec::with_capacity(chunks);
    let mut rest = whole;
    for c in 0..chunks {
        let (part, tail) = cut(rest, start(c + 1) - start(c));
        parts.push(Mutex::new(Some(part)));
        rest = tail;
    }
    dispatch(chunks, &|c| {
        let part = parts[c]
            .lock()
            .expect("each part is locked once, so never poisoned")
            .take()
            .expect("each part is taken by one task");
        f(start(c), start(c + 1), part)
    });
}

/// Serialises this crate's unit tests that set the pool width, so a
/// test that counts chunks sees the width it set.
#[cfg(test)]
pub(crate) fn width_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn covers_all_rows_exactly_once() {
        let _width = width_lock();
        set_num_threads(4);
        let hits: Vec<AtomicU64> = (0..1037).map(|_| AtomicU64::new(0)).collect();
        parallel_rows(hits.len(), 1, &|start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        set_num_threads(1);
    }

    #[test]
    fn small_problems_run_inline() {
        let _width = width_lock();
        set_num_threads(8);
        // 3 rows with min_rows=8 → single inline chunk; record the thread.
        let tid = std::sync::Mutex::new(None);
        parallel_rows(3, 8, &|start, end| {
            *tid.lock().unwrap() = Some((std::thread::current().id(), start, end));
        });
        let (id, s, e) = tid.lock().unwrap().expect("ran");
        assert_eq!(id, std::thread::current().id());
        assert_eq!((s, e), (0, 3));
        set_num_threads(1);
    }

    #[test]
    fn zero_rows_is_a_no_op() {
        parallel_rows(0, 1, &|_, _| panic!("must not be called"));
        parallel_rows_mut(&mut [0u8; 0], 3, 1, |_, _, _| panic!("must not be called"));
    }

    #[test]
    fn rows_mut_hands_each_task_exactly_its_rows() {
        let _width = width_lock();
        set_num_threads(4);
        let (mut a, mut b) = (vec![0u8; 1037 * 2], vec![0u8; 1037 * 5]);
        parallel_rows_mut2(&mut a, 2, &mut b, 5, 1, |start, end, a, b| {
            assert_eq!((a.len(), b.len()), ((end - start) * 2, (end - start) * 5));
            a.iter_mut().chain(b).for_each(|v| *v += 1);
        });
        parallel_rows_mut(&mut a, 2, 1, |start, end, rows| {
            assert_eq!(rows.len(), (end - start) * 2);
            rows.iter_mut().for_each(|v| *v += 1);
        });
        assert!(a.iter().all(|&v| v == 2) && b.iter().all(|&v| v == 1));
        set_num_threads(1);
    }

    /// Every call `kernel` makes to its row function, as (thread, start,
    /// end), in row order.
    fn calls(kernel: impl FnOnce(&(dyn Fn(usize, usize) + Sync))) -> Vec<(ThreadId, usize, usize)> {
        let calls = Mutex::new(Vec::new());
        kernel(&|start, end| {
            let me = std::thread::current().id();
            calls.lock().unwrap().push((me, start, end));
        });
        let mut calls = calls.into_inner().unwrap();
        calls.sort_by_key(|&(_, start, _)| start);
        calls
    }

    fn rows(f: &(dyn Fn(usize, usize) + Sync)) {
        parallel_rows(64, 1, f);
    }

    fn rows_mut(f: &(dyn Fn(usize, usize) + Sync)) {
        parallel_rows_mut(&mut [0u8; 64 * 3], 3, 1, |start, end, part| {
            assert_eq!(part.len(), (end - start) * 3);
            f(start, end)
        });
    }

    #[test]
    fn inline_runs_the_whole_range_on_the_calling_thread() {
        let _width = width_lock();
        set_num_threads(2);
        let me = std::thread::current().id();
        let whole = vec![(me, 0, 64)];
        inline(|| {
            assert_eq!(calls(rows), whole);
            assert_eq!(calls(rows_mut), whole);
            inline(|| assert_eq!(calls(rows), whole));
            // the nested call restored the outer setting, not the default
            assert_eq!(calls(rows), whole);
            assert_eq!(calls(rows_mut), whole);
        });
        let caught = catch_unwind(|| inline(|| rows(&|_, _| panic!("a kernel panics"))));
        assert!(caught.is_err());
        // outside `inline` again, even after the unwind: two chunks, the
        // second on a pool worker
        for kernel in [rows, rows_mut] {
            let split = calls(kernel);
            let ranges: Vec<_> = split.iter().map(|&(_, start, end)| (start, end)).collect();
            assert_eq!(ranges, [(0, 32), (32, 64)]);
            assert_eq!(split[0].0, me);
            assert_ne!(split[1].0, me);
        }
        set_num_threads(1);
    }

    #[test]
    fn parse_positive_accepts_valid_rejects_invalid() {
        static ONCE: Once = Once::new();
        // Unique variable names: env mutation is process-global and tests
        // in this binary may run concurrently.
        std::env::set_var("APAN_TEST_POS_OK", "12");
        assert_eq!(parse_positive("APAN_TEST_POS_OK", &ONCE), Some(12));
        std::env::set_var("APAN_TEST_POS_PAD", " 3 ");
        assert_eq!(parse_positive("APAN_TEST_POS_PAD", &ONCE), Some(3));
        for bad in ["0", "-2", "many", "1.5", ""] {
            std::env::set_var("APAN_TEST_POS_BAD", bad);
            assert_eq!(parse_positive("APAN_TEST_POS_BAD", &ONCE), None, "{bad:?}");
        }
        assert_eq!(parse_positive("APAN_TEST_POS_UNSET", &ONCE), None);
    }

    #[test]
    fn parse_flag_accepts_spellings_defaults_on_garbage() {
        static ONCE: Once = Once::new();
        for on in ["1", "true", "ON", "Yes"] {
            std::env::set_var("APAN_TEST_FLAG", on);
            assert!(parse_flag("APAN_TEST_FLAG", false, &ONCE), "{on:?}");
        }
        for off in ["0", "False", "off", "no"] {
            std::env::set_var("APAN_TEST_FLAG", off);
            assert!(!parse_flag("APAN_TEST_FLAG", true, &ONCE), "{off:?}");
        }
        std::env::set_var("APAN_TEST_FLAG", "maybe");
        assert!(parse_flag("APAN_TEST_FLAG", true, &ONCE));
        assert!(!parse_flag("APAN_TEST_FLAG", false, &ONCE));
        assert!(parse_flag("APAN_TEST_FLAG_UNSET", true, &ONCE));
        assert!(!parse_flag("APAN_TEST_FLAG_UNSET", false, &ONCE));
    }
}
