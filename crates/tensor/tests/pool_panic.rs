//! A panic in the caller's own chunk of a parallel dispatch must not
//! unwind past the workers: they still borrow the caller's data until
//! they finish their chunks.
//!
//! Its own test binary, so no other test changes the pool width while it
//! runs.

use apan_tensor::backend::pool::{parallel_rows, set_num_threads};
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Worker chunks that have read the borrowed buffer to the end.
static FINISHED: AtomicUsize = AtomicUsize::new(0);

/// Owns the heap buffer the workers read; it is dropped when the panic
/// unwinds out of this frame.
fn panic_in_the_inline_chunk() {
    let data: Vec<u64> = (0..4096).collect();
    parallel_rows(4, 1, &|start, _end| {
        if start == 0 {
            panic!("inline chunk fails");
        }
        // Outlasts the caller's unwind where the pool does not join
        // before unwinding; with the join, the result is timing-free.
        std::thread::sleep(Duration::from_millis(30));
        let sum: u64 = data.iter().sum();
        assert_eq!(sum, 4095 * 4096 / 2);
        FINISHED.fetch_add(1, Ordering::SeqCst);
    });
}

#[test]
fn inline_chunk_panic_unwinds_only_after_every_worker_finished() {
    set_num_threads(4);
    // A silent hook keeps the unwind fast: printing a backtrace can take
    // longer than the workers' sleep and would hide the race.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(panic_in_the_inline_chunk);
    std::panic::set_hook(hook);
    assert!(
        result.is_err(),
        "the inline chunk's panic reaches the caller"
    );
    assert_eq!(
        FINISHED.load(Ordering::SeqCst),
        3,
        "all three worker chunks finished before the unwind freed their data"
    );
}
