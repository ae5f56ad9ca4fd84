//! Idle soaking: lowest-priority spinner threads that keep every core
//! from halting while a run measures.
//!
//! On the 2-vCPU reference VM a halted vCPU takes 100 µs and more to
//! come back, and whether a request finds the cores halted depends on
//! nothing the daemon controls: without this, `infer_p50_ms` of the same
//! binary and seed falls into one of two modes 40 % apart. The spinners
//! run at nice 19, so any daemon or generator thread that becomes
//! runnable displaces them at once; they only use cycles nobody wanted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    /// POSIX `nice(2)`; on Linux it changes the calling *thread* only.
    fn nice(inc: i32) -> i32;
}

/// Spinners on every core until dropped.
pub struct IdleSoak {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSoak {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: `nice` takes an integer by value and touches
                    // no memory of ours; lowering one's own priority needs
                    // no privilege. A failure only leaves the priority as
                    // it was, so the result is not needed.
                    unsafe { nice(19) };
                    // a statistic-free flag: Relaxed publishes nothing else
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for IdleSoak {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // a spinner cannot panic; nothing to report from a Drop
            let _ = t.join();
        }
    }
}
