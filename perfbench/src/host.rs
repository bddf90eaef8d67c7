//! Keeps every vCPU of the host busy at idle priority while a run
//! measures.
//!
//! On a virtual machine, a thread woken on a halted vCPU waits for the
//! hypervisor to schedule that vCPU again, and on a shared host that wait
//! swings from microseconds to milliseconds with the neighbours' load.
//! Every socket query crosses several such wake-ups (client, connection
//! thread, dispatcher and back). A `SCHED_IDLE` spinner per vCPU keeps the
//! vCPUs from halting; the kernel preempts it at once for any other
//! runnable thread, so it takes no time from the program.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Linux's `SCHED_IDLE` policy.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Puts the calling thread under `SCHED_IDLE`.
fn idle_priority() -> std::io::Result<()> {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread and `param` outlives the call.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// One idle-priority spinner per available CPU; dropping it stops and
/// joins them.
#[derive(Debug)]
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    pub fn start() -> Result<Self, String> {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let mut spinners = Self {
            stop: Arc::clone(&stop),
            threads: Vec::with_capacity(cpus),
        };
        for _ in 0..cpus {
            let stop = Arc::clone(&stop);
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            spinners.threads.push(std::thread::spawn(move || {
                let ready = idle_priority();
                let ok = ready.is_ok();
                let _ = ready_tx.send(ready);
                while ok && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
            ready_rx
                .recv()
                .map_err(|e| e.to_string())?
                .map_err(|e| format!("SCHED_IDLE spinner: {e}"))?;
        }
        Ok(spinners)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
