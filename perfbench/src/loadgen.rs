//! Load generation over the wire: an open loop that sends on a fixed
//! schedule and times each request from when it was due, and a closed loop
//! whose connections each wait for their reply before sending again.

use metrics::percentile::nearest_rank;
use serve::NetClient;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One socket query answer: the serving snapshot version and the top-k as
/// `(label, f32 bits)`.
pub type Answer = (u64, Vec<(String, u32)>);

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Input row id (see [`crate::inputs::Inputs::query_row`]).
    pub id: u64,
    /// From when the request was due (open loop) or sent (closed loop) to
    /// its reply.
    pub latency: Duration,
    /// How late the generator sent it; zero in a closed loop.
    pub lag: Duration,
    /// Whether a span was recorded for it (traced runs trace every other
    /// open-loop request of each connection, to measure the overhead).
    pub traced: bool,
    pub outcome: Result<Answer, String>,
}

/// Fixed-rate arrival schedule: request `i` is due `i / rate` after the
/// start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval: Duration,
    count: u64,
}

impl Schedule {
    /// As many arrivals at `rate` per second as fit in `window`.
    pub fn new(rate: f64, window: Duration) -> Self {
        assert!(rate > 0.0, "offered rate must be positive");
        Self {
            interval: Duration::from_secs_f64(1.0 / rate),
            count: (rate * window.as_secs_f64()).floor() as u64,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// When request `i` is due.
    pub fn due(&self, start: Instant, i: u64) -> Instant {
        start + self.interval.mul_f64(i as f64)
    }
}

/// How late a request went out: zero when it was sent on time.
pub fn lag(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Hands out input row ids that are unique within a run.
#[derive(Debug, Default)]
pub struct Ids(AtomicU64);

impl Ids {
    /// Reserves `n` consecutive ids and returns the first.
    pub fn reserve(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }
}

pub fn query(client: &mut NetClient, row: &[f32]) -> Result<Answer, String> {
    client
        .query(row, None)
        .map(|(version, top)| {
            let top = top.into_iter().map(|(l, s)| (l, s.to_bits())).collect();
            (version, top)
        })
        .map_err(|e| e.to_string())
}

/// The open-loop share of one connection: requests `conn, conn + conns, …`
/// of `schedule`, each sent when due (or as soon as the previous reply is
/// in, when the connection is behind).
pub fn open_loop(
    mut send: impl FnMut(&[f32]) -> Result<Answer, String>,
    schedule: Schedule,
    start: Instant,
    (conn, conns): (u64, u64),
    first_id: u64,
    row: impl Fn(u64) -> Vec<f32>,
    trace: impl Fn(u64, Instant, Instant, Instant) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut i = conn;
    while i < schedule.count() {
        let id = first_id + i;
        let features = row(id);
        let due = schedule.due(start, i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let outcome = send(&features);
        let done = Instant::now();
        let traced = (i / conns) % 2 == 1 && trace(id, due, sent, done);
        samples.push(Sample {
            id,
            latency: done - due,
            lag: lag(due, sent),
            traced,
            outcome,
        });
        i += conns;
    }
    samples
}

/// One closed-loop connection: send, wait for the reply, repeat until
/// `deadline`.
pub fn closed_loop(
    mut send: impl FnMut(&[f32]) -> Result<Answer, String>,
    deadline: Instant,
    ids: &Ids,
    row: impl Fn(u64) -> Vec<f32>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    while Instant::now() < deadline {
        let id = ids.reserve(1);
        let features = row(id);
        let sent = Instant::now();
        let outcome = send(&features);
        samples.push(Sample {
            id,
            latency: sent.elapsed(),
            lag: Duration::ZERO,
            traced: false,
            outcome,
        });
    }
    samples
}

/// Nearest-rank percentile (`metrics::percentile`'s rule) of durations, in
/// milliseconds; `None` without samples.
pub fn percentile_ms(durations: impl IntoIterator<Item = Duration>, p: f64) -> Option<f64> {
    let mut ms: Vec<f64> = durations
        .into_iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    if ms.is_empty() {
        return None;
    }
    ms.sort_by(f64::total_cmp);
    Some(nearest_rank(&ms, p))
}

/// Median of a sample set (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_arrivals_evenly() {
        let s = Schedule::new(200.0, Duration::from_millis(1500));
        assert_eq!(s.count(), 300);
        let start = Instant::now();
        assert_eq!(s.due(start, 0), start);
        assert_eq!(s.due(start, 200) - start, Duration::from_secs(1));
        assert_eq!(s.due(start, 3) - s.due(start, 2), Duration::from_millis(5));
    }

    #[test]
    fn lag_counts_only_late_sends() {
        let due = Instant::now();
        assert_eq!(
            lag(due, due + Duration::from_millis(3)),
            Duration::from_millis(3)
        );
        assert_eq!(lag(due + Duration::from_millis(3), due), Duration::ZERO);
    }

    #[test]
    fn a_slow_server_makes_the_generator_late() {
        // 10 ms between arrivals, 15 ms per reply, one connection: request
        // k goes out about 5k ms late, and its latency counts that wait.
        let schedule = Schedule::new(100.0, Duration::from_millis(60));
        let slow = |_: &[f32]| {
            std::thread::sleep(Duration::from_millis(15));
            Ok((0, Vec::new()))
        };
        let samples = open_loop(
            slow,
            schedule,
            Instant::now(),
            (0, 1),
            0,
            |_| vec![],
            |_, _, _, _| false,
        );
        assert_eq!(samples.len(), 6);
        assert!(samples[0].lag < Duration::from_millis(3));
        assert!(samples[5].lag >= Duration::from_millis(24));
        for pair in samples.windows(2) {
            assert!(pair[1].lag + Duration::from_millis(2) >= pair[0].lag);
        }
        for s in &samples {
            assert!(s.latency >= s.lag + Duration::from_millis(15));
        }
    }

    #[test]
    fn connections_split_the_schedule() {
        let schedule = Schedule::new(1000.0, Duration::from_millis(10));
        let ok = |_: &[f32]| Ok((0, Vec::new()));
        let ids: Vec<u64> = open_loop(
            ok,
            schedule,
            Instant::now(),
            (1, 2),
            100,
            |_| vec![],
            |_, _, _, _| false,
        )
        .iter()
        .map(|s| s.id)
        .collect();
        assert_eq!(ids, [101, 103, 105, 107, 109]);
    }

    #[test]
    fn ids_never_repeat() {
        let ids = Ids::default();
        assert_eq!(ids.reserve(10), 0);
        assert_eq!(ids.reserve(1), 10);
        assert_eq!(ids.reserve(5), 11);
    }

    #[test]
    fn percentiles_use_the_shared_nearest_rank_rule() {
        let d: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(d.iter().copied(), 0.5), Some(50.0));
        assert_eq!(percentile_ms(d.iter().copied(), 0.99), Some(99.0));
        // ⌈0.99 · 5⌉ = 5: with few samples p99 is the maximum.
        assert_eq!(percentile_ms(d[..5].iter().copied(), 0.99), Some(5.0));
        assert_eq!(percentile_ms(Vec::new(), 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
