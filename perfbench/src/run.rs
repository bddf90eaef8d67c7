//! One benchmark run: generate inputs, set the stack up, drive it over the
//! socket, verify every answer, and collect the metrics.

use crate::host::Spinners;
use crate::inputs::Inputs;
use crate::layers;
use crate::loadgen::{self, closed_loop, open_loop, percentile_ms, Ids, Sample, Schedule};
use crate::stack::{self, Spec, Stack, CONNECTIONS};
use crate::trace::Tracer;
use crate::verify::{expected, judge_all, Ledger, Snapshots};
use dataset::StreamWorkload;
use engine::PackedQueryBatch;
use metrics::percentile::nearest_rank;
use serve::{NetClient, QueryServer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Matrix;

/// Set-ups per untraced run, `setup_s` being their median: at least three,
/// more while they fit in `SETUP_BUDGET` (cheap set-ups are noisy), up to
/// `SETUP_MAX`. Set-ups that each take longer than the budget stop at two,
/// to bound the run's wall time.
const SETUP_REPEATS: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Socket probes checked after the final flush and after recovery.
const PROBES: u64 = 64;

/// Probe rows of the routed recall measurement: a fixed id range, apart
/// from the run's traffic, so recall repeats exactly for a seed.
const RECALL_PROBES: u64 = 1024;
const RECALL_FIRST_ID: u64 = 1 << 40;

/// Unmeasured closed-loop traffic before the read workloads' phases.
const WARM_UP: Duration = Duration::from_secs(1);

/// One write in `UPDATE_EVERY` of `stream_durable` is an `update_class`,
/// at offset `UPDATE_OFFSET`, so the write that crosses the 64-record
/// compaction cadence is an observe.
const UPDATE_EVERY: u64 = 32;
const UPDATE_OFFSET: u64 = 15;

/// Shares of the run the read workloads spend in the open loop and the
/// two-connection closed loop; alternating rounds take the rest.
/// `stream_durable`'s reader spends its last `RTT_SHARE` in the round-trip
/// loop, beside the writer.
const OPEN_SHARE: f64 = 0.25;
const CLOSED_SHARE: f64 = 0.1;
const RTT_SHARE: f64 = 0.15;

/// One round of the read workloads' last phase: one-connection closed-loop
/// queries for a round, then one-connection closed-loop observes for a
/// round, alternating to the end of the run. Each round yields its own p50
/// (and observe rate), and the bounded metrics are quantiles over rounds
/// (see `round_quantile`), so the shared host's slow and fast spells,
/// which last from a fraction of a second to tens of seconds, fall in
/// many rounds of each run rather than on whole runs.
const ROUND: Duration = Duration::from_millis(100);

#[derive(Debug)]
pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A named metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

#[derive(Debug)]
pub struct Report {
    pub ledger: Ledger,
    pub metrics: Vec<Metric>,
}

/// Where runs keep their scratch state and traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run(args: &Args) -> Result<Report, String> {
    let dir = out_dir().join(format!(
        "{}-{}-{}",
        args.spec.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tracer = Tracer::new(args.trace);
    let result = run_in(args, &dir, &tracer);
    let _ = std::fs::remove_dir_all(&dir);
    if args.trace {
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.spec.name, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    result
}

/// What the socket phases left for the metrics.
#[derive(Debug, Default)]
struct Traffic {
    /// Open-loop queries (latency from due time).
    open: Vec<Sample>,
    /// Verified closed-loop answers per second.
    goodput_qps: f64,
    /// One-connection closed-loop query p50 (ms) of each round.
    rtt_p50s: Vec<f64>,
    /// Every answered observe's latency.
    observes: Vec<Duration>,
    /// Observe p50 (ms) and observes per second of each round.
    observe_p50s: Vec<f64>,
    observe_rates: Vec<f64>,
}

/// The p50 (ms) of one round's latencies; NaN for an empty round.
fn round_p50(latencies: &[Duration]) -> f64 {
    percentile_ms(latencies.iter().copied(), 0.5).unwrap_or(f64::NAN)
}

/// The `q` quantile (nearest rank) of per-round values, NaN when there is
/// none. The read workloads report the lower quartile of round latencies
/// and the upper quartile of round rates: up to three quarters of the
/// rounds may be slowed by the shared host, and up to a quarter sped up by
/// a quiet spell of it, and the figure still comes from a typical round.
fn round_quantile(values: &[f64], q: f64) -> f64 {
    let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    finite.sort_by(f64::total_cmp);
    nearest_rank(&finite, q)
}

/// Quantiles the bounded round metrics take: the lower quartile of round
/// latencies, the upper quartile of round rates.
const FAST_ROUNDS: f64 = 0.25;
const BUSY_ROUNDS: f64 = 0.75;

fn run_in(args: &Args, dir: &Path, tracer: &Tracer) -> Result<Report, String> {
    let spec = args.spec;
    let window = Duration::from_secs(args.seconds);
    let inputs = Inputs::generate(spec.classes, args.seed);
    let stream = spec
        .durable
        .then(|| inputs.stream((window.as_secs() as usize * 400).max(1024)));
    let ids = Ids::default();
    let mut ledger = Ledger::default();
    let wal_dir = dir.join("wal");

    let mut setups = Vec::new();
    let mut rebuilds = Vec::new();
    let mut first_words = None;
    let begun = Instant::now();
    let stack = loop {
        let (stack, took, rebuild) = Stack::start(spec, &inputs, &wal_dir)?;
        setups.push(took.as_secs_f64());
        rebuilds.push(rebuild.as_secs_f64());
        // Every set-up rebuilds the same serving state from the same inputs.
        let words = class_words(&stack.server, &inputs);
        match &first_words {
            None => first_words = Some(words),
            Some(first) => ledger.check("setup", "class words", &words == first, true),
        }
        let more = !args.trace
            && setups.len() < SETUP_MAX
            && (setups.len() < SETUP_REPEATS || begun.elapsed() < SETUP_BUDGET)
            && !(setups.len() >= 2 && took > SETUP_BUDGET * 3);
        if !more {
            break stack;
        }
        stack.stop();
    };
    eprintln!(
        "perfbench: {} set up {} times, median {} s ({} classes)",
        spec.name,
        setups.len(),
        loadgen::median(&setups),
        spec.classes
    );
    let mut snapshots = Snapshots::new();
    let initial = stack.server.snapshot();
    let recall = match spec.nprobe {
        // On the set-up snapshot, before any observe moved a class.
        Some(_) => routed_recall(&initial, &inputs)?,
        // The exhaustive scorer is the reference itself.
        None => 1.0,
    };
    snapshots.insert(initial.version(), initial);
    // Idle-priority spinners keep the vCPUs from halting during the socket
    // phases (see `host`); set-up and the in-process sweep run without them.
    let spinners = match Spinners::start() {
        Ok(spinners) => spinners,
        Err(e) => {
            stack.stop();
            return Err(e);
        }
    };
    let traffic = match &stream {
        Some(stream) => stream_phases(
            spec,
            &inputs,
            stream,
            &stack,
            window,
            &ids,
            tracer,
            &mut snapshots,
            &mut ledger,
        )?,
        None => read_phases(
            spec,
            &inputs,
            &stack,
            window,
            &ids,
            tracer,
            &mut snapshots,
            &mut ledger,
        )?,
    };
    drop(spinners);
    let served = stack.server.stats();
    let net = stack.net.stats();
    eprintln!(
        "perfbench: served {} queries in {} batches, net {:?}",
        served.queries, served.batches, net
    );

    let mut layer_metrics = Vec::new();
    if args.trace {
        let socket = layers::Socket {
            mean_batch: served.mean_batch(),
            shed_frac: net.overloaded as f64 / net.requests.max(1) as f64,
            open: &traffic.open,
        };
        layer_metrics = layers::sweep(
            spec,
            &inputs,
            &stack,
            &ids,
            tracer,
            &socket,
            dir,
            &mut ledger,
        )?;
    }
    let recover_s = if spec.durable {
        let (took, report) = stop_and_recover(spec, &inputs, stack, &ids, &mut ledger)?;
        layer_metrics.push((
            "server.replayed_records",
            report.replayed_records as f64,
            "count",
        ));
        took.as_secs_f64()
    } else {
        stack.stop();
        // A non-durable server recovers by rebuilding from its model and
        // class set: the `QueryServer::start` part of each set-up.
        loadgen::median(&rebuilds)
    };
    layer_metrics.push(("server.recover_s", recover_s, "s"));

    let p = |samples: &[Duration], q: f64| {
        percentile_ms(samples.iter().copied(), q).unwrap_or(f64::NAN)
    };
    let open: Vec<Duration> = traffic
        .open
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| s.latency)
        .collect();
    let metrics = if args.trace {
        // Tails and closed-loop capacity swing several-fold between
        // identical runs on a two-core box, so they are reported here,
        // unbounded, rather than as end-to-end metrics.
        layer_metrics.extend([
            ("loadgen.query_p50_ms", p(&open, 0.5), "ms"),
            ("loadgen.query_p99_ms", p(&open, 0.99), "ms"),
            ("loadgen.goodput_qps", traffic.goodput_qps, "1/s"),
            ("loadgen.observe_p99_ms", p(&traffic.observes, 0.99), "ms"),
        ]);
        layer_metrics
    } else {
        let attempted = ledger.attempted().max(1) as f64;
        vec![
            ("setup_s", loadgen::median(&setups), "s"),
            (
                "query_rtt_p50_ms",
                round_quantile(&traffic.rtt_p50s, FAST_ROUNDS),
                "ms",
            ),
            (
                "observe_p50_ms",
                round_quantile(&traffic.observe_p50s, FAST_ROUNDS),
                "ms",
            ),
            (
                "observe_per_s",
                round_quantile(&traffic.observe_rates, BUSY_ROUNDS),
                "1/s",
            ),
            ("routed_recall_at_1", recall, "frac"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "success_frac",
                1.0 - ledger.failed() as f64 / attempted,
                "frac",
            ),
        ]
    };
    eprintln!(
        "perfbench: rounds: query rtt p50 (ms) {:?}; observe p50 (ms) {:?}; observes/s {:?}",
        traffic.rtt_p50s, traffic.observe_p50s, traffic.observe_rates
    );
    eprintln!(
        "perfbench: open-loop query p50 = {} ms, p99 = {} ms, goodput_qps = {}, observe_p99_ms = {} ms",
        p(&open, 0.5),
        p(&open, 0.99),
        traffic.goodput_qps,
        p(&traffic.observes, 0.99)
    );
    Ok(Report { ledger, metrics })
}

/// Connects `n` clients up front, so no phase pays for a handshake.
fn clients(stack: &Stack, n: u64) -> Result<Vec<NetClient>, String> {
    (0..n).map(|_| stack.connect()).collect()
}

/// Records a traced open-loop request: a `loadgen.request` root from due
/// time to reply (its self time is the generator's lag) around the
/// `net.client.query` call.
fn trace_request(tracer: &Tracer, id: u64, due: Instant, sent: Instant, done: Instant) -> bool {
    if !tracer.enabled() {
        return false;
    }
    let root = tracer.next_id();
    tracer.record(
        tracer.next_id(),
        "net.client.query",
        Some(root),
        id,
        sent,
        done,
    );
    tracer.record(root, "loadgen.request", None, id, due, done);
    true
}

/// Counts judged samples into the ledger and returns how many passed.
fn tally(
    ledger: &mut Ledger,
    phase: &'static str,
    samples: &[Sample],
    inputs: &Inputs,
    snapshots: &Snapshots,
) -> usize {
    let verdicts = judge_all(samples, inputs, snapshots);
    let passed = verdicts.iter().filter(|v| v.is_ok()).count();
    for verdict in verdicts {
        ledger.count(phase, "query", verdict);
    }
    passed
}

/// Open loop on both connections, closed loop on both, then alternating
/// rounds of one-connection closed-loop queries and observes.
#[allow(clippy::too_many_arguments)]
fn read_phases(
    spec: &Spec,
    inputs: &Inputs,
    stack: &Stack,
    window: Duration,
    ids: &Ids,
    tracer: &Tracer,
    snapshots: &mut Snapshots,
    ledger: &mut Ledger,
) -> Result<Traffic, String> {
    let mut conns = clients(stack, CONNECTIONS)?;
    warm_up(&mut conns, ids, inputs, snapshots, ledger);
    let open_window = window.mul_f64(OPEN_SHARE);
    let schedule = Schedule::new(spec.open_qps, open_window);
    let first = ids.reserve(schedule.count());
    let start = Instant::now();
    let open: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    open_loop(
                        |row| loadgen::query(client, row),
                        schedule,
                        start,
                        (c as u64, CONNECTIONS),
                        first,
                        |id| inputs.query_row(id),
                        |id, due, sent, done| trace_request(tracer, id, due, sent, done),
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop thread panicked"))
            .collect()
    });

    let closed_window = window.mul_f64(CLOSED_SHARE);
    let deadline = Instant::now() + closed_window;
    let closed: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    closed_loop(
                        |row| loadgen::query(client, row),
                        deadline,
                        ids,
                        |id| inputs.query_row(id),
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop thread panicked"))
            .collect()
    });
    tally(ledger, "open", &open, inputs, snapshots);
    let verified = tally(ledger, "closed", &closed, inputs, snapshots);
    let end = Instant::now() + window.mul_f64(1.0 - OPEN_SHARE - CLOSED_SHARE);
    let mut traffic = rounds(inputs, stack, &mut conns, end, ids, snapshots, ledger);
    traffic.open = open;
    traffic.goodput_qps = verified as f64 / closed_window.as_secs_f64();
    Ok(traffic)
}

/// Alternating `ROUND`s until `end`: closed-loop queries on the first
/// connection, then closed-loop observes (label and row from fresh ids)
/// on the second. Each query round is verified against `snapshots`, which
/// holds only the snapshot the previous observe round left (the set-up
/// snapshot before the first), so old versions are not kept alive.
fn rounds(
    inputs: &Inputs,
    stack: &Stack,
    conns: &mut [NetClient],
    end: Instant,
    ids: &Ids,
    snapshots: &mut Snapshots,
    ledger: &mut Ledger,
) -> Traffic {
    let mut traffic = Traffic::default();
    while Instant::now() < end {
        let samples = closed_loop(
            |row| loadgen::query(&mut conns[0], row),
            Instant::now() + ROUND,
            ids,
            |id| inputs.query_row(id),
        );
        let answered: Vec<Duration> = samples
            .iter()
            .filter(|s| s.outcome.is_ok())
            .map(|s| s.latency)
            .collect();
        traffic.rtt_p50s.push(round_p50(&answered));
        tally(ledger, "rounds", &samples, inputs, snapshots);

        let start = Instant::now();
        let mut latencies = Vec::new();
        while start.elapsed() < ROUND {
            let id = ids.reserve(1);
            let label = &inputs.labels[(id % inputs.labels.len() as u64) as usize];
            let row = inputs.query_row(id);
            let sent = Instant::now();
            let outcome = conns[1]
                .observe(label, &row)
                .map(drop)
                .map_err(|e| e.to_string());
            if outcome.is_ok() {
                latencies.push(sent.elapsed());
            }
            ledger.count("rounds", "observe", outcome);
        }
        traffic
            .observe_rates
            .push(latencies.len() as f64 / start.elapsed().as_secs_f64());
        traffic.observe_p50s.push(round_p50(&latencies));
        traffic.observes.extend(latencies);
        let snapshot = stack.server.snapshot();
        snapshots.clear();
        snapshots.insert(snapshot.version(), snapshot);
    }
    traffic
}

/// Closed-loop queries on every connection for `WARM_UP`, verified and
/// counted but not timed, so page faults and cold caches stay out of the
/// measured phases.
fn warm_up(
    conns: &mut [NetClient],
    ids: &Ids,
    inputs: &Inputs,
    snapshots: &Snapshots,
    ledger: &mut Ledger,
) {
    let deadline = Instant::now() + WARM_UP;
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    closed_loop(
                        |row| loadgen::query(client, row),
                        deadline,
                        ids,
                        |id| inputs.query_row(id),
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("warm-up thread panicked"))
            .collect()
    });
    tally(ledger, "warmup", &samples, inputs, snapshots);
}

/// One `stream_durable` write.
#[derive(Debug)]
struct Write {
    kind: &'static str,
    latency: Duration,
    outcome: Result<(), String>,
}

/// A closed-loop writer on one connection (observes, with an
/// `update_class` every `UPDATE_EVERY` writes) beside a reader on the
/// other, open loop and then one-connection closed loop, for the whole
/// window.
#[allow(clippy::too_many_arguments)]
fn stream_phases(
    spec: &Spec,
    inputs: &Inputs,
    stream: &StreamWorkload,
    stack: &Stack,
    window: Duration,
    ids: &Ids,
    tracer: &Tracer,
    snapshots: &mut Snapshots,
    ledger: &mut Ledger,
) -> Result<Traffic, String> {
    let mut conns = clients(stack, CONNECTIONS)?;
    let (writer_conn, reader_conn) = conns.split_at_mut(1);
    let (writer_conn, reader_conn) = (&mut writer_conn[0], &mut reader_conn[0]);
    let schedule = Schedule::new(spec.open_qps, window.mul_f64(1.0 - RTT_SHARE));
    let first = ids.reserve(schedule.count());
    let start = Instant::now();
    let end = start + window;
    let server = &stack.server;

    let (writes, written, open, rtt, rtt_window) = std::thread::scope(|scope| {
        let (writer_conn, reader_conn) = (&mut *writer_conn, &mut *reader_conn);
        let writer = scope.spawn(move || {
            let mut writes = Vec::new();
            let mut seen = Snapshots::new();
            let mut n = 0u64;
            while Instant::now() < end {
                let sent = Instant::now();
                let (kind, result) = if n % UPDATE_EVERY == UPDATE_OFFSET {
                    let class = ((n / UPDATE_EVERY) as usize * 7) % inputs.labels.len();
                    let attributes = inputs.update_attributes(class, n);
                    (
                        "update",
                        writer_conn.update_class(&inputs.labels[class], &attributes),
                    )
                } else {
                    let example = &stream.examples[n as usize % stream.examples.len()];
                    let label = &inputs.labels[example.class];
                    ("observe", writer_conn.observe(label, &example.features))
                };
                let latency = sent.elapsed();
                let snapshot = server.snapshot();
                seen.insert(snapshot.version(), snapshot);
                writes.push(Write {
                    kind,
                    latency,
                    outcome: result.map(drop).map_err(|e| e.to_string()),
                });
                n += 1;
            }
            (writes, seen)
        });
        let reader = scope.spawn(move || {
            let open = open_loop(
                |row| loadgen::query(reader_conn, row),
                schedule,
                start,
                (0, 1),
                first,
                |id| inputs.query_row(id),
                |id, due, sent, done| trace_request(tracer, id, due, sent, done),
            );
            let rtt_start = Instant::now();
            let rtt = closed_loop(
                |row| loadgen::query(reader_conn, row),
                end,
                ids,
                |id| inputs.query_row(id),
            );
            (open, rtt, rtt_start.elapsed())
        });
        let (writes, seen) = writer.join().expect("writer thread panicked");
        let (open, rtt, rtt_window) = reader.join().expect("reader thread panicked");
        (writes, seen, open, rtt, rtt_window)
    });
    let elapsed = start.elapsed();
    snapshots.extend(written);
    let flushed = writer_conn.flush().map_err(|e| e.to_string());
    let live = stack.server.snapshot();
    ledger.count("final", "flush", flushed.clone().map(drop));
    if let Ok(version) = flushed {
        ledger.check("final", "flushed version", version, live.version());
    }
    snapshots.insert(live.version(), Arc::clone(&live));

    tally(ledger, "open", &open, inputs, snapshots);
    let verified = tally(ledger, "rtt", &rtt, inputs, snapshots);
    let mut observes = Vec::new();
    for w in writes {
        if w.kind == "observe" && w.outcome.is_ok() {
            observes.push(w.latency);
        }
        ledger.count("open", w.kind, w.outcome);
    }
    // After the final flush, socket answers match solo_topk on the live
    // snapshot.
    probe(ledger, "final", reader_conn, inputs, ids, &live);
    // The writer and the round-trip reader each make one round.
    let rtt: Vec<Duration> = rtt
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| s.latency)
        .collect();
    Ok(Traffic {
        open,
        // Closed-loop reads beside the writer, on one connection.
        goodput_qps: verified as f64 / rtt_window.as_secs_f64(),
        rtt_p50s: vec![round_p50(&rtt)],
        observe_p50s: vec![round_p50(&observes)],
        observe_rates: vec![observes.len() as f64 / elapsed.as_secs_f64()],
        observes,
    })
}

/// Sends `PROBES` fresh rows over `client` and checks each answer against
/// `solo_topk` on `reference`.
fn probe(
    ledger: &mut Ledger,
    phase: &'static str,
    client: &mut NetClient,
    inputs: &Inputs,
    ids: &Ids,
    reference: &serve::ModelSnapshot,
) {
    let first = ids.reserve(PROBES);
    for id in first..first + PROBES {
        let row = inputs.query_row(id);
        let outcome = loadgen::query(client, &row).and_then(|(version, top)| {
            if top == expected(reference, &row) {
                Ok(())
            } else {
                Err(format!(
                    "probe {id} under v{version} differs from the reference"
                ))
            }
        });
        ledger.count(phase, "probe", outcome);
    }
}

/// Top-1 agreement of the served routed index with the exhaustive memory
/// of the same snapshot, over a fixed seeded probe set.
fn routed_recall(snapshot: &serve::ModelSnapshot, inputs: &Inputs) -> Result<f64, String> {
    let routed = snapshot
        .routed()
        .ok_or("routed workload without a routed index")?;
    let first = RECALL_FIRST_ID;
    let mut agree = 0u64;
    for chunk_start in (first..first + RECALL_PROBES).step_by(64) {
        let rows: Vec<Vec<f32>> = (chunk_start..(chunk_start + 64).min(first + RECALL_PROBES))
            .map(|id| inputs.query_row(id))
            .collect();
        let batch = PackedQueryBatch::from_sign_matrix(
            &snapshot.model().embed_images(&Matrix::from_rows(&rows)),
        );
        let served = routed.topk_batch(&batch, 1);
        let exhaustive = snapshot.memory().topk_batch(&batch, 1);
        agree += served
            .iter()
            .zip(&exhaustive)
            .filter(|(a, b)| a.first().map(|x| x.0) == b.first().map(|x| x.0))
            .count() as u64;
    }
    Ok(agree as f64 / RECALL_PROBES as f64)
}

/// Live state a recovery must reproduce.
fn class_words(server: &QueryServer, inputs: &Inputs) -> Vec<Option<Vec<u64>>> {
    let snapshot = server.snapshot();
    inputs
        .labels
        .iter()
        .map(|l| snapshot.memory().class_words(l).map(<[u64]>::to_vec))
        .collect()
}

/// Stops a durable stack, times `QueryServer::recover` on its directory,
/// and checks the recovered server against the live one: class words,
/// snapshot version, streaming batch position and socket probe answers.
fn stop_and_recover(
    spec: &Spec,
    inputs: &Inputs,
    stack: Stack,
    ids: &Ids,
    ledger: &mut Ledger,
) -> Result<(Duration, serve::RecoveryReport), String> {
    let live = stack.server.snapshot();
    let live_words = class_words(&stack.server, inputs);
    let live_stream = stack.server.stream_stats();
    let dir = stack
        .dir
        .clone()
        .ok_or("durable stack without a directory")?;
    stack.stop();
    drop(stack);
    let start = Instant::now();
    let (server, report) = QueryServer::recover(
        &inputs.schema,
        stack::server_config(spec),
        stack::durability(&dir),
    )
    .map_err(|e| format!("recover: {e}"))?;
    let took = start.elapsed();
    eprintln!("perfbench: recovered in {took:?}: {report:?}");
    ledger.check(
        "recover",
        "snapshot version",
        server.snapshot().version(),
        live.version(),
    );
    // The batching position is persisted; the lifetime counters (observes,
    // publishes, drift alarms) restart at the compaction base by design
    // (see `serve::StreamStats`), so they are not compared.
    let position = |s: serve::StreamStats| (s.pending_classes, s.since_publish);
    ledger.check(
        "recover",
        "stream position",
        position(server.stream_stats()),
        position(live_stream),
    );
    ledger.check(
        "recover",
        "class words",
        class_words(&server, inputs) == live_words,
        true,
    );
    let stack = Stack::bind(Arc::new(server), inputs, None)?;
    let mut client = stack.connect()?;
    probe(ledger, "recover", &mut client, inputs, ids, &live);
    drop(client);
    stack.stop();
    Ok((took, report))
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_quantiles_skip_empty_rounds() {
        let rounds = [4.0, f64::NAN, 1.0, 3.0, 2.0, 8.0, 7.0, 6.0, 5.0];
        // Eight finite rounds: ⌈0.25 · 8⌉ = 2nd and ⌈0.75 · 8⌉ = 6th.
        assert_eq!(round_quantile(&rounds, FAST_ROUNDS), 2.0);
        assert_eq!(round_quantile(&rounds, BUSY_ROUNDS), 6.0);
        assert_eq!(round_quantile(&[3.0], FAST_ROUNDS), 3.0);
        assert!(round_quantile(&[f64::NAN], FAST_ROUNDS).is_nan());
        assert!(round_quantile(&[], BUSY_ROUNDS).is_nan());
    }
}
