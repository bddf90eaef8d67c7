//! The traced run's per-layer sweep: spans around calls into each layer's
//! public functions, made from the benchmark's own code on the workload's
//! live stack.

use crate::inputs::Inputs;
use crate::loadgen::{percentile_ms, Ids, Sample};
use crate::run::Metric;
use crate::stack::{self, Spec, Stack, TOP_K};
use crate::trace::{self_times, Tracer};
use crate::verify::{expected, Ledger};
use engine::{PackedQueryBatch, RoutedClassMemory};
use hdc::{BipolarHypervector, ClassAccumulator};
use hdc_zsc::CheckpointDelta;
use serve::net::wire::{Request, Response, WireScore};
use serve::wal::{self, WalOp, WriteAheadLog};
use serve::{ModelSnapshot, QueryServer, ServerConfig, SyncPolicy};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tensor::Matrix;

/// `trace.coverage` must fall in this range, or some in-process work went
/// unmeasured (or was counted twice). Paired runs of the same rows still
/// read up to 1.2 on `routed_20k`, hence the high end. The low end leaves
/// room for the dispatcher's thread hand-offs (up to ~0.7 ms per
/// in-process batch on a two-vCPU box), which no stage covers and which
/// weigh more as the stages get faster.
pub const COVERAGE_BOUNDS: (f64, f64) = (0.5, 1.5);

/// Repetitions per batch size; medians are reported.
const REPS_B1: usize = 64;
const REPS_B64: usize = 6;
const REPS_MEAN_BATCH: usize = 24;

/// Durable-leg write script: observes measured for WAL bytes, then
/// (observes + flush) rounds. 32 + 4 × (3 + 1) = 48 records, below the
/// 64-record compaction cadence.
const LEG_OBSERVES: u64 = 32;
const LEG_FLUSH_ROUNDS: u64 = 4;
const LEG_RECORDS: u64 = LEG_OBSERVES + LEG_FLUSH_ROUNDS * 4;

/// Classes the read workloads' durable twin holds.
const TWIN_CLASSES: usize = 200;

/// What the socket phases measured, for the per-layer report.
#[derive(Debug)]
pub struct Socket<'a> {
    pub mean_batch: f64,
    pub shed_frac: f64,
    pub open: &'a [Sample],
}

/// Stage self times (µs) of one replayed batch size: medians over reps.
#[derive(Debug, Default)]
struct Stages(HashMap<&'static str, f64>);

impl Stages {
    fn us(&self, stage: &str) -> f64 {
        self.0.get(stage).copied().unwrap_or(f64::NAN)
    }
}

const STAGES: [&str; 6] = [
    "net.wire.decode",
    "core.embed",
    "engine.pack",
    "engine.score",
    "server.verdict",
    "net.wire.encode",
];

/// The stages an in-process `QueryServer::query_batch` crosses.
const IN_PROCESS_STAGES: [&str; 4] = [
    "core.embed",
    "engine.pack",
    "engine.score",
    "server.verdict",
];

/// `n` fresh query rows and the id of the first.
fn fresh_rows(inputs: &Inputs, ids: &Ids, n: usize) -> (u64, Vec<Vec<f32>>) {
    let first = ids.reserve(n as u64);
    let rows = (first..first + n as u64)
        .map(|id| inputs.query_row(id))
        .collect();
    (first, rows)
}

/// Replays `rows` (the first with id `first`) through the served path's
/// stages in order, under a root span named `root_name`. Returns the root
/// span's id.
fn replay(
    tracer: &Tracer,
    snapshot: &ModelSnapshot,
    (first, rows): (u64, &[Vec<f32>]),
    root_name: &'static str,
    ledger: &mut Ledger,
) -> u64 {
    let payloads: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| {
            Request::Query {
                features: r.clone(),
                k: None,
            }
            .encode()
        })
        .collect();
    let root = tracer.next_id();
    let start = Instant::now();
    let decoded = tracer.span("net.wire.decode", Some(root), first, || {
        payloads
            .iter()
            .map(|p| Request::decode(p))
            .collect::<Vec<_>>()
    });
    let features: Vec<Vec<f32>> = decoded
        .into_iter()
        .map(|r| match r {
            Ok(Request::Query { features, .. }) => features,
            other => panic!("replayed payload decoded to {other:?}"),
        })
        .collect();
    let matrix = Matrix::from_rows(&features);
    let embedded = tracer.span("core.embed", Some(root), first, || {
        snapshot.model().embed_images(&matrix)
    });
    let packed = tracer.span("engine.pack", Some(root), first, || {
        PackedQueryBatch::from_sign_matrix(&embedded)
    });
    let top = tracer.span("engine.score", Some(root), first, || {
        match snapshot.routed() {
            Some(routed) => routed.topk_batch(&packed, TOP_K),
            None => snapshot.memory().topk_batch(&packed, TOP_K),
        }
    });
    let judged = tracer.span("server.verdict", Some(root), first, || {
        top.into_iter()
            .map(|t| {
                let labelled: Vec<(String, f32)> =
                    t.into_iter().map(|(l, s)| (l.to_string(), s)).collect();
                let verdict = snapshot.verdict(&labelled);
                (labelled, verdict)
            })
            .collect::<Vec<_>>()
    });
    let encoded = tracer.span("net.wire.encode", Some(root), first, || {
        judged
            .iter()
            .map(|(labelled, verdict)| {
                Response::TopK {
                    version: snapshot.version(),
                    results: labelled
                        .iter()
                        .map(|(label, sim)| WireScore {
                            label: label.clone(),
                            sim_bits: sim.to_bits(),
                        })
                        .collect(),
                    verdict: *verdict,
                }
                .encode()
            })
            .collect::<Vec<_>>()
    });
    tracer.record(root, root_name, None, first, start, Instant::now());
    black_box(encoded);
    // The replay must compute what the server serves.
    let got: Vec<(String, u32)> = judged[0]
        .0
        .iter()
        .map(|(l, s)| (l.clone(), s.to_bits()))
        .collect();
    let outcome = if got == expected(snapshot, &rows[0]) {
        Ok(())
    } else {
        Err("replayed stages disagree with solo_topk".to_string())
    };
    ledger.count("replay", "check", outcome);
    root
}

/// Times an in-process `QueryServer::query_batch` of `rows`, in ns.
fn time_query_batch(
    tracer: &Tracer,
    stack: &Stack,
    rows: &[Vec<f32>],
    rep: u64,
    ledger: &mut Ledger,
) -> f64 {
    let start = Instant::now();
    let served = tracer.span("server.query_batch", None, rep, || {
        stack.server.query_batch(rows)
    });
    let took = start.elapsed().as_nanos() as f64;
    ledger.count(
        "replay",
        "query",
        served.map(drop).map_err(|e| e.to_string()),
    );
    took
}

/// Median self time (µs) of each stage under roots named `root_name`.
fn stage_self_times(tracer: &Tracer, root_name: &str) -> Stages {
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let mut buckets: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in &spans {
        if s.parent.and_then(|p| names.get(&p)) == Some(&root_name) {
            buckets
                .entry(s.name)
                .or_default()
                .push(selfs[&s.id] as f64 / 1e3);
        }
    }
    Stages(
        buckets
            .into_iter()
            .map(|(name, values)| (name, crate::loadgen::median(&values)))
            .collect(),
    )
}

/// Median wall time (µs) of `reps` calls of `f`, each under a span.
fn time_us<T>(tracer: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut us = Vec::with_capacity(reps);
    for rep in 0..reps {
        let start = Instant::now();
        black_box(tracer.span(name, None, rep as u64, &mut f));
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    crate::loadgen::median(&us)
}

fn secs<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = tracer.span(name, None, 0, f);
    (out, start.elapsed().as_secs_f64())
}

fn packed_rows(snapshot: &ModelSnapshot, inputs: &Inputs, ids: &Ids, n: usize) -> PackedQueryBatch {
    let (_, rows) = fresh_rows(inputs, ids, n);
    PackedQueryBatch::from_sign_matrix(&snapshot.model().embed_images(&Matrix::from_rows(&rows)))
}

#[allow(clippy::too_many_arguments)]
pub fn sweep(
    spec: &Spec,
    inputs: &Inputs,
    stack: &Stack,
    ids: &Ids,
    tracer: &Tracer,
    socket: &Socket,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<Vec<Metric>, String> {
    let snapshot = stack.server.snapshot();
    let config = stack::server_config(spec);
    let classes = inputs.labels.len() as f64;
    let mut m: Vec<Metric> = Vec::new();

    // Stage replays at batch 1, 64 and the served mean batch; the last one
    // also runs the same rows through the in-process server.
    for _ in 0..REPS_B1 {
        let (first, rows) = fresh_rows(inputs, ids, 1);
        replay(tracer, &snapshot, (first, &rows), "replay.b1", ledger);
    }
    for _ in 0..REPS_B64 {
        let (first, rows) = fresh_rows(inputs, ids, 64);
        replay(tracer, &snapshot, (first, &rows), "replay.b64", ledger);
    }
    let mean_batch = (socket.mean_batch.round() as usize).clamp(1, config.max_batch);
    // Each replay is paired with an in-process `query_batch` of the same
    // rows, so both sides of a coverage ratio see the same machine state;
    // the pair's order alternates, so neither side profits from caches
    // the other warmed.
    let mut pairs = Vec::new();
    for rep in 0..REPS_MEAN_BATCH as u64 {
        let (first, rows) = fresh_rows(inputs, ids, mean_batch);
        let (root, query_batch_ns) = if rep % 2 == 0 {
            let root = replay(tracer, &snapshot, (first, &rows), "replay.mean", ledger);
            (root, time_query_batch(tracer, stack, &rows, rep, ledger))
        } else {
            let took = time_query_batch(tracer, stack, &rows, rep, ledger);
            (
                replay(tracer, &snapshot, (first, &rows), "replay.mean", ledger),
                took,
            )
        };
        pairs.push((root, query_batch_ns));
    }
    let (b1, b64, bm) = (
        stage_self_times(tracer, "replay.b1"),
        stage_self_times(tracer, "replay.b64"),
        stage_self_times(tracer, "replay.mean"),
    );
    // A partial batch waits out the coalescing window by design; that wait
    // is `server.dispatch_gap_us`, not unmeasured work.
    let window_ns = if mean_batch < config.max_batch {
        config.max_wait_us as f64 * 1e3
    } else {
        0.0
    };
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|&(root, query_batch_ns)| {
            let staged: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(root) && IN_PROCESS_STAGES.contains(&s.name))
                .map(|s| selfs[&s.id])
                .sum();
            staged as f64 / (query_batch_ns - window_ns)
        })
        .collect();
    let coverage = crate::loadgen::median(&ratios);
    let covered = (COVERAGE_BOUNDS.0..=COVERAGE_BOUNDS.1).contains(&coverage);
    ledger.check("trace", "trace.coverage within bounds", covered, true);
    eprintln!(
        "perfbench: stage self times (µs) at batch 1 {:?}, batch 64 {:?}, batch {mean_batch} {:?}; coverage {coverage:.3}",
        STAGES.map(|s| b1.us(s)),
        STAGES.map(|s| b64.us(s)),
        STAGES.map(|s| bm.us(s)),
    );
    m.push(("core.embed_b1_us", b1.us("core.embed"), "us"));
    m.push(("core.embed_b64_us", b64.us("core.embed"), "us"));
    m.push(("engine.pack_b64_us", b64.us("engine.pack"), "us"));
    m.push(("net.wire.query_decode_us", b1.us("net.wire.decode"), "us"));
    m.push(("net.wire.topk_encode_us", b1.us("net.wire.encode"), "us"));
    let payload = Request::Query {
        features: inputs.query_row(ids.reserve(1)),
        k: None,
    }
    .encode();
    m.push(("net.wire.query_bytes", payload.len() as f64, "bytes"));

    // Class encoding and the routed index over the workload's class set.
    let model = snapshot.model();
    let (_, encode_s) = secs(tracer, "core.sharded_class_memory", || {
        model.sharded_class_memory(inputs.labels.clone(), &inputs.attributes, config.shards)
    });
    m.push(("core.class_encode_s", encode_s, "s"));
    let routed_cfg = stack::routed_config(stack::NPROBE);
    let (routed, build_s): (RoutedClassMemory, f64) =
        secs(tracer, "engine.index.routed_class_memory", || {
            model.routed_class_memory(inputs.labels.clone(), &inputs.attributes, routed_cfg)
        });
    let routed = routed.with_threads(config.threads);
    m.push(("engine.index.build_s", build_s, "s"));

    // Both scorers at batch 1 and 64.
    let q1 = packed_rows(&snapshot, inputs, ids, 1);
    let q64 = packed_rows(&snapshot, inputs, ids, 64);
    let memory = snapshot.memory();
    m.push((
        "engine.score_b1_us",
        time_us(tracer, "engine.topk_batch", REPS_B1, || {
            memory.topk_batch(&q1, TOP_K)
        }),
        "us",
    ));
    m.push((
        "engine.score_b64_us",
        time_us(tracer, "engine.topk_batch", REPS_B64, || {
            memory.topk_batch(&q64, TOP_K)
        }),
        "us",
    ));
    m.push((
        "engine.index.score_b1_us",
        time_us(tracer, "engine.index.topk_batch", REPS_B1, || {
            routed.topk_batch(&q1, TOP_K)
        }),
        "us",
    ));
    m.push((
        "engine.index.score_b64_us",
        time_us(tracer, "engine.index.topk_batch", REPS_B64, || {
            routed.topk_batch(&q64, TOP_K)
        }),
        "us",
    ));
    let candidates: usize = (0..q64.len())
        .map(|i| routed.candidate_classes(q64.row(i)))
        .sum();
    m.push((
        "engine.index.candidate_frac",
        candidates as f64 / q64.len() as f64 / classes,
        "frac",
    ));
    drop(routed);

    // The front-end and the in-process server.
    m.push(("net.server.shed_frac", socket.shed_frac, "frac"));
    let first = ids.reserve(REPS_B1 as u64);
    let mut inproc = Vec::new();
    for id in first..first + REPS_B1 as u64 {
        let row = inputs.query_row(id);
        let start = Instant::now();
        let served = tracer.span("server.query", None, id, || stack.server.query(&row));
        inproc.push(start.elapsed());
        ledger.count(
            "inproc",
            "query",
            served.map(drop).map_err(|e| e.to_string()),
        );
    }
    let inproc_us = percentile_ms(inproc, 0.5).unwrap_or(f64::NAN) * 1e3;
    m.push(("server.query_inproc_p50_us", inproc_us, "us"));
    let stages_b1 = b1.us("core.embed") + b1.us("engine.pack") + b1.us("engine.score");
    m.push(("server.dispatch_gap_us", inproc_us - stages_b1, "us"));
    m.push(("server.mean_batch", socket.mean_batch, "count"));

    // The HDC fold and the raw WAL append.
    let embedding = snapshot
        .model()
        .embed_images(&Matrix::from_rows(&[inputs.query_row(ids.reserve(1))]));
    let signs: Vec<i8> = embedding
        .row(0)
        .iter()
        .map(|&x| if x >= 0.0 { 1 } else { -1 })
        .collect();
    let example = BipolarHypervector::from_signs(&signs);
    let mut accumulator = ClassAccumulator::new(signs.len());
    m.push((
        "hdc.fold_us",
        time_us(tracer, "hdc.observe_prototype", REPS_B1, || {
            accumulator
                .observe("c", &example)
                .expect("matching dimension");
            accumulator.prototype("c")
        }),
        "us",
    ));
    let mut log = WriteAheadLog::create(dir.join("append.wal"), SyncPolicy::Always)
        .map_err(|e| e.to_string())?;
    let record = WalOp::Observe {
        label: inputs.labels[0].clone(),
        words: engine::pack_float_signs(embedding.row(0)),
    };
    m.push((
        "wal.append_us",
        time_us(tracer, "wal.append", REPS_B1, || {
            log.append(&record).expect("scratch WAL append")
        }),
        "us",
    ));
    drop(log);

    m.extend(durable_leg(spec, inputs, stack, ids, tracer, dir, ledger)?);

    let lags = socket.open.iter().map(|s| s.lag);
    m.push((
        "loadgen.lag_p99_ms",
        percentile_ms(lags, 0.99).unwrap_or(f64::NAN),
        "ms",
    ));
    let p50 = |traced: bool| {
        percentile_ms(
            socket
                .open
                .iter()
                .filter(|s| s.traced == traced && s.outcome.is_ok())
                .map(|s| s.latency),
            0.5,
        )
        .unwrap_or(f64::NAN)
    };
    m.push(("trace.coverage", coverage, "frac"));
    m.push(("trace.overhead_frac", p50(true) / p50(false) - 1.0, "frac"));
    Ok(m)
}

/// Compaction, streamed writes, checkpoint load and (for the read
/// workloads) recovery, on the workload's durable server: the live one of
/// `stream_durable`, or a durable twin of the read workloads' server.
fn durable_leg(
    spec: &Spec,
    inputs: &Inputs,
    stack: &Stack,
    ids: &Ids,
    tracer: &Tracer,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<Vec<Metric>, String> {
    let config = stack::server_config(spec);
    let (server, wal_dir) = match &stack.dir {
        Some(wal_dir) => (Arc::clone(&stack.server), wal_dir.clone()),
        None => {
            // The twin's base holds the model plus at most `TWIN_CLASSES`
            // classes: loading a 20k-class base takes minutes.
            let wal_dir = dir.join("twin");
            let classes = inputs.labels.len().min(TWIN_CLASSES);
            let attributes: Vec<Vec<f32>> = (0..classes)
                .map(|c| inputs.attributes.row(c).to_vec())
                .collect();
            let twin = QueryServer::start_durable(
                stack.server.snapshot().model().clone(),
                inputs.labels[..classes].to_vec(),
                &Matrix::from_rows(&attributes),
                &inputs.schema,
                ServerConfig {
                    routed: None,
                    ..config
                },
                stack::durability(&wal_dir),
            )
            .map_err(|e| format!("durable twin: {e}"))?;
            (Arc::new(twin), wal_dir)
        }
    };
    let mut m: Vec<Metric> = Vec::new();
    let (compacted, compact_s) = secs(tracer, "server.compact", || server.compact());
    ledger.count(
        "layers",
        "compact",
        compacted.map(drop).map_err(|e| e.to_string()),
    );
    m.push(("server.compact_s", compact_s, "s"));
    let base = wal::base_path(&wal_dir);
    let base_bytes = std::fs::metadata(&base)
        .map_err(|e| format!("base: {e}"))?
        .len();
    m.push(("checkpoint.base_bytes", base_bytes as f64, "bytes"));

    let wal_bytes = || server.durability_stats().map_or(0, |d| d.wal_bytes);
    let mut observe_us = Vec::new();
    let mut flush_us = Vec::new();
    let classes = inputs.labels.len().min(TWIN_CLASSES) as u64;
    let mut observe = |ledger: &mut Ledger, id: u64| {
        let label = &inputs.labels[(id % classes) as usize];
        let row = inputs.query_row(id);
        let start = Instant::now();
        let outcome = tracer.span("server.observe", None, id, || server.observe(label, &row));
        observe_us.push(start.elapsed().as_secs_f64() * 1e6);
        ledger.count(
            "layers",
            "observe",
            outcome.map(drop).map_err(|e| e.to_string()),
        );
    };
    let before = wal_bytes();
    let first = ids.reserve(LEG_OBSERVES + LEG_FLUSH_ROUNDS * 3);
    for id in first..first + LEG_OBSERVES {
        observe(ledger, id);
    }
    let per_observe = (wal_bytes() - before) as f64 / LEG_OBSERVES as f64;
    for round in 0..LEG_FLUSH_ROUNDS {
        for k in 0..3 {
            observe(ledger, first + LEG_OBSERVES + round * 3 + k);
        }
        let start = Instant::now();
        let flushed = tracer.span("server.flush", None, round, || server.flush());
        flush_us.push(start.elapsed().as_secs_f64() * 1e6);
        ledger.count(
            "layers",
            "flush",
            flushed.map(drop).map_err(|e| e.to_string()),
        );
    }
    m.push((
        "server.observe_us",
        crate::loadgen::median(&observe_us),
        "us",
    ));
    m.push(("server.flush_us", crate::loadgen::median(&flush_us), "us"));
    m.push(("wal.bytes_per_observe", per_observe, "bytes"));

    let (loaded, load_s) = secs(tracer, "checkpoint.load_json", || {
        CheckpointDelta::load_json(&base)
    });
    ledger.count(
        "layers",
        "load",
        loaded.map(drop).map_err(|e| e.to_string()),
    );
    m.push(("checkpoint.load_s", load_s, "s"));

    if stack.dir.is_none() {
        // What recovering the twin would replay: every record past its
        // compaction base (the stream workload reports its real recovery).
        server.stop();
        let (replay, _) = secs(tracer, "wal.replay", || {
            wal::replay(wal::wal_path(&wal_dir))
        });
        let replayed = replay
            .map_err(|e| format!("twin replay: {e}"))?
            .entries
            .len() as u64;
        ledger.check("layers", "replayable records", replayed, LEG_RECORDS);
        m.push(("server.replayed_records", replayed as f64, "count"));
    }
    Ok(m)
}
