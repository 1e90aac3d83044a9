//! The micro-batcher: the single consumer of the admission queue.
//!
//! Only cache misses reach it: admission answers LRU and tier-2 hits
//! itself (`Engine::lookup`), so every job here already missed both
//! tiers. One dedicated thread pops dynamically coalesced batches
//! ([`crate::queue::Queue::pop_batch`]), expires jobs whose deadline
//! passed while queued (they are answered 408 and **never encoded** —
//! cancelled work must not burn encode capacity), groups the survivors
//! by model, and hands each group to the shared engine's
//! `encode_misses_timed`, whose results are bit-identical to a serial
//! encode loop at any `--jobs` value and which counts no second lookup.
//! Model adapters are constructed once and cached for the lifetime of
//! the batcher (deterministic weight generation is expensive relative
//! to a small encode).
//!
//! Every reply carries a [`Stages`] breakdown: `queue_us` (admission →
//! pop) and `batch_wait_us` (pop → encode call) are stamped here from
//! monotonic clocks; `store_us` is the admission-side tier-2 probe the
//! job carries; `encode_us`/`write_us` come from the engine's
//! per-position [`observatory_runtime::EncodeTiming`]. The
//! flight recorder sees an event per terminal outcome (done / expired /
//! panic), and expiry and panic trigger an anomaly dump.
//!
//! A panicking encode is caught with `catch_unwind`: the affected jobs
//! are answered 500 and the batcher keeps serving — combined with the
//! poison-recovering locks in `runtime::cache` and `obs::collector`,
//! one bad table cannot take the server down.

use crate::metrics::ServerMetrics;
use crate::queue::{Job, Queue, Stages};
use crate::JobError;
use observatory_models::registry::model_by_name;
use observatory_models::TableEncoder;
use observatory_obs as obs;
use observatory_obs::flight;
use observatory_obs::flight::FlightKind;
use observatory_runtime::Engine;
use observatory_table::Table;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Batcher parameters (a slice of the server config).
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Largest batch handed to `encode_batch`.
    pub max_batch: usize,
    /// How long a forming batch waits for stragglers.
    pub batch_delay: Duration,
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "encode panicked".to_string()
    }
}

/// Saturating microsecond conversion for stage stamps.
fn as_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Run the batcher until the queue is closed and fully drained.
pub fn batcher_loop(
    queue: &Queue,
    engine: &Engine,
    metrics: &ServerMetrics,
    config: BatcherConfig,
) {
    let mut models: HashMap<String, Box<dyn TableEncoder>> = HashMap::new();
    while let Some(batch) = queue.pop_batch(config.max_batch, config.batch_delay) {
        if batch.is_empty() {
            continue;
        }
        dispatch(batch, engine, metrics, &mut models);
    }
}

/// Expire, group, and encode one popped batch.
fn dispatch(
    batch: Vec<Job>,
    engine: &Engine,
    metrics: &ServerMetrics,
    models: &mut HashMap<String, Box<dyn TableEncoder>>,
) {
    let popped = Instant::now();
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    let mut expired_any = false;
    for job in batch {
        if job.deadline <= popped {
            // Deadline passed while queued: answer 408, never encode.
            // The reply still carries the queue time so the 408 response
            // (and the flight dump) show where the budget went.
            let stages = Stages {
                queue_us: as_us(popped.saturating_duration_since(job.enqueued)),
                ..Stages::default()
            };
            obs::event_with(obs::Level::Debug, "serve", "deadline_expired", || {
                vec![("request", job.id.to_string()), ("rid", job.rid.to_string())]
            });
            flight::record(FlightKind::Expired, &job.rid, stages.as_array(), 408);
            expired_any = true;
            job.reply.send((Err(JobError::DeadlineExpired), stages));
        } else {
            live.push(job);
        }
    }
    if expired_any {
        // A deadline violation is an anomaly: snapshot the recent past.
        flight::dump("deadline");
    }
    if live.is_empty() {
        return;
    }
    metrics.record_batch(live.len());
    // Group by model, preserving first-seen order for determinism.
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<Job>> = HashMap::new();
    for job in live {
        if !groups.contains_key(&job.model) {
            order.push(job.model.clone());
        }
        groups.entry(job.model.clone()).or_default().push(job);
    }
    for name in order {
        let jobs = groups.remove(&name).expect("group exists");
        encode_group(&name, jobs, engine, metrics, models, popped);
    }
}

/// Encode one same-model group and answer every job in it.
fn encode_group(
    name: &str,
    jobs: Vec<Job>,
    engine: &Engine,
    metrics: &ServerMetrics,
    models: &mut HashMap<String, Box<dyn TableEncoder>>,
    popped: Instant,
) {
    let first_parent = jobs.first().and_then(|j| j.span_parent);
    // The batch span lives on the batcher thread; `encode_batch` opens
    // its own span beneath it via thread-local parentage, so the Chrome
    // trace shows request → … → batch → encode_batch → encode.
    let mut span = obs::span(obs::Level::Info, "serve", "batch")
        .with_parent(first_parent)
        .with("model", name)
        .with("requests", jobs.len());
    let ids: Vec<String> = jobs.iter().map(|j| j.id.to_string()).collect();
    span.record("request_ids", ids.join(","));
    let model: &dyn TableEncoder = match models.get(name) {
        Some(m) => m.as_ref(),
        None => match model_by_name(name) {
            Some(m) => {
                models.insert(name.to_string(), m);
                models[name].as_ref()
            }
            None => {
                // Admission validates names against the registry; this is
                // defence in depth for a registry/admission drift.
                for job in jobs {
                    let stages = Stages {
                        queue_us: as_us(popped.saturating_duration_since(job.enqueued)),
                        ..Stages::default()
                    };
                    job.reply.send((
                        Err(JobError::Internal(format!(
                            "model '{name}' disappeared from the registry"
                        ))),
                        stages,
                    ));
                }
                return;
            }
        },
    };
    // Admission fingerprinted each table under the registry name.
    debug_assert_eq!(model.name(), name, "registry name and model name agree");
    let mut tables: Vec<Table> = Vec::with_capacity(jobs.len());
    let mut fps = Vec::with_capacity(jobs.len());
    // (reply, rid, enqueued, store_us) per position, aligned with `tables`.
    let mut meta = Vec::with_capacity(jobs.len());
    for j in jobs {
        tables.push(j.table);
        fps.push(j.fp);
        meta.push((j.reply, j.rid, j.enqueued, j.store_us));
    }
    let encode_start = Instant::now();
    let batch_wait_us = as_us(encode_start.saturating_duration_since(popped));
    let result =
        catch_unwind(AssertUnwindSafe(|| engine.encode_misses_timed(model, &tables, &fps)));
    match result {
        Ok((encodings, timings)) => {
            for (((reply, rid, enqueued, store_us), enc), t) in
                meta.into_iter().zip(encodings).zip(timings)
            {
                let stages = Stages {
                    queue_us: as_us(popped.saturating_duration_since(enqueued)),
                    batch_wait_us,
                    encode_us: t.encode_us,
                    store_us,
                    write_us: t.write_us,
                };
                flight::record(FlightKind::Done, &rid, stages.as_array(), 200);
                reply.send((Ok(enc), stages));
            }
        }
        Err(payload) => {
            let msg = panic_message(payload);
            metrics.record_panic();
            span.record("panicked", &msg);
            obs::event_with(obs::Level::Error, "serve", "encode_panic", || {
                vec![("message", msg.clone())]
            });
            for (reply, rid, enqueued, store_us) in meta {
                let stages = Stages {
                    queue_us: as_us(popped.saturating_duration_since(enqueued)),
                    batch_wait_us,
                    store_us,
                    ..Stages::default()
                };
                flight::record(FlightKind::Panic, &rid, stages.as_array(), 500);
                reply.send((Err(JobError::Internal(msg.clone())), stages));
            }
            // A caught handler panic is an anomaly: dump the flight ring.
            flight::dump("panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Pushed, Reply};
    use observatory_runtime::{fingerprint_table, EngineConfig};
    use observatory_table::{Column, Value};
    use std::sync::mpsc;

    fn table(tag: i64) -> Table {
        Table::new(
            format!("t{tag}"),
            vec![
                Column::new("id", (0..3).map(|i| Value::Int(i + tag)).collect()),
                Column::new("name", (0..3).map(|i| Value::text(format!("r{i}-{tag}"))).collect()),
            ],
        )
    }

    fn push_job(
        queue: &Queue,
        id: u64,
        model: &str,
        table: Table,
        deadline: Instant,
    ) -> mpsc::Receiver<Reply> {
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id,
            rid: format!("r{id}").into(),
            model: model.to_string(),
            fp: fingerprint_table(model, &table),
            table,
            store_us: 0,
            enqueued: Instant::now(),
            deadline,
            reply: tx.into(),
            span_parent: None,
        };
        let want_depth = queue.len() + 1;
        assert_eq!(queue.push(job), Pushed::Ok { depth: want_depth });
        rx
    }

    /// Drive the batcher over whatever is queued, then close and drain.
    fn run_drained(queue: &Queue, engine: &Engine, metrics: &ServerMetrics, max_batch: usize) {
        queue.close();
        batcher_loop(
            queue,
            engine,
            metrics,
            BatcherConfig { max_batch, batch_delay: Duration::ZERO },
        );
    }

    #[test]
    fn batched_replies_match_serial_encode_bitwise() {
        let engine = Engine::new(EngineConfig { jobs: 2, cache_bytes: 1 << 22 });
        let reference_engine = Engine::new(EngineConfig::serial_uncached());
        let queue = Queue::new(64);
        let metrics = ServerMetrics::new();
        let rxs: Vec<_> =
            (0..10).map(|i| push_job(&queue, i, "bert", table(i as i64), far())).collect();
        run_drained(&queue, &engine, &metrics, 4);
        let model = model_by_name("bert").unwrap();
        for (i, rx) in rxs.into_iter().enumerate() {
            let (result, _stages) = rx.try_recv().expect("reply present");
            let enc = result.expect("encode ok");
            let want = reference_engine.encode_table(model.as_ref(), &table(i as i64));
            assert_eq!(enc.embeddings, want.embeddings, "request {i} drifted from serial");
        }
        assert!(metrics.totals().batches >= 3, "10 jobs at max_batch 4 → >= 3 batches");
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(600)
    }

    #[test]
    fn expired_jobs_answered_408_and_never_encoded() {
        let engine = Engine::new(EngineConfig { jobs: 1, cache_bytes: 0 });
        let queue = Queue::new(8);
        let metrics = ServerMetrics::new();
        let past = Instant::now() - Duration::from_millis(1);
        let rx_dead = push_job(&queue, 1, "bert", table(1), past);
        let rx_live = push_job(&queue, 2, "bert", table(2), far());
        run_drained(&queue, &engine, &metrics, 8);
        let (dead, _) = rx_dead.try_recv().unwrap();
        assert!(matches!(dead, Err(JobError::DeadlineExpired)));
        assert!(rx_live.try_recv().unwrap().0.is_ok());
        // Only the live job was encoded.
        assert_eq!(engine.metrics_snapshot().encodes, 1, "expired work must not be encoded");
    }

    #[test]
    fn replies_carry_stage_breakdown() {
        let engine = Engine::new(EngineConfig { jobs: 1, cache_bytes: 1 << 22 });
        let queue = Queue::new(8);
        let metrics = ServerMetrics::new();
        let rx_cold = push_job(&queue, 1, "bert", table(7), far());
        let rx_warm = push_job(&queue, 2, "bert", table(7), far());
        run_drained(&queue, &engine, &metrics, 1);
        let (cold, cold_stages) = rx_cold.try_recv().unwrap();
        assert!(cold.is_ok());
        assert!(cold_stages.encode_us > 0, "cold encode spends model time");
        let (warm, warm_stages) = rx_warm.try_recv().unwrap();
        assert!(warm.is_ok());
        assert_eq!(warm_stages.encode_us, 0, "cache hit skips the model");
        assert_eq!(warm_stages.as_array()[2..], [0, 0, 0], "hit has no encode/store/write time");
    }

    #[test]
    fn mixed_model_batch_groups_correctly() {
        let engine = Engine::new(EngineConfig { jobs: 1, cache_bytes: 0 });
        let queue = Queue::new(8);
        let metrics = ServerMetrics::new();
        let rx_a = push_job(&queue, 1, "bert", table(5), far());
        let rx_b = push_job(&queue, 2, "roberta", table(5), far());
        let rx_c = push_job(&queue, 3, "bert", table(6), far());
        run_drained(&queue, &engine, &metrics, 8);
        let a = rx_a.try_recv().unwrap().0.unwrap();
        let b = rx_b.try_recv().unwrap().0.unwrap();
        let c = rx_c.try_recv().unwrap().0.unwrap();
        assert_ne!(a.embeddings, b.embeddings, "different models differ on the same table");
        assert_ne!(a.embeddings, c.embeddings, "different tables differ under one model");
        let s = engine.metrics_snapshot();
        assert_eq!(s.encodes, 3);
        assert_eq!(s.batches, 2, "one engine batch per model group");
    }

    #[test]
    fn unknown_model_is_answered_not_dropped() {
        // Admission normally filters these; the batcher must still answer
        // rather than hang the connection if one slips through.
        let engine = Engine::new(EngineConfig { jobs: 1, cache_bytes: 0 });
        let queue = Queue::new(4);
        let metrics = ServerMetrics::new();
        let rx = push_job(&queue, 1, "no-such-model", table(1), far());
        run_drained(&queue, &engine, &metrics, 4);
        assert!(matches!(rx.try_recv().unwrap().0, Err(JobError::Internal(_))));
    }
}
