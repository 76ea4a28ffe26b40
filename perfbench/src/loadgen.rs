//! The load generator: one thread that submits to the engine and, between
//! sends, blocks on the oldest outstanding reply.
//!
//! * **closed**: keeps a fixed number of requests outstanding; a slow
//!   engine receives less load.
//! * **open**: sends on a seeded Poisson schedule regardless of replies;
//!   latency is timed from each request's due time, so a stall also
//!   charges the requests queued behind it, and the generator reports how
//!   late it sent.
//!
//! Every reply is compared with the direct `OnlineStage::try_query`
//! answer for the same query. A failed, refused or wrong reply counts as
//! failed and enters the latency sample as `+inf`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use qdgnn_data::Query;
use qdgnn_graph::VertexId;
use qdgnn_serve::{Pending, ServeEngine, ServeError};

use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::Tracer;

/// Share of a closed phase spent warming the engine before measuring.
const WARMUP_SHARE: f64 = 1.0 / 6.0;
/// Correct replies per closed-loop throughput sample (four full
/// batches at the engine's default `max_batch`).
const WINDOW_REPLIES: u64 = 64;

/// Longest the generator waits for one reply before counting it failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The requests a phase draws from, with the direct answer to each.
pub struct Target<'a> {
    pub engine: &'a ServeEngine,
    pub requests: &'a [Query],
    pub answers: &'a [Vec<VertexId>],
}

#[derive(Default)]
pub struct PhaseStats {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Submissions the engine refused (also counted in `failed`).
    pub rejected: u64,
    /// Replies that differ from the direct answer (also in `failed`).
    pub mismatched: u64,
    pub elapsed_s: f64,
    /// Per request: reply time minus due time (open) or submit time
    /// (closed), in ms; `+inf` for a failed request.
    pub latency_ms: Vec<f64>,
    /// Per send: how late the generator submitted, in ms (open only).
    pub lag_ms: Vec<f64>,
    /// Closed loop: replies per second in each measured window.
    pub window_qps: Vec<f64>,
}

impl PhaseStats {
    pub fn line(&self, phase: &str) -> String {
        format!(
            "phase {phase}: sent {} ok {} failed {} (rejected {}, mismatched {}) in {:.3} s",
            self.sent, self.ok, self.failed, self.rejected, self.mismatched, self.elapsed_s
        )
    }
}

/// Median window throughput over closed phases; their overall rate when
/// they were too short to close a window.
pub fn pooled_qps(phases: &[&PhaseStats]) -> f64 {
    let windows: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.window_qps.iter().copied())
        .collect();
    let ok: u64 = phases.iter().map(|p| p.ok).sum();
    let elapsed: f64 = phases.iter().map(|p| p.elapsed_s).sum();
    median(&windows).unwrap_or(ok as f64 / elapsed.max(1e-9))
}

struct InFlight {
    pending: Pending,
    index: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

struct Generator<'a, 't> {
    target: &'a Target<'a>,
    tracer: &'t mut Tracer,
    stats: PhaseStats,
    inflight: VecDeque<InFlight>,
    order: SplitMix64,
    next_request_id: u64,
}

impl<'a, 't> Generator<'a, 't> {
    fn new(target: &'a Target<'a>, tracer: &'t mut Tracer, seed: u64) -> Self {
        Generator {
            target,
            tracer,
            stats: PhaseStats::default(),
            inflight: VecDeque::new(),
            order: SplitMix64::new(seed),
            next_request_id: 0,
        }
    }

    fn send(&mut self, due: Instant) {
        let index = self.order.below(self.target.requests.len());
        let submit_start = Instant::now();
        let submitted = self
            .target
            .engine
            .submit(self.target.requests[index].clone());
        let submit_end = Instant::now();
        self.stats.sent += 1;
        match submitted {
            Ok(pending) => self.inflight.push_back(InFlight {
                pending,
                index,
                due,
                submit_start,
                submit_end,
            }),
            Err(_) => {
                self.stats.rejected += 1;
                self.stats.failed += 1;
                self.stats.latency_ms.push(f64::INFINITY);
            }
        }
    }

    fn finish(&mut self, f: InFlight, reply: Option<Result<Vec<VertexId>, ServeError>>) {
        let now = Instant::now();
        let ok = match reply {
            Some(Ok(community)) if community == self.target.answers[f.index] => true,
            Some(Ok(_)) => {
                self.stats.mismatched += 1;
                false
            }
            Some(Err(_)) | None => false,
        };
        if ok {
            self.stats.ok += 1;
            self.stats
                .latency_ms
                .push(now.duration_since(f.due).as_secs_f64() * 1e3);
        } else {
            self.stats.failed += 1;
            self.stats.latency_ms.push(f64::INFINITY);
        }
        let id = Some(self.next_request_id);
        self.next_request_id += 1;
        let request = self
            .tracer
            .record("engine.request", f.submit_start, now, None, id);
        if request.is_some() {
            self.tracer
                .record("engine.submit", f.submit_start, f.submit_end, request, id);
        }
    }

    /// Collects every reply that has already arrived, oldest first.
    fn sweep(&mut self) {
        let mut i = 0;
        while i < self.inflight.len() {
            match self.inflight[i].pending.try_wait() {
                Some(reply) => {
                    if let Some(f) = self.inflight.remove(i) {
                        self.finish(f, Some(reply));
                    }
                }
                None => i += 1,
            }
        }
    }

    /// Blocks on the oldest outstanding request for at most `limit`.
    fn wait_oldest(&mut self, limit: Duration) {
        let Some(front) = self.inflight.front() else {
            return;
        };
        if let Some(reply) = front.pending.wait_timeout(limit) {
            if let Some(f) = self.inflight.pop_front() {
                self.finish(f, Some(reply));
            }
        }
    }

    fn await_outstanding(&mut self) {
        while let Some(f) = self.inflight.pop_front() {
            let reply = f.pending.wait_timeout(REPLY_TIMEOUT);
            self.finish(f, reply);
        }
    }
}

/// Closed loop: keeps `outstanding` requests in flight for `duration`,
/// then drains. The first [`WARMUP_SHARE`] of the phase warms the engine
/// and is not measured; after it, the time taken by every
/// [`WINDOW_REPLIES`] correct replies gives one throughput sample.
pub fn closed(
    target: &Target<'_>,
    outstanding: usize,
    duration: Duration,
    seed: u64,
    tracer: &mut Tracer,
) -> PhaseStats {
    let mut g = Generator::new(target, tracer, seed);
    let start = Instant::now();
    let warmup = duration.mul_f64(WARMUP_SHARE);
    let mut window: Option<(Instant, u64)> = None;
    while start.elapsed() < duration {
        // Collect every reply already in before refilling, so a batch's
        // replies free their slots together and the next batch fills.
        g.sweep();
        while g.inflight.len() < outstanding && start.elapsed() < duration {
            g.send(Instant::now());
        }
        match g.inflight.pop_front() {
            Some(f) => {
                let reply = f.pending.wait_timeout(REPLY_TIMEOUT);
                g.finish(f, reply);
            }
            None => break,
        }
        let now = Instant::now();
        match window {
            None if now.duration_since(start) >= warmup => window = Some((now, g.stats.ok)),
            Some((t0, ok0)) if g.stats.ok - ok0 >= WINDOW_REPLIES => {
                let rate = (g.stats.ok - ok0) as f64 / now.duration_since(t0).as_secs_f64();
                g.stats.window_qps.push(rate);
                window = Some((now, g.stats.ok));
            }
            _ => {}
        }
    }
    g.await_outstanding();
    g.stats.elapsed_s = start.elapsed().as_secs_f64();
    g.stats
}

/// Seeded Poisson arrival offsets: `count` arrivals at `rate` per second.
pub fn poisson_schedule(rate: f64, count: usize, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Open loop: sends one request at each offset of `schedule`, then
/// drains.
pub fn open(
    target: &Target<'_>,
    schedule: &[Duration],
    seed: u64,
    tracer: &mut Tracer,
) -> PhaseStats {
    let mut g = Generator::new(target, tracer, seed);
    let start = Instant::now();
    for offset in schedule {
        let due = start + *offset;
        loop {
            g.sweep();
            let now = Instant::now();
            if now >= due {
                g.stats
                    .lag_ms
                    .push(now.duration_since(due).as_secs_f64() * 1e3);
                break;
            }
            if g.inflight.is_empty() {
                std::thread::sleep(due - now);
            } else {
                g.wait_oldest(due - now);
            }
        }
        g.send(due);
    }
    g.await_outstanding();
    g.stats.elapsed_s = start.elapsed().as_secs_f64();
    g.stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_increasing_and_near_rate() {
        let a = poisson_schedule(50.0, 2000, 3);
        assert_eq!(a, poisson_schedule(50.0, 2000, 3));
        assert_ne!(a, poisson_schedule(50.0, 2000, 4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = 2000.0 / a.last().unwrap().as_secs_f64();
        assert!((rate - 50.0).abs() < 5.0, "rate {rate}");
    }
}
