//! Engine configuration.

use crate::error::ServeError;

/// Tunables of the batching engine.
///
/// The adaptive batcher drains up to [`ServeConfig::max_batch`] queued
/// requests into one `try_query_batch` call, flushing early once the
/// oldest queued request has waited [`ServeConfig::max_wait_us`] — so an
/// idle engine answers a lone request within the wait budget, and a busy
/// engine drains a full batch per wake-up.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum requests drained into one batch.
    pub max_batch: usize,
    /// Deadline (µs, engine clock) from the oldest queued request's
    /// submission to its batch being flushed. `0` disables batching
    /// delays entirely: every drain takes whatever is queued right now.
    pub max_wait_us: u64,
    /// Bounded submission-queue capacity; submissions beyond it are
    /// rejected with [`ServeError::QueueFull`] (backpressure, never
    /// blocking the submitter).
    pub queue_capacity: usize,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Default per-request deadline budget (µs, engine clock) applied by
    /// `ServeEngine::submit`; `0` disables deadlines (requests wait
    /// indefinitely, the pre-deadline behaviour). Requests whose
    /// deadline expires in the queue are shed at dequeue time with
    /// [`ServeError::DeadlineExceeded`] instead of occupying a batch
    /// slot, and admission rejects outright once the estimated queue
    /// wait already exceeds the budget.
    pub deadline_us: u64,
    /// Worker panics within [`ServeConfig::panic_window_us`] that trip
    /// the circuit breaker into degraded single-query (batch = 1) mode,
    /// so a poisoned query stops taking out co-batched neighbors. Must
    /// be at least 1.
    pub panic_threshold: u32,
    /// Sliding window (µs, engine clock) over which worker panics are
    /// counted toward [`ServeConfig::panic_threshold`].
    pub panic_window_us: u64,
    /// How long (µs, engine clock) the engine stays in degraded
    /// single-query mode after the breaker trips; a panic during the
    /// cooldown restarts it. After a quiet cooldown, batching resumes.
    pub breaker_cooldown_us: u64,
    /// How many tail exemplars the engine retains per category (the K
    /// slowest request traces and the K most recently shed ones) within
    /// each exemplar window, for `ServeEngine::exemplars` and the
    /// `/traces` endpoint. Must be at least 1.
    pub exemplar_k: usize,
    /// Width (µs, engine clock) of the exemplar retention window;
    /// crossing a window boundary clears the retained exemplars so they
    /// never describe stale load. Must be at least 1.
    pub exemplar_window_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            max_wait_us: 2_000,
            queue_capacity: 256,
            workers: 1,
            deadline_us: 0,
            panic_threshold: 3,
            panic_window_us: 10_000_000,
            breaker_cooldown_us: 5_000_000,
            exemplar_k: 4,
            exemplar_window_us: 60_000_000,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, returning a typed error on nonsense
    /// values (the engine refuses to start rather than deadlock).
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be at least 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig("queue_capacity must be at least 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be at least 1".into()));
        }
        if self.panic_threshold == 0 {
            return Err(ServeError::InvalidConfig("panic_threshold must be at least 1".into()));
        }
        if self.exemplar_k == 0 {
            return Err(ServeError::InvalidConfig("exemplar_k must be at least 1".into()));
        }
        if self.exemplar_window_us == 0 {
            return Err(ServeError::InvalidConfig("exemplar_window_us must be at least 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_degenerate_values_are_rejected() {
        assert!(ServeConfig::default().validate().is_ok());
        for bad in [
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
            ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
            ServeConfig { workers: 0, ..ServeConfig::default() },
            ServeConfig { panic_threshold: 0, ..ServeConfig::default() },
            ServeConfig { exemplar_k: 0, ..ServeConfig::default() },
            ServeConfig { exemplar_window_us: 0, ..ServeConfig::default() },
        ] {
            assert!(matches!(bad.validate(), Err(ServeError::InvalidConfig(_))));
        }
    }
}
