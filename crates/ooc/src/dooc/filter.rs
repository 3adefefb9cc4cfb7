//! DataCutter-style filters and streams.
//!
//! "Filters perform computations on flows of data, which are represented
//! as streams running between producers and consumers" (§2.1). A
//! [`Pipeline`] wires a chain of [`Filter`]s together with bounded
//! channels and runs each filter on its own thread, so a slow stage
//! applies backpressure instead of buffering unboundedly.

use nvmtypes::SimError;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel};

/// A stage in a dataflow: consumes chunks, emits chunks.
pub trait Filter: Send {
    /// Handles one incoming chunk, emitting any number of chunks.
    fn process(&mut self, chunk: Vec<u8>, emit: &mut dyn FnMut(Vec<u8>));
    /// Called once after the input stream ends; may flush buffered state.
    fn finish(&mut self, _emit: &mut dyn FnMut(Vec<u8>)) {}
}

/// A linear chain of filters connected by bounded streams.
pub struct Pipeline {
    filters: Vec<Box<dyn Filter>>,
    /// Stream (channel) capacity between stages.
    pub stream_depth: usize,
}

impl Pipeline {
    /// Empty pipeline with a stream depth of 8 chunks.
    pub fn new() -> Pipeline {
        Pipeline {
            filters: Vec::new(),
            stream_depth: 8,
        }
    }

    /// Appends a stage.
    pub fn then<F: Filter + 'static>(mut self, filter: F) -> Pipeline {
        self.filters.push(Box::new(filter));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// `true` when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Feeds `source` through every stage, returning the terminal stream's
    /// chunks in order.
    ///
    /// # Errors
    /// Returns [`SimError::WorkerPanic`] when a stage (or the producer)
    /// panics, and [`SimError::ChannelClosed`] when a stage's downstream
    /// hangs up while it still has chunks to emit. A healthy run drains
    /// every stream, so neither can occur without a real fault.
    pub fn run<I>(self, source: I) -> Result<Vec<Vec<u8>>, SimError>
    where
        I: IntoIterator<Item = Vec<u8>> + Send + 'static,
        I::IntoIter: Send,
    {
        let depth = self.stream_depth.max(1);
        let stages = self.filters.len();
        // Every stage plus the producer blocks on its stream, so each
        // needs a live worker of its own.
        let worker_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(stages + 1)
            .build();
        // Stage outcomes come back over a channel (pool jobs have no join
        // handle): `Err(())` records a caught panic in that stage.
        type Outcome = Result<Result<(), SimError>, ()>;
        let (res_tx, res_rx) = channel::<(usize, Outcome)>();

        let (first_tx, mut prev_rx) = sync_channel::<Vec<u8>>(depth);
        for (i, mut f) in self.filters.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<Vec<u8>>(depth);
            let input = prev_rx;
            let res_tx = res_tx.clone();
            worker_pool.spawn(move || {
                let body = move || -> Result<(), SimError> {
                    // A send failure means the downstream stage died early;
                    // record it so the stage can stop and report instead of
                    // silently dropping the rest of the flow.
                    let disconnected = Cell::new(false);
                    let mut emit = |chunk: Vec<u8>| {
                        if tx.send(chunk).is_err() {
                            disconnected.set(true);
                        }
                    };
                    while let Ok(chunk) = input.recv() {
                        f.process(chunk, &mut emit);
                        if disconnected.get() {
                            return Err(SimError::channel_closed(format!("filter[{i}]")));
                        }
                    }
                    f.finish(&mut emit);
                    if disconnected.get() {
                        return Err(SimError::channel_closed(format!("filter[{i}]")));
                    }
                    Ok(())
                };
                // Catching here guarantees an outcome message per stage
                // (a panicking stage also drops its sender, so the flow
                // downstream of it still terminates).
                let outcome = catch_unwind(AssertUnwindSafe(body)).map_err(|_| ());
                let _pipeline_gone = res_tx.send((i, outcome));
            });
            prev_rx = rx;
        }
        // Producer feeds the first stream from this thread... but that
        // deadlocks on bounded channels; feed from a worker instead. A
        // producer-side send failure is not reported here: the stage that
        // hung up reports its own panic/disconnect below.
        worker_pool.spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                for chunk in source {
                    if first_tx.send(chunk).is_err() {
                        break;
                    }
                }
            }));
            let _pipeline_gone = res_tx.send((stages, outcome.map(Ok).map_err(|_| ())));
        });
        let out: Vec<Vec<u8>> = prev_rx.iter().collect();

        let mut outcomes: Vec<Option<Outcome>> = (0..=stages).map(|_| None).collect();
        for _ in 0..=stages {
            match res_rx.recv() {
                Ok((i, outcome)) => outcomes[i] = Some(outcome),
                Err(_) => break,
            }
        }
        drop(worker_pool);
        // Panics outrank disconnects: an upstream disconnect is usually
        // the *consequence* of a downstream panic, so report the cause.
        let mut panicked: Option<SimError> = None;
        let mut closed: Option<SimError> = None;
        if !matches!(outcomes[stages], Some(Ok(_))) {
            panicked = Some(SimError::worker_panic("pipeline producer"));
        }
        for (i, outcome) in outcomes.into_iter().take(stages).enumerate() {
            match outcome {
                Some(Ok(Ok(()))) => {}
                Some(Ok(Err(e))) => {
                    if closed.is_none() {
                        closed = Some(e);
                    }
                }
                Some(Err(())) | None => {
                    if panicked.is_none() {
                        panicked = Some(SimError::worker_panic(format!("filter[{i}]")));
                    }
                }
            }
        }
        match panicked.or(closed) {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{Receiver, Sender};
    use std::sync::Arc;
    use std::time::Duration;

    /// Doubles every byte value.
    struct Doubler;
    impl Filter for Doubler {
        fn process(&mut self, chunk: Vec<u8>, emit: &mut dyn FnMut(Vec<u8>)) {
            emit(chunk.iter().map(|&b| b.wrapping_mul(2)).collect());
        }
    }

    /// Drops chunks whose first byte is odd.
    struct EvenOnly;
    impl Filter for EvenOnly {
        fn process(&mut self, chunk: Vec<u8>, emit: &mut dyn FnMut(Vec<u8>)) {
            if chunk.first().is_some_and(|b| b % 2 == 0) {
                emit(chunk);
            }
        }
    }

    /// Counts chunks, emitting the total at end-of-stream.
    struct Counter(u64);
    impl Filter for Counter {
        fn process(&mut self, _chunk: Vec<u8>, _emit: &mut dyn FnMut(Vec<u8>)) {
            self.0 += 1;
        }
        fn finish(&mut self, emit: &mut dyn FnMut(Vec<u8>)) {
            emit(self.0.to_le_bytes().to_vec());
        }
    }

    /// Passes chunks through, but holds the first one until released:
    /// announces it on `entered`, then waits for `release` to hang up.
    struct Gate {
        entered: Option<Sender<()>>,
        release: Option<Receiver<()>>,
    }
    impl Filter for Gate {
        fn process(&mut self, chunk: Vec<u8>, emit: &mut dyn FnMut(Vec<u8>)) {
            if let Some(entered) = self.entered.take() {
                let _ = entered.send(());
            }
            if let Some(release) = self.release.take() {
                let _ = release.recv();
            }
            emit(chunk);
        }
    }

    #[test]
    fn single_stage_transforms() {
        let out = Pipeline::new()
            .then(Doubler)
            .run(vec![vec![1, 2], vec![3]])
            .unwrap();
        assert_eq!(out, vec![vec![2, 4], vec![6]]);
    }

    #[test]
    fn stages_compose_in_order() {
        // Double then filter: 1 -> 2 (kept), 2 -> 4 (kept), 3 -> 6 (kept):
        // all even after doubling. Filter-then-double would differ.
        let out = Pipeline::new()
            .then(Doubler)
            .then(EvenOnly)
            .run((1u8..=3).map(|b| vec![b]))
            .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn finish_flushes_aggregates() {
        let out = Pipeline::new()
            .then(Counter(0))
            .run((0..100u8).map(|b| vec![b]))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(u64::from_le_bytes(out[0][..8].try_into().unwrap()), 100);
    }

    #[test]
    fn bounded_streams_apply_backpressure_without_deadlock() {
        // The last stage holds its first chunk, so nothing downstream is
        // consumed. Upstream of it every stream fills to `depth`, and the
        // producer and each stage hold at most one chunk in hand.
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let mut p = Pipeline::new().then(Doubler).then(Doubler).then(Gate {
            entered: Some(entered_tx),
            release: Some(release_rx),
        });
        p.stream_depth = 4;
        let bound = p.len() * (p.stream_depth + 1) + 1;
        let pulled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&pulled);
        let source = (0..1000u32).map(move |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            vec![(i % 251) as u8]
        });
        let run = std::thread::spawn(move || p.run(source));

        entered_rx.recv().unwrap();
        // Bounded streams can never let the count pass `bound`, however
        // the threads are scheduled; waiting until the count settles only
        // gives an unbounded stream the time to overshoot it.
        let mut seen = pulled.load(Ordering::SeqCst);
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = pulled.load(Ordering::SeqCst);
            if now == seen {
                break;
            }
            seen = now;
        }
        assert!(
            seen <= bound,
            "producer pulled {seen} chunks ahead of a blocked consumer (bound {bound})"
        );

        drop(release_tx);
        let out = run.join().unwrap().unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(out[1], vec![4]);
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let chunks = vec![b"abc".to_vec()];
        let out = Pipeline::new().run(chunks.clone()).unwrap();
        assert_eq!(out, chunks);
    }

    /// Panics on the first chunk it sees.
    struct Exploder;
    impl Filter for Exploder {
        fn process(&mut self, _chunk: Vec<u8>, _emit: &mut dyn FnMut(Vec<u8>)) {
            panic!("injected stage failure");
        }
    }

    #[test]
    fn stage_panic_surfaces_as_worker_panic() {
        let err = Pipeline::new()
            .then(Doubler)
            .then(Exploder)
            .run((0..100u8).map(|b| vec![b]))
            .unwrap_err();
        assert!(
            matches!(err, SimError::WorkerPanic { .. }),
            "expected WorkerPanic, got {err}"
        );
    }

    #[test]
    fn producer_panic_surfaces_as_worker_panic() {
        let err = Pipeline::new()
            .then(Doubler)
            .run((0..10u8).map(|b| {
                assert!(b < 5, "injected producer failure");
                vec![b]
            }))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::WorkerPanic {
                worker: "pipeline producer".into()
            }
        );
    }
}
