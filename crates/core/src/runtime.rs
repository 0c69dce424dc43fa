//! The std-only parallel runtime: a fixed-size worker pool and batch
//! compilation on top of it.
//!
//! [`WorkerPool`] is a channel-fed pool of named worker threads with
//! panic isolation (a panicking job never takes its worker down) and
//! graceful shutdown (dropping the pool joins every worker).
//! [`Pipeline::compile_batch`] fans a slice of [`CompileJob`]s across a
//! pool sized by
//! [`ScheduleConfig::threads`](crate::config::ScheduleConfig::threads)
//! (each job compiles serially), and returns results in input order,
//! regardless of completion order. The design, determinism
//! contract, and telemetry-merge semantics are documented in
//! `docs/RUNTIME.md`.

use crate::pipeline::{CompileReport, Pipeline, PipelineError};
use autobraid_circuit::Circuit;
use autobraid_telemetry::{self as telemetry, TelemetrySnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads fed over a channel.
///
/// Jobs are closures; each worker pulls from a shared queue, runs the
/// job under [`catch_unwind`] so a panic is confined to that job, and
/// moves on. Dropping the pool closes the queue and joins every worker
/// (graceful shutdown: queued jobs still run).
///
/// The pool propagates the telemetry recorder installed on the thread
/// that *created* it ([`telemetry::current`]) to every worker, so
/// counters and spans recorded inside jobs land in the same place they
/// would have serially.
///
/// # Examples
///
/// ```
/// use autobraid::runtime::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let counter = Arc::new(AtomicUsize::new(0));
/// {
///     let pool = WorkerPool::new(2);
///     for _ in 0..8 {
///         let counter = Arc::clone(&counter);
///         pool.execute(move || {
///             counter.fetch_add(1, Ordering::SeqCst);
///         });
///     }
/// } // drop joins the workers: all 8 jobs have run
/// assert_eq!(counter.load(Ordering::SeqCst), 8);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads.max(1)` workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let recorder = telemetry::current();
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let recorder = recorder.clone();
                std::thread::Builder::new()
                    .name(format!("autobraid-worker-{i}"))
                    .spawn(move || {
                        let _guard = recorder.map(telemetry::install);
                        loop {
                            // Hold the lock only for the pop: a worker
                            // running a long job must not starve the rest.
                            let job = {
                                let receiver = receiver.lock().expect("pool queue poisoned");
                                receiver.recv()
                            };
                            match job {
                                Ok(job) => {
                                    // Panic isolation: a poisoned job is
                                    // its caller's problem, not the
                                    // pool's. Callers that need the
                                    // payload catch it themselves.
                                    let _ = catch_unwind(AssertUnwindSafe(job));
                                }
                                Err(_) => break, // queue closed: shut down
                            }
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job. Jobs run in submission order per worker but
    /// complete in no guaranteed order across workers.
    ///
    /// The submitting thread's request scope
    /// ([`telemetry::current_request`]) travels with the job: the
    /// worker re-enters it for the job's duration, so trace and
    /// flight-recorder events stay correlated to the originating
    /// service request across the pool handoff.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let request = telemetry::current_request();
        let job = move || {
            let _req = telemetry::begin_request(request);
            job();
        };
        self.sender
            .as_ref()
            .expect("pool is shutting down")
            .send(Box::new(job))
            .expect("pool workers have exited");
    }

    /// Runs every thunk on the pool and returns the results in input
    /// order. A thunk that panics yields `Err` with the panic message;
    /// the remaining thunks are unaffected.
    pub fn run_batch<T, F>(&self, thunks: Vec<F>) -> Vec<Result<T, String>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        type Delivery<T> = (usize, Result<T, String>);
        let n = thunks.len();
        let (tx, rx): (Sender<Delivery<T>>, Receiver<Delivery<T>>) = channel();
        for (index, thunk) in thunks.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                let result =
                    catch_unwind(AssertUnwindSafe(thunk)).map_err(|p| panic_message(p.as_ref()));
                // The receiver only disconnects if the caller panicked;
                // nothing useful to do with the result then.
                let _ = tx.send((index, result));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
        for (index, result) in rx {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job reports exactly once"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's recv() fail once the
        // queue drains; then join them all.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One unit of batch-compilation work: a circuit or an OpenQASM source,
/// plus an optional label used in error context and telemetry.
#[derive(Debug, Clone)]
pub struct CompileJob {
    input: JobInput,
    label: Option<String>,
}

#[derive(Debug, Clone)]
enum JobInput {
    Qasm(String),
    Circuit(Circuit),
}

impl CompileJob {
    /// A job that parses and compiles an OpenQASM 2.0 program.
    pub fn qasm(source: impl Into<String>) -> Self {
        CompileJob {
            input: JobInput::Qasm(source.into()),
            label: None,
        }
    }

    /// A job that compiles an already-built circuit.
    pub fn circuit(circuit: Circuit) -> Self {
        CompileJob {
            input: JobInput::Circuit(circuit),
            label: None,
        }
    }

    /// Attaches a label, used as the circuit name in
    /// [`PipelineError::Panicked`] / [`PipelineError::Verification`]
    /// context when this job fails.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The job's label: the explicit one, else the circuit's name, else
    /// `"<qasm>"` for unlabeled sources.
    pub fn label(&self) -> &str {
        if let Some(label) = &self.label {
            return label;
        }
        match &self.input {
            JobInput::Circuit(c) if !c.name().is_empty() => c.name(),
            _ => "<qasm>",
        }
    }
}

impl From<Circuit> for CompileJob {
    fn from(circuit: Circuit) -> Self {
        CompileJob::circuit(circuit)
    }
}

impl Pipeline {
    /// Compiles one [`CompileJob`] on the calling thread with the same
    /// semantics a batch member gets: a panic inside the compile is
    /// caught and reported as [`PipelineError::Panicked`] carrying the
    /// job's label, instead of unwinding into the caller. This is the
    /// entry point long-running hosts (like the `autobraid-service`
    /// daemon) use to run externally supplied circuits on pooled
    /// workers without letting one bad circuit take the worker down.
    pub fn compile_job(&self, job: &CompileJob) -> Result<CompileReport, PipelineError> {
        run_job(self, job)
    }

    /// Compiles a batch of jobs, fanning them across
    /// [`ScheduleConfig::threads`](crate::config::ScheduleConfig::threads)
    /// workers.
    ///
    /// Results come back **in input order** regardless of completion
    /// order, and each compile output is bit-identical to what a serial
    /// [`Pipeline::compile`] of the same job would produce (see
    /// `docs/RUNTIME.md`). A job that panics reports
    /// [`PipelineError::Panicked`] without disturbing the others.
    ///
    /// # Examples
    ///
    /// ```
    /// use autobraid::config::ScheduleConfig;
    /// use autobraid::pipeline::Pipeline;
    /// use autobraid::runtime::CompileJob;
    /// use autobraid_circuit::generators::qft::qft;
    ///
    /// let pipeline = Pipeline::new().with_config(ScheduleConfig::default().with_threads(2));
    /// let jobs = vec![
    ///     CompileJob::circuit(qft(6)?),
    ///     CompileJob::qasm("qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];"),
    /// ];
    /// let reports = pipeline.compile_batch(&jobs);
    /// assert_eq!(reports.len(), 2);
    /// assert!(reports.iter().all(|r| r.is_ok()));
    /// # Ok::<(), autobraid_circuit::CircuitError>(())
    /// ```
    pub fn compile_batch(&self, jobs: &[CompileJob]) -> Vec<Result<CompileReport, PipelineError>> {
        let threads = self.config().effective_threads().min(jobs.len().max(1));
        if threads <= 1 {
            return jobs.iter().map(|job| run_job(self, job)).collect();
        }

        let pipeline = Arc::new(self.clone());
        let pool = WorkerPool::new(threads);
        let thunks: Vec<_> = jobs
            .iter()
            .map(|job| {
                let pipeline = Arc::clone(&pipeline);
                let job = job.clone();
                move || run_job(&pipeline, &job)
            })
            .collect();
        let labels: Vec<String> = jobs.iter().map(|j| j.label().to_string()).collect();
        pool.run_batch(thunks)
            .into_iter()
            .zip(labels)
            .map(|(result, label)| match result {
                Ok(report) => report,
                Err(detail) => Err(PipelineError::Panicked {
                    circuit: label,
                    detail,
                }),
            })
            .collect()
    }
}

/// Compiles one job on the calling thread, converting panics into
/// [`PipelineError::Panicked`] so serial and pooled batches fail alike.
fn run_job(pipeline: &Pipeline, job: &CompileJob) -> Result<CompileReport, PipelineError> {
    // Job boundary markers land in the *ambient* (pool-propagated)
    // recorder, giving a batch trace its per-worker job timeline.
    if telemetry::fine_decisions_enabled() {
        telemetry::decision(&telemetry::Decision::JobStart {
            label: job.label().to_string(),
        });
    }
    let compiled = catch_unwind(AssertUnwindSafe(|| match &job.input {
        JobInput::Qasm(source) => pipeline.compile_qasm(source),
        JobInput::Circuit(circuit) => pipeline.compile(circuit),
    }));
    let result = match compiled {
        Ok(result) => result,
        Err(payload) => Err(PipelineError::Panicked {
            circuit: job.label().to_string(),
            detail: panic_message(payload.as_ref()),
        }),
    };
    if telemetry::fine_decisions_enabled() {
        telemetry::decision(&telemetry::Decision::JobFinish {
            label: job.label().to_string(),
            ok: result.is_ok(),
        });
    }
    result
}

/// Merges the per-job telemetry snapshots of a batch into one
/// `autobraid.telemetry/v1` snapshot: spans and counters sum exactly;
/// histogram percentiles merge as count-weighted averages (documented in
/// `docs/RUNTIME.md`). Returns `None` when no job collected telemetry.
pub fn merged_batch_telemetry(
    results: &[Result<CompileReport, PipelineError>],
) -> Option<TelemetrySnapshot> {
    let snapshots: Vec<&TelemetrySnapshot> = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter_map(|report| report.telemetry.as_ref())
        .collect();
    if snapshots.is_empty() {
        return None;
    }
    Some(TelemetrySnapshot::merged(snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScheduleConfig;
    use crate::pipeline::CompileOptions;
    use autobraid_circuit::generators::{ising::ising, qft::qft};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs_and_joins_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(3);
            assert_eq!(pool.threads(), 3);
            for _ in 0..20 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            pool.execute(|| panic!("poisoned job"));
            let counter = Arc::clone(&counter);
            // The single worker must outlive the panic to run this.
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn run_batch_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let thunks: Vec<_> = (0..16usize).map(|i| move || i * i).collect();
        let results = pool.run_batch(thunks);
        let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_batch_reports_panics_in_place() {
        let pool = WorkerPool::new(2);
        let thunks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job two failed")),
            Box::new(|| 3),
        ];
        let results = pool.run_batch(thunks);
        assert_eq!(results[0], Ok(1));
        assert!(results[1].as_ref().unwrap_err().contains("job two failed"));
        assert_eq!(results[2], Ok(3));
    }

    #[test]
    fn compile_batch_matches_serial_compiles() {
        let circuits = [qft(8).unwrap(), ising(9, 2).unwrap(), qft(6).unwrap()];
        let jobs: Vec<CompileJob> = circuits.iter().cloned().map(CompileJob::circuit).collect();
        let serial = Pipeline::new();
        let batched = Pipeline::new().with_config(ScheduleConfig::default().with_threads(4));
        let batch_reports = batched.compile_batch(&jobs);
        for (circuit, batch) in circuits.iter().zip(&batch_reports) {
            let expected = serial.compile(circuit).unwrap();
            let got = batch.as_ref().unwrap();
            assert_eq!(got.canonical_json(), expected.canonical_json(),);
        }
    }

    #[test]
    fn poisoned_job_is_isolated() {
        // A 0-qubit circuit panics inside scheduling (the grid refuses
        // to hold zero qubits); its neighbors must still compile.
        let jobs = vec![
            CompileJob::circuit(qft(6).unwrap()),
            CompileJob::circuit(Circuit::new(0)).with_label("poison"),
            CompileJob::circuit(ising(8, 1).unwrap()),
        ];
        let pipeline = Pipeline::new().with_config(ScheduleConfig::default().with_threads(2));
        let reports = pipeline.compile_batch(&jobs);
        assert!(reports[0].is_ok());
        match &reports[1] {
            Err(PipelineError::Panicked { circuit, .. }) => assert_eq!(circuit, "poison"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(reports[2].is_ok());
    }

    #[test]
    fn batch_telemetry_merges_per_job_snapshots() {
        let jobs = vec![
            CompileJob::circuit(qft(8).unwrap()),
            CompileJob::circuit(qft(8).unwrap()),
        ];
        let pipeline = Pipeline::new()
            .with_config(ScheduleConfig::default().with_threads(2))
            .with_options(CompileOptions {
                telemetry: true,
                ..CompileOptions::default()
            });
        let reports = pipeline.compile_batch(&jobs);
        let merged = merged_batch_telemetry(&reports).expect("telemetry was on");
        let single = reports[0].as_ref().unwrap().telemetry.as_ref().unwrap();
        // Identical jobs: the merged counter is exactly double.
        assert_eq!(
            merged.counter("scheduler.steps.braid"),
            2 * single.counter("scheduler.steps.braid"),
        );
        // Telemetry off: nothing to merge.
        let plain = Pipeline::new().compile_batch(&jobs[..1]);
        assert!(merged_batch_telemetry(&plain).is_none());
    }

    #[test]
    fn job_labels_fall_back_sensibly() {
        assert_eq!(CompileJob::qasm("qreg q[1];").label(), "<qasm>");
        let named = Circuit::named(2, "bell");
        assert_eq!(CompileJob::circuit(named).label(), "bell");
        let job: CompileJob = Circuit::named(2, "bell").into();
        assert_eq!(job.with_label("override").label(), "override");
    }
}
