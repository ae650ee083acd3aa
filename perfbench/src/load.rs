//! The three workloads: their seeded inputs and the load generator
//! that drives a daemon with them.

use crate::util::{secs, Rng};
use graphm_core::{JobId, JobReport};
use graphm_graph::datasets::DatasetId;
use graphm_graph::delta::{apply_delta_to_edge_list, DeltaRecord};
use graphm_graph::EdgeList;
use graphm_server::{Client, ClientError, Priority};
use graphm_workloads::{generate_mix, AlgoKind, JobSpec, MixConfig};
use serde_json::Value;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SharedBurst,
    InteractiveOoc,
    IngestReplicated,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SharedBurst, Workload::InteractiveOoc, Workload::IngestReplicated];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SharedBurst => "shared-burst",
            Workload::InteractiveOoc => "interactive-ooc",
            Workload::IngestReplicated => "ingest-replicated",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Grid side of every store: 8 × 8 = 64 partitions.
pub const GRID_P: usize = 8;
/// Unmeasured lead-in before the window, so mappings, page faults and
/// the first executor batch are behind us.
pub const WARMUP: Duration = Duration::from_millis(1500);
/// `shared-burst`: two connections (this thread and one more), eight
/// outstanding jobs each.
pub const BURST_CONNS: usize = 2;
pub const BURST_DEPTH: usize = 8;
/// `interactive-ooc`: arrivals per second.
pub const INTERACTIVE_RATE: f64 = 3.0;
/// `ingest-replicated`: commits per second and records per commit.
pub const COMMIT_RATE: f64 = 5.0;
pub const BATCH_RECORDS: usize = 500;
/// How often the writer polls `repl_status` between commits.
const REPL_POLL: Duration = Duration::from_millis(2);

/// Everything a run feeds the daemon, generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The served graph (for `ingest-replicated`, generation 0).
    pub graph: EdgeList,
    /// Memory budget as a fraction of the store's bytes (`None` = none).
    pub budget_fraction: Option<f64>,
    /// The job stream, consumed in order.
    pub jobs: Vec<JobSpec>,
    /// Open-loop due times of `jobs`, seconds after the start.
    pub arrivals: Vec<f64>,
    /// Mutation batches, committed in order.
    pub batches: Vec<Vec<DeltaRecord>>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let span = secs(WARMUP) + seconds;
        let mut inputs = Inputs {
            workload,
            seed,
            graph: EdgeList::new(0),
            budget_fraction: None,
            jobs: Vec::new(),
            arrivals: Vec::new(),
            batches: Vec::new(),
        };
        match workload {
            Workload::SharedBurst => {
                inputs.graph = DatasetId::LiveJ.generate();
                // More than the run can finish; bursts cycle if it does.
                let count = (100.0 * span) as usize;
                inputs.jobs =
                    generate_mix(inputs.graph.num_vertices, &MixConfig::paper(count, seed));
            }
            Workload::InteractiveOoc => {
                inputs.graph = DatasetId::Twitter.generate();
                inputs.budget_fraction = Some(0.25);
                // Evenly spaced arrivals, each moved by up to a quarter
                // of the gap: they seldom overlap, which is the regime
                // this workload exists for. Poisson arrivals queued jobs
                // behind a PPR often enough that the median measured
                // that queueing and spread 0.29 between runs.
                let mut rng = Rng::new(seed, 1);
                let count = (INTERACTIVE_RATE * span).floor() as usize;
                inputs.arrivals = (0..count)
                    .map(|i| (i as f64 + 0.5 + (rng.unit() - 0.5) * 0.5) / INTERACTIVE_RATE)
                    .collect();
                let kinds = [AlgoKind::Bfs, AlgoKind::Sssp, AlgoKind::Ppr];
                inputs.jobs =
                    rooted_jobs(&inputs.graph, &kinds, 10, &mut rng, inputs.arrivals.len());
            }
            Workload::IngestReplicated => {
                inputs.graph = DatasetId::LiveJ.generate_scaled(4);
                let mut rng = Rng::new(seed, 1);
                inputs.jobs = rooted_jobs(&inputs.graph, &AlgoKind::PAPER_MIX, 10, &mut rng, 4096);
                let commits = (COMMIT_RATE * span).ceil() as usize + 1;
                inputs.batches = random_batches(&inputs.graph, &mut Rng::new(seed, 2), commits);
            }
        }
        inputs
    }

    /// The graph after the first `commits` batches.
    pub fn model_after(&self, commits: usize) -> EdgeList {
        let mut model = self.graph.clone();
        for batch in &self.batches[..commits] {
            apply_delta_to_edge_list(&mut model, batch);
        }
        model
    }
}

/// `count` jobs of `kinds` in turn, with the paper's default damping
/// (0.85) and iteration cap, rooted at seeded vertices that have
/// out-edges: jobs then differ between seeds only in where they start,
/// so a run's few dozen jobs cost about the same under every seed.
fn rooted_jobs(
    graph: &EdgeList,
    kinds: &[AlgoKind],
    max_iters: usize,
    rng: &mut Rng,
    count: usize,
) -> Vec<JobSpec> {
    let degrees = graph.out_degrees();
    (0..count)
        .map(|i| {
            let root = loop {
                let v = rng.below(u64::from(graph.num_vertices)) as u32;
                if degrees[v as usize] > 0 {
                    break v;
                }
            };
            JobSpec { kind: kinds[i % kinds.len()], damping: 0.85, root, max_iters }
        })
        .collect()
}

/// `count` batches to commit in order on `graph`.
pub fn random_batches(graph: &EdgeList, rng: &mut Rng, count: usize) -> Vec<Vec<DeltaRecord>> {
    let mut model = graph.clone();
    (0..count)
        .map(|_| {
            let batch = random_batch(&model, rng);
            apply_delta_to_edge_list(&mut model, &batch);
            batch
        })
        .collect()
}

/// 500 records: random inserts with generator-like weights, then 10 %
/// deletes of edges live before the batch.
fn random_batch(model: &EdgeList, rng: &mut Rng) -> Vec<DeltaRecord> {
    let n = u64::from(model.num_vertices);
    let deletes = if model.edges.is_empty() { 0 } else { BATCH_RECORDS / 10 };
    let mut batch: Vec<DeltaRecord> = (0..BATCH_RECORDS - deletes)
        .map(|_| {
            let (src, dst) = (rng.below(n) as u32, rng.below(n) as u32);
            DeltaRecord::insert(src, dst, 1.0 + rng.unit() as f32 * 15.0)
        })
        .collect();
    batch.extend((0..deletes).map(|_| {
        let e = model.edges[rng.below(model.edges.len() as u64) as usize];
        DeltaRecord::delete(e.src, e.dst)
    }));
    batch
}

/// One job as the client saw it. Times are seconds after the start.
pub struct JobRec {
    pub spec: JobSpec,
    pub id: JobId,
    /// When it was due (open loop) or sent (closed loop).
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub report: JobReport,
}

impl JobRec {
    /// Submit→report latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// One committed batch.
pub struct CommitRec {
    pub due: f64,
    pub acked: f64,
    pub generation: u64,
    /// When the primary first showed the follower's ack at `generation`.
    pub replicated: Option<f64>,
}

/// What one run of the load generator saw.
#[derive(Default)]
pub struct Record {
    pub jobs: Vec<JobRec>,
    pub commits: Vec<CommitRec>,
    /// The measured window, seconds after the start.
    pub window: (f64, f64),
    /// Operations attempted and the failures among them.
    pub attempted: u64,
    pub errors: Vec<String>,
    /// Jobs outstanding right after each submission: on the connection
    /// (closed loop) or in the whole system (open loop).
    pub outstanding: Vec<f64>,
    /// Open loop: how late each send was, ms, counted from its due time
    /// or, when the connection was still busy then, from when it freed.
    /// Closed loop: the gap between the last report of a burst and the
    /// next burst, ms.
    pub lateness_ms: Vec<f64>,
    /// Daemon `stats` at the window's start and after the drain, and the
    /// times they were read.
    pub stats_before: Option<(f64, Value)>,
    pub stats_after: Option<(f64, Value)>,
}

impl Record {
    pub fn in_window(&self, t: f64) -> bool {
        t >= self.window.0 && t < self.window.1
    }
}

fn stats_json(c: &mut Client) -> Result<Value, ClientError> {
    Ok(c.stats()?.to_json())
}

/// Drives the primary (and follower, for `ingest-replicated`) for the
/// warm-up plus `seconds`, then drains what is still outstanding.
pub fn drive(inputs: &Inputs, primary: &Path, seconds: f64) -> Record {
    let t0 = Instant::now();
    let window = (secs(WARMUP), secs(WARMUP) + seconds);
    let rec = Mutex::new(Record { window, ..Record::default() });
    let now = || secs(t0.elapsed());
    let fail = |what: String| {
        let mut r = rec.lock().expect("record lock");
        r.errors.push(what);
    };
    match inputs.workload {
        Workload::SharedBurst => {
            // Connection k sends burst b as jobs[(2b + k) * 8 ..][..8] and
            // waits for all eight; the connections meet at a barrier
            // before each burst, so every burst of sixteen lands in one
            // executor batch and the seed fixes each batch's composition.
            let barrier = Barrier::new(BURST_CONNS);
            let stop = AtomicBool::new(false);
            // The last report of the previous burst, on either connection.
            let burst_done = Mutex::new(None::<f64>);
            // Both connect first: a connection that failed later would
            // leave the other waiting at the barrier.
            let clients: Result<Vec<Client>, _> =
                (0..BURST_CONNS).map(|_| Client::connect_unix(primary)).collect();
            let conn = |k: usize, mut c: Client| {
                let mut stats_due = k == 0;
                for b in 0.. {
                    // Both connections see the same verdict: the leader
                    // decides and the other reads it after the barrier.
                    if k == 0 {
                        stop.store(now() >= window.1, Ordering::SeqCst);
                    }
                    barrier.wait();
                    let done = stop.load(Ordering::SeqCst);
                    barrier.wait();
                    if done {
                        break;
                    }
                    if stats_due && now() >= window.0 {
                        stats_due = false;
                        let t = now();
                        match stats_json(&mut c) {
                            Ok(v) => rec.lock().expect("record lock").stats_before = Some((t, v)),
                            Err(e) => fail(format!("stats: {e}")),
                        }
                    }
                    let first = (BURST_CONNS * b + k) * BURST_DEPTH;
                    let mut burst = Vec::with_capacity(BURST_DEPTH);
                    for spec in inputs.jobs.iter().cycle().skip(first).take(BURST_DEPTH) {
                        let sent = now();
                        {
                            let mut r = rec.lock().expect("record lock");
                            r.attempted += 1;
                            if burst.is_empty() && k == 0 {
                                if let Some(done) = *burst_done.lock().expect("burst lock") {
                                    r.lateness_ms.push((sent - done) * 1e3);
                                }
                            }
                        }
                        match c.submit(spec) {
                            Ok(id) => burst.push((*spec, id, sent)),
                            Err(e) => fail(format!("submit: {e}")),
                        }
                    }
                    rec.lock().expect("record lock").outstanding.push(burst.len() as f64);
                    for (spec, id, sent) in burst {
                        match c.wait(id) {
                            Ok(report) => {
                                let done = now();
                                let mut last = burst_done.lock().expect("burst lock");
                                *last = Some(last.map_or(done, |t: f64| t.max(done)));
                                drop(last);
                                let mut r = rec.lock().expect("record lock");
                                r.jobs.push(JobRec { spec, id, due: sent, sent, done, report });
                            }
                            Err(e) => fail(format!("wait {id}: {e}")),
                        }
                    }
                }
            };
            match clients {
                Ok(mut clients) => std::thread::scope(|s| {
                    let second = clients.pop().expect("two clients");
                    let other = s.spawn(|| conn(1, second));
                    conn(0, clients.pop().expect("two clients"));
                    if other.join().is_err() {
                        fail("load thread panicked".to_string());
                    }
                }),
                Err(e) => fail(format!("connect: {e}")),
            }
        }
        Workload::InteractiveOoc => {
            let (tx, rx) = mpsc::channel::<(JobSpec, JobId, f64, f64)>();
            let (sent_count, done_count) = (AtomicUsize::new(0), AtomicUsize::new(0));
            std::thread::scope(|s| {
                let submitter = s.spawn(|| {
                    let mut c = match Client::connect_unix(primary) {
                        Ok(c) => c,
                        Err(e) => return fail(format!("connect: {e}")),
                    };
                    // When the connection was last free: a send that is
                    // late because the previous request was slow is the
                    // system's delay, not the generator's.
                    let mut free = 0.0f64;
                    for (spec, &due) in inputs.jobs.iter().zip(&inputs.arrivals) {
                        if due >= window.1 {
                            break;
                        }
                        let wait = due - now();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let sent = now();
                        {
                            let mut r = rec.lock().expect("record lock");
                            r.attempted += 1;
                            r.lateness_ms.push((sent - due.max(free)) * 1e3);
                            let in_flight = sent_count.load(Ordering::SeqCst)
                                - done_count.load(Ordering::SeqCst);
                            r.outstanding.push(in_flight as f64 + 1.0);
                        }
                        let submitted = c.submit_as(spec, "interactive", Priority::Interactive);
                        free = now();
                        match submitted {
                            Ok(id) => {
                                sent_count.fetch_add(1, Ordering::SeqCst);
                                let _ = tx.send((*spec, id, due, sent));
                            }
                            Err(e) => fail(format!("submit: {e}")),
                        }
                    }
                    drop(tx);
                });
                match Client::connect_unix(primary) {
                    Ok(mut c) => {
                        let mut stats_due = true;
                        for (spec, id, due, sent) in rx {
                            if stats_due && now() >= window.0 {
                                stats_due = false;
                                let t = now();
                                match stats_json(&mut c) {
                                    Ok(v) => {
                                        rec.lock().expect("record lock").stats_before = Some((t, v))
                                    }
                                    Err(e) => fail(format!("stats: {e}")),
                                }
                            }
                            match c.wait(id) {
                                Ok(report) => {
                                    let done = now();
                                    let mut r = rec.lock().expect("record lock");
                                    r.jobs.push(JobRec { spec, id, due, sent, done, report });
                                }
                                Err(e) => fail(format!("wait {id}: {e}")),
                            }
                            done_count.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Err(e) => fail(format!("connect: {e}")),
                }
                if submitter.join().is_err() {
                    fail("submitter thread panicked".to_string());
                }
            });
        }
        Workload::IngestReplicated => {
            std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let mut c = match Client::connect_unix(primary) {
                        Ok(c) => c,
                        Err(e) => return fail(format!("connect: {e}")),
                    };
                    let mut pending: Vec<usize> = Vec::new();
                    let mut commits: Vec<CommitRec> = Vec::new();
                    // When the previous commit returned (see the submitter
                    // of `interactive-ooc`).
                    let mut free = 0.0f64;
                    let poll = |c: &mut Client,
                                commits: &mut Vec<CommitRec>,
                                pending: &mut Vec<usize>| {
                        let v = c.repl_status()?;
                        let acked = v.get("acked_generation").and_then(Value::as_u64).unwrap_or(0);
                        let t = now();
                        pending.retain(|&i| {
                            if commits[i].generation <= acked {
                                commits[i].replicated = Some(t);
                                false
                            } else {
                                true
                            }
                        });
                        Ok::<(), ClientError>(())
                    };
                    for (index, batch) in inputs.batches.iter().enumerate() {
                        let due = index as f64 / COMMIT_RATE;
                        if due >= window.1 {
                            break;
                        }
                        while now() < due {
                            if !pending.is_empty() {
                                if let Err(e) = poll(&mut c, &mut commits, &mut pending) {
                                    fail(format!("repl_status: {e}"));
                                }
                            }
                            let left = due - now();
                            if left > 0.0 {
                                std::thread::sleep(REPL_POLL.min(Duration::from_secs_f64(left)));
                            }
                        }
                        {
                            let mut r = rec.lock().expect("record lock");
                            r.attempted += 1;
                            r.lateness_ms.push((now() - due.max(free)) * 1e3);
                        }
                        let committed = c.ingest(batch).and_then(|_| c.ingest_commit());
                        free = now();
                        match committed {
                            Ok((generation, records)) => {
                                if records != batch.len() as u64 {
                                    fail(format!(
                                        "commit {index}: {records} of {} records",
                                        batch.len()
                                    ));
                                }
                                commits.push(CommitRec {
                                    due,
                                    acked: now(),
                                    generation,
                                    replicated: None,
                                });
                                pending.push(commits.len() - 1);
                            }
                            Err(e) => {
                                // A lost batch breaks the model every later
                                // check compares against.
                                fail(format!("commit {index}: {e}"));
                                break;
                            }
                        }
                    }
                    let deadline = now() + 10.0;
                    while !pending.is_empty() && now() < deadline {
                        if let Err(e) = poll(&mut c, &mut commits, &mut pending) {
                            fail(format!("repl_status: {e}"));
                            break;
                        }
                        std::thread::sleep(REPL_POLL);
                    }
                    if !pending.is_empty() {
                        fail(format!("{} commits never replicated", pending.len()));
                    }
                    rec.lock().expect("record lock").commits = commits;
                });
                match Client::connect_unix(primary) {
                    Ok(mut c) => {
                        let mut stats_due = true;
                        for &spec in &inputs.jobs {
                            if now() >= window.1 {
                                break;
                            }
                            if stats_due && now() >= window.0 {
                                stats_due = false;
                                let t = now();
                                match stats_json(&mut c) {
                                    Ok(v) => {
                                        rec.lock().expect("record lock").stats_before = Some((t, v))
                                    }
                                    Err(e) => fail(format!("stats: {e}")),
                                }
                            }
                            let sent = now();
                            {
                                let mut r = rec.lock().expect("record lock");
                                r.attempted += 1;
                                r.outstanding.push(1.0);
                            }
                            match c.run(&spec) {
                                Ok(report) => {
                                    let done = now();
                                    let id = report.id;
                                    let mut r = rec.lock().expect("record lock");
                                    r.jobs.push(JobRec { spec, id, due: sent, sent, done, report });
                                }
                                Err(e) => fail(format!("run: {e}")),
                            }
                        }
                    }
                    Err(e) => fail(format!("connect: {e}")),
                }
                if writer.join().is_err() {
                    fail("writer thread panicked".to_string());
                }
            });
        }
    }
    let mut record = rec.into_inner().expect("record lock");
    match Client::connect_unix(primary)
        .map_err(ClientError::from)
        .and_then(|mut c| stats_json(&mut c))
    {
        Ok(v) => record.stats_after = Some((secs(t0.elapsed()), v)),
        Err(e) => record.errors.push(format!("stats: {e}")),
    }
    record.jobs.sort_by_key(|j| j.id);
    record
}
