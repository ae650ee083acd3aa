//! Output checks: every report the daemon sent is compared bit for bit
//! with an in-process single-thread replay of the same batch on the same
//! store generation, and BFS/SSSP/WCC against the textbook oracles.

use crate::load::{Inputs, JobRec, Record, GRID_P};
use graphm_algos::reference;
use graphm_core::{GraphJob, PartitionSource, WallClockConfig, WallClockExecutor};
use graphm_graph::{EdgeList, MemoryProfile};
use graphm_store::{Convert, DiskGridSource};
use graphm_workloads::{AlgoKind, JobSpec};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// The executor configuration `graphm-server --mode wallclock` uses with
/// its default flags.
pub fn daemon_config() -> WallClockConfig {
    WallClockConfig {
        state_bytes_per_vertex: 8,
        max_prefetch_lookahead: graphm_store::DEFAULT_MAX_PREFETCH_LOOKAHEAD,
        chunk_fanout: true,
        ..WallClockConfig::new(MemoryProfile::DEFAULT)
    }
}

/// What the checks covered and what they found.
#[derive(Default)]
pub struct Verdict {
    /// Reports compared bit for bit with a replay.
    pub jobs_checked: usize,
    /// Distinct batches replayed.
    pub replays: usize,
    /// Distinct jobs compared with an oracle.
    pub oracle_checked: usize,
    /// Job ids that failed or mismatched.
    pub failed_jobs: HashSet<usize>,
    /// Checks of the store or the replicas that failed.
    pub failed_checks: u64,
    /// Reads served from a generation older than the last commit acked
    /// before they were sent, by how many commits.
    pub stale_reads: Vec<usize>,
    pub problems: Vec<String>,
}

impl Verdict {
    /// Records a failure of job `id`, or of a whole-store check.
    pub fn fail(&mut self, id: Option<usize>, msg: String) {
        match id {
            Some(id) => {
                self.failed_jobs.insert(id);
            }
            None => self.failed_checks += 1,
        }
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.jobs_checked += other.jobs_checked;
        self.replays += other.replays;
        self.oracle_checked += other.oracle_checked;
        self.failed_jobs.extend(other.failed_jobs);
        self.failed_checks += other.failed_checks;
        self.stale_reads.extend(other.stale_reads);
        for p in other.problems {
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }
}

type SpecKey = (u8, u64, u32, usize);

fn key(s: &JobSpec) -> SpecKey {
    (s.kind as u8, s.damping.to_bits(), s.root, s.max_iters)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// An executor over a store directory, plus what jobs need to be built.
pub struct Replayer {
    pub source: Arc<DiskGridSource>,
    pub exec: WallClockExecutor,
    pub degrees: Arc<Vec<u32>>,
}

impl Replayer {
    pub fn open(dir: &Path) -> Result<Replayer, String> {
        let source = Arc::new(
            DiskGridSource::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?,
        );
        let degrees = Arc::new(source.out_degrees());
        let exec = WallClockExecutor::new(
            Arc::clone(&source) as Arc<dyn PartitionSource>,
            daemon_config(),
            None,
        );
        Ok(Replayer { source, exec, degrees })
    }

    pub fn jobs(&self, specs: &[JobSpec]) -> Vec<Box<dyn GraphJob>> {
        let nv = self.source.num_vertices();
        specs.iter().map(|s| s.instantiate(nv, &self.degrees)).collect()
    }

    /// Values of `specs` run as one single-thread batch.
    pub fn replay(&self, specs: &[JobSpec]) -> Vec<Vec<f64>> {
        self.exec
            .run_batch_single_thread(self.jobs(specs))
            .jobs
            .into_iter()
            .map(|j| j.values)
            .collect()
    }
}

/// Compares one job with its oracle, where one exists. Returns whether
/// an oracle applied.
fn oracle_check(graph: &EdgeList, job: &JobRec, verdict: &mut Verdict) -> bool {
    let values = &job.report.values;
    let expect: Vec<f64> = match job.spec.kind {
        AlgoKind::Bfs => {
            reference::bfs_ref(graph, job.spec.root).iter().map(|&l| f64::from(l)).collect()
        }
        AlgoKind::Sssp => {
            reference::sssp_ref(graph, job.spec.root).iter().map(|&d| f64::from(d)).collect()
        }
        // A WCC job capped before its fixpoint has no closed oracle.
        AlgoKind::Wcc if job.report.iterations < job.spec.max_iters => {
            reference::wcc_ref(graph).iter().map(|&l| f64::from(l)).collect()
        }
        _ => return false,
    };
    let close = |a: f64, b: f64| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9;
    let ok = values.len() == expect.len() && values.iter().zip(&expect).all(|(&a, &b)| close(a, b));
    if !ok {
        verdict.fail(
            Some(job.id),
            format!("job {} {:?} disagrees with the oracle", job.id, job.spec.kind),
        );
    }
    true
}

/// Reports of a store that never changed: replays every distinct batch
/// (reports sharing a `submit_ns` ran as one executor batch, whose
/// composition sets the loading order and so the bits) and checks each
/// distinct job against its oracle.
pub fn check_static(inputs: &Inputs, store: &Path, record: &Record) -> Verdict {
    let mut verdict = Verdict::default();
    let replayer = match Replayer::open(store) {
        Ok(r) => r,
        Err(e) => {
            verdict.fail(None, e);
            return verdict;
        }
    };
    let mut batches: BTreeMap<u64, Vec<&JobRec>> = BTreeMap::new();
    for job in &record.jobs {
        batches.entry(job.report.submit_ns.to_bits()).or_default().push(job);
    }
    let mut seen: HashMap<Vec<SpecKey>, Vec<Vec<f64>>> = HashMap::new();
    let mut oracled: HashSet<SpecKey> = HashSet::new();
    for batch in batches.values() {
        let specs: Vec<JobSpec> = batch.iter().map(|j| j.spec).collect();
        let keys: Vec<SpecKey> = specs.iter().map(key).collect();
        let expect = seen.entry(keys).or_insert_with(|| {
            verdict.replays += 1;
            replayer.replay(&specs)
        });
        for (job, want) in batch.iter().zip(expect.iter()) {
            verdict.jobs_checked += 1;
            if let Some(err) = &job.report.error {
                verdict.fail(Some(job.id), format!("job {} failed: {err}", job.id));
            } else if !same_bits(&job.report.values, want) {
                verdict.fail(
                    Some(job.id),
                    format!("job {} {:?} differs from its replay", job.id, job.spec.kind),
                );
            }
        }
    }
    for job in &record.jobs {
        if oracled.insert(key(&job.spec)) && oracle_check(&inputs.graph, job, &mut verdict) {
            verdict.oracle_checked += 1;
        }
    }
    verdict
}

/// Converts `graph` into a grid store at `dir`, overwriting the files of
/// an earlier conversion in place.
pub fn convert(graph: &EdgeList, dir: &Path) -> Result<(), String> {
    Convert::grid(GRID_P)
        .write(graph, dir)
        .map(|_| ())
        .map_err(|e| format!("convert {}: {e}", dir.display()))
}

/// Reads beside writes. A report does not say which generation served
/// it, so each read is replayed on every generation that could have: from
/// the last commit acknowledged before it was sent to the first
/// acknowledged after its report arrived (one commit is in flight at a
/// time). A read that matches none of them is tried on every older
/// generation: the daemon adopts a new generation only when it goes
/// idle, so a read that arrives while a batch is finishing can run on an
/// older one. Such a read is stale, not wrong; one that matches no
/// generation at all fails.
pub fn check_ingest(inputs: &Inputs, record: &Record, scratch: &Path) -> Verdict {
    let mut verdict = Verdict::default();
    let acked: Vec<f64> = record.commits.iter().map(|c| c.acked).collect();
    let n = acked.len();
    let expected: Vec<(usize, usize)> = record
        .jobs
        .iter()
        .map(|j| {
            let lo = acked.iter().filter(|&&t| t <= j.sent).count();
            let hi = (acked.iter().filter(|&&t| t <= j.done).count() + 1).min(n);
            (lo, hi.max(lo))
        })
        .collect();
    let dir = scratch.join("verify-gen");
    let mut served: Vec<Option<usize>> = vec![None; record.jobs.len()];
    let mut oracled = vec![false; record.jobs.len()];
    sweep(inputs, record, &expected, &dir, &mut served, &mut oracled, &mut verdict);
    let older: Vec<(usize, usize)> =
        expected.iter().map(|&(lo, _)| (0, lo.saturating_sub(1))).collect();
    if served.iter().zip(&expected).any(|(s, &(lo, _))| s.is_none() && lo > 0) {
        sweep(inputs, record, &older, &dir, &mut served, &mut oracled, &mut verdict);
    }
    std::fs::remove_dir_all(&dir).ok();
    for (i, job) in record.jobs.iter().enumerate() {
        verdict.jobs_checked += 1;
        verdict.oracle_checked += usize::from(oracled[i]);
        let (lo, hi) = expected[i];
        if let Some(err) = &job.report.error {
            verdict.fail(Some(job.id), format!("read {} failed: {err}", job.id));
        } else if let Some(k) = served[i] {
            if k < lo {
                verdict.stale_reads.push(lo - k);
            }
        } else {
            verdict.fail(
                Some(job.id),
                format!("read {} matches no generation up to {hi} commits", job.id),
            );
        }
    }
    verdict
}

/// Replays each unmatched read on the model after every commit count in
/// its range, recording the first that matches bit for bit.
fn sweep(
    inputs: &Inputs,
    record: &Record,
    ranges: &[(usize, usize)],
    dir: &Path,
    served: &mut [Option<usize>],
    oracled: &mut [bool],
    verdict: &mut Verdict,
) {
    let mut model = inputs.graph.clone();
    let top = ranges.iter().zip(served.iter()).filter(|(_, s)| s.is_none()).map(|(r, _)| r.1).max();
    for k in 0..=top.unwrap_or(0) {
        if k > 0 {
            graphm_graph::delta::apply_delta_to_edge_list(&mut model, &inputs.batches[k - 1]);
        }
        let todo: Vec<usize> = (0..record.jobs.len())
            .filter(|&i| served[i].is_none() && ranges[i].0 <= k && k <= ranges[i].1)
            .collect();
        if todo.is_empty() {
            continue;
        }
        let replayer = match convert(&model, dir).and_then(|()| Replayer::open(dir)) {
            Ok(r) => r,
            Err(e) => return verdict.fail(None, e),
        };
        for i in todo {
            let job = &record.jobs[i];
            verdict.replays += 1;
            let want = replayer.replay(&[job.spec]).remove(0);
            if job.report.error.is_none() && same_bits(&job.report.values, &want) {
                served[i] = Some(k);
                oracled[i] = oracle_check(&model, job, verdict);
            }
        }
    }
}

/// Every acknowledged batch is in the final store: each partition's
/// merged edges equal a fresh conversion of the model.
pub fn check_final_store(model_dir: &Path, store: &Path, who: &str, verdict: &mut Verdict) {
    let (a, b) = match (DiskGridSource::open(model_dir), DiskGridSource::open(store)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return verdict.fail(None, format!("{who} store: {e}")),
    };
    if a.num_partitions() != b.num_partitions() {
        return verdict.fail(None, format!("{who} store has {} partitions", b.num_partitions()));
    }
    for pid in 0..a.num_partitions() {
        if a.load(pid).as_slice() != b.load(pid).as_slice() {
            return verdict.fail(None, format!("{who} partition {pid} differs from the model"));
        }
    }
}
