//! The traced run: replays a workload's generated inputs in-process
//! through the public functions of each layer, with a span around every
//! call, and derives the per-layer numbers from the spans.
//!
//! Spans live in memory and are written out when the run ends. A span
//! records its layer, name, start and end (ns since the run began), the
//! span that caused it, and the id of the job or commit it served.

use crate::load::{random_batches, Inputs, Workload};
use crate::util::{copy_dir, dir_files, mean, proc_io, Rng};
use crate::verify::{convert, daemon_config, Replayer};
use graphm_core::{JobReport, PartitionSource, WallClockConfig, WallClockExecutor};
use graphm_graph::delta::DeltaRecord;
use graphm_graph::VertexId;
use graphm_server::protocol::{parse_request, report_to_json, request_to_json};
use graphm_server::Request;
use graphm_store::{
    encode_frame, read_generation_frame, CompactionPolicy, DeltaWriter, PrefetchTarget, Prefetcher,
    ReplicaApplier,
};
use graphm_workloads::{AlgoKind, JobSpec};
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: String,
    /// The job or commit this span served (`None` = the run itself).
    pub op: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; otherwise only runs the closures.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        op: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            layer,
            name: name.to_string(),
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Self time per layer, ms: each span's duration minus the part its
    /// children cover (children never overlap: the replay is sequential).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "id": s.id,
                        "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                        "layer": s.layer,
                        "name": s.name.as_str(),
                        "op": s.op.map_or(Value::Null, |o| json!(o)),
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                    })
                })
                .collect(),
        )
    }
}

/// What the replay works from.
pub struct Replay<'a> {
    pub inputs: &'a Inputs,
    /// The store as the daemon left it (the rotated generation on
    /// `ingest-replicated`).
    pub store: &'a Path,
    /// Daemon batch compositions from the measured window, in order.
    pub batches: Vec<Vec<JobSpec>>,
    /// Reports to re-encode.
    pub reports: Vec<&'a JobReport>,
    /// Memory budget the daemon ran with (0 = none).
    pub budget: u64,
    pub scratch: PathBuf,
}

/// Batches replayed through the executors, and publishes through the
/// writer: enough to average over, small enough to run twice.
const REPLAY_BATCHES: usize = 2;
const REPLAY_COMMITS: usize = 4;

/// Numbers the replay measures beside its spans.
#[derive(Default)]
pub struct Counts {
    pub shared_loads: u64,
    pub exclusive_loads: u64,
    pub threaded_jobs: u64,
    pub advise_ns: u64,
    pub kernel_edges: HashMap<&'static str, u64>,
    pub report_bytes: Vec<f64>,
    pub files_per_publish: Vec<f64>,
    pub wal_syncs: u64,
    pub user_bytes: u64,
    pub write_bytes: u64,
    pub publishes: u64,
}

/// One pass of the replay. Run once traced and once with tracing off;
/// the difference in wall time is the tracing overhead.
pub fn replay(r: &Replay, t: &mut Tracer) -> Result<Counts, String> {
    let mut counts = Counts::default();
    let inputs = r.inputs;
    std::fs::create_dir_all(&r.scratch).map_err(|e| e.to_string())?;

    // store.source: open and load every partition, on generation 0 and
    // on the store as served at the end; then Init() over the latter,
    // which is what each generation rotation costs the daemon.
    let base = r.scratch.join("base");
    t.span("loadgen", "replay.store", None, |t| -> Result<(), String> {
        t.span("store", "store.convert", None, |_| convert(&inputs.graph, &base))?;
        for (dir, tag) in [(base.as_path(), "chain0"), (r.store, "chain_end")] {
            let src = t.span("store", &format!("store.open.{tag}"), None, |_| {
                graphm_store::DiskGridSource::open(dir).map_err(|e| e.to_string())
            })?;
            for pid in 0..src.num_partitions() {
                t.span("store", &format!("store.load.{tag}"), Some(pid as u64), |_| {
                    std::hint::black_box(src.load(pid));
                });
            }
            if tag == "chain_end" {
                let src = Arc::new(src) as Arc<dyn PartitionSource>;
                t.span("core", "core.graphm.init", None, |_| {
                    WallClockExecutor::new(src, daemon_config(), None)
                });
            }
        }
        Ok(())
    })?;

    // core: the daemon's own batches threaded (with readahead),
    // single-thread, and with private loads. These, the fan-out pair and
    // the kernels run on generation 0 — the same graph without a delta
    // chain — so they time the executor and the kernels, not the merge
    // that `store.load.chain_end` times.
    let replayer = Replayer::open(&base)?;
    let source = Arc::clone(&replayer.source);
    source.set_memory_budget(r.budget);
    let prefetcher = Prefetcher::spawn(Arc::clone(&source) as Arc<dyn PrefetchTarget>);
    let threaded = WallClockExecutor::new(
        Arc::clone(&source) as Arc<dyn PartitionSource>,
        daemon_config(),
        Some(prefetcher.hook()),
    );
    let advise_before = source.prefetch_stats().advise_ns;
    t.span("loadgen", "replay.batches", None, |t| {
        for (b, specs) in r.batches.iter().take(REPLAY_BATCHES).enumerate() {
            let op = Some(b as u64);
            let run =
                t.span("core", "core.run_batch", op, |_| threaded.run_batch(replayer.jobs(specs)));
            counts.shared_loads += run.partition_loads;
            counts.threaded_jobs += specs.len() as u64;
            t.span("core", "core.run_batch_single_thread", op, |_| {
                replayer.exec.run_batch_single_thread(replayer.jobs(specs))
            });
            let excl = t.span("core", "core.run_batch_exclusive", op, |_| {
                replayer.exec.run_batch_exclusive(replayer.jobs(specs))
            });
            counts.exclusive_loads += excl.partition_loads;
        }
    });
    counts.advise_ns = source.prefetch_stats().advise_ns - advise_before;
    drop(threaded);
    drop(prefetcher);
    source.set_memory_budget(0);

    // core.exec_parallel fan-out: one heavy job with and without
    // intra-job chunk fan-out.
    let heavy = inputs
        .jobs
        .iter()
        .find(|s| matches!(s.kind, AlgoKind::PageRank | AlgoKind::Ppr))
        .copied()
        .unwrap_or(inputs.jobs[0]);
    let one_thread = WallClockExecutor::new(
        Arc::clone(&source) as Arc<dyn PartitionSource>,
        WallClockConfig { chunk_fanout: false, ..daemon_config() },
        None,
    );
    t.span("loadgen", "replay.fanout", None, |t| {
        t.span("core", "core.fanout.on", None, |_| {
            replayer.exec.run_batch(replayer.jobs(&[heavy]))
        });
        t.span("core", "core.fanout.off", None, |_| one_thread.run_batch(replayer.jobs(&[heavy])));
    });

    // algos: each kernel alone on one thread.
    t.span("loadgen", "replay.kernels", None, |t| {
        for (kind, label) in KERNELS {
            let spec = kernel_spec(inputs, kind, &replayer);
            let run = t.span("algos", &format!("algos.{label}"), None, |_| {
                one_thread.run_batch_single_thread(replayer.jobs(&[spec]))
            });
            counts.kernel_edges.insert(label, run.jobs.iter().map(|j| j.edges_processed).sum());
        }
    });
    drop(one_thread);
    drop(replayer);
    drop(source);

    // server.protocol: encode the daemon's reports, decode ingest lines.
    let batches = write_batches(inputs);
    t.span("loadgen", "replay.protocol", None, |t| -> Result<(), String> {
        for rep in &r.reports {
            let line =
                t.span("server.protocol", "protocol.report_encode", Some(rep.id as u64), |_| {
                    serde_json::to_string(&report_to_json(rep)).map_err(|e| e.to_string())
                })?;
            counts.report_bytes.push(line.len() as f64);
        }
        for (i, batch) in batches.iter().enumerate() {
            let line = serde_json::to_string(&request_to_json(&Request::Ingest(batch.clone())))
                .map_err(|e| e.to_string())?;
            t.span("server.protocol", "protocol.ingest_decode", Some(i as u64), |_| {
                parse_request(&line).map(|_| ())
            })?;
        }
        Ok(())
    })?;

    // store.delta / store.wal / store.replica: publish the batches on a
    // copy of generation 0, ship each generation as a frame, and apply
    // it on a follower copy.
    let primary = r.scratch.join("writer");
    let follower = r.scratch.join("follower");
    for d in [&primary, &follower] {
        std::fs::remove_dir_all(d).ok();
        copy_dir(&base, d).map_err(|e| e.to_string())?;
    }
    t.span("loadgen", "replay.writes", None, |t| -> Result<(), String> {
        let mut writer = DeltaWriter::open(&primary)
            .map_err(|e| format!("writer: {e}"))?
            .with_policy(CompactionPolicy::never());
        let mut applier = ReplicaApplier::open(&follower).map_err(|e| format!("applier: {e}"))?;
        let io_before = proc_io(None, "write_bytes").unwrap_or(0);
        let syncs_before = writer.wal_stats().syncs;
        for (i, batch) in batches.iter().enumerate() {
            let op = Some(i as u64);
            let files = dir_files(&primary);
            for rec in batch {
                if rec.is_insert() {
                    writer.insert(rec.src, rec.dst, rec.weight)
                } else {
                    writer.delete(rec.src, rec.dst)
                }
                .map_err(|e| e.to_string())?;
            }
            let generation = t
                .span("store", "store.delta.publish", op, |_| writer.publish())
                .map_err(|e| e.to_string())?;
            counts.files_per_publish.push(dir_files(&primary).saturating_sub(files) as f64);
            counts.user_bytes += 16 * batch.len() as u64;
            counts.publishes += 1;
            ship(t, &primary, &mut applier, generation, writer.lease_epoch(), op)?;
        }
        counts.write_bytes = proc_io(None, "write_bytes").unwrap_or(0).saturating_sub(io_before);
        counts.wal_syncs = writer.wal_stats().syncs - syncs_before;
        let generation = t
            .span("store", "store.delta.compact", None, |_| writer.compact())
            .map_err(|e| e.to_string())?;
        ship(t, &primary, &mut applier, generation, writer.lease_epoch(), None)?;
        Ok(())
    })?;
    for d in [&base, &primary, &follower] {
        std::fs::remove_dir_all(d).ok();
    }
    Ok(counts)
}

fn ship(
    t: &mut Tracer,
    dir: &Path,
    applier: &mut ReplicaApplier,
    generation: u64,
    epoch: u64,
    op: Option<u64>,
) -> Result<(), String> {
    let frame = t
        .span("store", "store.replica.frame_build", op, |_| {
            read_generation_frame(dir, generation, epoch).map(|f| (encode_frame(&f).len(), f))
        })
        .map_err(|e| format!("frame {generation}: {e}"))?
        .1;
    t.span("store", "store.replica.apply", op, |_| applier.apply(&frame))
        .map_err(|e| format!("apply {generation}: {e}"))?;
    Ok(())
}

const KERNELS: [(AlgoKind, &str); 5] = [
    (AlgoKind::PageRank, "pagerank"),
    (AlgoKind::Wcc, "wcc"),
    (AlgoKind::Bfs, "bfs"),
    (AlgoKind::Sssp, "sssp"),
    (AlgoKind::Ppr, "ppr"),
];

/// The workload's first job of `kind`, or one rooted at its first
/// vertex with out-edges when the workload has none.
fn kernel_spec(inputs: &Inputs, kind: AlgoKind, replayer: &Replayer) -> JobSpec {
    inputs.jobs.iter().find(|s| s.kind == kind).copied().unwrap_or_else(|| {
        let root = replayer.degrees.iter().position(|&d| d > 0).unwrap_or(0) as VertexId;
        JobSpec { kind, damping: 0.85, root, max_iters: 10 }
    })
}

/// The workload's own batches; workloads that do not write get the same
/// number of seeded probe batches, so the write layers are measured on
/// every store.
fn write_batches(inputs: &Inputs) -> Vec<Vec<DeltaRecord>> {
    if inputs.workload == Workload::IngestReplicated {
        return inputs.batches.iter().take(REPLAY_COMMITS).cloned().collect();
    }
    random_batches(&inputs.graph, &mut Rng::new(inputs.seed, 3), REPLAY_COMMITS)
}

/// Per-layer numbers from the traced pass.
pub fn layer_values(t: &Tracer, c: &Counts, partitions: usize) -> BTreeMap<String, (f64, usize)> {
    let mut m = BTreeMap::new();
    let sum = |name: &str| t.durations(name).iter().sum::<f64>();
    let avg = |name: &str| {
        let d = t.durations(name);
        (mean(&d), d.len())
    };
    m.insert("store.source.open_ms_per_partition".into(), {
        let d = t.durations("store.open.chain_end");
        (mean(&d) / partitions as f64, d.len())
    });
    let (l0, n0) = avg("store.load.chain0");
    m.insert("store.source.load_us.chain0".into(), (l0 * 1e3, n0));
    let (le, ne) = avg("store.load.chain_end");
    m.insert("store.source.load_us.chain_end".into(), (le * 1e3, ne));
    m.insert("core.graphm.init_ms".into(), avg("core.graphm.init"));
    m.insert("core.exec_parallel.batch_ms".into(), avg("core.run_batch"));
    let batches = t.durations("core.run_batch").len();
    m.insert(
        "core.exec_parallel.threaded_vs_single".into(),
        (sum("core.run_batch_single_thread") / sum("core.run_batch"), batches),
    );
    m.insert(
        "core.exec_parallel.fanout_vs_one_thread".into(),
        (sum("core.fanout.off") / sum("core.fanout.on"), 1),
    );
    m.insert(
        "core.sharing.loads_shared_over_exclusive".into(),
        (c.shared_loads as f64 / c.exclusive_loads.max(1) as f64, batches),
    );
    for (_, label) in KERNELS {
        let name = format!("algos.{label}");
        let secs = sum(&name) / 1e3;
        let edges = c.kernel_edges.get(label).copied().unwrap_or(0) as f64;
        m.insert(format!("algos.{label}.edges_per_s"), (edges / secs, 1));
    }
    m.insert("server.protocol.report_bytes".into(), (mean(&c.report_bytes), c.report_bytes.len()));
    m.insert("server.protocol.report_encode_ms".into(), avg("protocol.report_encode"));
    m.insert("server.protocol.ingest_decode_ms".into(), avg("protocol.ingest_decode"));
    m.insert(
        "store.prefetch.advise_ms".into(),
        (c.advise_ns as f64 / 1e6 / c.threaded_jobs.max(1) as f64, c.threaded_jobs as usize),
    );
    m.insert("store.delta.publish_ms".into(), avg("store.delta.publish"));
    m.insert(
        "store.delta.files_per_publish".into(),
        (mean(&c.files_per_publish), c.files_per_publish.len()),
    );
    m.insert("store.delta.compact_ms".into(), avg("store.delta.compact"));
    m.insert(
        "store.wal.syncs_per_commit".into(),
        (c.wal_syncs as f64 / c.publishes.max(1) as f64, c.publishes as usize),
    );
    m.insert(
        "store.wal.write_bytes_per_user_byte".into(),
        (c.write_bytes as f64 / c.user_bytes.max(1) as f64, c.publishes as usize),
    );
    m.insert("store.replica.frame_build_ms".into(), avg("store.replica.frame_build"));
    m.insert("store.replica.apply_ms".into(), avg("store.replica.apply"));
    m
}
