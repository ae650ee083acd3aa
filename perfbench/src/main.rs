//! `graphm-perfbench` — the serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload shared-burst|interactive-ooc|ingest-replicated \
//!     --seed N --seconds S --trace 0|1 [--out FILE]
//! ```
//!
//! Run from the repository root. It builds the release `graphm-server`,
//! starts it (and a follower for `ingest-replicated`) in wallclock mode,
//! drives it over unix sockets for `S` seconds after a warm-up, checks
//! every report, and prints one line per metric and, last, one JSON
//! object. With `--trace 1` it also replays the run's inputs in-process
//! through each layer with spans and reports the per-layer metrics.
//! See `perfbench/README.md`.

mod daemon;
mod load;
mod trace;
mod util;
mod verify;

use daemon::Daemon;
use graphm_server::{Client, ClientError};
use load::{Inputs, Record, Workload, BURST_DEPTH, GRID_P};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};
use util::{dir_bytes, median, proc_io, proc_status_bytes, quantile, secs, sorted};

/// How many times a run sets the system up; `setup_s` is their median.
const SETUPS: usize = 7;
/// Bytes per live edge in a base segment: `src u32 | dst u32 | weight f32`.
const EDGE_BYTES: f64 = 12.0;
/// The generator is behind when its own p95 lateness exceeds this.
const MAX_LATE_MS: f64 = 20.0;

/// End-to-end metrics every workload reports, with their units. These
/// are the ones `BENCHMARK.json` bounds.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("server_rss_mb", "MB"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics: name, unit, and the end-to-end metric and workload
/// each should move.
const PER_LAYER: [(&str, &str, &str); 40] = [
    ("server.client.ping_unix_ms", "ms", "nothing on the unix-socket workloads"),
    ("server.client.ping_tcp_ms", "ms", "repl_lag_p50_ms on ingest-replicated"),
    ("server.daemon.queue_wait_ms.p50", "ms", "job_p50_ms on interactive-ooc"),
    ("server.daemon.run_ms.p50", "ms", "jobs_per_s on shared-burst"),
    ("server.daemon.batch_jobs.mean", "count", "jobs_per_s on shared-burst"),
    ("server.daemon.partition_loads_per_job", "count", "jobs_per_s on shared-burst"),
    ("server.daemon.rotations_per_s", "1/s", "job_p50_ms on ingest-replicated"),
    ("server.protocol.report_bytes", "bytes", "jobs_per_s on shared-burst"),
    ("server.protocol.report_encode_ms", "ms", "jobs_per_s on shared-burst"),
    ("server.protocol.ingest_decode_ms", "ms", "commit_p50_ms on ingest-replicated"),
    ("core.exec_parallel.batch_ms", "ms", "jobs_per_s on shared-burst"),
    ("core.exec_parallel.threaded_vs_single", "ratio", "jobs_per_s on shared-burst"),
    ("core.exec_parallel.fanout_vs_one_thread", "ratio", "job_p50_ms on interactive-ooc"),
    ("core.sharing.loads_shared_over_exclusive", "ratio", "jobs_per_s on shared-burst"),
    ("core.graphm.init_ms", "ms", "job_p50_ms on ingest-replicated"),
    ("algos.pagerank.edges_per_s", "1/s", "jobs_per_s on shared-burst"),
    ("algos.wcc.edges_per_s", "1/s", "jobs_per_s on shared-burst"),
    ("algos.bfs.edges_per_s", "1/s", "job_p50_ms on interactive-ooc"),
    ("algos.sssp.edges_per_s", "1/s", "job_p50_ms on interactive-ooc"),
    ("algos.ppr.edges_per_s", "1/s", "job_p50_ms on interactive-ooc"),
    ("store.source.open_ms_per_partition", "ms", "setup_s on every workload"),
    ("store.source.load_us.chain0", "us", "job_p50_ms on ingest-replicated, not shared-burst"),
    ("store.source.load_us.chain_end", "us", "job_p50_ms on ingest-replicated, not shared-burst"),
    ("store.source.evictions_per_job", "count", "job_p95_ms on interactive-ooc"),
    ("store.prefetch.hit_ratio", "ratio", "job_p95_ms on interactive-ooc"),
    ("store.prefetch.advise_ms", "ms", "job_p95_ms on interactive-ooc"),
    ("store.delta.publish_ms", "ms", "commit_p50_ms and space_amp on ingest-replicated"),
    ("store.delta.files_per_publish", "count", "commit_p50_ms and space_amp on ingest-replicated"),
    ("store.delta.compact_ms", "ms", "commit_p95_ms on ingest-replicated"),
    ("store.wal.syncs_per_commit", "count", "commit_p50_ms on ingest-replicated"),
    (
        "store.wal.write_bytes_per_user_byte",
        "ratio",
        "commit_p50_ms and space_amp on ingest-replicated",
    ),
    ("store.replica.frame_build_ms", "ms", "repl_lag_p50_ms on ingest-replicated"),
    ("store.replica.apply_ms", "ms", "repl_lag_p50_ms on ingest-replicated"),
    ("loadgen.late_p95_ms", "ms", "nothing: a validity check, must stay near zero"),
    (
        "loadgen.outstanding_mean",
        "count",
        "nothing: a validity check, closed loops hold their depth",
    ),
    ("trace.overhead_frac", "ratio", "nothing: the cost of the spans themselves"),
    ("trace.self_ms.store", "ms", "the traced run's time in graphm-store"),
    ("trace.self_ms.core", "ms", "the traced run's time in graphm-core"),
    ("trace.self_ms.algos", "ms", "the traced run's time in graphm-algos"),
    ("trace.self_ms.server.protocol", "ms", "the traced run's time in graphm-server::protocol"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: graphm-perfbench --workload shared-burst|interactive-ooc|ingest-replicated \
         --seed N --seconds S --trace 0|1 [--out FILE]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(arg) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Args { workload, seed, seconds, trace, out }
        }
        _ => usage(),
    }
}

/// The daemons of one set-up and where they keep their files.
struct Deployment {
    dir: PathBuf,
    store: PathBuf,
    primary: Daemon,
    follower: Option<(PathBuf, Daemon)>,
    budget: u64,
}

impl Deployment {
    fn stop(self) {
        self.primary.stop();
        if let Some((_, f)) = self.follower {
            f.stop();
        }
    }
}

/// Converts the store, seeds the follower, and starts the daemons until
/// `health` answers: what an operator pays before the first job.
fn set_up(inputs: &Inputs, bin: &Path, dir: &Path) -> Result<(f64, Deployment), String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = dir.join("primary");
    let start = Instant::now();
    verify::convert(&inputs.graph, &store)?;
    let mut extra: Vec<String> = Vec::new();
    let mut budget = 0;
    if let Some(fraction) = inputs.budget_fraction {
        budget = (dir_bytes(&store) as f64 * fraction) as u64;
        extra.extend(["--memory-budget".to_string(), budget.to_string()]);
    }
    let replicated = inputs.workload == Workload::IngestReplicated;
    let follower_store = dir.join("follower");
    if replicated {
        util::copy_dir(&store, &follower_store)
            .map_err(|e| format!("seeding the follower: {e}"))?;
        extra.push("--ingest".to_string());
    }
    let primary = Daemon::start(bin, &store, &dir.join("p.sock"), &extra)?;
    let follower = if replicated {
        let args = ["--follow".to_string(), primary.tcp.clone()];
        Some((
            follower_store.clone(),
            Daemon::start(bin, &follower_store, &dir.join("f.sock"), &args)?,
        ))
    } else {
        None
    };
    let took = secs(start.elapsed());
    Ok((took, Deployment { dir: dir.to_path_buf(), store, primary, follower, budget }))
}

/// A metric with its sample count and what it should move.
struct Metric {
    value: f64,
    unit: &'static str,
    n: usize,
    note: String,
}

type Metrics = BTreeMap<String, Metric>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str, n: usize, note: &str) {
    m.insert(name.to_string(), Metric { value, unit, n, note: note.to_string() });
}

fn layer_unit(name: &str) -> (&'static str, &'static str) {
    PER_LAYER.iter().find(|(n, _, _)| *n == name).map_or(("", ""), |(_, u, moves)| (u, moves))
}

/// Differences of the numeric `stats` counters across the window.
fn stats_diff(record: &Record) -> (f64, BTreeMap<String, f64>) {
    let mut out = BTreeMap::new();
    let (Some((t0, before)), Some((t1, after))) = (&record.stats_before, &record.stats_after)
    else {
        return (0.0, out);
    };
    if let (Some(b), Some(a)) = (before.as_object(), after.as_object()) {
        for (k, va) in a {
            if let (Some(x), Some(y)) = (va.as_f64(), b.get(k).and_then(Value::as_f64)) {
                out.insert(k.clone(), x - y);
            }
        }
    }
    (t1 - t0, out)
}

/// Measurements taken after the window while the daemons still run.
struct Post {
    ping_unix_ms: Vec<f64>,
    ping_tcp_ms: Vec<f64>,
    rss_bytes: u64,
    daemon_write_bytes: u64,
    store_bytes: u64,
}

fn pings(c: &mut Client, count: usize) -> Result<Vec<f64>, ClientError> {
    (0..count)
        .map(|_| {
            let t = Instant::now();
            c.ping().map(|_| secs(t.elapsed()) * 1e3)
        })
        .collect()
}

fn post_window(dep: &Deployment) -> Result<Post, String> {
    let mut unix =
        Client::connect_unix(&dep.primary.socket).map_err(|e| format!("connect: {e}"))?;
    let mut tcp =
        Client::connect_tcp(dep.primary.tcp.as_str()).map_err(|e| format!("tcp connect: {e}"))?;
    let err = |e: ClientError| format!("ping: {e}");
    Ok(Post {
        ping_unix_ms: pings(&mut unix, 200).map_err(err)?,
        ping_tcp_ms: pings(&mut tcp, 12).map_err(err)?,
        rss_bytes: proc_status_bytes(dep.primary.pid(), "VmHWM").unwrap_or(0),
        daemon_write_bytes: proc_io(Some(dep.primary.pid()), "write_bytes").unwrap_or(0),
        store_bytes: dir_bytes(&dep.store),
    })
}

/// `ingest-replicated` end checks: the follower catches up, then one job
/// must give the same bits on the primary, on the follower, and in-process
/// on a fresh conversion of the model; and both stores must hold every
/// acknowledged batch.
fn check_replicated(
    inputs: &Inputs,
    record: &Record,
    dep: &Deployment,
    verdict: &mut verify::Verdict,
) {
    let model = inputs.model_after(record.commits.len());
    let model_dir = dep.dir.join("model");
    let result = (|| -> Result<(), String> {
        let (fstore, follower) = dep.follower.as_ref().ok_or("no follower")?;
        let mut p = Client::connect_unix(&dep.primary.socket).map_err(|e| e.to_string())?;
        let mut f = Client::connect_unix(&follower.socket).map_err(|e| e.to_string())?;
        // `repl_status` reports the generation applied to disk; `health`
        // the one served, which only rotates when a job runs.
        let applied = |c: &mut Client| -> Result<u64, String> {
            let v = c.repl_status().map_err(|e| e.to_string())?;
            v.get("generation")
                .and_then(Value::as_u64)
                .ok_or_else(|| "repl_status without generation".to_string())
        };
        let target = applied(&mut p)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while applied(&mut f)? < target {
            if Instant::now() > deadline {
                return Err(format!("follower never reached generation {target}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // A short PageRank: its float sums expose any difference in edge
        // order, and three sweeps keep it quick on long delta chains.
        let spec = inputs
            .jobs
            .iter()
            .find(|s| s.kind == graphm_workloads::AlgoKind::PageRank)
            .ok_or("no job")?;
        let spec = graphm_workloads::JobSpec { max_iters: 3, ..*spec };
        let on_primary = p.run(&spec).map_err(|e| e.to_string())?;
        let on_follower = f.run(&spec).map_err(|e| e.to_string())?;
        verify::convert(&model, &model_dir)?;
        let oracle = verify::Replayer::open(&model_dir)?.replay(&[spec]).remove(0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(&on_primary.values) != bits(&oracle) || bits(&on_follower.values) != bits(&oracle) {
            return Err("primary, follower and model disagree on the final PageRank".to_string());
        }
        verify::check_final_store(&model_dir, &dep.store, "primary", verdict);
        verify::check_final_store(&model_dir, fstore, "follower", verdict);
        Ok(())
    })();
    if let Err(e) = result {
        verdict.fail(None, e);
    }
    std::fs::remove_dir_all(&model_dir).ok();
}

/// The checked-out commit, read from `.git` in the current directory
/// (never a parent's); `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return head.to_string() };
    read(name)
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let bin = daemon::build_server()?;
    let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let result = measure(args, &bin, &work);
    std::fs::remove_dir_all(&work).ok();
    // Wait for the file system to commit those deletions now, so that
    // the next run's set-up does not pay for them.
    let marker = Path::new(".perfbench").join("last-run");
    std::fs::write(&marker, std::process::id().to_string())
        .and_then(|()| std::fs::File::open(&marker)?.sync_all())
        .map_err(|e| format!("{}: {e}", marker.display()))?;
    result
}

fn measure(args: &Args, bin: &Path, work: &Path) -> Result<i32, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed, args.seconds);
    eprintln!(
        "perfbench: {} seed {}: {} vertices, {} edges, {} jobs, {} batches",
        w.name(),
        args.seed,
        inputs.graph.num_vertices,
        inputs.graph.edges.len(),
        inputs.jobs.len(),
        inputs.batches.len()
    );

    // Set up several times; the last deployment serves the window. The
    // earlier ones are deleted with the run's directory at the end, as
    // deleting thousands of files slows the file creation that follows.
    let mut setup_s = Vec::new();
    let mut dep = None;
    for i in 0..SETUPS {
        let (took, d) = set_up(&inputs, bin, &work.join(format!("setup-{i}")))?;
        setup_s.push(took);
        if let Some(old) = dep.replace(d) {
            old.stop();
        }
    }
    let dep = dep.expect("at least one set-up");
    let clock = Instant::now();
    let progress = |what: &str| eprintln!("perfbench: {what} at +{:.1}s", secs(clock.elapsed()));

    let record = load::drive(&inputs, &dep.primary.socket, args.seconds);
    progress("load done");
    let post = post_window(&dep);
    progress("post-window probes done");
    let mut verdict = verify::Verdict::default();
    if w == Workload::IngestReplicated {
        check_replicated(&inputs, &record, &dep, &mut verdict);
        progress("replica checks done");
    }
    let (store, budget) = (dep.store.clone(), dep.budget);
    dep.stop();
    progress("daemons stopped");
    let post = post?;
    let checks = if w == Workload::IngestReplicated {
        verify::check_ingest(&inputs, &record, work)
    } else {
        verify::check_static(&inputs, &store, &record)
    };
    verdict.absorb(checks);
    progress("checks done");

    // End-to-end metrics, from the window only.
    let (w0, w1) = record.window;
    let window_jobs: Vec<&load::JobRec> =
        record.jobs.iter().filter(|j| record.in_window(j.due)).collect();
    let latencies: Vec<f64> = window_jobs.iter().map(|j| j.latency_ms()).collect();
    // Throughput between the first and the last completion inside the
    // window, so a batch straddling either edge does not count as a
    // fraction of a job.
    let done: Vec<f64> = sorted(
        &record.jobs.iter().map(|j| j.done).filter(|&t| record.in_window(t)).collect::<Vec<_>>(),
    );
    let (done_in_window, done_span) = match (done.first(), done.last()) {
        (Some(a), Some(b)) if b > a => (done.iter().filter(|&&t| t > *a).count(), b - a),
        _ => (done.len(), w1 - w0),
    };
    let live_edges = if w == Workload::IngestReplicated {
        inputs.model_after(record.commits.len()).edges.len()
    } else {
        inputs.graph.edges.len()
    };
    let mut e2e = Metrics::new();
    put(&mut e2e, "setup_s", median(&setup_s), "s", setup_s.len(), "median of the run's set-ups");
    put(&mut e2e, "jobs_per_s", done_in_window as f64 / done_span, "1/s", done_in_window, "");
    put(&mut e2e, "job_p50_ms", median(&latencies), "ms", latencies.len(), "");
    put(&mut e2e, "server_rss_mb", post.rss_bytes as f64 / 1e6, "MB", 1, "VmHWM of the primary");
    put(
        &mut e2e,
        "space_amp",
        post.store_bytes as f64 / (EDGE_BYTES * live_edges as f64),
        "ratio",
        1,
        "",
    );

    // Reported beside them where they apply, without a bound.
    let mut extra = Metrics::new();
    let mut omitted = Vec::new();
    match util::tail(&latencies) {
        Some((label, v)) => put(
            &mut extra,
            &format!("job_{label}_ms"),
            v,
            "ms",
            latencies.len(),
            "tail with >=10 samples beyond",
        ),
        None => omitted.push(format!("job_p95_ms: {} samples, under 40", latencies.len())),
    }
    if w == Workload::IngestReplicated {
        let commits: Vec<&load::CommitRec> =
            record.commits.iter().filter(|c| record.in_window(c.due)).collect();
        let commit_ms: Vec<f64> = commits.iter().map(|c| (c.acked - c.due) * 1e3).collect();
        let lag_ms: Vec<f64> =
            commits.iter().filter_map(|c| c.replicated.map(|r| (r - c.acked) * 1e3)).collect();
        for (name, samples) in [("commit", &commit_ms), ("repl_lag", &lag_ms)] {
            let s = sorted(samples);
            put(&mut extra, &format!("{name}_p50_ms"), quantile(&s, 0.5), "ms", s.len(), "");
            let note = if s.len() >= 200 { "" } else { "fewer than 10 samples beyond p95" };
            put(&mut extra, &format!("{name}_p95_ms"), quantile(&s, 0.95), "ms", s.len(), note);
        }
    }
    let attempted = record.attempted.max(1);
    let failed =
        record.errors.len() as u64 + verdict.failed_jobs.len() as u64 + verdict.failed_checks;
    put(
        &mut extra,
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio",
        attempted as usize,
        "",
    );

    // Generator validity.
    let late_p95 = quantile(&sorted(&record.lateness_ms), 0.95);
    let outstanding = util::mean(&record.outstanding);
    let depth = match w {
        Workload::SharedBurst => BURST_DEPTH as f64,
        Workload::IngestReplicated => 1.0,
        Workload::InteractiveOoc => f64::NAN,
    };
    let invalid = if late_p95 > MAX_LATE_MS {
        Some(format!("generator lateness p95 {late_p95:.2} ms > {MAX_LATE_MS} ms"))
    } else if outstanding < 0.9 * depth {
        Some(format!("closed loop held {outstanding:.2} outstanding, not {depth}"))
    } else {
        None
    };

    // Per-layer metrics.
    let mut layers = Metrics::new();
    let (stats_secs, diff) = stats_diff(&record);
    let d = |k: &str| diff.get(k).copied().unwrap_or(0.0);
    let jobs_diff = d("jobs_completed").max(1.0);
    let layer = |m: &mut Metrics, name: &str, value: f64, n: usize| {
        let (unit, moves) = layer_unit(name);
        put(m, name, value, unit, n, &format!("moves {moves}"));
    };
    layer(
        &mut layers,
        "server.client.ping_unix_ms",
        median(&post.ping_unix_ms),
        post.ping_unix_ms.len(),
    );
    layer(
        &mut layers,
        "server.client.ping_tcp_ms",
        median(&post.ping_tcp_ms),
        post.ping_tcp_ms.len(),
    );
    let queue_wait: Vec<f64> = window_jobs
        .iter()
        .map(|j| j.latency_ms() - (j.report.finish_ns - j.report.submit_ns) / 1e6)
        .collect();
    let run_ms: Vec<f64> =
        window_jobs.iter().map(|j| (j.report.finish_ns - j.report.submit_ns) / 1e6).collect();
    layer(&mut layers, "server.daemon.queue_wait_ms.p50", median(&queue_wait), queue_wait.len());
    layer(&mut layers, "server.daemon.run_ms.p50", median(&run_ms), run_ms.len());
    let mut batch_sizes: BTreeMap<u64, usize> = BTreeMap::new();
    for j in &window_jobs {
        *batch_sizes.entry(j.report.submit_ns.to_bits()).or_default() += 1;
    }
    let sizes: Vec<f64> = batch_sizes.values().map(|&n| n as f64).collect();
    layer(&mut layers, "server.daemon.batch_jobs.mean", util::mean(&sizes), sizes.len());
    layer(
        &mut layers,
        "server.daemon.partition_loads_per_job",
        d("partition_loads") / jobs_diff,
        jobs_diff as usize,
    );
    layer(
        &mut layers,
        "server.daemon.rotations_per_s",
        d("generation_rotations") / stats_secs.max(1e-9),
        1,
    );
    layer(
        &mut layers,
        "store.source.evictions_per_job",
        d("evictions") / jobs_diff,
        jobs_diff as usize,
    );
    let issued = d("prefetch_issued");
    layer(
        &mut layers,
        "store.prefetch.hit_ratio",
        d("prefetch_hits") / issued.max(1.0),
        issued as usize,
    );
    layer(&mut layers, "loadgen.late_p95_ms", late_p95, record.lateness_ms.len());
    layer(&mut layers, "loadgen.outstanding_mean", outstanding, record.outstanding.len());

    let results_dir = PathBuf::from(".perfbench").join("results");
    let mut trace_file = None;
    if args.trace {
        let mut batches: BTreeMap<u64, Vec<graphm_workloads::JobSpec>> = BTreeMap::new();
        for j in &window_jobs {
            batches.entry(j.report.submit_ns.to_bits()).or_default().push(j.spec);
        }
        let replay = trace::Replay {
            inputs: &inputs,
            store: &store,
            batches: batches.into_values().collect(),
            reports: window_jobs.iter().take(32).map(|j| &j.report).collect(),
            budget,
            scratch: work.join("replay"),
        };
        let start = Instant::now();
        let mut tracer = trace::Tracer::new(true);
        let counts = trace::replay(&replay, &mut tracer)?;
        let traced = secs(start.elapsed());
        progress("traced replay done");
        let start = Instant::now();
        trace::replay(&replay, &mut trace::Tracer::new(false))?;
        let untraced = secs(start.elapsed());
        progress("untraced replay done");
        for (name, (value, n)) in trace::layer_values(&tracer, &counts, GRID_P * GRID_P) {
            layer(&mut layers, &name, value, n);
        }
        layer(
            &mut layers,
            "trace.overhead_frac",
            (traced - untraced) / untraced,
            tracer.spans.len(),
        );
        let self_ms = tracer.self_ms_by_layer();
        for name in ["store", "core", "algos", "server.protocol"] {
            let key = format!("trace.self_ms.{name}");
            layer(&mut layers, &key, self_ms.get(name).copied().unwrap_or(0.0), tracer.spans.len());
        }
        let path = results_dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        write_json(&path, &tracer.to_json())?;
        trace_file = Some(path);
    }

    // Human-readable lines, then the result record, then the last line.
    println!(
        "# {} seed {} window {:.1}s cores {} mode wallclock page-cache hot",
        w.name(),
        args.seed,
        w1 - w0,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let show = |kind: &str, m: &Metrics| {
        for (name, x) in m {
            let note = if x.note.is_empty() { String::new() } else { format!("  [{}]", x.note) };
            println!("{kind} {name} = {:.6} {} (n={}){note}", x.value, x.unit, x.n);
        }
    };
    show("e2e", &e2e);
    show("e2e", &extra);
    if args.trace {
        show("layer", &layers);
    }
    println!(
        "# checks: {} reports compared bit for bit in {} replays, {} against oracles, {} problems",
        verdict.jobs_checked, verdict.replays, verdict.oracle_checked, failed
    );
    if !verdict.stale_reads.is_empty() {
        println!(
            "# stale reads: {} served a generation older than the last commit acked before them \
             (at most {} commits older)",
            verdict.stale_reads.len(),
            verdict.stale_reads.iter().max().copied().unwrap_or(0)
        );
    }
    for p in record.errors.iter().chain(&verdict.problems).take(20) {
        println!("# problem: {p}");
    }
    for o in &omitted {
        println!("# omitted: {o}");
    }

    let as_json = |m: &Metrics| {
        Value::Object(
            m.iter()
                .map(|(k, x)| {
                    (k.clone(), json!({ "value": x.value, "unit": x.unit, "n": x.n, "note": x.note.as_str() }))
                })
                .collect(),
        )
    };
    let (_, stats_delta) = stats_diff(&record);
    let result = json!({
        "workload": w.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "cores": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "daemon_mode": "wallclock",
        "git_commit": git_commit(),
        "page_cache": "hot: store files were written just before the run",
        "valid": invalid.is_none(),
        "end_to_end": as_json(&e2e),
        "also_reported": as_json(&extra),
        "omitted": omitted.clone(),
        "per_layer": as_json(&layers),
        "stats_delta": Value::Object(stats_delta.into_iter().map(|(k, v)| (k, json!(v))).collect()),
        "jobs": Value::Array(record.jobs.iter().map(|j| json!({
            "id": j.id,
            "kind": graphm_server::protocol::algo_name(j.spec.kind),
            "root": j.spec.root,
            "due_s": j.due,
            "latency_ms": j.latency_ms(),
            "server_ms": (j.report.finish_ns - j.report.submit_ns) / 1e6,
            "batch_start_ns": j.report.submit_ns,
            "iterations": j.report.iterations,
        })).collect()),
        "daemon_write_bytes": post.daemon_write_bytes,
        "checks": json!({
            "reports_compared": verdict.jobs_checked,
            "replays": verdict.replays,
            "oracle_checked": verdict.oracle_checked,
            "stale_reads_commits_behind": verdict.stale_reads.clone(),
            "problems": verdict.problems.clone(),
            "errors": record.errors.clone(),
        }),
        "trace_file": trace_file.map_or(Value::Null, |p| json!(p.display().to_string())),
    });
    let out = args.out.clone().unwrap_or_else(|| {
        results_dir.join(format!(
            "{}-seed{}-trace{}.json",
            w.name(),
            args.seed,
            u8::from(args.trace)
        ))
    });
    write_json(&out, &result)?;
    println!("# results: {}", out.display());

    if let Some(why) = invalid {
        eprintln!("perfbench: run invalid, not reported: {why}");
        return Ok(3);
    }
    let chosen = if args.trace { &layers } else { &e2e };
    if let Some((name, _)) = chosen.iter().find(|(_, m)| !m.value.is_finite()) {
        eprintln!("perfbench: {name} has no value: the run measured nothing");
        return Ok(1);
    }
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: serde_json::Map<String, Value> = names
        .iter()
        .map(|(n, u)| {
            let v = chosen.get(*n).map_or(f64::NAN, |m| m.value);
            (n.to_string(), json!({ "value": v, "unit": *u }))
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{}",
        json!({ "correct": correct, "attempted": attempted, "failed": failed, "metrics": Value::Object(metrics) })
    );
    Ok(if correct { 0 } else { 1 })
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
