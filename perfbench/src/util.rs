//! Small helpers: a seeded generator, quantiles, and `/proc` readers.

use std::path::Path;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so one seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        graphm_server::splitmix(&mut self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p95/p90/p75 that has at least ten samples beyond it,
/// as `(label, value)`; `None` below forty samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let s = sorted(values);
    [("p95", 0.95), ("p90", 0.90), ("p75", 0.75)]
        .into_iter()
        .find(|&(_, q)| (s.len() as f64 * (1.0 - q)).floor() >= 10.0)
        .map(|(label, q)| (label, quantile(&s, q)))
}

/// A `key:   value kB` field of `/proc/<pid>/status`, in bytes.
pub fn proc_status_bytes(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key) && l[key.len()..].starts_with(':'))?;
    let kb: u64 = line[key.len() + 1..].split_whitespace().next()?.parse().ok()?;
    Some(kb * 1024)
}

/// A field of `/proc/<pid>/io` (or `/proc/self/io` for `None`).
pub fn proc_io(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/io"),
        None => "/proc/self/io".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key) && l[key.len()..].starts_with(':'))?;
    line[key.len() + 1..].trim().parse().ok()
}

/// Total bytes of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Number of regular files directly in `dir`.
pub fn dir_files(dir: &Path) -> usize {
    std::fs::read_dir(dir).map(|entries| entries.filter(|e| e.is_ok()).count()).unwrap_or(0)
}

/// Copies the flat store directory `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let e = entry?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// Seconds as `f64`.
pub fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}
