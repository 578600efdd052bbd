//! Small helpers: order statistics, answer digests, the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// A streaming 64-bit FNV-1a hasher.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// Digest of a TSV answer that does not depend on row order: the header
/// line hashed as is, the body as a multiset of line hashes. Two stores
/// may walk the same answer in different orders; the digests still
/// agree.
pub fn tsv_digest(tsv: &str) -> u64 {
    let mut lines = tsv.split_terminator('\n');
    let header = fnv1a(lines.next().unwrap_or("").as_bytes());
    let (mut sum, mut xor, mut n) = (0u64, 0u64, 0u64);
    for line in lines {
        let h = fnv1a(line.as_bytes());
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left(29);
        n += 1;
    }
    header ^ sum.rotate_left(7) ^ xor ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The `q`-quantile (0..=1) of `xs` by the nearest-rank rule. `xs`
/// need not be sorted; returns 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in declaration order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The benchmark's last output line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        )
        .expect("writing to a String");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a non-finite value is a bug
            // upstream, reported as -1 rather than as invalid JSON.
            let value = if value.is_finite() { *value } else { -1.0 };
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_but_not_rows() {
        let a = tsv_digest("x\ty\n1\t2\n3\t4\n");
        assert_eq!(a, tsv_digest("x\ty\n3\t4\n1\t2\n"));
        assert_ne!(a, tsv_digest("x\ty\n1\t2\n"));
        assert_ne!(a, tsv_digest("y\tx\n1\t2\n3\t4\n"));
        assert_ne!(a, tsv_digest("x\ty\n1\t2\n3\t4\n3\t4\n"));
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
