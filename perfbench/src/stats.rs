//! Order statistics and process measurements.

use std::time::Duration;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when there are none.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count); `None` when there are none.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Duration in microseconds.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A snapshot of the machine's CPU times from `/proc/stat`.
/// [`CpuTimes::steal_note`] reports the share the hypervisor gave to other
/// guests since the snapshot: high steal means the host, not the code,
/// slowed the run.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// The aggregate `cpu` line of `/proc/stat`, or `None` where absent.
    #[must_use]
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some(CpuTimes {
            total: fields.iter().sum(),
            steal: *fields.get(7)?,
        })
    }

    /// Percentage of CPU time stolen since `self`, as a provenance line.
    #[must_use]
    pub fn steal_note(&self) -> String {
        match CpuTimes::now() {
            Some(now) if now.total > self.total => {
                #[allow(clippy::cast_precision_loss)]
                let pct = 100.0 * (now.steal - self.steal) as f64 / (now.total - self.total) as f64;
                format!("host_steal_pct={pct:.2} (CPU time the hypervisor gave elsewhere during the measured phase)")
            }
            _ => "host_steal_pct=unknown".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
