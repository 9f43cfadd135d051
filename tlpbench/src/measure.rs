//! Summary statistics and process measurements.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`, in the samples'
/// unit. Sorts `samples` in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Nanosecond samples' percentile `q`, in microseconds.
pub fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    percentile(samples, q) as f64 / 1e3
}

/// Mean of the middle half of `values` (the quarter at each end dropped):
/// robust to a stalled outlier, and smooth where values fall into two
/// modes.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak RSS: {e}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing VmHWM {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Size of the file at `path`, in bytes.
///
/// # Errors
///
/// When the file's metadata is unreadable.
pub fn file_bytes(path: &std::path::Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|meta| meta.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Total size of the regular files directly inside `dir`, in bytes.
///
/// # Errors
///
/// When the directory cannot be listed.
pub fn dir_bytes(dir: &std::path::Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut samples, 0.5), 500);
        assert_eq!(percentile(&mut samples, 0.99), 990);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(
            interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 4.0, 0.0, 2.0, 3.0]),
            2.5
        );
    }
}
