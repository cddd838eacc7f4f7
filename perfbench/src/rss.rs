//! Peak resident memory from `/proc`.

/// `VmHWM` (peak resident set) of process `pid`, or of this process
/// when `None`, in MiB.
pub fn vm_hwm_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn own_peak_is_positive() {
        assert!(super::vm_hwm_mb(None).unwrap() > 0.0);
    }
}
