//! Process CPU time and peak memory from `/proc/self`.

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. The kernel
/// reports these in 1/100 s on every Linux ABI regardless of its own tick.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`, summed
/// over all threads of the process, living and reaped.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces or parentheses: split after the *last* ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    parse_cpu_seconds(&read("/proc/self/stat")).expect("utime/stime in /proc/self/stat")
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    parse_vm_hwm_mib(&read("/proc/self/status")).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(12.90));
        assert_eq!(parse_cpu_seconds("4242 (x) R 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
