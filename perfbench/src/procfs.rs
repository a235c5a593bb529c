//! What `/proc/<pid>` says about a process: peak memory, CPU time and
//! bytes written. Linux only.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture the benchmark runs on).
const TICKS_PER_S: f64 = 100.0;

fn read(pid: u32, file: &str) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()
}

/// A `Key: value` field of a `/proc` file, as a number.
fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    field(&read(pid, "status")?, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// User plus system CPU time in milliseconds.
#[must_use]
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = read(pid, "stat")?;
    // Fields after the parenthesised command name, which may hold
    // spaces: state is the first, utime the 12th, stime the 13th.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 1e3 / TICKS_PER_S)
}

/// Bytes the process has passed to write-type system calls (`wchar`).
#[must_use]
pub fn wchar(pid: u32) -> Option<u64> {
    field(&read(pid, "io")?, "wchar")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(peak_rss_mb(me).unwrap() > 0.0);
        assert!(cpu_ms(me).is_some());
        std::fs::write(
            std::env::temp_dir().join(format!("perfbench-io-{me}")),
            [0; 64],
        )
        .unwrap();
        assert!(wchar(me).unwrap() >= 64);
        std::fs::remove_file(std::env::temp_dir().join(format!("perfbench-io-{me}"))).ok();
        assert_eq!(field("VmHWM:\t  1234 kB\n", "VmHWM"), Some(1234));
        assert_eq!(field("wchar: 77\n", "wchar"), Some(77));
    }
}
