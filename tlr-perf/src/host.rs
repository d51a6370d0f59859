//! The host a measurement ran on, recorded in every JSON report, and
//! the process's peak memory.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::string;

/// First line of a command's stdout, or `"unknown"`.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the working directory, looking no higher than it.
fn git_head() -> String {
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(&mut cmd)
}

/// The host fingerprint.
pub struct Host {
    rustc: String,
    parallelism: usize,
    cpu_model: String,
    unix_time: u64,
    git_head: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            rustc: first_line(Command::new("rustc").arg("--version")),
            parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: cpu_model(),
            unix_time: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            git_head: git_head(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"rustc\":{},\"available_parallelism\":{},\"cpu_model\":{},\"unix_time\":{},\"git_head\":{}}}",
            string(&self.rustc),
            self.parallelism,
            string(&self.cpu_model),
            self.unix_time,
            string(&self.git_head),
        )
    }

    /// A one-line summary for the text report.
    pub fn describe(&self) -> String {
        format!(
            "host: {} | {} cpus | {} | unix {} | git {}",
            self.cpu_model, self.parallelism, self.rustc, self.unix_time, self.git_head
        )
    }
}

/// Peak resident set size (`VmHWM`) in MiB, if the kernel reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fingerprint_is_valid_json_with_every_field() {
        let host = super::Host::probe();
        let f = host.json();
        tlr_sim::json::validate(&f).expect("valid JSON");
        let v = crate::json::parse(&f).expect("parses");
        for k in [
            "rustc",
            "available_parallelism",
            "cpu_model",
            "unix_time",
            "git_head",
        ] {
            assert!(v.get(k).is_some(), "{k}");
        }
        assert!(host.describe().starts_with("host: "));
    }
}
