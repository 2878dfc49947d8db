//! Host fingerprint stamped on every result: the metrics are absolute, so a
//! number is only comparable with one taken on the same kind of host.

use std::process::Command;

use runtime_api::KernelMode;

#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub kernel_tier: &'static str,
}

impl Host {
    pub fn detect() -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            // Only the checkout's own repository: never a parent directory's.
            git_rev: command_line(
                "git",
                &["--git-dir=.git", "rev-parse", "--short=12", "HEAD"],
            )
            .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            kernel_tier: kernels::resolve(KernelMode::Auto).label,
        }
    }

    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cores", self.cores.to_string()),
            ("cpu_model", self.cpu_model.clone()),
            ("rustc", self.rustc.clone()),
            ("git_rev", self.git_rev.clone()),
            ("kernel_tier", self.kernel_tier.to_string()),
        ]
    }

    pub fn render(&self) -> String {
        self.fields()
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// First line of a command's stdout, if it ran and succeeded.  `output`
/// waits for the child, so nothing is left running.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}
