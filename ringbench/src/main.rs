//! `ringbench` — the repository benchmark for the `ringrt` admission
//! service.
//!
//! ```text
//! ringbench --server <ringrt binary> --out <dir> --workload <name>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it starts `ringrt serve` (shipped defaults) as a
//! separate process, drives one workload closed-loop from two client
//! connections for `--seconds`, checks every reply, and prints the
//! end-to-end metrics. With `--trace 1` it runs the same requests over
//! TCP for half as long for the client-observed baseline, then replays them
//! in-process through each crate's public functions with spans around
//! every call, and prints the per-layer metrics. Either way the last
//! stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//!
//! `ringbench/run.sh` builds the server and this harness and runs it.

mod check;
mod gen;
mod quantile;
mod server;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Workload;

/// Parsed command line.
pub struct Args {
    /// Which workload to drive.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: u64,
    /// Run the traced per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// The `ringrt` binary.
    pub server: PathBuf,
    /// Directory for trace files and the journal probe's temporary files.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    let trace = get("--trace")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, got `{trace}`")),
        },
        server: PathBuf::from(get("--server")?),
        out: PathBuf::from(get("--out")?),
    })
}

/// One reported number.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the number (0 when it is not a sample statistic).
    count: usize,
}

impl Metric {
    /// A metric with its unit and sample count.
    pub fn new(name: &str, value: f64, unit: &'static str, count: usize) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            count,
        }
    }
}

/// What a run prints.
pub struct Outcome {
    /// Every reply checked out.
    pub correct: bool,
    /// Requests sent in the measured phase.
    pub attempted: usize,
    /// Requests that failed: `ERR`, `BUSY`, or a wrong reply.
    pub failed: usize,
    /// The metrics the JSON line carries.
    pub metrics: Vec<Metric>,
    /// Further numbers printed in the table only.
    pub detail: Vec<Metric>,
}

/// A finite JSON number (non-finite values have no JSON form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

impl Outcome {
    fn print(&self) {
        for m in self.metrics.iter().chain(&self.detail) {
            let n = if m.count > 0 {
                format!("  n={}", m.count)
            } else {
                String::new()
            };
            println!("{:<34} {:>16.4} {:<10}{n}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ringbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("ringbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let result = if args.trace {
        traced::run(&args)
    } else {
        workloads::run(&args)
    };
    match result {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct && outcome.metrics.iter().all(|m| m.value.is_finite()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ringbench: {e}");
            ExitCode::FAILURE
        }
    }
}
