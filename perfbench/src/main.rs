//! `livegraph-perfbench`: the repository benchmark.
//!
//! ```text
//! livegraph-perfbench --workload <tao_inproc|dflt_wal|htap_pagerank>
//!                     --seed N --seconds S --trace 0|1 --work-dir DIR
//!                     [--server-bin PATH] [--rev REV] [--l3-bytes N]
//! ```
//!
//! Usually started through `python3 perfbench/run.py`, which builds this
//! package and `livegraph-serve` first. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it (`REPORT {...}`) carries provenance,
//! per-class failure accounting and every metric of both kinds.

mod gen;
mod hist;
mod metrics;
mod ops;
mod oracle;
mod server;
mod setup;
mod trace;
mod window;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub server_bin: Option<PathBuf>,
    pub rev: String,
    pub l3_bytes: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from("perfbench/target/run"),
        server_bin: None,
        rev: "unknown".into(),
        l3_bytes: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("bad number {v:?} for {flag}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => args.seconds = num(value()?)?,
            "--trace" => args.trace = num(value()?)? != 0.0,
            "--work-dir" => args.work_dir = value()?.into(),
            "--server-bin" => args.server_bin = Some(value()?.into()),
            "--rev" => args.rev = value()?,
            "--l3-bytes" => args.l3_bytes = num(value()?)? as u64,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Everything one run produced.
pub struct Outcome {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Extra `"key": value` JSON members for the report line.
    pub report: Vec<(String, String)>,
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                quote(x.name),
                x.value,
                quote(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match workload::run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: run aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &out.errors {
        eprintln!("perfbench: ORACLE FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    for x in out.end_to_end.iter().chain(&out.per_layer) {
        println!("{:<32} {:>18.6} {}", x.name, x.value, x.unit);
    }
    let mut report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \
         \"errors\": [{}]",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.errors.iter().map(|e| quote(e)).collect::<Vec<_>>().join(", ")
    );
    for (k, v) in &out.report {
        let _ = write!(report, ", {}: {v}", quote(k));
    }
    let _ = write!(
        report,
        ", \"end_to_end\": {}, \"per_layer\": {}}}",
        json_metrics(&out.end_to_end),
        json_metrics(&out.per_layer)
    );
    println!("REPORT {report}");
    let chosen = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(chosen)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
