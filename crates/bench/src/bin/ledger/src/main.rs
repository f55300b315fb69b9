//! `ledger`: one performance ledger for blazr.
//!
//! ```text
//! ledger --workload <smooth|noise|thin|volume> --seed <n> [--seconds <s>]
//!        [--trace <0|1> | --traced] [--out <file.json>] [--smoke]
//! ledger compare <dirA> <dirB> [--bench BENCHMARK.json]
//! ledger catalog                  # prints BENCHMARK.json
//! ```
//!
//! One run generates the workload's inputs from the seed, sets the
//! system up (store, bit-rotted copy, server) several times, then spends
//! `--seconds` on the codec, Table I, ingest, query and serve phases.
//! It prints `ledger <workload> <metric> <value> <unit>` lines, the
//! sample count behind each metric, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics, or with `--trace 1` the per-layer ones. Any failed check
//! makes the exit code 1. See README.md for the metric glossary.

mod alloc;
mod catalog;
mod codec;
mod compare;
mod data;
mod json;
mod machine;
mod record;
mod serve;
mod stats;
mod storage;
mod trace;

use blazr_telemetry as tel;
use data::{Inputs, Scale, Workload};
use json::{obj, Json};
use record::Record;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    smoke: bool,
    scaling_child: bool,
}

const USAGE: &str = "usage: ledger --workload <smooth|noise|thin|volume> --seed <n> \
[--seconds <s>] [--trace <0|1> | --traced] [--out <file>] [--smoke]\n\
       ledger compare <dirA> <dirB> [--bench BENCHMARK.json]\n       ledger catalog";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: Workload::Smooth,
        seed: 0,
        seconds: catalog::RUN_SECONDS as f64,
        traced: false,
        out: None,
        smoke: false,
        scaling_child: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(Workload::parse(w).ok_or_else(|| format!("unknown workload {w}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds: want 0 < s <= 600".into());
                }
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: want 0 or 1".into()),
                }
            }
            "--traced" => o.traced = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--scaling-child" => o.scaling_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    if o.smoke {
        o.seconds = o.seconds.min(1.0);
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return ExitCode::from(compare::main(&args[1..]) as u8),
        Some("catalog") => {
            print!("{}", catalog::benchmark_text());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if opts.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    if opts.scaling_child {
        tel::set_mode(tel::Mode::Off);
        let inp = Inputs::generate(opts.workload, opts.seed, scale);
        let (enc, dec) = codec::throughput_alone(&inp, Duration::from_secs_f64(opts.seconds));
        println!("scaling {enc} {dec}");
        return ExitCode::SUCCESS;
    }
    match run(&opts, scale) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// Thread-scaling row: the same encode/decode passes in a child process
/// with `BLAZR_NUM_THREADS=1`. Returns its (encode, decode) Melem/s.
fn one_thread_child(opts: &Opts, budget: Duration) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.env("BLAZR_NUM_THREADS", "1").args([
        "--scaling-child",
        "--workload",
        opts.workload.name(),
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &budget.as_secs_f64().to_string(),
    ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let nums: Vec<f64> = text
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    match (out.status.success(), nums.as_slice()) {
        (true, &[enc, dec]) => Ok((enc, dec)),
        _ => Err(format!(
            "scaling child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Seconds per element of one encode plus one decode.
fn pass_cost(enc: f64, dec: f64) -> f64 {
    1.0 / enc + 1.0 / dec
}

/// Rounds per run. Every phase runs a slice of its budget in each round,
/// so a burst of load from elsewhere on the machine lands on all of them
/// a little instead of on one of them wholly.
const ROUNDS: usize = 4;

/// Shares of `--seconds` per phase: codec, Table I, ingest, query,
/// serve, and the reference job.
const SHARES: [f64; 6] = [0.14, 0.07, 0.10, 0.19, 0.47, 0.03];

fn measure(
    opts: &Opts,
    inp: &Inputs,
    dir: &Path,
    sys: &serve::System,
    rec: &mut Record,
) -> Result<(), String> {
    let slice = |i: usize| Duration::from_secs_f64(opts.seconds * SHARES[i] / ROUNDS as f64);
    let mut codec = codec::Codec::new(inp, rec);
    let mut ops = codec::Ops::new(inp);
    let mut ingest = storage::Ingest::new(inp, dir);
    let mut queries = storage::Queries::new(inp, &sys.query_path, opts.traced)?;
    let mut serve = serve::Serve::new(inp, sys, opts.traced)?;
    // The reference job runs between every two phases, so it samples the
    // machine's speed across the whole run.
    let mut machine = machine::Machine::new();
    let reference = slice(5).div_f64(5.0);
    for _ in 0..ROUNDS {
        machine.round(reference);
        codec.round(slice(0), rec);
        machine.round(reference);
        ops.round(slice(1), rec);
        machine.round(reference);
        ingest.round(slice(2), rec);
        machine.round(reference);
        queries.round(slice(3), rec);
        machine.round(reference);
        serve.round(slice(4), rec);
    }
    codec.finish(opts.traced, rec);
    let ops_err = ops.finish(opts.traced, rec);
    rec.put("max_rel_error", codec.worst.max(ops_err), "ratio");
    ingest.finish(dir, opts.traced, rec);
    queries.finish(rec);
    serve.finish(slice(4).mul_f64(ROUNDS as f64 * serve::SHARES[3]), rec);
    machine.scale(rec);
    Ok(())
}

fn run(opts: &Opts, scale: Scale) -> Result<bool, String> {
    let w = opts.workload.name();
    let root = Path::new(".ledger");
    let dir = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let probe = Duration::from_secs_f64(opts.seconds * 0.05);
    let mut rec = Record::default();
    tel::set_mode(tel::Mode::Off);
    let inp = Inputs::generate(opts.workload, opts.seed, scale);

    // Untraced reference for the tracing overhead and the 1-thread row,
    // measured before anything is switched on.
    let untraced = opts.traced.then(|| codec::throughput_alone(&inp, probe));
    if opts.traced {
        tel::set_mode(tel::Mode::Spans);
        trace::enable();
        alloc::enable();
    }

    let mut setups = Vec::new();
    let mut sys: Option<serve::System> = None;
    for _ in 0..SETUPS {
        if let Some(s) = sys.take() {
            s.shutdown(&mut rec);
        }
        let t = Instant::now();
        let _s = trace::span("setup");
        match serve::setup(&inp, &dir, opts.traced) {
            Ok(s) => {
                setups.push(t.elapsed().as_secs_f64());
                sys = Some(s);
            }
            Err(e) => {
                rec.check(false, || format!("setup: {e}"));
                break;
            }
        }
    }
    if let Some(sys) = sys {
        rec.put("setup_s", stats::median(&setups), "s");
        rec.samples("setup_s", setups.len());
        if let Err(e) = measure(opts, &inp, &dir, &sys, &mut rec) {
            rec.check(false, || e);
        }
        sys.shutdown(&mut rec);
    }

    if let Some((enc0, dec0)) = untraced {
        if let (Some(enc), Some(dec)) = (rec.value("encode_melem_s"), rec.value("decode_melem_s")) {
            rec.put(
                "trace.overhead_share",
                pass_cost(enc, dec) / pass_cost(enc0, dec0) - 1.0,
                "ratio",
            );
        }
        match one_thread_child(opts, probe) {
            Ok((enc1, dec1)) => rec.put(
                "codec.scaling_2t",
                pass_cost(enc1, dec1) / pass_cost(enc0, dec0),
                "ratio",
            ),
            Err(e) => {
                rec.check(false, || e);
            }
        }
        rec.put(
            "codec.threads",
            rayon::current_num_threads() as f64,
            "count",
        );
        let spans = trace::take();
        let path = root.join(format!("trace-{w}.json"));
        std::fs::write(&path, trace::chrome_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "ledger: wrote {} ({} spans, {} dropped)",
            path.display(),
            spans.len(),
            trace::dropped()
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    for (name, v, unit) in &rec.metrics {
        println!("ledger {w} {name} {v} {unit}");
    }
    for (name, n) in &rec.samples {
        println!("samples {w} {name} {n}");
    }
    let metrics = rec.metrics_json(&catalog::reported(opts.traced));
    for f in &rec.failures {
        eprintln!("ledger: FAIL {f}");
    }
    let correct = rec.failed == 0;
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("metrics", metrics.clone()),
    ]);
    if let Some(out) = &opts.out {
        let samples = rec
            .samples
            .iter()
            .map(|(n, c)| (n.clone(), Json::Num(*c as f64)));
        let record = obj([
            ("workload", Json::Str(w.into())),
            ("seed", Json::Num(opts.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(opts.traced)))),
            ("seconds", Json::Num(opts.seconds)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(rec.attempted as f64)),
            ("failed", Json::Num(rec.failed as f64)),
            ("metrics", metrics),
            ("samples", Json::Obj(samples.collect())),
        ]);
        std::fs::write(out, record.write() + "\n")
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", result.write());
    Ok(correct)
}
