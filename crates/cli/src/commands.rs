//! Subcommand implementations.

use crate::args::{parse_float_type, parse_index_type, parse_shape, parse_transform, Args};
use crate::io::{read_f64, write_f64};
use blazr::dynamic::{compress_dyn, from_bytes_dyn};
use blazr::ops::SsimParams;
use blazr::tune::{tune_for_linf, TuneOptions};
use blazr::{IndexType, PruningMask, ScalarType, Settings};
use blazr_telemetry::{self as tel, escape_json, json_f64};
use std::fs;
use std::path::Path;

const HELP: &str = "\
blazr — operate directly on compressed arrays

USAGE:
  blazr compress   <in.f64> --shape DxHxW [--block 8x8] [--float f32]
                   [--index i16] [--transform dct] [--keep N] -o <out.blz>
  blazr decompress <in.blz> -o <out.f64>
  blazr info       <in.blz>
  blazr stats      <in.blz>
  blazr diff       <a.blz> <b.blz> [--wasserstein-p P]
  blazr tune       <in.f64> --shape DxHxW --target-linf EPS
  blazr store ingest <in.f64> --shape DxHxW --chunk-rows R -o <out.blzs>
                   [--block 8x8] [--float f32] [--index i16]
                   [--transform dct] [--keep N]
  blazr store query  <store.blzs> [--from L] [--to L] [--value-lo V]
                   [--value-hi V] [--mean-lo V] [--mean-hi V] [--agg mean]
                   [--full-scan] [--degraded]
  blazr store stat   <store.blzs> [--json]
  blazr store verify <store.blzs> [--json]
  blazr store repair <store.blzs> -o <out.blzs>
  blazr serve      <store.blzs> [--addr 127.0.0.1:0] [--workers N]
                   [--queue N] [--deadline-ms D] [--max-requests N]
  blazr telemetry  <store.blzs> [query options as above] [--full-scan]
                   [--mode counters|spans] [--format json|prom]
  blazr help

Every command rejects an option it does not list above (exit 1).
Raw files are flat little-endian float64. Compressed files use the paper's
§IV-C bit layout and embed their own type/shape/mask metadata. Store files
(.blzs) hold many compressed chunks behind a zone-map index: `ingest`
splits the input along axis 0 into chunks of --chunk-rows rows (labeled by
start row), `query` aggregates in compressed space with zone-map pruning,
and `stat` prints the index without touching any chunk payload.

`diff` compares two compressed files in compressed space. Its
Wasserstein order --wasserstein-p (default 2) must be >= 1; a smaller
order or NaN is rejected (exit 1). NaN block means (e.g. f16 overflow)
make the block-mean distances NaN.

`query` prints its answer as one line of JSON, the same body GET /query
returns. Where the zone maps decide the query (no predicate, or
--mean-lo/--mean-hi), chunks are answered from the footer after their
checksum check, without a decode; --full-scan decodes every chunk: the
reference scan. `verify` deep-scans a store (footer, then every chunk
checksum + decode, with each zone map checked against its payload) and
prints per-chunk verdicts; a damaged footer is salvaged from
chunk preambles first. `repair` rewrites a clean store from every
salvageable chunk via the atomic ingest path. `query --degraded`
tolerates damaged chunks: the aggregate covers the surviving chunks and
the answer's degradation fields say what was skipped.

Store commands exit 0 when the data is clean, 10 when an answer was
produced without some chunks (degraded), and 20 when the file is corrupt
beyond salvage; other errors exit 1. `serve` follows the same taxonomy
when it stops (0 if every answer was complete, 10 if any response was
degraded) and speaks the same contract over HTTP status codes: 200
complete, 206 partial (degraded, with the degradation report in the
body), 429 shed under load (with Retry-After), 503 draining, 504
deadline exceeded mid-query.

`serve` exposes the store read-only over HTTP/1.1: GET /query (the
`store query` options as keys from, to, value_lo, value_hi, mean_lo,
mean_hi and agg, with agg defaulting to mean as in the CLI; plus
mode=strict|degraded and deadline_ms; other keys are ignored),
/healthz, /readyz (503 while draining), and /metrics (Prometheus text
from the telemetry registry). With --max-requests N it drains itself
after N connections and prints final server stats — handy for smoke
tests; otherwise it runs until killed.

`telemetry` runs a store query with metric recording forced on and dumps
the registry snapshot to stdout — JSON by default, Prometheus text with
--format prom (the query's JSON answer goes to stderr). The same
metrics are available in any run through BLAZR_TELEMETRY=counters|spans.";

/// How a store-health-aware command found the data, mapped to a distinct
/// process exit code so scripts can branch: `Clean` → 0, `Degraded` → 10
/// (an answer was produced, but without some chunks), `Corrupt` → 20
/// (nothing usable). Commands that cannot observe damage return `Clean`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Everything read back intact.
    Clean,
    /// The command succeeded but had to skip damaged data.
    Degraded,
    /// The store is damaged beyond what salvage can recover.
    Corrupt,
}

pub fn run(argv: &[String]) -> Result<Outcome, String> {
    let Some(cmd) = argv.first() else {
        return Err("no subcommand given".into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "compress" => compress_cmd(rest).map(|()| Outcome::Clean),
        "decompress" => decompress_cmd(rest).map(|()| Outcome::Clean),
        "info" => info_cmd(rest).map(|()| Outcome::Clean),
        "stats" => stats_cmd(rest).map(|()| Outcome::Clean),
        "diff" => diff_cmd(rest).map(|()| Outcome::Clean),
        "tune" => tune_cmd(rest).map(|()| Outcome::Clean),
        "store" => store_cmd(rest),
        "serve" => serve_cmd(rest),
        "telemetry" => telemetry_cmd(rest),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(Outcome::Clean)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The codec options `compress` and `store ingest` read through
/// [`build_settings`] and their `--float`/`--index` choice.
const CODEC_OPTIONS: &[&str] = &["float", "index", "block", "transform", "keep"];

/// The query options `store query` and `telemetry` read through
/// [`query_of`]: the store's [`blazr_store::Query::KEYS`] with `_`
/// spelled `-`.
const QUERY_OPTIONS: &[&str] = &[
    "from", "to", "value-lo", "value-hi", "mean-lo", "mean-hi", "agg",
];

fn build_settings(args: &Args, ndim: usize) -> Result<Settings, String> {
    let block = match args.option("block") {
        Some(b) => parse_shape(b)?,
        None => vec![8; ndim],
    };
    let mut settings = Settings::new(block.clone()).map_err(|e| e.to_string())?;
    if let Some(t) = args.option("transform") {
        settings = settings.with_transform(parse_transform(t)?);
    }
    if let Some(k) = args.option("keep") {
        let kept: usize = k.parse().map_err(|e| format!("bad --keep: {e}"))?;
        let mask = PruningMask::keep_lowest_frequencies(&block, kept).map_err(|e| e.to_string())?;
        settings = settings.with_mask(mask).map_err(|e| e.to_string())?;
    }
    Ok(settings)
}

fn compress_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[&["shape", "output"], CODEC_OPTIONS].concat(), &[])?;
    let input = args
        .positionals
        .first()
        .ok_or("compress needs an input file")?;
    let shape = parse_shape(args.require("shape")?)?;
    let out = args.require("output")?;
    let ft = match args.option("float") {
        Some(f) => parse_float_type(f)?,
        None => ScalarType::F32,
    };
    let it = match args.option("index") {
        Some(i) => parse_index_type(i)?,
        None => IndexType::I16,
    };
    let a = read_f64(Path::new(input), &shape)?;
    let settings = build_settings(&args, shape.len())?;
    let c = compress_dyn(&a, &settings, ft, it).map_err(|e| e.to_string())?;
    let bytes = c.to_bytes();
    fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "{} -> {} ({} bytes, ratio {:.2}x vs f64, {} scales, {} indices)",
        input,
        out,
        bytes.len(),
        c.compression_ratio(),
        ft.name(),
        it.name()
    );
    Ok(())
}

fn decompress_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["output"], &[])?;
    let input = args
        .positionals
        .first()
        .ok_or("decompress needs an input file")?;
    let out = args.require("output")?;
    let bytes = fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let c = from_bytes_dyn(&bytes).map_err(|e| e.to_string())?;
    let a = c.decompress();
    write_f64(Path::new(out), &a)?;
    println!(
        "{} -> {} (shape {:?}, {} elements)",
        input,
        out,
        a.shape(),
        a.len()
    );
    Ok(())
}

fn load_compressed(path: &str) -> Result<blazr::dynamic::DynCompressed, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    from_bytes_dyn(&bytes).map_err(|e| e.to_string())
}

fn info_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[], &[])?;
    let input = args.positionals.first().ok_or("info needs an input file")?;
    let c = load_compressed(input)?;
    println!("file          : {input}");
    println!("shape         : {:?}", c.shape());
    println!("float type    : {}", c.float_type().name());
    println!("index type    : {}", c.index_type().name());
    println!("payload       : {} bits", c.payload_bits());
    println!("ratio vs f64  : {:.3}x", c.compression_ratio());
    Ok(())
}

fn stats_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[], &[])?;
    let input = args
        .positionals
        .first()
        .ok_or("stats needs an input file")?;
    let c = load_compressed(input)?;
    println!("mean      : {}", fmt_res(c.mean()));
    println!("variance  : {}", fmt_res(c.variance()));
    println!("l2 norm   : {:.9e}", c.l2_norm());
    Ok(())
}

fn fmt_res(r: Result<f64, blazr::BlazError>) -> String {
    match r {
        Ok(v) => format!("{v:.9e}"),
        Err(e) => format!("(unavailable: {e})"),
    }
}

fn diff_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["wasserstein-p"], &[])?;
    let (a_path, b_path) = match &args.positionals[..] {
        [a, b] => (a, b),
        _ => return Err("diff needs exactly two compressed files".into()),
    };
    let p: f64 = match args.option("wasserstein-p") {
        Some(v) => v.parse().map_err(|e| format!("bad --wasserstein-p: {e}"))?,
        None => 2.0,
    };
    let a = load_compressed(a_path)?;
    let b = load_compressed(b_path)?;
    let diff = a.sub(&b).map_err(|e| e.to_string())?;
    // A bad order is a usage error; other failures (no DC coefficient)
    // print as "unavailable" like the rest of the report.
    let wasserstein = match a.wasserstein(&b, p) {
        Err(e @ blazr::BlazError::InvalidArgument(_)) => return Err(e.to_string()),
        r => r,
    };
    println!("l2 distance        : {:.9e}", diff.l2_norm());
    println!("cosine similarity  : {}", fmt_res(a.cosine_similarity(&b)));
    println!(
        "ssim               : {}",
        fmt_res(a.ssim(&b, &SsimParams::default()))
    );
    println!("wasserstein (p={p}) : {}", fmt_res(wasserstein));
    println!(
        "approx Linf distance: {}",
        fmt_res(a.approx_linf_distance(&b))
    );
    Ok(())
}

fn tune_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["shape", "target-linf"], &[])?;
    let input = args.positionals.first().ok_or("tune needs an input file")?;
    let shape = parse_shape(args.require("shape")?)?;
    let target: f64 = args
        .require("target-linf")?
        .parse()
        .map_err(|e| format!("bad --target-linf: {e}"))?;
    let a = read_f64(Path::new(input), &shape)?;
    match tune_for_linf(&a, target, &TuneOptions::default()) {
        Some(r) => {
            println!("target L∞        : {target:.3e}");
            println!("achieved L∞      : {:.3e}", r.achieved_linf);
            println!("ratio vs f64     : {:.2}x", r.ratio);
            println!("float type       : {}", r.float_type.name());
            println!("index type       : {}", r.index_type.name());
            println!("block shape      : {:?}", r.settings.block_shape);
            println!("kept coefficients: {}", r.settings.mask.kept_count());
            println!("candidates tried : {}", r.candidates_tried);
            Ok(())
        }
        None => Err(format!("no setting meets L∞ ≤ {target:e}")),
    }
}

fn store_cmd(argv: &[String]) -> Result<Outcome, String> {
    let Some(sub) = argv.first() else {
        return Err("store needs a subcommand: ingest, query, stat, verify, or repair".into());
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "ingest" => store_ingest_cmd(rest).map(|()| Outcome::Clean),
        "query" => store_query_cmd(rest),
        "stat" => store_stat_cmd(rest).map(|()| Outcome::Clean),
        "verify" => store_verify_cmd(rest),
        "repair" => store_repair_cmd(rest),
        other => Err(format!("unknown store subcommand {other:?}")),
    }
}

fn store_ingest_cmd(argv: &[String]) -> Result<(), String> {
    use blazr_store::StoreWriter;
    let args = Args::parse(
        argv,
        &[&["shape", "chunk-rows", "output"], CODEC_OPTIONS].concat(),
        &[],
    )?;
    let input = args
        .positionals
        .first()
        .ok_or("store ingest needs an input file")?;
    let shape = parse_shape(args.require("shape")?)?;
    let out = args.require("output")?;
    let chunk_rows: usize = args
        .require("chunk-rows")?
        .parse()
        .map_err(|e| format!("bad --chunk-rows: {e}"))?;
    if chunk_rows == 0 {
        return Err("--chunk-rows must be positive".into());
    }
    let ft = match args.option("float") {
        Some(f) => parse_float_type(f)?,
        None => ScalarType::F32,
    };
    let it = match args.option("index") {
        Some(i) => parse_index_type(i)?,
        None => IndexType::I16,
    };
    let a = read_f64(Path::new(input), &shape)?;
    let settings = build_settings(&args, shape.len())?;
    let mut writer = StoreWriter::create(out, settings, ft, it).map_err(|e| e.to_string())?;
    // Split along axis 0: chunk k covers rows [k·R, min((k+1)·R, D)) and
    // is labeled by its start row. Rows are contiguous in row-major order.
    let row_len: usize = shape[1..].iter().product();
    let rows = shape[0];
    let data = a.as_slice();
    let mut start = 0usize;
    while start < rows {
        let end = (start + chunk_rows).min(rows);
        let mut chunk_shape = shape.clone();
        chunk_shape[0] = end - start;
        let chunk = blazr_tensor::NdArray::from_vec(
            chunk_shape,
            data[start * row_len..end * row_len].to_vec(),
        );
        writer
            .append(start as u64, &chunk)
            .map_err(|e| e.to_string())?;
        start = end;
    }
    let chunks = writer.len();
    writer.finish().map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(out)
        .map_err(|e| format!("cannot stat {out}: {e}"))?
        .len();
    let raw = (rows * row_len * 8) as f64;
    println!(
        "{input} -> {out} ({chunks} chunks of ≤{chunk_rows} rows, {bytes} bytes, \
         ratio {:.2}x vs f64, {} scales, {} indices)",
        raw / bytes as f64,
        ft.name(),
        it.name()
    );
    Ok(())
}

/// The query that the `store query` / `telemetry` options spell, read
/// through the store's one parser, [`blazr_store::Query::parse`].
fn query_of(args: &Args) -> Result<blazr_store::Query, String> {
    blazr_store::Query::parse(|key| args.option(&key.replace('_', "-"))).map_err(|e| e.to_string())
}

/// Opens a store for a read command, salvaging on a damaged footer when
/// `tolerate` is set. `Ok(None)` means "hopelessly corrupt": the reason
/// was printed to stderr and the command should exit with
/// [`Outcome::Corrupt`]. A salvaged-but-incomplete footer bumps the
/// baseline outcome to `Degraded`.
fn open_tolerant(
    input: &str,
    tolerate: bool,
) -> Result<Option<(blazr_store::Store, Outcome)>, String> {
    use blazr_store::{Store, StoreError};
    match Store::open(input) {
        Ok(s) => Ok(Some((s, Outcome::Clean))),
        Err(StoreError::Corrupt(reason)) if tolerate => match Store::open_salvage(input) {
            Ok((s, rep)) => {
                eprintln!(
                    "{input}: footer damaged ({reason}); salvaged {} chunks ({} damaged)",
                    rep.recovered, rep.damaged
                );
                Ok(Some((s, Outcome::Degraded)))
            }
            Err(e) => {
                eprintln!("{input}: corrupt beyond salvage: {e}");
                Ok(None)
            }
        },
        Err(e @ StoreError::Corrupt(_)) => {
            eprintln!(
                "{input}: {e} (try `store query --degraded`, `store verify`, or `store repair`)"
            );
            Ok(None)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Runs a query for `store query` and `telemetry`. `Ok(None)` means a
/// damaged chunk was hit mid-query: the reason and the degraded-mode hint
/// were printed to stderr, and the command should exit with
/// [`Outcome::Corrupt`] rather than fail as a usage error.
fn run_query(
    store: &blazr_store::Store,
    input: &str,
    q: &blazr_store::Query,
    opts: &blazr_store::QueryOptions,
) -> Result<Option<(blazr_store::QueryResult, blazr_store::DegradationReport)>, String> {
    match store.run(q, opts) {
        Ok(answer) => Ok(Some(answer)),
        Err(e @ blazr_store::StoreError::Corrupt(_)) => {
            eprintln!("{input}: {e} (rerun `store query` with --degraded to skip damaged chunks)");
            Ok(None)
        }
        Err(e) => Err(e.to_string()),
    }
}

fn store_query_cmd(argv: &[String]) -> Result<Outcome, String> {
    let (out, outcome) = store_query_output(argv)?;
    print!("{out}");
    Ok(outcome)
}

/// `store query`'s stdout and exit outcome. The stdout is the JSON body
/// GET /query answers with, strict or `--degraded`; it is empty when the
/// store is corrupt (the reason goes to stderr).
fn store_query_output(argv: &[String]) -> Result<(String, Outcome), String> {
    use blazr_store::{encode_query_body, QueryOptions};
    let args = Args::parse(argv, QUERY_OPTIONS, &["full-scan", "degraded"])?;
    let input = args
        .positionals
        .first()
        .ok_or("store query needs a store file")?;
    let q = query_of(&args)?;
    let opts = QueryOptions {
        full_scan: args.has_flag("full-scan"),
        degraded: args.has_flag("degraded"),
        cancel: None,
    };
    if opts.degraded && opts.full_scan {
        return Err("store query: --degraded and --full-scan cannot be combined".into());
    }
    let Some((store, outcome)) = open_tolerant(input, opts.degraded)? else {
        return Ok((String::new(), Outcome::Corrupt));
    };
    let Some((r, report)) = run_query(&store, input, &q, &opts)? else {
        return Ok((String::new(), Outcome::Corrupt));
    };
    let outcome = if report.is_degraded() {
        Outcome::Degraded
    } else {
        outcome
    };
    Ok((encode_query_body(&r, &report), outcome))
}

/// `blazr serve`: expose a store read-only over HTTP/1.1 with bounded
/// concurrency, per-request deadlines, load shedding, and degraded-mode
/// answers. A damaged footer is salvaged before serving. Runs until
/// killed unless `--max-requests` makes it drain itself, in which case
/// final server stats are printed and the usual clean/degraded exit
/// taxonomy applies to what was served.
fn serve_cmd(argv: &[String]) -> Result<Outcome, String> {
    use blazr_serve::{ServeConfig, Server, TcpTransport};
    let args = Args::parse(
        argv,
        &["addr", "workers", "queue", "deadline-ms", "max-requests"],
        &[],
    )?;
    let input = args.positionals.first().ok_or("serve needs a store file")?;
    let mut cfg = ServeConfig::default();
    if let Some(w) = args.option("workers") {
        cfg.workers = w.parse().map_err(|e| format!("bad --workers: {e}"))?;
    }
    if let Some(q) = args.option("queue") {
        cfg.queue_capacity = q.parse().map_err(|e| format!("bad --queue: {e}"))?;
    }
    if let Some(d) = args.option("deadline-ms") {
        let ms: u64 = d.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?;
        cfg.deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = args.option("max-requests") {
        let n: u64 = n.parse().map_err(|e| format!("bad --max-requests: {e}"))?;
        cfg.max_requests = Some(n);
    }
    let Some((store, outcome)) = open_tolerant(input, true)? else {
        return Ok(Outcome::Corrupt);
    };
    // /metrics serves the telemetry registry; without counters it would
    // always be empty, so default the mode up (BLAZR_TELEMETRY=spans
    // still wins — counters_enabled is true there too).
    if !tel::counters_enabled() {
        tel::set_mode(tel::Mode::Counters);
    }
    let addr = args.option("addr").unwrap_or("127.0.0.1:0");
    let listener = TcpTransport::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let server = Server::start(store, Box::new(listener), cfg).map_err(|e| e.to_string())?;
    println!("serving {} on http://{}", input, server.local_addr());
    let stats = server.join();
    println!(
        "served {} requests: {} shed, {} drain rejects, {} deadline hits, \
         {} degraded, {} panics",
        stats.served,
        stats.shed,
        stats.drain_rejects,
        stats.deadline_hits,
        stats.degraded,
        stats.panics
    );
    if stats.degraded > 0 && outcome == Outcome::Clean {
        return Ok(Outcome::Degraded);
    }
    Ok(outcome)
}

/// `blazr store verify`: deep-scan every chunk (checksum, full decode,
/// and the footer zone map checked against the payload) and print
/// per-chunk verdicts. A damaged footer is salvaged from chunk
/// preambles first, so the verdict list covers whatever is recoverable.
fn store_verify_cmd(argv: &[String]) -> Result<Outcome, String> {
    use blazr_store::{Store, StoreError, ZoneMap};
    let args = Args::parse(argv, &[], &["json"])?;
    let input = args
        .positionals
        .first()
        .ok_or("store verify needs a store file")?;
    let json = args.has_flag("json");
    let (store, salvage) = match Store::open(input) {
        Ok(s) => (s, None),
        Err(StoreError::Corrupt(reason)) => match Store::open_salvage(input) {
            Ok((s, rep)) => (s, Some((reason, rep))),
            Err(e) => {
                if json {
                    println!(
                        "{{\n  \"file\": \"{}\",\n  \"outcome\": \"corrupt\",\n  \
                         \"error\": \"{}\"\n}}",
                        escape_json(input),
                        escape_json(&e.to_string())
                    );
                } else {
                    eprintln!("{input}: corrupt beyond salvage: {e}");
                }
                return Ok(Outcome::Corrupt);
            }
        },
        Err(e) => return Err(e.to_string()),
    };
    // Deep scan: every chunk is checksummed and fully decoded, and its
    // zone map recomputed. The footer zone map only tells us what the
    // writer *claimed*, and queries answer from it, so a verdict requires
    // reading the payload back and matching the index bit for bit.
    let mut verdicts: Vec<(u64, u64, Option<String>)> = Vec::with_capacity(store.len());
    let mut bad = 0usize;
    for (i, e) in store.entries().iter().enumerate() {
        let verdict = store
            .chunk(i)
            .and_then(|c| ZoneMap::of_dyn(&c).map_err(StoreError::from))
            .map_err(|err| err.to_string())
            .and_then(|zone| {
                if zone.to_bits() == e.zone.to_bits() {
                    Ok(())
                } else {
                    Err("zone map disagrees with payload".to_string())
                }
            });
        if verdict.is_err() {
            bad += 1;
        }
        verdicts.push((e.label, e.zone.stats.count, verdict.err()));
    }
    let footer_intact = salvage.is_none();
    let damaged_preambles = salvage.as_ref().map_or(0, |(_, rep)| rep.damaged);
    let outcome = if bad == verdicts.len() && !verdicts.is_empty() {
        Outcome::Corrupt
    } else if !footer_intact || bad > 0 || damaged_preambles > 0 {
        Outcome::Degraded
    } else {
        Outcome::Clean
    };
    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"file\": \"{}\",\n", escape_json(input)));
        out.push_str(&format!(
            "  \"outcome\": \"{}\",\n",
            match outcome {
                Outcome::Clean => "clean",
                Outcome::Degraded => "degraded",
                Outcome::Corrupt => "corrupt",
            }
        ));
        out.push_str(&format!("  \"footer_intact\": {footer_intact},\n"));
        out.push_str(&format!("  \"damaged_regions\": {damaged_preambles},\n"));
        out.push_str(&format!(
            "  \"chunks_ok\": {},\n  \"chunks_bad\": {bad},\n",
            verdicts.len() - bad
        ));
        out.push_str("  \"chunks\": [");
        for (i, (label, rows, err)) in verdicts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            match err {
                None => out.push_str(&format!(
                    "{sep}\n    {{\"label\": {label}, \"rows\": {rows}, \"ok\": true}}"
                )),
                Some(e) => out.push_str(&format!(
                    "{sep}\n    {{\"label\": {label}, \"rows\": {rows}, \"ok\": false, \
                     \"error\": \"{}\"}}",
                    escape_json(e)
                )),
            }
        }
        out.push_str("\n  ]\n}");
        println!("{out}");
    } else {
        println!("file           : {input}");
        match &salvage {
            None => println!("footer         : intact"),
            Some((reason, rep)) => {
                println!("footer         : DAMAGED ({reason})");
                println!(
                    "salvage        : {} chunks recovered, {} damaged regions skipped",
                    rep.recovered, rep.damaged
                );
            }
        }
        for (label, rows, err) in &verdicts {
            match err {
                None => println!("chunk {label:>5}    : ok ({rows} rows)"),
                Some(e) => println!("chunk {label:>5}    : BAD ({e})"),
            }
        }
        println!(
            "verdict        : {} ({}/{} chunks ok)",
            match outcome {
                Outcome::Clean => "clean",
                Outcome::Degraded => "degraded",
                Outcome::Corrupt => "corrupt",
            },
            verdicts.len() - bad,
            verdicts.len()
        );
    }
    Ok(outcome)
}

/// `blazr store repair`: rewrite a clean store from every salvageable
/// chunk. Output goes through the same atomic temp-file + rename ingest
/// path as `store ingest`, so a crash mid-repair never leaves garbage at
/// the destination.
fn store_repair_cmd(argv: &[String]) -> Result<Outcome, String> {
    use blazr_store::{Store, StoreError, StoreWriter};
    let args = Args::parse(argv, &["output"], &[])?;
    let input = args
        .positionals
        .first()
        .ok_or("store repair needs a store file")?;
    let out = args.require("output")?;
    let (store, rep) = match Store::open_salvage(input) {
        Ok(x) => x,
        Err(e @ StoreError::Corrupt(_)) => {
            eprintln!("{input}: corrupt beyond salvage: {e}");
            return Ok(Outcome::Corrupt);
        }
        Err(e) => return Err(e.to_string()),
    };
    // Decode every chunk, keeping the survivors; a chunk that passed the
    // salvage checksum can still fail its own header validation, so the
    // rewrite re-verifies by full decode.
    let mut good: Vec<(u64, blazr::dynamic::DynCompressed)> = Vec::with_capacity(store.len());
    let mut dropped = 0usize;
    for i in 0..store.len() {
        let label = store.entries()[i].label;
        match store.chunk(i) {
            Ok(c) => good.push((label, c)),
            Err(e) => {
                dropped += 1;
                eprintln!("dropping chunk {label}: {e}");
            }
        }
    }
    let Some((_, first)) = good.first() else {
        eprintln!("{input}: no chunks survived the deep scan; nothing to repair");
        return Ok(Outcome::Corrupt);
    };
    let mut w = StoreWriter::create(
        out,
        first.settings().clone(),
        first.float_type(),
        first.index_type(),
    )
    .map_err(|e| e.to_string())?;
    for (label, c) in &good {
        w.append_dyn(*label, c).map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())?;
    let lost = dropped + usize::try_from(rep.damaged).unwrap_or(usize::MAX);
    println!(
        "{input} -> {out}: {} chunks rewritten, {lost} lost (footer was {})",
        good.len(),
        if rep.footer_intact {
            "intact"
        } else {
            "damaged"
        }
    );
    Ok(if rep.footer_intact && lost == 0 {
        Outcome::Clean
    } else {
        Outcome::Degraded
    })
}

/// `blazr telemetry`: run a store query with metric recording forced on
/// and dump the registry snapshot to stdout (the query's JSON answer goes
/// to stderr, keeping stdout one machine-parseable document). A corrupt
/// store exits as `store query` does: [`Outcome::Corrupt`], with the
/// same hint on stderr and nothing on stdout.
fn telemetry_cmd(argv: &[String]) -> Result<Outcome, String> {
    use blazr_store::{encode_query_body, QueryOptions};
    let args = Args::parse(
        argv,
        &[QUERY_OPTIONS, &["mode", "format"]].concat(),
        &["full-scan"],
    )?;
    let input = args
        .positionals
        .first()
        .ok_or("telemetry needs a store file")?;
    let mode = match args.option("mode").unwrap_or("spans") {
        "counters" => tel::Mode::Counters,
        "spans" => tel::Mode::Spans,
        other => return Err(format!("unknown --mode {other:?} (want counters|spans)")),
    };
    let format = args.option("format").unwrap_or("json");
    if !matches!(format, "json" | "prom" | "prometheus") {
        return Err(format!("unknown --format {format:?} (want json|prom)"));
    }
    tel::set_mode(mode);
    let q = query_of(&args)?;
    let Some((store, _)) = open_tolerant(input, false)? else {
        return Ok(Outcome::Corrupt);
    };
    let opts = QueryOptions {
        full_scan: args.has_flag("full-scan"),
        ..QueryOptions::default()
    };
    let Some((r, report)) = run_query(&store, input, &q, &opts)? else {
        return Ok(Outcome::Corrupt);
    };
    eprint!("{}", encode_query_body(&r, &report));
    let snap = tel::registry().snapshot();
    match format {
        "json" => print!("{}", snap.to_json()),
        _ => print!("{}", snap.to_prometheus()),
    }
    Ok(Outcome::Clean)
}

fn store_stat_cmd(argv: &[String]) -> Result<(), String> {
    use blazr_store::Store;
    let args = Args::parse(argv, &[], &["json"])?;
    let input = args
        .positionals
        .first()
        .ok_or("store stat needs a store file")?;
    let store = Store::open(input).map_err(|e| e.to_string())?;
    if args.has_flag("json") {
        println!("{}", store_stat_json(input, &store)?);
        return Ok(());
    }
    println!("file           : {input}");
    println!("format         : {}", blazr_store::format::FORMAT_NAME);
    println!("backing        : {}", store.backing_kind());
    if store.mmap_fell_back() {
        println!("note           : mmap failed at open; using positional reads");
    }
    println!("chunks         : {}", store.len());
    println!("file bytes     : {}", store.file_bytes());
    println!("payload bytes  : {}", store.payload_bytes());
    match store.chunk_types() {
        Some((ft, it)) => println!("chunk types    : {} scales, {} indices", ft, it),
        None => println!("chunk types    : (empty store)"),
    }
    if !store.is_empty() {
        // Per-coder chunk counts from the footer, and the realized
        // entropy-coding win: actual payload bytes vs what the same
        // chunks would cost in the paper's fixed-width layout (from a
        // verified header peek per chunk — no full payload decode).
        let mut counts = std::collections::BTreeMap::new();
        for e in store.entries() {
            *counts.entry(e.coder.name()).or_insert(0usize) += 1;
        }
        let coders: Vec<String> = counts.iter().map(|(n, c)| format!("{n}×{c}")).collect();
        println!("coders         : {}", coders.join(", "));
        let mut fixed_bits = 0u64;
        for i in 0..store.len() {
            fixed_bits += store
                .chunk_info(i)
                .map_err(|e| e.to_string())?
                .fixed_width_bits();
        }
        let fixed_bytes = fixed_bits.div_ceil(8);
        println!(
            "coding ratio   : {:.3}x vs fixed-width ({} -> {} payload bytes)",
            fixed_bytes as f64 / store.payload_bytes() as f64,
            fixed_bytes,
            store.payload_bytes()
        );
    }
    if !store.is_empty() {
        println!("label          min          max         mean      l2        ±linf");
        for e in store.entries() {
            println!("{}", zone_row(e));
        }
    }
    Ok(())
}

/// One chunk's row of the `store stat` zone-map table.
fn zone_row(e: &blazr_store::IndexEntry) -> String {
    format!(
        "{:>5}  {:>11.4e}  {:>11.4e}  {:>11.4e}  {:>8.3e}  {:>8.2e}",
        e.label,
        e.zone.stats.min_bound,
        e.zone.stats.max_bound,
        e.zone.mean(),
        e.zone.stats.l2_norm(),
        e.zone.bounds.linf
    )
}

/// `store stat --json`: the same index accounting as the text form, as
/// one JSON object (hand-rolled — the workspace takes no external
/// dependencies).
fn store_stat_json(input: &str, store: &blazr_store::Store) -> Result<String, String> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"file\": \"{}\",\n", escape_json(input)));
    out.push_str(&format!(
        "  \"format\": \"{}\",\n",
        blazr_store::format::FORMAT_NAME
    ));
    out.push_str(&format!("  \"backing\": \"{}\",\n", store.backing_kind()));
    out.push_str(&format!(
        "  \"mmap_fell_back\": {},\n",
        store.mmap_fell_back()
    ));
    out.push_str(&format!("  \"chunks\": {},\n", store.len()));
    out.push_str(&format!("  \"file_bytes\": {},\n", store.file_bytes()));
    out.push_str(&format!(
        "  \"payload_bytes\": {},\n",
        store.payload_bytes()
    ));
    match store.chunk_types() {
        Some((ft, it)) => out.push_str(&format!(
            "  \"float_type\": \"{ft}\",\n  \"index_type\": \"{it}\",\n"
        )),
        None => out.push_str("  \"float_type\": null,\n  \"index_type\": null,\n"),
    }
    let mut counts = std::collections::BTreeMap::new();
    let mut fixed_bits = 0u64;
    for (i, e) in store.entries().iter().enumerate() {
        *counts.entry(e.coder.name()).or_insert(0usize) += 1;
        fixed_bits += store
            .chunk_info(i)
            .map_err(|e| e.to_string())?
            .fixed_width_bits();
    }
    let coders: Vec<String> = counts
        .iter()
        .map(|(n, c)| format!("\"{n}\": {c}"))
        .collect();
    out.push_str(&format!("  \"coders\": {{{}}},\n", coders.join(", ")));
    out.push_str(&format!(
        "  \"fixed_width_bytes\": {},\n",
        fixed_bits.div_ceil(8)
    ));
    out.push_str("  \"zones\": [");
    for (i, e) in store.entries().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!(
            "{sep}\n    {{\"label\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
             \"l2\": {}, \"linf\": {}}}",
            e.label,
            json_f64(e.zone.stats.min_bound),
            json_f64(e.zone.stats.max_bound),
            json_f64(e.zone.mean()),
            json_f64(e.zone.stats.l2_norm()),
            json_f64(e.zone.bounds.linf),
        ));
    }
    out.push_str("\n  ]\n}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazr_tensor::NdArray;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("blazr-cli-cmd-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Ingests a 4-chunk store (8 rows of 8 per chunk, labels 0, 8, 16,
    /// 24; row `r` holds the value `r`) and returns its path.
    fn ingest_four_chunks(name: &str) -> std::path::PathBuf {
        let raw = tmp(&format!("{name}.f64"));
        let blzs = tmp(&format!("{name}.blzs"));
        write_f64(&raw, &NdArray::from_fn(vec![32, 8], |i| i[0] as f64)).unwrap();
        run(&sv(&[
            "store",
            "ingest",
            raw.to_str().unwrap(),
            "--shape",
            "32x8",
            "--chunk-rows",
            "8",
            "--block",
            "8x8",
            "-o",
            blzs.to_str().unwrap(),
        ]))
        .unwrap();
        blzs
    }

    #[test]
    fn full_cli_pipeline() {
        // compress → info → stats → decompress → diff on real files.
        let raw = tmp("a.f64");
        let blz = tmp("a.blz");
        let back = tmp("a_back.f64");
        let a = NdArray::from_fn(vec![24, 24], |i| {
            (i[0] as f64 / 5.0).sin() + i[1] as f64 * 0.01
        });
        write_f64(&raw, &a).unwrap();

        run(&sv(&[
            "compress",
            raw.to_str().unwrap(),
            "--shape",
            "24x24",
            "--block",
            "8x8",
            "-o",
            blz.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&["info", blz.to_str().unwrap()])).unwrap();
        run(&sv(&["stats", blz.to_str().unwrap()])).unwrap();
        run(&sv(&[
            "decompress",
            blz.to_str().unwrap(),
            "-o",
            back.to_str().unwrap(),
        ]))
        .unwrap();
        let d = read_f64(&back, &[24, 24]).unwrap();
        let err = blazr_util::stats::max_abs_diff(a.as_slice(), d.as_slice());
        assert!(err < 1e-3, "roundtrip err {err}");

        run(&sv(&["diff", blz.to_str().unwrap(), blz.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn compress_with_all_options() {
        let raw = tmp("b.f64");
        let blz = tmp("b.blz");
        let a = NdArray::from_fn(vec![16, 16], |i| i[0] as f64 - i[1] as f64);
        write_f64(&raw, &a).unwrap();
        run(&sv(&[
            "compress",
            raw.to_str().unwrap(),
            "--shape",
            "16x16",
            "--block",
            "4x4",
            "--float",
            "f64",
            "--index",
            "i8",
            "--transform",
            "haar",
            "--keep",
            "8",
            "-o",
            blz.to_str().unwrap(),
        ]))
        .unwrap();
        let c = load_compressed(blz.to_str().unwrap()).unwrap();
        assert_eq!(c.float_type(), ScalarType::F64);
        assert_eq!(c.index_type(), IndexType::I8);
    }

    #[test]
    fn tune_command_finds_settings() {
        let raw = tmp("c.f64");
        let a = NdArray::from_fn(vec![32, 32], |i| (i[0] as f64 / 9.0).sin());
        write_f64(&raw, &a).unwrap();
        run(&sv(&[
            "tune",
            raw.to_str().unwrap(),
            "--shape",
            "32x32",
            "--target-linf",
            "1e-3",
        ]))
        .unwrap();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&sv(&["frobnicate"])).is_err());
        assert!(run(&sv(&["compress"])).is_err());
        assert!(run(&sv(&["diff", "only-one.blz"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&sv(&["help"])).is_ok());

        // A Wasserstein order below 1, or NaN, is a usage error (exit 1),
        // not a panic.
        let compressed = |name: &str, a: &NdArray<f64>, float: &str| {
            let raw = tmp(&format!("{name}.f64"));
            let blz = tmp(&format!("{name}.blz"));
            write_f64(&raw, a).unwrap();
            run(&sv(&[
                "compress",
                raw.to_str().unwrap(),
                "--shape",
                &format!("{}x{}", a.shape()[0], a.shape()[1]),
                "--block",
                "8x8",
                "--float",
                float,
                "--index",
                "i16",
                "-o",
                blz.to_str().unwrap(),
            ]))
            .unwrap();
            blz.to_str().unwrap().to_string()
        };
        let a = compressed(
            "wp_a",
            &NdArray::from_fn(vec![16, 16], |i| i[0] as f64),
            "f32",
        );
        let b = compressed(
            "wp_b",
            &NdArray::from_fn(vec![16, 16], |i| i[1] as f64),
            "f32",
        );
        for p in ["0.5", "nan"] {
            let err = run(&sv(&["diff", &a, &b, "--wasserstein-p", p])).unwrap_err();
            assert!(err.contains("must be >= 1"), "p={p}: {err}");
        }
        assert!(run(&sv(&["diff", &a, &b, "--wasserstein-p", "1"])).is_ok());
        // NaN block means (f16 overflow) print NaN distances, no panic.
        let hot = NdArray::from_fn(vec![8, 16], |i| if i[1] < 8 { 60000.0 } else { 1.0 });
        let hot = compressed("wp_hot", &hot, "f16");
        let ones = compressed("wp_ones", &NdArray::full(vec![8, 16], 1.0), "f16");
        assert!(run(&sv(&["diff", &hot, &ones])).is_ok());
    }

    #[test]
    fn store_cli_pipeline() {
        // ingest → stat → query (pruned and full scan agree; the range
        // predicate prunes at least one chunk of the row ramp).
        let raw = tmp("series.f64");
        let blzs = tmp("series.blzs");
        // 64 rows ramping 0..64 by row: chunks of 16 rows span disjoint
        // value ranges, so a [40, 50] predicate keeps only chunk 2 (rows
        // 32..48) and its neighbors' zone maps prune the rest.
        let a = NdArray::from_fn(vec![64, 16], |i| i[0] as f64 + (i[1] as f64) * 0.01);
        write_f64(&raw, &a).unwrap();
        run(&sv(&[
            "store",
            "ingest",
            raw.to_str().unwrap(),
            "--shape",
            "64x16",
            "--chunk-rows",
            "16",
            "--block",
            "8x8",
            "-o",
            blzs.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&["store", "stat", blzs.to_str().unwrap()])).unwrap();
        run(&sv(&[
            "store",
            "query",
            blzs.to_str().unwrap(),
            "--value-lo",
            "40",
            "--value-hi",
            "50",
            "--agg",
            "mean",
        ]))
        .unwrap();
        run(&sv(&[
            "store",
            "query",
            blzs.to_str().unwrap(),
            "--from",
            "16",
            "--to",
            "47",
            "--agg",
            "sum",
            "--full-scan",
        ]))
        .unwrap();

        // The library-level views agree with what the CLI just did.
        let store = blazr_store::Store::open(&blzs).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.labels(), vec![0, 16, 32, 48]);
        let q = blazr_store::Query {
            from_label: 0,
            to_label: u64::MAX,
            predicate: Some(blazr_store::Predicate::ValueInRange { lo: 40.0, hi: 50.0 }),
            aggregate: blazr_store::Aggregate::Mean,
        };
        let pruned = store.query(&q).unwrap();
        let full = store.query_full_scan(&q).unwrap();
        assert!(pruned.chunks_pruned >= 1);
        assert_eq!(pruned.value.to_bits(), full.value.to_bits());
        assert_eq!(pruned.matched_labels, full.matched_labels);
    }

    /// A chunk with an overflowed f16 block (8×8 of 60000s; its DC does
    /// not fit in f16) prints the envelope `-inf`/`inf`, not a finite
    /// hull that leaves the block out.
    #[test]
    fn store_stat_prints_an_overflowed_chunk_as_unbounded() {
        let raw = tmp("overflow.f64");
        let blzs = tmp("overflow.blzs");
        let a = NdArray::from_fn(vec![24, 16], |i| {
            if (8..16).contains(&i[0]) && i[1] >= 8 {
                60000.0
            } else {
                ((i[0] + i[1]) as f64 / 5.0).sin()
            }
        });
        write_f64(&raw, &a).unwrap();
        run(&sv(&[
            "store",
            "ingest",
            raw.to_str().unwrap(),
            "--shape",
            "24x16",
            "--chunk-rows",
            "8",
            "--block",
            "8x8",
            "--float",
            "f16",
            "--index",
            "i16",
            "-o",
            blzs.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&["store", "stat", blzs.to_str().unwrap()])).unwrap();
        let store = blazr_store::Store::open(&blzs).unwrap();
        let rows: Vec<String> = store.entries().iter().map(zone_row).collect();
        let hull = |row: &str| {
            let f: Vec<String> = row.split_whitespace().map(str::to_string).collect();
            (f[1].clone(), f[2].clone())
        };
        assert_eq!(hull(&rows[1]), ("-inf".into(), "inf".into()), "{rows:?}");
        for row in [&rows[0], &rows[2]] {
            let (lo, hi) = hull(row);
            assert!(!lo.contains("inf") && !hi.contains("inf"), "{rows:?}");
        }
    }

    #[test]
    fn store_stat_json_and_telemetry_commands() {
        let blzs = ingest_four_chunks("tele");
        run(&sv(&["store", "stat", blzs.to_str().unwrap(), "--json"])).unwrap();
        // The "file" field is escaped: `\q` is no JSON escape at all, and
        // a raw `\b` would silently decode as a backspace.
        let store = blazr_store::Store::open(&blzs).unwrap();
        let json = store_stat_json("a\\q\\b\"c.blzs", &store).unwrap();
        assert!(json.contains(r#""file": "a\\q\\b\"c.blzs","#), "{json}");
        run(&sv(&[
            "telemetry",
            blzs.to_str().unwrap(),
            "--value-lo",
            "10",
            "--value-hi",
            "20",
        ]))
        .unwrap();
        run(&sv(&[
            "telemetry",
            blzs.to_str().unwrap(),
            "--format",
            "prom",
            "--mode",
            "counters",
        ]))
        .unwrap();
        assert!(run(&sv(&[
            "telemetry",
            blzs.to_str().unwrap(),
            "--format",
            "yaml"
        ]))
        .is_err());
        assert!(run(&sv(&[
            "telemetry",
            blzs.to_str().unwrap(),
            "--mode",
            "loud"
        ]))
        .is_err());
        // The query behind the dump actually recorded store metrics.
        let snap = tel::registry().snapshot();
        assert!(snap.counter("store.queries").unwrap_or(0) >= 2);
        tel::set_mode(tel::Mode::Off);
    }

    #[test]
    fn store_cli_errors_are_reported() {
        assert!(run(&sv(&["store"])).is_err());
        assert!(run(&sv(&["store", "frobnicate"])).is_err());
        assert!(run(&sv(&["store", "ingest"])).is_err());
        assert!(run(&sv(&["store", "query", "/no/such/file.blzs"])).is_err());
        let raw = tmp("tiny.f64");
        write_f64(&raw, &NdArray::from_fn(vec![4, 4], |_| 1.0)).unwrap();
        // Zero chunk rows rejected.
        assert!(run(&sv(&[
            "store",
            "ingest",
            raw.to_str().unwrap(),
            "--shape",
            "4x4",
            "--chunk-rows",
            "0",
            "-o",
            tmp("bad.blzs").to_str().unwrap(),
        ]))
        .is_err());
        // Conflicting predicate families rejected.
        let blzs = tmp("tiny.blzs");
        run(&sv(&[
            "store",
            "ingest",
            raw.to_str().unwrap(),
            "--shape",
            "4x4",
            "--chunk-rows",
            "4",
            "--block",
            "4x4",
            "-o",
            blzs.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(run(&sv(&[
            "store",
            "query",
            blzs.to_str().unwrap(),
            "--value-lo",
            "0",
            "--mean-lo",
            "0",
        ]))
        .is_err());
        // One name per aggregate: `var` and `l2norm` are not aliases.
        for agg in ["median", "var", "l2norm"] {
            assert!(
                run(&sv(&[
                    "store",
                    "query",
                    blzs.to_str().unwrap(),
                    "--agg",
                    agg
                ]))
                .is_err(),
                "--agg {agg}"
            );
        }
        // Inverted predicate bounds rejected.
        assert!(run(&sv(&[
            "store",
            "query",
            blzs.to_str().unwrap(),
            "--value-lo",
            "5",
            "--value-hi",
            "1",
        ]))
        .is_err());
        // A degraded query has no full-scan variant.
        assert!(run(&sv(&[
            "store",
            "query",
            blzs.to_str().unwrap(),
            "--degraded",
            "--full-scan",
        ]))
        .is_err());
        // The server's keys are the CLI's options: `--value-lo` filters.
        assert_eq!(
            run(&sv(&[
                "store",
                "query",
                blzs.to_str().unwrap(),
                "--value-lo",
                "3"
            ]))
            .unwrap(),
            Outcome::Clean
        );
        // Retired and misspelt options fail instead of answering an
        // unfiltered query.
        for argv in [
            &["store", "query", blzs.to_str().unwrap(), "--min", "3"][..],
            &["telemetry", blzs.to_str().unwrap(), "--mni", "0"][..],
            &["store", "stat", blzs.to_str().unwrap(), "--jsno"][..],
        ] {
            let err = run(&sv(argv)).unwrap_err();
            assert!(err.contains("unknown option --"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn query_options_are_the_store_keys() {
        let keys: Vec<String> = blazr_store::Query::KEYS
            .iter()
            .map(|k| k.replace('_', "-"))
            .collect();
        assert_eq!(QUERY_OPTIONS, keys);
    }

    #[test]
    fn cli_options_and_http_params_parse_to_the_same_query() {
        use blazr_serve::http::parse_request;
        let cases: &[(&[&str], &str)] = &[
            (&[], ""),
            (
                &["--from", "16", "--to", "47", "--agg", "sum"],
                "from=16&to=47&agg=sum",
            ),
            (
                &["--value-lo", "-0.5", "--value-hi", "2e3", "--agg", "count"],
                "value_lo=-0.5&value_hi=2e3&agg=count",
            ),
            (&["--mean-lo", "1.5"], "mean_lo=1.5"),
            (&["--mean-hi", "inf", "--agg", "l2"], "mean_hi=inf&agg=l2"),
        ];
        for (argv, params) in cases {
            let args = Args::parse(&sv(argv), QUERY_OPTIONS, &[]).unwrap();
            let cli = query_of(&args).unwrap();
            let head = format!("GET /query?{params} HTTP/1.1\r\n\r\n");
            let req = parse_request(head.as_bytes()).unwrap();
            let http = blazr_store::Query::parse(|k| req.param(k)).unwrap();
            assert_eq!(cli, http, "{argv:?} vs {params:?}");
        }
        // One default aggregate for both front ends.
        let args = Args::parse(&[], QUERY_OPTIONS, &[]).unwrap();
        assert_eq!(
            query_of(&args).unwrap().aggregate,
            blazr_store::Aggregate::Mean
        );
    }

    #[test]
    fn store_verify_repair_and_degraded_query() {
        let blzs = ingest_four_chunks("fault");
        let p = blzs.to_str().unwrap();

        // Pristine store: everything reports clean.
        assert_eq!(run(&sv(&["store", "verify", p])).unwrap(), Outcome::Clean);
        assert_eq!(
            run(&sv(&["store", "verify", p, "--json"])).unwrap(),
            Outcome::Clean
        );
        assert_eq!(
            run(&sv(&["store", "query", p, "--degraded"])).unwrap(),
            Outcome::Clean
        );

        // Flip a byte inside chunk 1's payload (label 8).
        let off = {
            let store = blazr_store::Store::open(&blzs).unwrap();
            store.entries()[1].offset as usize
        };
        let mut bytes = fs::read(&blzs).unwrap();
        bytes[off + 4] ^= 0xFF;
        fs::write(&blzs, &bytes).unwrap();

        // Full-fidelity query refuses (exit 20); degraded answers from
        // the surviving chunks (exit 10); verify flags the chunk.
        assert_eq!(run(&sv(&["store", "query", p])).unwrap(), Outcome::Corrupt);
        assert_eq!(
            run(&sv(&["store", "query", p, "--degraded"])).unwrap(),
            Outcome::Degraded
        );
        assert_eq!(
            run(&sv(&["store", "verify", p])).unwrap(),
            Outcome::Degraded
        );

        // Repair rewrites the survivors; the result verifies clean and
        // holds exactly the undamaged labels.
        let fixed = tmp("fault_fixed.blzs");
        let fp = fixed.to_str().unwrap().to_string();
        assert_eq!(
            run(&sv(&["store", "repair", p, "-o", &fp])).unwrap(),
            Outcome::Degraded
        );
        assert_eq!(run(&sv(&["store", "verify", &fp])).unwrap(), Outcome::Clean);
        let repaired = blazr_store::Store::open(&fixed).unwrap();
        assert_eq!(repaired.labels(), vec![0, 16, 24]);
        drop(repaired);

        // Smash the trailer too: open fails, salvage takes over, and the
        // verdict is still degraded — never a hard error.
        let n = bytes.len();
        bytes[n - 16..].fill(0xAA);
        fs::write(&blzs, &bytes).unwrap();
        assert_eq!(
            run(&sv(&["store", "verify", p])).unwrap(),
            Outcome::Degraded
        );
        assert_eq!(
            run(&sv(&["store", "query", p, "--degraded"])).unwrap(),
            Outcome::Degraded
        );
        assert_eq!(run(&sv(&["store", "query", p])).unwrap(), Outcome::Corrupt);

        // All-garbage file: corrupt verdict (exit 20), not a usage error.
        let junk = tmp("junk.blzs");
        fs::write(&junk, vec![0x5Au8; 256]).unwrap();
        let jp = junk.to_str().unwrap();
        assert_eq!(
            run(&sv(&["store", "verify", jp])).unwrap(),
            Outcome::Corrupt
        );
        assert_eq!(
            run(&sv(&["store", "verify", jp, "--json"])).unwrap(),
            Outcome::Corrupt
        );
        assert_eq!(
            run(&sv(&["store", "repair", jp, "-o", &fp])).unwrap(),
            Outcome::Corrupt
        );
    }

    #[test]
    fn verify_checks_footer_zone_maps_against_payloads() {
        use blazr_store::format::{encode_footer, encode_trailer};
        let path = ingest_four_chunks("zone_lie");
        let p = path.to_str().unwrap();
        assert_eq!(run(&sv(&["store", "verify", p])).unwrap(), Outcome::Clean);

        // Rewrite chunk 1's footer sum and recompute the footer checksum:
        // the store opens cleanly and every payload checksum still holds,
        // so only a recomputed zone map can tell the index lies.
        let mut entries = blazr_store::Store::open(p).unwrap().entries().to_vec();
        entries[1].zone.stats.sum += 1.0;
        let footer = encode_footer(&entries);
        let trailer = encode_trailer(&footer);
        let mut bytes = fs::read(p).unwrap();
        bytes.truncate(bytes.len() - footer.len() - trailer.len());
        bytes.extend_from_slice(&footer);
        bytes.extend_from_slice(&trailer);
        fs::write(p, &bytes).unwrap();
        let lying = blazr_store::Store::open(p).unwrap();
        assert_eq!(lying.entries()[1].zone, entries[1].zone);
        drop(lying);

        assert_eq!(
            run(&sv(&["store", "verify", p])).unwrap(),
            Outcome::Degraded
        );
        assert_eq!(
            run(&sv(&["store", "verify", p, "--json"])).unwrap(),
            Outcome::Degraded
        );
    }

    #[test]
    fn telemetry_reports_a_corrupt_store_as_store_query_does() {
        let path = ingest_four_chunks("tele_rot");
        let p = path.to_str().unwrap();
        assert_eq!(
            run(&sv(&["telemetry", p, "--agg", "sum"])).unwrap(),
            Outcome::Clean
        );

        // One flipped payload byte in chunk 0: the footer still opens, the
        // query meets the checksum mismatch. Both commands exit 20.
        let off = blazr_store::Store::open(p).unwrap().entries()[0].offset as usize;
        let mut bytes = fs::read(p).unwrap();
        bytes[off + 4] ^= 0xFF;
        fs::write(p, &bytes).unwrap();
        for argv in [
            sv(&["store", "query", p, "--agg", "sum"]),
            sv(&["telemetry", p, "--agg", "sum"]),
            sv(&["telemetry", p, "--agg", "sum", "--full-scan"]),
        ] {
            assert_eq!(run(&argv).unwrap(), Outcome::Corrupt, "{argv:?}");
        }

        // A smashed trailer fails the open itself: still exit 20.
        let n = bytes.len();
        bytes[n - 16..].fill(0xAA);
        fs::write(p, &bytes).unwrap();
        for argv in [sv(&["store", "query", p]), sv(&["telemetry", p])] {
            assert_eq!(run(&argv).unwrap(), Outcome::Corrupt, "{argv:?}");
        }
        tel::set_mode(tel::Mode::Off);
    }

    #[test]
    fn garbage_compressed_file_is_rejected() {
        let p = tmp("garbage.blz");
        fs::write(&p, [0x55u8; 100]).unwrap();
        assert!(run(&sv(&["info", p.to_str().unwrap()])).is_err());
    }

    #[test]
    fn serve_command_roundtrip() {
        use blazr_serve::{http_get, TcpConn};
        use std::time::Duration;

        let blzs = ingest_four_chunks("serve");
        // Bit-rot one chunk so served query answers are 206/degraded.
        let off = {
            let store = blazr_store::Store::open(&blzs).unwrap();
            store.entries()[1].offset as usize
        };
        let mut bytes = fs::read(&blzs).unwrap();
        bytes[off + 4] ^= 0xFF;
        fs::write(&blzs, &bytes).unwrap();

        // Pick a free port, then let the command bind it for real.
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().to_string()
        };
        let server = std::thread::spawn({
            let p = blzs.to_str().unwrap().to_string();
            let addr = addr.clone();
            move || {
                run(&sv(&[
                    "serve",
                    &p,
                    "--addr",
                    &addr,
                    "--workers",
                    "2",
                    "--max-requests",
                    "2",
                ]))
            }
        });
        let get = |target: &str| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                if let Ok(mut conn) = TcpConn::connect(&addr) {
                    if let Ok(resp) = http_get(&mut conn, target, Duration::from_secs(5)) {
                        return resp;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "server never came up");
                std::thread::sleep(Duration::from_millis(20));
            }
        };
        assert_eq!(get("/healthz").status, 200);
        let resp = get("/query?agg=sum");
        assert_eq!(resp.status, 206, "bit-rotted store must answer degraded");
        assert!(resp.body_text().contains("\"degraded\":true"));
        // `store query` prints the very same body for the same query.
        let p = blzs.to_str().unwrap();
        let (stdout, outcome) =
            store_query_output(&sv(&[p, "--degraded", "--agg", "sum"])).unwrap();
        assert_eq!(outcome, Outcome::Degraded);
        assert_eq!(stdout, resp.body_text());
        // After --max-requests the server drains itself and the command
        // exits with the degraded taxonomy code.
        assert_eq!(server.join().unwrap().unwrap(), Outcome::Degraded);
    }
}
