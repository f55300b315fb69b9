//! The ledger's schema: every metric a run reports, with its unit and
//! direction, and the end-to-end bounds. `BENCHMARK.json` at the
//! repository root is this catalog written out (`ledger catalog`), and a
//! unit test keeps the two identical.

use crate::codec::{FIELDS, OPS};
use crate::data::WORKLOADS;
use crate::json::{obj, Json};
use crate::serve::RAMP_STEPS;

pub const RUN_SECONDS: u64 = 25;

/// `(name, unit, better, bound)`: what a user of blazr sees.
///
/// The two tail latencies, `query_p99_us` and `serve_p99_ms`, are
/// per-layer metrics: their spread over ten seeds reached 22–30 % on the
/// two-core box the ledger was calibrated on, more than any bound the
/// benchmark may set (README, "Baseline").
pub const END_TO_END: [(&str, &str, &str, f64); 13] = [
    ("setup_s", "s", "lower", 0.25),
    ("encode_melem_s", "Melem/s", "higher", 0.25),
    ("decode_melem_s", "Melem/s", "higher", 0.25),
    ("ops_ms", "ms", "lower", 0.25),
    ("bits_per_value", "bit/value", "lower", 0.02),
    ("max_rel_error", "ratio", "lower", 0.2),
    ("ingest_melem_s", "Melem/s", "higher", 0.25),
    ("store_bits_per_value", "bit/value", "lower", 0.01),
    ("pruned_p50_us", "us", "lower", 0.25),
    ("scan_p50_us", "us", "lower", 0.25),
    ("cold_query_ms", "ms", "lower", 0.25),
    ("serve_p50_ms", "ms", "lower", 0.25),
    ("serve_max_rps", "1/s", "higher", 0.25),
];

/// Why each workload is in the benchmark (one line each).
pub const WHY: [&str; 4] = [
    "smooth 2-D fields drifting with the label: rANS wins the coder choice and zone maps prune ~95% of chunks",
    "uniform noise: nearly every coded symbol escapes the rANS table and zone maps prune nothing, so every query decodes",
    "8-row time series: the leading axis is thinner than the thread team, so decompress takes the staged path",
    "3-D clustered volumes with 4x8x8 blocks: the 3-D transform kernels and a clustered value alphabet",
];

/// `(name, unit, better)` of every per-layer metric a traced run reports.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        m.push((name, unit, better));
    };
    for s in [
        "convert",
        "compress_values",
        "to_bytes",
        "from_bytes",
        "decompress",
        "decompress_thin",
    ] {
        add(format!("codec.{s}_ns_per_elem"), "ns/elem", "lower");
    }
    for s in ["gather", "transform", "bin", "unbin", "inverse", "scatter"] {
        add(format!("codec.{s}_share"), "ratio", "lower");
    }
    add("coder.entropy_share".into(), "ratio", "lower");
    add("rayon.calls_per_field".into(), "count", "lower");
    add("rayon.tasks_per_call".into(), "count", "higher");
    add("coder.escape_rate".into(), "ratio", "lower");
    for f in FIELDS {
        add(format!("codec.bpv.{f}"), "bit/value", "lower");
    }
    add("coder.rans_field_share".into(), "ratio", "higher");
    add("codec.scaling_2t".into(), "ratio", "higher");
    add("codec.threads".into(), "count", "higher");
    add("trace.overhead_share".into(), "ratio", "lower");
    add("machine.slowdown".into(), "ratio", "lower");
    for op in OPS {
        add(format!("ops.{op}_us"), "us", "lower");
    }
    for op in OPS {
        add(format!("ops.{op}.rel_error"), "ratio", "lower");
    }
    add("ops.mean.bound_tightness".into(), "ratio", "higher");
    add("ops.l2_norm.bound_tightness".into(), "ratio", "higher");
    add("codec.linf_bound_tightness".into(), "ratio", "higher");
    add("codec.linf_rel_error".into(), "ratio", "lower");
    add("ops.add_speedup_vs_roundtrip".into(), "ratio", "higher");
    add("writer.append_us_per_chunk".into(), "us", "lower");
    add("writer.finish_ms".into(), "ms", "lower");
    add("writer.codec_share".into(), "ratio", "lower");
    add("store.overhead_share".into(), "ratio", "lower");
    for side in [32, 64, 128, 256] {
        add(format!("ingest.bpv.frame{side}"), "bit/value", "lower");
    }
    for (name, unit, better) in [
        ("query_p99_us", "us", "lower"),
        ("store.open_us", "us", "lower"),
        ("store.first_touch_us_per_chunk", "us", "lower"),
        ("store.prune_ratio", "ratio", "higher"),
        ("store.match_ratio", "ratio", "higher"),
        ("coder.dec_pool_hit_rate", "ratio", "higher"),
        ("store.allocs_per_query", "count", "lower"),
        ("rayon.calls_per_query", "count", "lower"),
        ("store.select_us", "us", "lower"),
        ("store.prune_us", "us", "lower"),
        ("store.read_us_per_chunk", "us", "lower"),
        ("store.decode_us_per_chunk", "us", "lower"),
        ("store.fold_us_per_chunk", "us", "lower"),
        ("store.scan_parallelism", "ratio", "higher"),
        ("store.predicate_us_per_chunk", "us", "lower"),
    ] {
        add(name.into(), unit, better);
    }
    for rate in ["low", "high"] {
        for (name, unit, better) in [
            ("client_us", "us", "lower"),
            ("connect_us", "us", "lower"),
            ("accept_us", "us", "lower"),
            ("pre_dequeue_us", "us", "lower"),
            ("request_us", "us", "lower"),
            ("query_us", "us", "lower"),
            ("http_us", "us", "lower"),
            ("unattributed_share", "ratio", "lower"),
            ("rayon_calls_per_request", "count", "lower"),
        ] {
            add(format!("serve.{rate}.{name}"), unit, better);
        }
    }
    add("serve_p99_ms".into(), "ms", "lower");
    add("gen.late_p99_ms".into(), "ms", "lower");
    add("serve.degraded_share".into(), "ratio", "lower");
    for k in 1..=RAMP_STEPS {
        add(format!("serve.step{k}.rps"), "1/s", "higher");
        add(format!("serve.step{k}.p50_ms"), "ms", "lower");
        add(format!("serve.step{k}.p99_ms"), "ms", "lower");
    }
    m
}

/// `(name, unit)` of the metrics a run's result line carries.
pub fn reported(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _, _)| (n.to_string(), u))
            .collect()
    }
}

/// The benchmark description (`BENCHMARK.json`).
pub fn benchmark_json() -> Json {
    let s = |x: &str| Json::Str(x.into());
    obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--quiet",
                    "--release",
                    "--offline",
                    "--manifest-path",
                    "crates/bench/src/bin/ledger/Cargo.toml",
                    "--",
                ]
                .map(s)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![s("crates/bench/src/bin/ledger")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .zip(WHY)
                    .map(|(w, why)| obj([("name", s(w)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(n, u, b, bound)| {
                        obj([
                            ("name", s(n)),
                            ("unit", s(u)),
                            ("better", s(b)),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(n, u, b)| {
                        obj([("name", Json::Str(n)), ("unit", s(u)), ("better", s(b))])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pretty-prints the benchmark description one entry per line.
pub fn benchmark_text() -> String {
    let doc = benchmark_json();
    let mut out = String::from("{\n");
    let kv = doc.entries();
    for (i, (k, v)) in kv.iter().enumerate() {
        let body = match v {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                let lines: Vec<String> =
                    items.iter().map(|x| format!("    {}", x.write())).collect();
                format!("[\n{}\n  ]", lines.join(",\n"))
            }
            other => other.write(),
        };
        let comma = if i + 1 < kv.len() { "," } else { "" };
        out.push_str(&format!(
            "  {}: {body}{comma}\n",
            Json::Str(k.clone()).write()
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
        assert_eq!(text, benchmark_text());
    }

    #[test]
    fn catalog_fits_the_benchmark_limits() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|m| m.0.to_string())
            .chain(per_layer().into_iter().map(|m| m.0))
            .collect();
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "metric names are unique");
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
    }
}
