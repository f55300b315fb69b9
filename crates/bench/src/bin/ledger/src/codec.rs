//! The codec and Table I layers: encode (`compress` + `to_bytes`),
//! decode (`from_bytes` + `decompress`) and the twelve compressed-space
//! operations, each timed from outside through the public API and
//! checked against the original input.

use crate::data::Inputs;
use crate::record::{tallied, Record, Tally};
use crate::{stats, trace};
use blazr::ops::SsimParams;
use blazr::{compress, compress_values, Coder, CompressedArray, Settings};
use blazr_tensor::{reduce, NdArray};
use blazr_util::stats::{max_abs_diff, rms_diff};
use std::hint::black_box;
use std::time::{Duration, Instant};

type C = CompressedArray<f32, i16>;

/// Names of the Table I operations, in the order they run.
pub const OPS: [&str; 12] = [
    "negate",
    "add",
    "add_scalar",
    "mul_scalar",
    "dot",
    "mean",
    "covariance",
    "variance",
    "l2_norm",
    "cosine",
    "ssim",
    "wasserstein",
];

/// The fields one encode/decode pass covers: `a`, `b`, and `a`'s values
/// with a thin leading axis (the staged decompress path).
pub const FIELDS: [&str; 3] = ["a", "b", "thin"];

fn fields(inp: &Inputs) -> [&NdArray<f64>; 3] {
    [&inp.a, &inp.b, &inp.thin]
}

pub fn settings(inp: &Inputs) -> Settings {
    Settings::new(inp.block.clone()).expect("workload block shapes are valid")
}

fn encode(fields: &[&NdArray<f64>], settings: &Settings) -> (Vec<C>, Vec<Vec<u8>>) {
    let _s = trace::span("codec.encode");
    fields
        .iter()
        .map(|f| {
            let c = {
                let _s = trace::span("codec.compress");
                compress::<f32, i16>(f, settings).expect("valid settings compress")
            };
            let bytes = {
                let _s = trace::span("codec.to_bytes");
                c.to_bytes()
            };
            (c, bytes)
        })
        .unzip()
}

fn decode(bytes: &[Vec<u8>]) -> Vec<Result<NdArray<f64>, String>> {
    let _s = trace::span("codec.decode");
    bytes
        .iter()
        .map(|b| {
            let c = {
                let _s = trace::span("codec.from_bytes");
                C::from_bytes(b).map_err(|e| e.to_string())?
            };
            let _s = trace::span("codec.decompress");
            Ok(c.decompress())
        })
        .collect()
}

fn range(xs: &[f64]) -> f64 {
    let (lo, hi) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    hi - lo
}

/// The encode/decode phase, run in rounds: every pass is timed and
/// checked bit-identical to the first, which was checked against the
/// input.
pub struct Codec<'a> {
    inp: &'a Inputs,
    settings: Settings,
    cs: Vec<C>,
    bytes: Vec<Vec<u8>>,
    outs: Vec<NdArray<f64>>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    /// Worst RMS reconstruction error as a share of the field's RMS
    /// magnitude, and worst largest element error as a share of its range.
    pub worst: f64,
    worst_linf: f64,
}

impl<'a> Codec<'a> {
    pub fn new(inp: &'a Inputs, rec: &mut Record) -> Self {
        let settings = settings(inp);
        let fields = fields(inp);
        let (cs, bytes) = encode(&fields, &settings);
        let (mut worst, mut worst_linf) = (0.0f64, 0.0f64);
        let mut outs = Vec::new();
        for (i, (name, out)) in FIELDS.iter().zip(decode(&bytes)).enumerate() {
            rec.check(C::from_bytes(&bytes[i]).as_ref() == Ok(&cs[i]), || {
                format!("field {name}: byte round trip is not bit-identical")
            });
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    rec.check(false, || format!("decode of field {name}: {e}"));
                    fields[i].clone()
                }
            };
            // The binning bound holds against the precision-converted
            // input; the f32 rounding of the input adds at most one ulp
            // of its largest value.
            let err = max_abs_diff(fields[i].as_slice(), out.as_slice());
            let bound = cs[i].error_bounds().linf;
            let slack = reduce::norm_linf(fields[i]) * f64::from(f32::EPSILON);
            rec.check(err <= bound + slack, || {
                format!("field {name}: reconstruction error {err:e} exceeds its bound {bound:e}")
            });
            let rms = reduce::norm_l2(fields[i]) / (fields[i].len() as f64).sqrt();
            worst = worst.max(rms_diff(out.as_slice(), fields[i].as_slice()) / rms);
            worst_linf = worst_linf.max(err / range(fields[i].as_slice()));
            outs.push(out);
        }
        Self {
            inp,
            settings,
            cs,
            bytes,
            outs,
            encode: Vec::new(),
            decode: Vec::new(),
            worst,
            worst_linf,
        }
    }

    /// Encode + decode passes until `budget` is spent (at least one).
    pub fn round(&mut self, budget: Duration, rec: &mut Record) {
        let fields = fields(self.inp);
        let deadline = Instant::now() + budget;
        loop {
            let t = Instant::now();
            let (c2, b2) = encode(&fields, &self.settings);
            self.encode.push(t.elapsed().as_secs_f64());
            black_box(c2);
            for (name, (x, y)) in FIELDS.iter().zip(b2.iter().zip(&self.bytes)) {
                rec.check(x == y, || {
                    format!("encode of field {name} is not deterministic")
                });
            }
            let t = Instant::now();
            let o2 = decode(&b2);
            self.decode.push(t.elapsed().as_secs_f64());
            for (name, (x, y)) in FIELDS.iter().zip(o2.iter().zip(&self.outs)) {
                let same = matches!(x, Ok(x) if x.as_slice() == y.as_slice());
                rec.check(same, || {
                    format!("decode of field {name} is not deterministic")
                });
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Encode and decode throughput in Melem/s, from min-of-N pass times.
    pub fn throughput(&self) -> (f64, f64) {
        let e = fields(self.inp).iter().map(|f| f.len()).sum::<usize>() as f64 / 1e6;
        (e / stats::min(&self.encode), e / stats::min(&self.decode))
    }

    pub fn finish(&self, traced: bool, rec: &mut Record) {
        let (enc, dec) = self.throughput();
        rec.put("encode_melem_s", enc, "Melem/s");
        rec.put("decode_melem_s", dec, "Melem/s");
        rec.samples("encode_melem_s", self.encode.len());
        rec.samples("decode_melem_s", self.decode.len());
        let elems: usize = fields(self.inp).iter().map(|f| f.len()).sum();
        let bytes: usize = self.bytes.iter().map(Vec::len).sum();
        rec.put(
            "bits_per_value",
            bytes as f64 * 8.0 / elems as f64,
            "bit/value",
        );
        if traced {
            rec.put("codec.linf_rel_error", self.worst_linf, "ratio");
            layers(self.inp, &self.cs, rec);
        }
    }
}

/// Runs the encode/decode passes alone (the thread-scaling child and the
/// untraced reference of a traced run): (encode, decode) Melem/s.
pub fn throughput_alone(inp: &Inputs, budget: Duration) -> (f64, f64) {
    let mut rec = Record::default();
    let mut c = Codec::new(inp, &mut rec);
    c.round(budget, &mut rec);
    c.throughput()
}

/// Min-of-`reps` wall time of `f` in seconds, each call in a span.
fn time_min<T>(name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let _s = trace::span(name);
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn share(part: f64, parts: &[f64]) -> f64 {
    let total: f64 = parts.iter().sum();
    if total > 0.0 {
        part / total
    } else {
        0.0
    }
}

/// Per-layer codec metrics (traced runs only).
fn layers(inp: &Inputs, cs: &[C], rec: &mut Record) {
    let settings = settings(inp);
    let n = inp.a.len() as f64;
    let per_elem = |secs: f64| secs * 1e9 / n;
    let converted: NdArray<f32> = inp.a.convert();
    let bytes_a = cs[0].to_bytes();
    rec.put(
        "codec.convert_ns_per_elem",
        per_elem(time_min("codec.convert", 5, || inp.a.convert::<f32>())),
        "ns/elem",
    );
    rec.put(
        "codec.compress_values_ns_per_elem",
        per_elem(time_min("codec.compress_values", 5, || {
            compress_values::<f32, i16>(&converted, &settings).expect("compress")
        })),
        "ns/elem",
    );
    rec.put(
        "codec.to_bytes_ns_per_elem",
        per_elem(time_min("codec.to_bytes", 5, || cs[0].to_bytes())),
        "ns/elem",
    );
    rec.put(
        "codec.from_bytes_ns_per_elem",
        per_elem(time_min("codec.from_bytes", 5, || C::from_bytes(&bytes_a))),
        "ns/elem",
    );
    rec.put(
        "codec.decompress_ns_per_elem",
        per_elem(time_min("codec.decompress", 5, || cs[0].decompress())),
        "ns/elem",
    );
    rec.put(
        "codec.decompress_thin_ns_per_elem",
        time_min("codec.decompress", 5, || cs[2].decompress()) * 1e9 / inp.thin.len() as f64,
        "ns/elem",
    );

    // Stage breakdowns from the program's own stage laps and counters,
    // over one encode + decode pass of every field.
    let fields = fields(inp);
    let mut tally = Tally::default();
    let bytes = tallied(Some(&mut tally), || {
        let (_, bytes) = encode(&fields, &settings);
        black_box(decode(&bytes));
        bytes
    });
    let c = |name: &str| tally.counter(name);
    let enc_stages =
        ["gather", "transform", "bin"].map(|s| tally.sum(&format!("codec.compress.{s}")));
    for (s, v) in ["gather", "transform", "bin"].iter().zip(enc_stages) {
        rec.put(format!("codec.{s}_share"), share(v, &enc_stages), "ratio");
    }
    let dec_stages =
        ["unbin", "inverse", "scatter"].map(|s| tally.sum(&format!("codec.decompress.{s}")));
    for (s, v) in ["unbin", "inverse", "scatter"].iter().zip(dec_stages) {
        rec.put(format!("codec.{s}_share"), share(v, &dec_stages), "ratio");
    }
    let entropy: f64 = ["histogram", "table", "encode"]
        .iter()
        .map(|s| tally.sum(&format!("codec.entropy.{s}")))
        .sum();
    let serialize = tally.sum("codec.serialize");
    rec.put(
        "coder.entropy_share",
        if serialize > 0.0 {
            entropy / serialize
        } else {
            0.0
        },
        "ratio",
    );
    let calls = c("rayon.parallel_calls");
    rec.put(
        "rayon.calls_per_field",
        calls / FIELDS.len() as f64,
        "count",
    );
    rec.put(
        "rayon.tasks_per_call",
        c("rayon.tasks") / calls.max(1.0),
        "count",
    );
    rec.put(
        "coder.escape_rate",
        c("coder.escapes") / c("coder.symbols").max(1.0),
        "ratio",
    );

    let mut rans = 0;
    for ((name, f), (cmp, b)) in FIELDS.iter().zip(fields).zip(cs.iter().zip(&bytes)) {
        rec.put(
            format!("codec.bpv.{name}"),
            b.len() as f64 * 8.0 / f.len() as f64,
            "bit/value",
        );
        rans += usize::from(cmp.choose_coder() == Coder::Rans);
    }
    rec.put(
        "coder.rans_field_share",
        rans as f64 / FIELDS.len() as f64,
        "ratio",
    );
}

/// Result of one operation: a scalar, or a compressed array.
enum Val {
    S(f64),
    A(C),
}

fn apply(op: usize, a: &C, b: &C) -> Result<Val, blazr::BlazError> {
    Ok(match op {
        0 => Val::A(a.negate()),
        1 => Val::A(a.add(b)?),
        2 => Val::A(a.add_scalar(0.5)?),
        3 => Val::A(a.mul_scalar(-3.0)),
        4 => Val::S(f64::from(a.dot(b)?)),
        5 => Val::S(f64::from(a.mean()?)),
        6 => Val::S(f64::from(a.covariance(b)?)),
        7 => Val::S(f64::from(a.variance()?)),
        8 => Val::S(f64::from(a.l2_norm())),
        9 => Val::S(f64::from(a.cosine_similarity(b)?)),
        10 => Val::S(f64::from(a.ssim(b, &SsimParams::default())?)),
        _ => Val::S(a.wasserstein(b, 2.0)?),
    })
}

/// The same operation on uncompressed arrays (`blazr_tensor::reduce`).
enum Ref {
    S(f64),
    A(NdArray<f64>),
}

fn reference(op: usize, a: &NdArray<f64>, b: &NdArray<f64>) -> Ref {
    match op {
        0 => Ref::A(a.neg()),
        1 => Ref::A(a.add(b)),
        2 => Ref::A(a.add_scalar(0.5)),
        3 => Ref::A(a.mul_scalar(-3.0)),
        4 => Ref::S(reduce::dot(a, b)),
        5 => Ref::S(reduce::mean(a)),
        6 => Ref::S(reduce::covariance(a, b)),
        7 => Ref::S(reduce::variance(a)),
        8 => Ref::S(reduce::norm_l2(a)),
        9 => Ref::S(reduce::cosine_similarity(a, b)),
        10 => Ref::S(reduce::ssim(a, b, &SsimParams::default())),
        _ => Ref::S(reduce::wasserstein_1d(a.as_slice(), b.as_slice(), 2.0)),
    }
}

/// The magnitude an operation's error is measured against: the RMS
/// magnitude of an array operation's operands (`‖a‖ + ‖b‖` for `add`, so
/// a sum that happens to cancel does not inflate its relative error),
/// and the natural scale of a scalar result (so a result near zero, such
/// as the covariance of independent noise, does not turn a tiny error
/// into a huge relative one).
fn scale(op: usize, r: &Ref, a: &NdArray<f64>, b: &NdArray<f64>) -> f64 {
    let rms = |x: &NdArray<f64>| reduce::norm_l2(x) / (x.len() as f64).sqrt();
    match op {
        0 => rms(a),
        1 => rms(a) + rms(b),
        2 => rms(a) + 0.5,
        3 => 3.0 * rms(a),
        4 => reduce::norm_l2(a) * reduce::norm_l2(b),
        5 => range(a.as_slice()),
        6 => (reduce::variance(a) * reduce::variance(b)).sqrt(),
        7 => reduce::variance(a),
        8 => reduce::norm_l2(a),
        9 | 10 => 1.0,
        _ => match r {
            Ref::S(w) => w.abs(),
            Ref::A(_) => 1.0,
        },
    }
}

/// Largest distance of a compressed result from a reference, as a share
/// of `scale`.
fn distance(v: &Val, r: &Ref, scale: f64) -> f64 {
    match (v, r) {
        (Val::S(x), Ref::S(y)) => (x - y).abs() / scale,
        (Val::A(c), Ref::A(y)) => max_abs_diff(c.decompress().as_slice(), y.as_slice()) / scale,
        _ => f64::INFINITY,
    }
}

/// The error a result carries, as a share of `scale`: RMS over the
/// elements of an array result. (Binning error scales with each block's
/// largest coefficient, so this ratio is a property of the codec; the
/// largest element error, by contrast, is set by a few extreme blocks and
/// swings by a third between seeds.)
fn error(v: &Val, r: &Ref, scale: f64) -> f64 {
    match (v, r) {
        (Val::A(c), Ref::A(y)) => rms_diff(c.decompress().as_slice(), y.as_slice()) / scale,
        _ => distance(v, r, scale),
    }
}

fn same(x: &Val, y: &Val) -> bool {
    match (x, y) {
        (Val::S(x), Val::S(y)) => x.to_bits() == y.to_bits(),
        (Val::A(x), Val::A(y)) => x == y,
        _ => false,
    }
}

/// The Table I phase: passes of all twelve operations on compressed `a`
/// and `b`, run in rounds, each result checked bit-identical to the
/// first pass's.
pub struct Ops<'a> {
    inp: &'a Inputs,
    ca: C,
    cb: C,
    times: Vec<Vec<f64>>,
    pass_ms: Vec<f64>,
    first: Vec<Option<Val>>,
}

impl<'a> Ops<'a> {
    pub fn new(inp: &'a Inputs) -> Self {
        let settings = settings(inp);
        Self {
            inp,
            ca: compress::<f32, i16>(&inp.a, &settings).expect("compress a"),
            cb: compress::<f32, i16>(&inp.b, &settings).expect("compress b"),
            times: vec![Vec::new(); OPS.len()],
            pass_ms: Vec::new(),
            first: (0..OPS.len()).map(|_| None).collect(),
        }
    }

    /// Passes until `budget` is spent (at least one).
    pub fn round(&mut self, budget: Duration, rec: &mut Record) {
        let deadline = Instant::now() + budget;
        loop {
            let _pass = trace::span("ops.pass");
            let mut total = 0.0;
            for (op, name) in OPS.iter().enumerate() {
                let t = Instant::now();
                let out = {
                    let _s = trace::span("ops.op");
                    apply(op, &self.ca, &self.cb)
                };
                let dt = t.elapsed().as_secs_f64();
                total += dt;
                self.times[op].push(dt);
                match (out, &self.first[op]) {
                    (Err(e), _) => {
                        rec.check(false, || format!("op {name}: {e}"));
                    }
                    (Ok(v), Some(f)) => {
                        rec.check(same(f, &v), || format!("op {name} is not deterministic"));
                    }
                    (Ok(v), None) => self.first[op] = Some(v),
                }
            }
            self.pass_ms.push(total * 1e3);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Puts the phase's metrics and returns the worst operation error
    /// against the original input (the approximate Wasserstein distance,
    /// whose error is a property of the block size, is reported apart).
    pub fn finish(&self, traced: bool, rec: &mut Record) -> f64 {
        let (inp, ca, cb, times) = (self.inp, &self.ca, &self.cb, &self.times);
        let settings = settings(inp);
        let (da, db) = (ca.decompress(), cb.decompress());
        rec.put("ops_ms", stats::min(&self.pass_ms), "ms");
        rec.samples("ops_ms", self.pass_ms.len());

        // Accuracy: each compressed-space result against the same operation
        // on the decompressed arrays ("no error beyond compression") and on
        // the original input (the error a user sees).
        let mut worst = 0.0f64;
        let n = inp.a.len() as u64;
        for (op, name) in OPS.iter().enumerate() {
            let Some(v) = &self.first[op] else {
                continue;
            };
            let orig = reference(op, &inp.a, &inp.b);
            let s = scale(op, &orig, &inp.a, &inp.b);
            let err = error(v, &orig, s);
            if op != 11 {
                let dec = reference(op, &da, &db);
                let mismatch = distance(v, &dec, s);
                // Re-binning (add, add_scalar) may move each element by the
                // result's own bin bound; everything else must agree to the
                // f32 working precision.
                let rebin = match v {
                    Val::A(c) if op == 1 || op == 2 => c.error_bounds().linf / s,
                    _ => 0.0,
                };
                rec.check(mismatch <= rebin + 1e-4, || {
                    format!("op {name}: differs from the decompressed reference by {mismatch:e}")
                });
                worst = worst.max(err);
            }
            if traced {
                rec.put(format!("ops.{name}_us"), stats::min(&times[op]) * 1e6, "us");
                rec.put(format!("ops.{name}.rel_error"), err, "ratio");
                let bounds = ca.error_bounds();
                match (op, v, &orig) {
                    (5, Val::S(x), Ref::S(y)) => rec.put(
                        "ops.mean.bound_tightness",
                        (x - y).abs() / bounds.mean_bound(n),
                        "ratio",
                    ),
                    (8, Val::S(x), Ref::S(y)) => rec.put(
                        "ops.l2_norm.bound_tightness",
                        (x - y).abs() / bounds.l2,
                        "ratio",
                    ),
                    _ => {}
                }
            }
        }
        if traced {
            let linf = max_abs_diff(inp.a.as_slice(), da.as_slice());
            rec.put(
                "codec.linf_bound_tightness",
                linf / ca.error_bounds().linf,
                "ratio",
            );
            let roundtrip = time_min("ops.add_roundtrip", 3, || {
                let sum = ca.decompress().add(&cb.decompress());
                compress::<f32, i16>(&sum, &settings).expect("compress")
            });
            rec.put(
                "ops.add_speedup_vs_roundtrip",
                roundtrip / stats::min(&times[1]),
                "ratio",
            );
        }
        worst
    }
}
