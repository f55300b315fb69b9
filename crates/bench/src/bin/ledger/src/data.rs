//! Workload inputs, generated from the run's seed. The program under
//! test sees only these arrays; every generator parameter that varies
//! between seeds is drawn here.
//!
//! Each workload picks the input property one layer's behaviour depends
//! on, so that a change to that layer shows on one workload and not on
//! the others:
//!
//! | workload | values | what it decides |
//! |---|---|---|
//! | `smooth` | smooth 2-D fields, chunks drift with the label | rANS wins the coder choice; zone maps prune ~95 % of chunks |
//! | `noise` | uniform noise | nearly every symbol escapes the rANS table; zone maps prune nothing, so every query decodes |
//! | `thin` | 8-row time series | a leading axis thinner than the thread team: decompress takes the staged path |
//! | `volume` | 3-D clustered volumes, 4×8×8 blocks | the 3-D transform kernels and a clustered value alphabet |

use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["smooth", "noise", "thin", "volume"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Smooth,
    Noise,
    Thin,
    Volume,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "smooth" => Workload::Smooth,
            "noise" => Workload::Noise,
            "thin" => Workload::Thin,
            "volume" => Workload::Volume,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Smooth => "smooth",
            Workload::Noise => "noise",
            Workload::Thin => "thin",
            Workload::Volume => "volume",
        }
    }

    /// Block shape for both the codec fields and the store chunks.
    pub fn block(self) -> Vec<usize> {
        match self {
            Workload::Volume => vec![4, 8, 8],
            _ => vec![8, 8],
        }
    }

    /// Shape of a codec field with about `elems` elements.
    fn field_shape(self, elems: usize) -> Vec<usize> {
        match self {
            Workload::Smooth | Workload::Noise => {
                let side = (elems as f64).sqrt() as usize;
                vec![side, side]
            }
            Workload::Thin => vec![8, elems / 8],
            Workload::Volume => {
                let d0 = (elems / 16384).max(4);
                vec![d0, 128, 128]
            }
        }
    }

    /// Chunk shape of size class `class`: 0 → 1 Ki elements (32²), 1 →
    /// 4 Ki (64²), 2 → 16 Ki (128²), 3 → 64 Ki (256²).
    pub fn chunk_shape(self, class: usize) -> Vec<usize> {
        let elems = 1024usize << (2 * class);
        match self {
            Workload::Smooth | Workload::Noise => {
                let side = 32usize << class;
                vec![side, side]
            }
            Workload::Thin => vec![8, elems / 8],
            Workload::Volume => [
                vec![8, 8, 16],
                vec![16, 16, 16],
                vec![16, 32, 32],
                vec![32, 32, 64],
            ][class]
                .clone(),
        }
    }
}

/// Input sizes. `--smoke` shrinks every one so a workload finishes in a
/// few seconds with the same checks.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Elements per codec field.
    pub field_elems: usize,
    /// Chunks in the query store (each of size class 1, 4 Ki elements).
    pub chunks: usize,
    /// Frames per ingest (each of size class 2, 16 Ki elements).
    pub ingest_frames: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        field_elems: 1 << 20,
        chunks: 512,
        ingest_frames: 256,
    };
    pub const SMOKE: Scale = Scale {
        field_elems: 1 << 16,
        chunks: 64,
        ingest_frames: 16,
    };

    /// The store chunk a serve run bit-flips (chunk 300 of 512).
    pub fn victim(&self) -> usize {
        self.chunks * 300 / 512
    }
}

/// Seeded value generator of one workload.
pub struct Generator {
    workload: Workload,
    rng: Xoshiro256pp,
    /// Phases drawn once per seed.
    phase: [f64; 4],
    /// Cluster centres (normalized coordinates) and levels for `volume`.
    centres: Vec<([f64; 3], f64)>,
}

/// Amplitude of the per-chunk drift: chunk `t` is centred on `DRIFT·t`.
pub const DRIFT: f64 = 0.1;

/// Spatial frequencies of the smooth and time-series patterns.
const FREQ: [f64; 4] = [0.013, 0.017, 0.011, 0.019];

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x1ED6_E500);
        // The seed draws phases and noise, never amplitudes, frequencies
        // or cluster layouts: those set how compressible the input is and
        // how much work it takes, which must not change between seeds.
        let phase = [0; 4].map(|_| rng.uniform_in(0.0, std::f64::consts::TAU));
        // Eight clusters at the corners of a cube inset in the unit
        // volume, each level used twice.
        let levels = [0.0, 0.25, 0.6, 1.0];
        let centres = (0..8)
            .map(|k| {
                let c = [0, 1, 2].map(|axis| if k >> axis & 1 == 1 { 0.7 } else { 0.3 });
                (c, levels[(k + k / 4) % levels.len()])
            })
            .collect();
        Self {
            workload,
            rng,
            phase,
            centres,
        }
    }

    /// Level of the nearest cluster centre at normalized coordinates `p`.
    fn cluster(&self, p: [f64; 3]) -> f64 {
        let mut best = (f64::INFINITY, 0.0);
        for (c, level) in &self.centres {
            let d = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2);
            if d < best.0 {
                best = (d, *level);
            }
        }
        best.1
    }

    /// One codec field; `which` (0 or 1) selects `a` or `b`.
    pub fn field(&mut self, elems: usize, which: usize) -> NdArray<f64> {
        let shape = self.workload.field_shape(elems);
        let (p, f) = (self.phase, FREQ);
        let (p0, p1) = (p[2 * which], p[2 * which + 1]);
        let (f0, f1) = (f[2 * which], f[2 * which + 1]);
        match self.workload {
            Workload::Smooth => NdArray::from_fn(shape, |i| {
                (i[0] as f64 * f0 + p0).sin() + (i[1] as f64 * f1 + p1).cos()
            }),
            Workload::Noise => {
                let rng = &mut self.rng;
                NdArray::from_fn(shape, |_| rng.uniform())
            }
            Workload::Thin => {
                let rng = &mut self.rng;
                NdArray::from_fn(shape, |i| {
                    let k = i[1] as f64;
                    let w = f0 * (1.0 + i[0] as f64) / 8.0;
                    (k * w + p0 + i[0] as f64).sin()
                        + 0.2 * (k * f1 + p1).sin()
                        + rng.uniform_in(-0.01, 0.01)
                })
            }
            Workload::Volume => {
                let dims: Vec<f64> = shape.iter().map(|&d| d as f64).collect();
                let mut out = NdArray::from_fn(shape, |i| {
                    self.cluster([
                        i[0] as f64 / dims[0],
                        i[1] as f64 / dims[1],
                        (i[2] as f64 / dims[2] + 0.5 * which as f64).fract(),
                    ])
                });
                for v in out.as_mut_slice() {
                    *v += self.rng.uniform_in(-0.02, 0.02);
                }
                out
            }
        }
    }

    /// Store chunk `t` at size class `class`: centred on `DRIFT·t` (noise
    /// does not drift) with a ±0.3 local pattern and ±0.05 noise.
    pub fn chunk(&mut self, t: usize, class: usize) -> NdArray<f64> {
        let shape = self.workload.chunk_shape(class);
        let base = DRIFT * t as f64;
        let p = self.phase[0];
        let out = match self.workload {
            Workload::Noise => {
                let rng = &mut self.rng;
                return NdArray::from_fn(shape, |_| rng.uniform());
            }
            Workload::Smooth => NdArray::from_fn(shape, |i| {
                base + 0.3 * ((i[0] + i[1]) as f64 / 9.0 + p).sin()
            }),
            Workload::Thin => {
                let len = shape[1];
                NdArray::from_fn(shape, |i| {
                    let s = (t * len + i[1]) as f64;
                    base + 0.3 * (s * FREQ[i[0] % 4] + p + i[0] as f64).sin()
                })
            }
            Workload::Volume => {
                let dims: Vec<f64> = shape.iter().map(|&d| d as f64).collect();
                NdArray::from_fn(shape, |i| {
                    base + 0.3
                        * self.cluster([
                            i[0] as f64 / dims[0],
                            i[1] as f64 / dims[1],
                            i[2] as f64 / dims[2],
                        ])
                })
            }
        };
        let mut out = out;
        for v in out.as_mut_slice() {
            *v += self.rng.uniform_in(-0.05, 0.05);
        }
        out
    }

    /// `n` narrow value ranges for pruned queries: each admits the few
    /// chunks whose drift centre lies near it (on `noise`, every chunk).
    /// The ranges are spread evenly over the values, one per stratum, so
    /// the seed moves where they fall but not how many chunks they admit.
    pub fn ranges(&mut self, n: usize, chunks: usize) -> Vec<(f64, f64)> {
        let (span, width) = match self.workload {
            Workload::Noise => (0.99, 0.01),
            _ => (DRIFT * (chunks - 1) as f64, 0.1),
        };
        (0..n)
            .map(|i| {
                let c = (i as f64 + self.rng.uniform()) / n as f64 * span;
                (c, c + width)
            })
            .collect()
    }
}

/// Everything one run works on.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub block: Vec<usize>,
    /// The two codec fields the Table I operations combine.
    pub a: NdArray<f64>,
    pub b: NdArray<f64>,
    /// `a`'s values with an 8-row leading axis.
    pub thin: NdArray<f64>,
    /// Query-store chunks; chunk `t` is stored under label `t`.
    pub chunks: Vec<NdArray<f64>>,
    /// Frames one ingest writes.
    pub frames: Vec<NdArray<f64>>,
    /// Value ranges of the pruned queries.
    pub ranges: Vec<(f64, f64)>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Self {
        let mut gen = Generator::new(workload, seed);
        let a = gen.field(scale.field_elems, 0);
        let b = gen.field(scale.field_elems, 1);
        // The same values with a leading axis one block thick, so the
        // decompressor sees a single slab of blocks.
        let block = workload.block();
        let mut shape = a.shape().to_vec();
        shape[0] = block[0];
        let last = shape.len() - 1;
        shape[last] = a.len() / shape[..last].iter().product::<usize>();
        let thin = NdArray::from_vec(shape, a.as_slice().to_vec());
        let chunks = (0..scale.chunks).map(|t| gen.chunk(t, 1)).collect();
        let frames = (0..scale.ingest_frames).map(|t| gen.chunk(t, 2)).collect();
        let ranges = gen.ranges(32, scale.chunks);
        Self {
            workload,
            seed,
            scale,
            block: workload.block(),
            a,
            b,
            thin,
            chunks,
            frames,
            ranges,
        }
    }
}
