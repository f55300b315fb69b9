//! Golden bits: the Table I operations, the block moments and the zone
//! map pinned to exact output bits on fixed-seed inputs.
//!
//! Refactors of the per-block kernels (binning, coefficient folds, block
//! moments) promise bit-identical results; this test checks the promise
//! instead of taking it on trust. Array results are pinned by the
//! FNV-1a64 of their serialized stream, scalars by their `f64` bits, and
//! per-block vectors and zone maps by the FNV-1a64 of their bits.
//!
//! Re-recording is never a fix for a mismatch here: a changed value means
//! the arithmetic, its order or its piece boundaries changed. Run with
//! `-- --nocapture` to print the computed table.

use blazr::ops::SsimParams;
use blazr::{compress, BinIndex, CompressedArray, PruningMask, Settings};
use blazr_precision::StorableReal;
use blazr_store::format::fnv1a64;
use blazr_store::ZoneMap;
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;

fn input(shape: &[usize], seed: u64) -> NdArray<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    NdArray::from_fn(shape.to_vec(), |i| {
        (i[0] as f64 / 7.0).sin() + 0.5 * (i[1] as f64 / 5.0).cos() + rng.uniform_in(-0.3, 0.3)
    })
}

fn settings(pruned: bool) -> Settings {
    let s = Settings::new(vec![4, 4]).unwrap();
    if pruned {
        s.with_mask(PruningMask::keep_low_frequency_box(&[4, 4], &[3, 2]).unwrap())
            .unwrap()
    } else {
        s
    }
}

fn hash_bits(xs: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = xs.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

/// Every pinned output of one case, as `(name, bits)` in a fixed order.
fn outputs<P: StorableReal, I: BinIndex>(
    shape: &[usize],
    pruned: bool,
) -> Vec<(&'static str, u64)> {
    let s = settings(pruned);
    let a: CompressedArray<P, I> = compress(&input(shape, 1), &s).unwrap();
    let b: CompressedArray<P, I> = compress(&input(shape, 2), &s).unwrap();
    let stream = |c: CompressedArray<P, I>| fnv1a64(&c.to_bytes());
    let zone = ZoneMap::of(&a).unwrap().to_bits();
    let envelopes = a.block_envelopes().unwrap();
    vec![
        ("add", stream(a.add(&b).unwrap())),
        ("sub", stream(a.sub(&b).unwrap())),
        ("add_scalar", stream(a.add_scalar(0.375).unwrap())),
        ("mul_scalar", stream(a.mul_scalar(-1.75))),
        ("dot", a.dot(&b).unwrap().to_f64().to_bits()),
        ("mean", a.mean().unwrap().to_f64().to_bits()),
        ("mean_exact", a.mean_exact().unwrap().to_bits()),
        ("variance", a.variance().unwrap().to_f64().to_bits()),
        ("covariance", a.covariance(&b).unwrap().to_f64().to_bits()),
        ("l2_norm", a.l2_norm().to_f64().to_bits()),
        (
            "ssim",
            a.ssim(&b, &SsimParams::default())
                .unwrap()
                .to_f64()
                .to_bits(),
        ),
        ("wasserstein", a.wasserstein(&b, 2.0).unwrap().to_bits()),
        (
            "approx_lp",
            a.approx_lp_distance(&b, 3.0).unwrap().to_bits(),
        ),
        ("approx_linf", a.approx_linf_distance(&b).unwrap().to_bits()),
        (
            "block_variances",
            hash_bits(a.block_variances().unwrap().into_iter().map(f64::to_bits)),
        ),
        (
            "block_envelopes",
            hash_bits(
                envelopes
                    .iter()
                    .flat_map(|&(lo, hi)| [lo.to_bits(), hi.to_bits()]),
            ),
        ),
        ("zone_map", hash_bits(zone)),
    ]
}

/// Recorded before the per-block kernels were consolidated.
const GOLDEN: &[(&str, &[(&str, u64)])] = &[
    (
        "f32/i16 full 40x36",
        &[
            ("add", 0x4ba1e208ae375c23),
            ("sub", 0x7a730e3b7bb4373b),
            ("add_scalar", 0xe771ab7dec1c3523),
            ("mul_scalar", 0x15564b77065e4ed4),
            ("dot", 0x408dfe6aa0000000),
            ("mean", 0x3fb8837a20000000),
            ("mean_exact", 0x3fb88379d0677777),
            ("variance", 0x3fe5f34e00000000),
            ("covariance", 0x3fe50dc760000000),
            ("l2_norm", 0x403fa35d20000000),
            ("ssim", 0x3fee8573e0000000),
            ("wasserstein", 0x3f35c62c09c9f068),
            ("approx_lp", 0x3fb0862956e81d42),
            ("approx_linf", 0x3fc2685780000000),
            ("block_variances", 0x62d2470b063f6bf0),
            ("block_envelopes", 0xfb5da73156f472c1),
            ("zone_map", 0xb89bba9dbc83a4c1),
        ],
    ),
    (
        "f32/i16 pruned 37x30",
        &[
            ("add", 0x114b8198c55a4f5f),
            ("sub", 0x69442024f3a3c3ee),
            ("add_scalar", 0xf076d3b8f1fb8d12),
            ("mul_scalar", 0x2cb1e67c2c06eb78),
            ("dot", 0x408630bfe0000000),
            ("mean", 0x3fb0c64020000000),
            ("mean_exact", 0x3fb357ee9bca7e63),
            ("variance", 0x3fe1e616c0000000),
            ("covariance", 0x3fe19fed40000000),
            ("l2_norm", 0x403adc1980000000),
            ("ssim", 0x3fef598dc0000000),
            ("wasserstein", 0x3f44cd0e8b0882b9),
            ("approx_lp", 0x3fb1b62eab4c582a),
            ("approx_linf", 0x3fc324ef80000000),
            ("block_variances", 0xacfd4e35a98426b3),
            ("block_envelopes", 0xb478c8d10c6ae476),
            ("zone_map", 0xde30f9a856ed0191),
        ],
    ),
    (
        "f64/i8 full 37x30",
        &[
            ("add", 0x7adf16a87c1bb4ef),
            ("sub", 0x81aa0a5df49cc9a6),
            ("add_scalar", 0xf11e6700a5500219),
            ("mul_scalar", 0xdb8df3b13e37e49d),
            ("dot", 0x40866201648dd9e0),
            ("mean", 0x3fb0c8490712f470),
            ("mean_exact", 0x3fb35a465fcc0e58),
            ("variance", 0x3fe29c61599ac7a5),
            ("covariance", 0x3fe1c74b926425df),
            ("l2_norm", 0x403b628beb9aedbe),
            ("ssim", 0x3fee706d89ca092f),
            ("wasserstein", 0x3f44cd7621fcd9a0),
            ("approx_lp", 0x3fb1b6f83e1243b8),
            ("approx_linf", 0x3fc324ef868cb3c0),
            ("block_variances", 0xd758fc22a0d2136a),
            ("block_envelopes", 0x23f8dcd6e005f37a),
            ("zone_map", 0x094f1154ab674624),
        ],
    ),
    (
        "f64/i8 pruned 40x36",
        &[
            ("add", 0x47b5c7165314e31c),
            ("sub", 0xf965e46fe2363546),
            ("add_scalar", 0xddb9d153608bb7c4),
            ("mul_scalar", 0x00142d4b95a536d6),
            ("dot", 0x408e0000f583973b),
            ("mean", 0x3fb883f14263f6f3),
            ("mean_exact", 0x3fb883f14263f6f3),
            ("variance", 0x3fe55472795d8da1),
            ("covariance", 0x3fe50ee669f53dd3),
            ("l2_norm", 0x403f319974713391),
            ("ssim", 0x3fef6872af0bf2fe),
            ("wasserstein", 0x3f35c8a71485f116),
            ("approx_lp", 0x3fb086d77b9682d9),
            ("approx_linf", 0x3fc2685779d28e80),
            ("block_variances", 0xc3541eb889d0598d),
            ("block_envelopes", 0x2d38fd046e9f08ed),
            ("zone_map", 0xedc79fce3043792b),
        ],
    ),
];

#[test]
fn table1_ops_keep_their_bits() {
    let cases: [(&str, Vec<(&str, u64)>); 4] = [
        ("f32/i16 full 40x36", outputs::<f32, i16>(&[40, 36], false)),
        ("f32/i16 pruned 37x30", outputs::<f32, i16>(&[37, 30], true)),
        ("f64/i8 full 37x30", outputs::<f64, i8>(&[37, 30], false)),
        ("f64/i8 pruned 40x36", outputs::<f64, i8>(&[40, 36], true)),
    ];
    for (case, got) in &cases {
        println!("    (\"{case}\", &[");
        for (name, bits) in got {
            println!("        (\"{name}\", {bits:#018x}),");
        }
        println!("    ]),");
    }
    let mut mismatches = Vec::new();
    for (case, got) in &cases {
        let want = GOLDEN
            .iter()
            .find(|(c, _)| c == case)
            .map(|(_, w)| *w)
            .unwrap_or_else(|| panic!("no golden values for {case}"));
        assert_eq!(got.len(), want.len(), "{case}: output count");
        for ((name, g), (wname, w)) in got.iter().zip(want) {
            assert_eq!(name, wname, "{case}: output order");
            if g != w {
                mismatches.push(format!("{case} {name}: got {g:#018x}, want {w:#018x}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "bits changed:\n{}",
        mismatches.join("\n")
    );
}
