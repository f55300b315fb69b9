//! Hand-rolled argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: positionals plus `--key value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Args {
    pub positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name). `option_names` take a
    /// value and `flag_names` take none; any other `--name` is an error,
    /// so a misspelt option fails instead of being ignored. `-o` is
    /// short for `--output`.
    pub fn parse(
        argv: &[String],
        option_names: &[&str],
        flag_names: &[&str],
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let name = match (a.strip_prefix("--"), a.as_str()) {
                (Some(name), _) => name,
                (None, "-o") => "output",
                (None, short) if short.starts_with('-') => {
                    return Err(format!("unknown option {short}"))
                }
                _ => {
                    out.positionals.push(a.clone());
                    continue;
                }
            };
            if flag_names.contains(&name) {
                out.flags.push(name.to_string());
            } else if option_names.contains(&name) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("option {a} needs a value"))?;
                out.options.insert(name.to_string(), v.clone());
            } else {
                return Err(format!("unknown option {a}"));
            }
        }
        Ok(out)
    }

    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// True if the boolean flag `name` was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.option(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }
}

/// Parses a shape like `3x224x224` or `1000`.
pub fn parse_shape(s: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = s.split(['x', 'X']).map(str::parse::<usize>).collect();
    let dims = dims.map_err(|e| format!("bad shape {s:?}: {e}"))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(format!("bad shape {s:?}: extents must be positive"));
    }
    Ok(dims)
}

/// Parses a float type name (`bf16|f16|f32|f64`, PyTorch-style aliases
/// accepted).
pub fn parse_float_type(s: &str) -> Result<blazr::ScalarType, String> {
    use blazr::ScalarType::*;
    Ok(match s {
        "bf16" | "bfloat16" => BF16,
        "f16" | "float16" | "half" => F16,
        "f32" | "float32" | "single" => F32,
        "f64" | "float64" | "double" => F64,
        _ => return Err(format!("unknown float type {s:?}")),
    })
}

/// Parses an index type name (`i8|i16|i32|i64`, `int8`-style accepted).
pub fn parse_index_type(s: &str) -> Result<blazr::IndexType, String> {
    use blazr::IndexType::*;
    Ok(match s {
        "i8" | "int8" => I8,
        "i16" | "int16" => I16,
        "i32" | "int32" => I32,
        "i64" | "int64" => I64,
        _ => return Err(format!("unknown index type {s:?}")),
    })
}

/// Parses a transform name.
pub fn parse_transform(s: &str) -> Result<blazr::TransformKind, String> {
    use blazr::TransformKind::*;
    Ok(match s {
        "dct" => Dct,
        "haar" => Haar,
        "wht" | "walsh-hadamard" | "hadamard" => WalshHadamard,
        "identity" | "none" => Identity,
        _ => return Err(format!("unknown transform {s:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_options_and_flags() {
        let a = Args::parse(
            &sv(&["in.f64", "--shape", "4x4", "-o", "out.blz", "--verbose"]),
            &["shape", "output"],
            &["verbose"],
        )
        .unwrap();
        assert_eq!(a.positionals, vec!["in.f64"]);
        assert_eq!(a.option("shape"), Some("4x4"));
        assert_eq!(a.option("output"), Some("out.blz"));
        assert!(a.has_flag("verbose"));
        assert!(!a.has_flag("quiet"));
        // Undeclared names are errors, not ignored; `-o` needs `output`.
        assert!(Args::parse(&sv(&["--shpae", "4x4"]), &["shape"], &[]).is_err());
        assert!(Args::parse(&sv(&["-o", "out.blz"]), &["shape"], &[]).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&sv(&["--shape"]), &["shape"], &[]).is_err());
        assert!(Args::parse(&sv(&["-o"]), &["output"], &[]).is_err());
        assert!(Args::parse(&sv(&["-x"]), &[], &[]).is_err());
    }

    #[test]
    fn shape_parsing() {
        assert_eq!(parse_shape("3x224x224").unwrap(), vec![3, 224, 224]);
        assert_eq!(parse_shape("1000").unwrap(), vec![1000]);
        assert!(parse_shape("0x4").is_err());
        assert!(parse_shape("axb").is_err());
        assert!(parse_shape("").is_err());
    }

    #[test]
    fn type_parsing() {
        assert_eq!(parse_float_type("f32").unwrap(), blazr::ScalarType::F32);
        assert_eq!(
            parse_float_type("bfloat16").unwrap(),
            blazr::ScalarType::BF16
        );
        assert!(parse_float_type("f128").is_err());
        assert_eq!(parse_index_type("int16").unwrap(), blazr::IndexType::I16);
        assert!(parse_index_type("u8").is_err());
        assert_eq!(
            parse_transform("hadamard").unwrap(),
            blazr::TransformKind::WalshHadamard
        );
        assert!(parse_transform("fft").is_err());
    }
}
