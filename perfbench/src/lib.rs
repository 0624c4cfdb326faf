//! Std-only helpers shared by the probe binaries: argument lookup, a
//! seeded generator, order statistics and a one-line JSON writer. Nothing
//! here touches the product's APIs, so a change to the product can only
//! break the probe that uses the changed API.

use std::fmt::Write as _;

/// The value after `--name` on the command line, if present.
pub fn arg(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| *a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// [`arg`] parsed, or `default` when absent.
pub fn arg_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg(name) {
        Some(v) => v.parse().unwrap_or_else(|_| panic!("bad value for --{name}: {v}")),
        None => default,
    }
}

/// Does the command line carry the bare flag `--name`?
pub fn flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// The positional arguments: those that are neither a `--flag` nor the
/// value after one of `value_flags`.
pub fn positional(value_flags: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if value_flags.contains(&name) {
                it.next();
            }
        } else {
            out.push(a);
        }
    }
    out
}

/// SplitMix64: a small, fully specified generator, so inputs depend only
/// on the seed and never on a library's RNG choice.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(parts: &[u64]) -> SplitMix {
        let mut s = SplitMix(0x9E37_79B9_7F4A_7C15);
        for &p in parts {
            s.0 ^= p;
            s.next_u64();
        }
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One flat JSON object written on one line; non-finite numbers become
/// `null`.
#[derive(Default)]
pub struct JsonLine(String);

impl JsonLine {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":");
    }

    /// Print the object as one line on stdout.
    pub fn print(&self) {
        println!("{}}}", if self.0.is_empty() { "{" } else { &self.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn splitmix_depends_only_on_parts() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(&[1, 2]).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(SplitMix::new(&[1, 2]).next_u64(), SplitMix::new(&[2, 1]).next_u64());
    }
}
