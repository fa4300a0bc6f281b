//! Measurement helpers: a fixed-size latency histogram, percentiles over
//! small sample sets, and the `/proc/self` probes for peak memory and
//! bytes written.

/// Sub-buckets per power of two: 256 keeps each bucket under 0.4% wide.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Log-linear latency histogram over nanoseconds. Memory stays flat no
/// matter how many queries a run serves, so the histogram does not inflate
/// the peak-RSS metric it is measured beside.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros(); // >= SUB_BITS
        let m = (ns >> (e - SUB_BITS)) as usize; // in SUB..2*SUB
        SUB + (e - SUB_BITS) as usize * SUB + (m - SUB)
    }

    /// Inclusive lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let e = (i - SUB) / SUB + SUB_BITS as usize;
        let m = (i - SUB) % SUB + SUB;
        let width = (1u64 << (e - SUB_BITS as usize)) as f64;
        (m as f64 * width, width)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside its
    /// bucket by rank. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > rank {
                let (lo, width) = Self::bounds(i);
                return lo + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        let (lo, width) = Self::bounds(BUCKETS - 1);
        lo + width
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Harrell–Davis estimate of the `q`-quantile of `xs`: a Beta-weighted
/// average of all order statistics instead of the one or two nearest the
/// rank. On the few to few hundred samples a run collects (builds, slices,
/// updates) it varies much less between runs than a single order
/// statistic, most of all in a tail. 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let n = xs.len();
    if n < 2 {
        return xs.first().copied().unwrap_or(0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v[0] == v[n - 1] {
        return v[0]; // exact for repeated counts, which the weights would blur
    }
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    let mut below = 0.0;
    let mut acc = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = beta_inc(a, b, (i + 1) as f64 / n as f64);
        acc += (upto - below) * x;
        below = upto;
    }
    acc
}

/// The regularized incomplete beta function `I_x(a, b)`, by its continued
/// fraction (modified Lentz), on the side where that converges fast.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..1000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / nonzero(1.0 + even * d);
        c = nonzero(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / nonzero(1.0 + odd * d);
        c = nonzero(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x >= 0.5` (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = C[0]
        + C.iter()
            .enumerate()
            .skip(1)
            .map(|(i, c)| c / (x + i as f64))
            .sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its current RSS, so
/// the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set (`VmHWM`) in MiB since start or the last reset.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let kb = proc_field("/proc/self/status", "VmHWM:")?;
    Ok(kb as f64 / 1024.0)
}

/// Bytes this process has passed to write-type system calls (`wchar`),
/// whether or not they reached the disk yet.
pub fn wchar() -> std::io::Result<u64> {
    proc_field("/proc/self/io", "wchar:")
}

fn proc_field(path: &str, key: &str) -> std::io::Result<u64> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("no {key} in {path}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `q`-quantile with linear interpolation between ranks.
    fn interpolated(xs: &[f64], q: f64) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Hist::new();
        let xs: Vec<f64> = (1..=100_000u64)
            .map(|i| (i * 37 % 100_003) as f64 + 100.0)
            .collect();
        for &x in &xs {
            h.record(x as u64);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = interpolated(&xs, q);
            let approx = h.quantile(q);
            assert!(
                (approx - exact).abs() / exact < 0.005,
                "q={q}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((beta_inc(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((quantile(&xs, 0.5) - 500.5).abs() < 1e-6);
        assert!((quantile(&xs, 0.95) - interpolated(&xs, 0.95)).abs() < 1.0);
    }

    #[test]
    fn bucket_bounds_invert_index() {
        for ns in [
            0u64,
            1,
            255,
            256,
            257,
            1000,
            4097,
            1 << 40,
            (1 << 62) + 12345,
        ] {
            let (lo, width) = Hist::bounds(Hist::index(ns));
            assert!(
                lo <= ns as f64 && (ns as f64) < lo + width,
                "{ns}: [{lo}, +{width})"
            );
        }
    }
}
