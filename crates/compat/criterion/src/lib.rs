//! Offline shim for the slice of the `criterion` API this workspace uses:
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], [`BenchmarkId`],
//! [`black_box`] and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is intentionally simple — a warm-up pass followed by
//! `sample_size` iterations, each timed on its own, reporting the mean wall
//! time per iteration beside the median, minimum and maximum, so one run
//! shows its own spread. It is good enough for relative comparisons in
//! development; the benches are kept compiling in CI via
//! `cargo check --benches`.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group (`name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            full: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> BenchmarkId {
        BenchmarkId {
            full: name.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> BenchmarkId {
        BenchmarkId { full: name }
    }
}

/// Timing driver handed to benchmark closures.
pub struct Bencher {
    samples: u64,
}

impl Bencher {
    /// Times `f`: one warm-up call, then `samples` measured iterations,
    /// each between its own two clock reads (which adds their cost, tens of
    /// nanoseconds, to every iteration).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        let mut times: Vec<Duration> = (0..self.samples.max(1))
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed()
            })
            .collect();
        let [mean, median, min, max] = spread(&mut times).map(format_duration);
        println!(
            "    {mean:>12} /iter over {} iters (median {median}, min {min}, max {max})",
            times.len()
        );
    }
}

/// Mean, median, minimum and maximum of a non-empty set of iteration
/// times (sorted in place).
fn spread(times: &mut [Duration]) -> [Duration; 4] {
    times.sort_unstable();
    let n = times.len();
    let mean = times.iter().sum::<Duration>() / n as u32;
    let median = (times[(n - 1) / 2] + times[n / 2]) / 2;
    [mean, median, times[0], times[n - 1]]
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 10_000 {
        format!("{nanos} ns")
    } else if nanos < 10_000_000 {
        format!("{:.1} us", nanos as f64 / 1e3)
    } else if nanos < 10_000_000_000 {
        format!("{:.1} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of measured iterations per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        println!("  bench {}", id.into().full);
        let mut b = Bencher {
            samples: self.sample_size,
        };
        f(&mut b);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup {
            parent: self,
            name,
            sample_size: None,
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample size for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1) as u64);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        println!("  bench {}/{}", self.name, id.into().full);
        let samples = self.sample_size.unwrap_or(self.parent.sample_size);
        let mut b = Bencher { samples };
        f(&mut b);
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generates `main()` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags (e.g. `--bench`); the shim
            // runs everything unconditionally and ignores them.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_api_runs_closures() {
        let mut c = Criterion::default().sample_size(2);
        let mut runs = 0u32;
        c.bench_function("unit", |b| b.iter(|| runs += 1));
        assert!(runs >= 3, "warm-up + samples, got {runs}");
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function(BenchmarkId::new("f", 7), |b| b.iter(|| black_box(1 + 1)));
        group.finish();
    }

    #[test]
    fn spread_reports_mean_median_and_extremes() {
        let ms = Duration::from_millis;
        let mut odd = [ms(9), ms(1), ms(2)];
        assert_eq!(spread(&mut odd), [ms(4), ms(2), ms(1), ms(9)]);
        let mut even = [ms(4), ms(1), ms(8), ms(3)];
        assert_eq!(
            spread(&mut even),
            [ms(4), Duration::from_micros(3_500), ms(1), ms(8)]
        );
        assert_eq!(spread(&mut [ms(5)]), [ms(5); 4]);
    }
}
