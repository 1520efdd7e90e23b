//! Speed normalization against a fixed reference kernel.
//!
//! On a shared VM the same code runs up to twice as slow for seconds or
//! minutes at a time, which moves every absolute timing by more than any
//! regression bound. The kernel below (fill a cache-sized buffer with a
//! seeded pseudo-random sequence and sort it, a few dozen times: branchy,
//! data-dependent work like the analysis itself) is timed next to every
//! measured region, and each region's time is scaled by `REFERENCE_MS / kernel
//! time`. Reported times therefore read as seconds on a machine that runs
//! the kernel in [`REFERENCE_MS`]. The kernel reuses one small buffer, so
//! it neither disturbs the heap the peak-RSS metric watches nor depends on
//! how the process's memory happens to be mapped, and it uses only the
//! standard library, so no change to the program under test can move it.

use std::time::Instant;

/// The kernel's nominal duration; the scale of every normalized time.
pub const REFERENCE_MS: f64 = 20.0;

/// 256 KiB of `u64`, sorted [`KERNEL_ROUNDS`] times.
const KERNEL_LEN: usize = 1 << 15;
const KERNEL_ROUNDS: usize = 32;

/// Runs the reference kernel once over `buf` and returns its time in ms.
fn kernel_ms(buf: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..KERNEL_ROUNDS {
        for v in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        buf.sort_unstable();
        std::hint::black_box(buf[buf.len() / 2]);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Times regions between kernel samples; consecutive regions share the
/// sample between them.
pub struct Meter {
    buf: Vec<u64>,
    last: f64,
}

/// One measured region.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// Seconds scaled by the kernel samples taken just before and after.
    pub norm_s: f64,
}

impl Timed {
    /// The normalization factor, to scale times measured inside the region.
    pub fn scale(&self) -> f64 {
        self.norm_s / self.raw_s
    }
}

impl Meter {
    pub fn new() -> Meter {
        let mut buf = vec![0; KERNEL_LEN];
        let last = kernel_ms(&mut buf);
        Meter { buf, last }
    }

    /// Runs `f` and times it, with a kernel sample after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        (out, self.close(raw_s))
    }

    /// Starts a region timed in segments (see [`Segments`]).
    pub fn segments(&mut self) -> Segments<'_> {
        Segments { start: Instant::now(), total: Timed { raw_s: 0.0, norm_s: 0.0 }, meter: self }
    }

    /// Takes the kernel sample that ends a region of `raw_s` seconds and
    /// normalizes it by the samples on both sides.
    fn close(&mut self, raw_s: f64) -> Timed {
        let after = kernel_ms(&mut self.buf);
        let kernel = (self.last + after) / 2.0;
        self.last = after;
        Timed { raw_s, norm_s: raw_s * REFERENCE_MS / kernel }
    }
}

/// A long region timed in segments: everything between [`Meter::segments`]
/// and [`Segments::finish`] counts, and each [`Segments::split`] takes a
/// kernel sample, so every segment is normalized by the samples next to it
/// rather than the whole region by samples seconds away.
pub struct Segments<'a> {
    meter: &'a mut Meter,
    start: Instant,
    total: Timed,
}

impl Segments<'_> {
    /// Ends the current segment; the next one starts after the sample.
    pub fn split(&mut self) {
        let t = self.meter.close(self.start.elapsed().as_secs_f64());
        self.total.raw_s += t.raw_s;
        self.total.norm_s += t.norm_s;
        self.start = Instant::now();
    }

    /// Ends the region and returns its total time.
    pub fn finish(mut self) -> Timed {
        self.split();
        self.total
    }
}
