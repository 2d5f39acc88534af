//! The workspace's seeded PRNG, under the `rand` crate's library name and
//! with the slice of its API the workspace calls: `StdRng`, `SeedableRng`,
//! `Rng::{random_range, random_bool}`.
//!
//! Limits: `StdRng` is SplitMix64, not ChaCha — not cryptographic, and its
//! stream is not upstream `rand`'s. There is no OS entropy and no
//! `thread_rng`: every generator is seeded explicitly. Integer ranges are
//! sampled by modulo, so spans that do not divide 2^64 carry a bias of at
//! most span / 2^64.
//!
//! The stream and the seed constant are frozen: every corpus, trained
//! model, golden log and committed `BENCH_*.json` row was generated from
//! them (`stream_is_frozen` below pins the first outputs).

pub mod rngs {
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng { state: seed ^ 0x5DEE_CE66_D1CE_F00D }
    }
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.next_f64() < p
    }
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub trait SampleRange<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

/// Per-type uniform sampling; a single blanket `SampleRange` impl over
/// `Range<T>` / `RangeInclusive<T>` keeps type inference identical to the
/// real crate (the range's item type IS the sample type).
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_half_open<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self;
    fn sample_inclusive<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T {
        let (s, e) = (*self.start(), *self.end());
        assert!(s <= e, "cannot sample empty range");
        T::sample_inclusive(rng, s, e)
    }
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
            fn sample_inclusive<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self {
                lo + (rng.next_f64() as $t) * (hi - lo)
            }
            fn sample_inclusive<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self {
                lo + (rng.next_f64() as $t) * (hi - lo)
            }
        }
    )*};
}
float_uniform!(f32, f64);

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn stream_is_frozen() {
        let mut rng = StdRng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [18144196621771586521, 6231806935032981823, 11603016375683525844, 4769594796501383271]
        );
        assert_eq!(rng.random_range(0..1000usize), 957);
        assert_eq!(rng.random_range(-5..=5i32), 4);
        assert_eq!(rng.random_range(0.0..1.0f64).to_bits(), 0x3fe9_d2db_1a9e_639d);
        assert!(rng.random_bool(0.5));
    }
}
