//! The workspace's property-test runner, under the `proptest` crate's
//! library name and with the slice of its API the tests use (`proptest!`,
//! `prop_assert*!`, `prop_assume!`, `prop_oneof!`, ranges, regex-like
//! string patterns, `collection::vec`, tuples, `Just`, `prop_map`).
//!
//! Limits: case `i` of a property is sampled from SplitMix64 seeded with
//! the test's name and `i`, so every run tries the same inputs. The case
//! count is fixed (16, or `ProptestConfig::with_cases`). A failing case is
//! not shrunk, and no `*.proptest-regressions` file is read or written: the
//! runner reports the failing case index, `Rng::for_case(name, index)`
//! regenerates its inputs, and a case worth keeping is pinned as an
//! ordinary `#[test]`. `prop_assume!` skips the case without replacing it.
//! String patterns support only literals and `[...]` classes with `{m}` /
//! `{m,n}` repeats.

/// Deterministic generator handed to strategies during sampling.
pub struct Rng(u64);

impl Rng {
    pub fn for_case(name: &str, case: u32) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h ^ (u64::from(case) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// Object-safe value source; `prop_map`/`boxed` require `Sized`.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut Rng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> Box<dyn Strategy<Value = Self::Value>>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        (**self).sample(rng)
    }
}

#[derive(Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                let span = self.end.saturating_sub(self.start) as u64;
                self.start + (rng.next_u64() % span.max(1)) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

/// String literals act as regex strategies. Supports the subset used in
/// the test suite: literal chars and `[a-z0-9...]` classes (with ranges),
/// each optionally followed by `{m}` or `{m,n}`.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut Rng) -> String {
        sample_regex(self, rng)
    }
}

fn sample_regex(pattern: &str, rng: &mut Rng) -> String {
    let mut out = String::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let set: Vec<char> = if c == '[' {
            let mut set = Vec::new();
            let mut prev: Option<char> = None;
            while let Some(d) = chars.next() {
                if d == ']' {
                    break;
                }
                if d == '-' {
                    if let (Some(lo), Some(&hi)) = (prev, chars.peek()) {
                        chars.next();
                        let mut x = lo as u32 + 1;
                        while x <= hi as u32 {
                            if let Some(ch) = char::from_u32(x) {
                                set.push(ch);
                            }
                            x += 1;
                        }
                        prev = None;
                        continue;
                    }
                }
                set.push(d);
                prev = Some(d);
            }
            set
        } else {
            vec![c]
        };
        let (lo, hi) = if chars.peek() == Some(&'{') {
            chars.next();
            let mut spec = String::new();
            for d in chars.by_ref() {
                if d == '}' {
                    break;
                }
                spec.push(d);
            }
            let mut parts = spec.splitn(2, ',');
            let lo: usize = parts.next().unwrap_or("1").trim().parse().unwrap_or(1);
            let hi: usize = match parts.next() {
                Some(s) => s.trim().parse().unwrap_or(lo),
                None => lo,
            };
            (lo, hi.max(lo))
        } else {
            (1, 1)
        };
        if set.is_empty() {
            continue;
        }
        let n = lo + rng.below(hi - lo + 1);
        for _ in 0..n {
            out.push(set[rng.below(set.len())]);
        }
    }
    out
}

/// Weighted union produced by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
}

pub fn union<T>(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Union<T> {
    Union { arms }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.next_u64() % total.max(1);
        for (w, s) in &self.arms {
            if pick < u64::from(*w) {
                return s.sample(rng);
            }
            pick -= u64::from(*w);
        }
        self.arms[0].1.sample(rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

pub mod collection {
    use super::{Rng, Strategy};

    pub struct SizeRange(pub usize, pub usize);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n, n)
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange(r.start, r.end.saturating_sub(1).max(r.start))
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        let SizeRange(lo, hi) = size.into();
        VecStrategy { elem, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
            let n = self.lo + rng.below(self.hi - self.lo + 1);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

pub mod bool {
    pub struct Any;
    pub const ANY: Any = Any;

    impl super::Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut super::Rng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

#[derive(Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 16 }
    }
}

/// Run `body` on cases `0..cases` of the property `name`. A panicking case
/// is re-raised with its index in the message, which is all that is needed
/// to replay it: `Rng::for_case(name, index)`.
pub fn run_cases(name: &str, cases: u32, body: impl Fn(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::for_case(name, case);
        let run = std::panic::AssertUnwindSafe(|| body(&mut rng));
        if let Err(cause) = std::panic::catch_unwind(run) {
            let why = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            panic!("property `{name}` failed at case {case} of {cases}: {why}");
        }
    }
}

pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($p:pat_param in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(stringify!($name), ($cfg).cases, |__pt_rng: &mut $crate::Rng| {
                    $(let $p = $crate::Strategy::sample(&($strat), __pt_rng);)*
                    $body
                });
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::union(vec![$(($weight as u32, $crate::Strategy::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::union(vec![$((1u32, $crate::Strategy::boxed($strat))),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        assert!($cond $(, $($fmt)*)?)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(, $($fmt:tt)*)?) => {
        assert_eq!($a, $b $(, $($fmt)*)?)
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case(name: &str, case: u32) -> (Vec<u32>, String) {
        let strategy = (collection::vec(0u32..1000, 0..8), "[a-z]{1,6}");
        strategy.sample(&mut Rng::for_case(name, case))
    }

    #[test]
    fn same_name_and_case_yield_the_same_sample() {
        for case in 0..16 {
            assert_eq!(sample_case("some_property", case), sample_case("some_property", case));
        }
        assert_ne!(sample_case("some_property", 0), sample_case("some_property", 1));
        assert_ne!(sample_case("some_property", 0), sample_case("other_property", 0));
    }

    #[test]
    fn failing_property_reports_the_case_to_replay() {
        let draw = |case| (0u32..4).sample(&mut Rng::for_case("fails_on_three", case));
        let first_three = (0..64).find(|&case| draw(case) == 3).expect("a 3 within 64 cases");
        let failure = std::panic::catch_unwind(|| {
            run_cases("fails_on_three", 64, |rng| {
                let x = (0u32..4).sample(rng);
                prop_assert!(x != 3, "drew {x}");
            })
        })
        .expect_err("the property does not hold");
        let message = failure.downcast_ref::<String>().expect("formatted message");
        assert_eq!(
            message,
            &format!("property `fails_on_three` failed at case {first_three} of 64: drew 3")
        );
    }

    proptest! {
        #[test]
        fn macro_samples_every_argument(a in 1u8..5, text in "[x-z]{2,3}") {
            prop_assert!((1..5).contains(&a));
            prop_assert!((2..=3).contains(&text.len()), "{text}");
            prop_assert!(text.chars().all(|c| ('x'..='z').contains(&c)));
        }
    }
}
