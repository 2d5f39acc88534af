//! Entry points for the bench targets, under the `criterion` crate's
//! library name and with the slice of its API they call.
//!
//! Limits: this is not a measurement tool. Every `bench_function` /
//! `bench_with_input` closure, and the closure given to `Bencher::iter`,
//! runs exactly once; there is no warm-up, no sampling, no statistics and
//! no report, and the `sample_size` / `measurement_time` / `warm_up_time` /
//! `throughput` settings are accepted and ignored. It exists so the bench
//! targets compile in the gate and smoke-run; they print the tables they
//! compute themselves. Wall-clock numbers come from `benchmark/`.

#[derive(Default)]
pub struct Criterion {
    _p: (),
}

impl Criterion {
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    pub fn measurement_time(self, _d: std::time::Duration) -> Self {
        self
    }

    pub fn warm_up_time(self, _d: std::time::Duration) -> Self {
        self
    }

    pub fn benchmark_group<S: ToString>(&mut self, _name: S) -> BenchmarkGroup {
        BenchmarkGroup { _p: () }
    }

    pub fn bench_function<S: ToString, F: FnMut(&mut Bencher)>(
        &mut self,
        _name: S,
        mut f: F,
    ) -> &mut Self {
        f(&mut Bencher { _p: () });
        self
    }
}

pub struct BenchmarkGroup {
    _p: (),
}

impl BenchmarkGroup {
    pub fn throughput(&mut self, _t: Throughput) {}

    pub fn bench_function<S: ToString, F: FnMut(&mut Bencher)>(
        &mut self,
        _name: S,
        mut f: F,
    ) -> &mut Self {
        f(&mut Bencher { _p: () });
        self
    }

    pub fn bench_with_input<S: ToString, I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        _id: S,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        f(&mut Bencher { _p: () }, input);
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    _p: (),
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let _ = f();
    }
}

pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new<S: ToString, P: std::fmt::Display>(name: S, param: P) -> Self {
        BenchmarkId(format!("{}/{param}", name.to_string()))
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($t:path),* $(,)?) => {
        pub fn $name() {
            let mut c = $cfg;
            $($t(&mut c);)*
        }
    };
    ($name:ident, $($t:path),* $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($t(&mut c);)*
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($g:path),* $(,)?) => {
        fn main() {
            $($g();)*
        }
    };
}
