//! Regenerates Table 1 of the paper (recycling statistics) on the
//! parallel sweep engine. Workers via MULTIPATH_THREADS; budget via
//! MULTIPATH_BUDGET=quick or MP_BENCH_COMMITS / MP_BENCH_MIXES. Output
//! is byte-identical at every thread count.

fn main() {
    multipath_bench::print_named("table1");
}
