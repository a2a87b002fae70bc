//! Regenerates Figure 4 of the paper on the parallel sweep engine.
//! Workers via MULTIPATH_THREADS (default: all cores); budget via
//! MULTIPATH_BUDGET=quick or MP_BENCH_COMMITS / MP_BENCH_MIXES
//! (defaults: 20k committed per program, all 8 mixes). Output is
//! byte-identical at every thread count.

fn main() {
    multipath_bench::print_named("fig4");
}
