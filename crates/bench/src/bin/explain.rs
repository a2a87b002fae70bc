//! Regenerates the reuse/recycle attribution table (the harness-side
//! companion to `multipath explain`) for all eight kernels under
//! REC/RS/RU. Budget via MULTIPATH_BUDGET=quick or MP_BENCH_COMMITS;
//! MP_FORMAT=csv for CSV. Runs serially, so output is independent of
//! MULTIPATH_THREADS by construction.

fn main() {
    multipath_bench::print_named("explain");
}
