//! Serial-vs-parallel equivalence: the sweep engine must be a pure
//! scheduling change. Every statistic of every cell, and therefore every
//! rendered table, must be bit-identical whether cells run on one worker
//! or many.

use multipath_bench::{figure, parallel, render_text, Budget, Cell, Run};
use multipath_core::{Features, SimConfig};
use multipath_workload::{mix, Benchmark};

fn tiny_budget() -> Budget {
    let mut b = Budget::quick();
    b.committed_per_program = 1_500;
    b
}

fn sweep_cells(budget: &Budget) -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in [Benchmark::Compress, Benchmark::Go, Benchmark::Tomcatv] {
        for features in [Features::smt(), Features::rec_rs_ru()] {
            let config = SimConfig::big_2_16().with_features(features);
            cells.push(Cell::new(config, vec![bench], budget.seed));
        }
    }
    let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
    cells.push(Cell::new(config, mix::rotations(4)[0].clone(), budget.seed));
    cells
}

#[test]
fn run_cell_results_are_identical_across_thread_counts() {
    let budget = tiny_budget();
    let cells = sweep_cells(&budget);
    let run = |c: &Cell| c.spec(&budget).run().stats().clone();
    let serial = parallel::map_with(1, &cells, run);
    for threads in [2usize, 4, 8] {
        let sharded = parallel::map_with(threads, &cells, run);
        // Stats is plain data with a derived Debug covering every counter;
        // equal Debug output means equal statistics.
        for (i, (a, b)) in serial.iter().zip(&sharded).enumerate() {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "cell {i} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn rendered_tables_are_byte_identical_across_thread_counts() {
    let budget = tiny_budget();
    let fig3 = figure("fig3", &budget).expect("fig3 is a declared figure");
    let render = |threads: usize| {
        let runs = parallel::map_with(threads, &fig3.cells, |c| Run::from(c.spec(&budget).run()));
        render_text(&fig3.table(&runs))
    };
    assert_eq!(
        render(1),
        render(6),
        "rendered Figure 3 must not depend on thread count"
    );
}
