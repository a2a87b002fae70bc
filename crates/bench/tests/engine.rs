//! The figure engine: one deduplicating sweep renders every figure exactly
//! as running it alone would.

use multipath_bench::{distinct_cells, figure, render_csv, render_text, tables, Budget, FIGURES};
use multipath_testkit::TestRng;

/// The sweep figures: every name in [`FIGURES`] but `explain`.
fn sweep_names() -> Vec<&'static str> {
    FIGURES.into_iter().filter(|&n| n != "explain").collect()
}

#[test]
fn one_deduplicated_sweep_renders_each_figure_as_it_renders_alone() {
    let budget = Budget {
        committed_per_program: 1_000,
        mixes: 1,
        ..Budget::quick()
    };
    // Shuffled, so that which figure first declares a shared cell varies.
    let mut names = FIGURES;
    let mut rng = TestRng::new(13);
    for i in (1..names.len()).rev() {
        names.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let together = tables(&names, &budget);
    assert_eq!(together.len(), names.len());
    for (name, table) in names.iter().zip(&together) {
        let alone = tables(&[name], &budget).remove(0);
        assert_eq!(render_text(table), render_text(&alone), "{name} text");
        assert_eq!(render_csv(table), render_csv(&alone), "{name} CSV");
    }
}

#[test]
fn the_full_budget_suite_declares_552_distinct_of_720_cells() {
    let budget = Budget::full();
    let figures: Vec<_> = sweep_names()
        .into_iter()
        .map(|n| figure(n, &budget).expect("a sweep figure"))
        .collect();
    let declared: usize = figures.iter().map(|f| f.cells.len()).sum();
    let (distinct, slots) = distinct_cells(&figures, &budget);
    assert_eq!(declared, 720);
    assert_eq!(distinct.len(), 552);
    for (f, slots) in figures.iter().zip(&slots) {
        assert_eq!(slots.len(), f.cells.len(), "{}", f.name);
        for (cell, &i) in f.cells.iter().zip(slots) {
            assert_eq!(
                cell.spec(&budget).canonical_string(),
                distinct[i].spec(&budget).canonical_string(),
                "{}",
                f.name
            );
        }
    }
}
