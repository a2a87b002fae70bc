//! The figure engine: one deduplicating sweep renders every figure exactly
//! as running it alone would.

use multipath_bench::{distinct_cells, figure, render_csv, render_text, tables, Budget, FIGURES};
use multipath_testkit::TestRng;

/// The paper's five figures: the first five names of [`FIGURES`].
fn paper_names() -> &'static [&'static str] {
    &FIGURES[..5]
}

#[test]
fn every_listed_name_resolves_through_figure() {
    let budget = Budget::quick();
    for name in FIGURES {
        let f = figure(name, &budget).unwrap_or_else(|| panic!("{name} is not declared"));
        assert_eq!(f.name, name);
        assert!(!f.cells.is_empty(), "{name} declares no cells");
    }
    assert!(figure("fig9", &budget).is_none());
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
    let figures: Vec<_> = paper_names()
        .iter()
        .map(|n| figure(n, &budget).expect("a paper figure"))
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

#[test]
fn the_full_budget_figure_list_declares_584_distinct_of_772_cells() {
    let budget = Budget::full();
    let figures: Vec<_> = FIGURES
        .iter()
        .map(|n| figure(n, &budget).expect("a declared figure"))
        .collect();
    let declared: usize = figures.iter().map(|f| f.cells.len()).sum();
    let (distinct, _) = distinct_cells(&figures, &budget);
    // The paper's 720 and 552, explain's 8 (all Figure 3's), and the
    // ablations' 44, of which 32 are new.
    assert_eq!(declared, 772);
    assert_eq!(distinct.len(), 584);
    assert_eq!(distinct.iter().filter(|c| c.probed).count(), 8);
}

#[test]
fn explain_shares_figure_3s_cells_and_probes_them() {
    let budget = Budget {
        committed_per_program: 1_000,
        ..Budget::quick()
    };
    let names = ["fig3", "explain"];
    let figures: Vec<_> = names.iter().map(|n| figure(n, &budget).unwrap()).collect();
    let (distinct, slots) = distinct_cells(&figures, &budget);
    assert_eq!(
        distinct.len(),
        figures[0].cells.len(),
        "each cell runs once"
    );
    for &i in &slots[1] {
        assert!(distinct[i].probed, "an explain cell runs unprobed");
    }
    let probed = distinct.iter().filter(|c| c.probed).count();
    assert_eq!(probed, slots[1].len(), "only explain's cells are probed");
    let together = tables(&names, &budget);
    for (name, table) in names.iter().zip(&together) {
        let alone = tables(&[name], &budget).remove(0);
        assert_eq!(render_csv(table), render_csv(&alone), "{name}");
    }
}
