//! The experiment suite (E1–E12; see DESIGN.md §4).
//!
//! E10 (throughput) is the Criterion suite in `benches/throughput.rs`;
//! everything else is a subcommand of the `experiments` binary.

pub(crate) mod e1_e2_aggregate;
pub(crate) mod e3_e4_random_order;
pub(crate) mod e5_cash;
pub(crate) mod e6_e7_substrates;
pub(crate) mod e8_e9_heavy;
pub(crate) mod e11_crossover;
pub(crate) mod e12_ablations;
pub(crate) mod e13_extensions;
pub(crate) mod e14_distributed;
pub(crate) mod e15_delta;

/// Runs the experiment with the given id (`"e1"`, …, `"all"`).
/// Returns false for unknown ids.
pub fn run(id: &str) -> bool {
    match id {
        "e1" => e1_e2_aggregate::e1(),
        "e2" => e1_e2_aggregate::e2(),
        "e3" => e3_e4_random_order::e3(),
        "e4" => e3_e4_random_order::e4(),
        "e5" => e5_cash::e5(),
        "e6" => e6_e7_substrates::e6(),
        "e7" => e6_e7_substrates::e7(),
        "e8" => e8_e9_heavy::e8(),
        "e9" => e8_e9_heavy::e9(),
        "e11" => e11_crossover::e11(),
        "e12" => e12_ablations::e12(),
        "e13" => e13_extensions::e13(),
        "e14" => e14_distributed::e14(),
        "e15" => e15_delta::e15(),
        "all" => {
            for e in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e11", "e12", "e13", "e14", "e15",
            ] {
                assert!(run(e));
            }
        }
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_id_rejected() {
        assert!(!super::run("e99"));
        assert!(!super::run(""));
    }

    #[test]
    fn fast_experiments_run_to_completion() {
        // Smoke-run the cheapest experiments end to end (the full suite
        // is exercised by `experiments all` in CI/EXPERIMENTS.md; these
        // two finish in milliseconds and catch harness bitrot).
        assert!(super::run("e11"));
        assert!(super::run("e2"));
    }
}
