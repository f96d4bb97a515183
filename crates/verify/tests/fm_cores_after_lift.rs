//! Layer 1a's learned-core check must not see cores left behind by lifts
//! that ran earlier in the same process: an in-process `stng-verify` run
//! (as `bench_json` makes after lifting the corpus) has to report what the
//! standalone binary reports. Its own test binary, because the check sweeps
//! the prover's global tables, which no unpinned sibling test may see.

use stng_verify::layer1_fm::{run_strata, Stratum};
use stng_verify::CheckReport;

fn tiny() -> Stratum {
    Stratum {
        name: "test-1var-c1-k2",
        nvars: 1,
        coeff_bound: 1,
        const_bound: 1,
        min_rows: 1,
        max_rows: 2,
        box_bound: 3,
    }
}

/// The `fm.learned-cores` check's cases and per-stratum core count.
fn cores(reports: &[CheckReport]) -> (u64, Vec<(String, u64)>) {
    let check = reports
        .iter()
        .find(|c| c.name == "fm.learned-cores")
        .expect("the FM layer reports its learned cores");
    assert_eq!(check.failures, 0, "{:?}", check.notes);
    (check.cases, check.detail.clone())
}

#[test]
fn first_stratum_core_count_ignores_earlier_lifts() {
    let alone = cores(&run_strata(&[&tiny()]));

    let source = stng_corpus::all_kernels()
        .into_iter()
        .find(|k| k.name == "terra_conv")
        .expect("terra_conv is in the corpus")
        .source;
    let lifted = stng::Stng::new().lift_source(&source).expect("parses");
    assert!(!lifted.kernels.is_empty());
    assert!(
        !stng_solve::lin::model::learned_cores().is_empty(),
        "the lift must leave learned cores behind, or this test shows nothing"
    );

    let after_lift = cores(&run_strata(&[&tiny()]));
    assert_eq!(after_lift, alone);
}
