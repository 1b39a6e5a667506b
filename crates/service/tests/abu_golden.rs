//! Golden `ABU` replies at the paper's twelve Figure 1 points (three
//! protocols × 1/10/100/1000 Mbps, 50 stations) for one fixed seed.
//!
//! The replies are pinned byte for byte. Any change to the analysis
//! kernels, the breakdown search or the workload generator that moves a
//! single verdict shows up here as a changed `abu_mean`, `abu_ci95` or
//! `infeasible_sets`. Regenerate only for an intended change of results:
//! `GOLDEN_PRINT=1 cargo test -p ringrt-service --test abu_golden -- --nocapture`
//! prints the current replies.

use ringrt_exec::Pool;
use ringrt_service::engine::execute_abu;
use ringrt_service::protocol::{parse_request, Request};

const GOLDEN: [&str; 12] = [
    "OK cmd=abu protocol=fddi mbps=1 stations=50 samples=16 seed=20261017 abu_mean=0.017357 abu_ci95=0.019835 infeasible_sets=10",
    "OK cmd=abu protocol=fddi mbps=10 stations=50 samples=16 seed=20261017 abu_mean=0.635106 abu_ci95=0.010965 infeasible_sets=0",
    "OK cmd=abu protocol=fddi mbps=100 stations=50 samples=16 seed=20261017 abu_mean=0.876564 abu_ci95=0.003939 infeasible_sets=0",
    "OK cmd=abu protocol=fddi mbps=1000 stations=50 samples=16 seed=20261017 abu_mean=0.943311 abu_ci95=0.001668 infeasible_sets=0",
    "OK cmd=abu protocol=modified mbps=1 stations=50 samples=16 seed=20261017 abu_mean=0.537391 abu_ci95=0.009480 infeasible_sets=0",
    "OK cmd=abu protocol=modified mbps=10 stations=50 samples=16 seed=20261017 abu_mean=0.632565 abu_ci95=0.007374 infeasible_sets=0",
    "OK cmd=abu protocol=modified mbps=100 stations=50 samples=16 seed=20261017 abu_mean=0.163220 abu_ci95=0.001961 infeasible_sets=0",
    "OK cmd=abu protocol=modified mbps=1000 stations=50 samples=16 seed=20261017 abu_mean=0.017828 abu_ci95=0.000213 infeasible_sets=0",
    "OK cmd=abu protocol=802.5 mbps=1 stations=50 samples=16 seed=20261017 abu_mean=0.473570 abu_ci95=0.007608 infeasible_sets=0",
    "OK cmd=abu protocol=802.5 mbps=10 stations=50 samples=16 seed=20261017 abu_mean=0.470264 abu_ci95=0.005448 infeasible_sets=0",
    "OK cmd=abu protocol=802.5 mbps=100 stations=50 samples=16 seed=20261017 abu_mean=0.109347 abu_ci95=0.001318 infeasible_sets=0",
    "OK cmd=abu protocol=802.5 mbps=1000 stations=50 samples=16 seed=20261017 abu_mean=0.011935 abu_ci95=0.000143 infeasible_sets=0",
];

fn requests() -> Vec<String> {
    let mut lines = Vec::new();
    for protocol in ["fddi", "modified", "802.5"] {
        for mbps in [1, 10, 100, 1000] {
            lines.push(format!(
                "ABU mbps={mbps} stations=50 samples=16 seed=20261017 protocol={protocol}"
            ));
        }
    }
    lines
}

#[test]
fn figure1_abu_replies_are_pinned() {
    let replies: Vec<String> = requests()
        .iter()
        .map(|line| match parse_request(line) {
            Ok(Request::Abu(req)) => execute_abu(&req, &Pool::serial()),
            other => panic!("{line}: {other:?}"),
        })
        .collect();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for reply in &replies {
            println!("    \"{reply}\",");
        }
    }
    assert_eq!(replies.len(), GOLDEN.len());
    for (reply, golden) in replies.iter().zip(GOLDEN) {
        assert_eq!(reply, golden);
    }
}
