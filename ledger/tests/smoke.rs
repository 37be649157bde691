//! A `--quick` run of every workload, untraced and traced, through the
//! built executable. It runs as a process of its own because the host
//! reference times only a process that runs nothing else, which a test
//! harness's threads rule out.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "kernel_search_hiutil",
    "kernel_churn",
    "ingress_open",
    "wire_closed",
];

fn ledger(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "0.3"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("the ledger starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// Every answer checks out, no request fails, and a traced run writes both
/// span files.
#[test]
fn quick_run_of_every_workload() {
    for trace in ["0", "1"] {
        for workload in WORKLOADS {
            let out = ledger(workload, trace);
            let last = out.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, "),
                "{workload}: {last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
            if trace == "1" {
                let files = out
                    .lines()
                    .find_map(|l| l.split_once(" spans -> "))
                    .map(|(_, files)| files)
                    .expect("a trace line");
                for file in files.split(" and ") {
                    assert!(Path::new(file).is_file(), "{workload}: no {file}");
                }
            }
        }
    }
}
