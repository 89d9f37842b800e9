//! Runs every paper-table binary in sequence — regenerates the data of
//! the "Paper-table binaries" table in `docs/BENCHMARKS.md` (CSV files
//! land in `results/`).
//!
//! Usage: `cargo run -p ra-bench --release --bin exp_all`

use std::process::Command;

fn main() {
    let bins = [
        "fig5_remark2",
        "fig6_demo",
        "sec3_certificates",
        "lemma1_table",
        "remark3_queries",
        "sec5_numbers",
        "fig7",
    ];
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    for bin in bins {
        println!(
            "\n=== {bin} {}\n",
            "=".repeat(60_usize.saturating_sub(bin.len()))
        );
        let status = Command::new(exe_dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
    println!("\nAll experiments regenerated; CSVs in results/.");
}
