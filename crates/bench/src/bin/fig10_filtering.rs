//! Figure 10: number of filtered devices as the user tightens or relaxes the
//! maximum tolerated two-qubit error rate, over the 100-device fleet.
//!
//! Run with: `cargo run -p qrio-bench --release --bin fig10_filtering`

use qrio::experiments::fig10_filtering;
use qrio_backend::fleet::paper_fleet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fleet = paper_fleet()?;
    println!(
        "Fig. 10: filtered devices vs. user-requested maximum two-qubit error ({} devices)",
        fleet.len()
    );
    println!("{:>24} {:>18}", "max 2q error", "filtered devices");
    for (threshold, count) in fig10_filtering(&fleet)? {
        let bar = "#".repeat(count / 2);
        println!("{threshold:>24.3} {count:>18}   {bar}");
    }
    println!(
        "\nexpected shape: 0 devices at 0.07, the entire fleet at 0.68, monotone growth in between"
    );
    Ok(())
}
