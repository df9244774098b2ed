//! Shape checks for the paper's experiments (§4) on reduced configurations:
//! the directions and orderings the paper reports must hold, even though the
//! absolute numbers differ from the authors' testbed.

use qrio::experiments::{
    fig10_filtering, fig6_default_topologies, fig7_for_circuit, fig9_topology_choice,
    ExperimentConfig,
};
use qrio_backend::fleet::{generate_fleet, paper_fleet, FleetConfig};
use qrio_circuit::library;

fn fast_config() -> ExperimentConfig {
    ExperimentConfig {
        shots: 96,
        seed: 23,
        repetitions: 5,
    }
}

#[test]
fn fig6_shape_qrio_always_beats_random() {
    let fleet = generate_fleet(&FleetConfig::small(), 2).unwrap();
    let rows = fig6_default_topologies(&fleet, &fast_config()).unwrap();
    assert_eq!(rows.len(), 5, "five default topologies");
    for row in &rows {
        // "our simulated scheduler code works always better than the random
        //  choice" — the decrease is non-negative for every topology.
        assert!(row.average_decrease >= -1e-9, "{} regressed", row.topology);
        assert!(row.qrio_score <= row.random_mean_score + 1e-9);
    }
    let names: Vec<&str> = rows.iter().map(|r| r.topology.as_str()).collect();
    assert_eq!(
        names,
        vec!["grid", "line", "ring", "heavy_square", "fully_connected"]
    );
}

#[test]
fn fig7_shape_oracle_beats_clifford_beats_typical_devices() {
    let fleet = generate_fleet(&FleetConfig::small(), 4).unwrap();
    let config = fast_config();
    // Use two representative circuits to keep the test fast: one Clifford
    // (Rep) and one non-Clifford (Grover).
    for (name, circuit) in [
        (
            "Rep".to_string(),
            library::repetition_code_encoder(5).unwrap(),
        ),
        ("Grover".to_string(), library::grover(3, 5).unwrap()),
    ] {
        let row = fig7_for_circuit(&name, &circuit, &fleet, &config).unwrap();
        // Oracle is an upper bound (up to sampling noise).
        assert!(
            row.oracle + 0.05 >= row.clifford,
            "{name}: oracle {:.3} vs clifford {:.3}",
            row.oracle,
            row.clifford
        );
        // The Clifford choice beats the fleet median (the paper's headline).
        assert!(
            row.clifford + 0.1 >= row.median,
            "{name}: clifford {:.3} vs median {:.3}",
            row.clifford,
            row.median
        );
        // All quantities are valid fidelities.
        for value in [
            row.oracle,
            row.clifford,
            row.random,
            row.average,
            row.median,
        ] {
            assert!((0.0..=1.0 + 1e-9).contains(&value));
        }
    }
}

#[test]
fn fig9_shape_tree_device_is_always_selected() {
    let config = ExperimentConfig {
        repetitions: 50,
        ..fast_config()
    };
    let result = fig9_topology_choice(&config).unwrap();
    assert_eq!(result.selections.len(), 50);
    assert!(
        result.always_selected_expected(),
        "the tree device must win every repetition"
    );
}

#[test]
fn fig10_shape_on_the_full_paper_fleet() {
    let fleet = paper_fleet().unwrap();
    assert_eq!(fleet.len(), 100);
    let sweep = fig10_filtering(&fleet).unwrap();
    assert_eq!(sweep.len(), 10);
    // Monotone growth from (almost) zero to the full fleet.
    for window in sweep.windows(2) {
        assert!(window[0].1 <= window[1].1);
    }
    assert!(
        sweep[0].1 <= 10,
        "0.07 threshold admits almost nothing: {:?}",
        sweep[0]
    );
    assert_eq!(sweep[9].1, 100, "0.68 threshold admits the whole fleet");
}
