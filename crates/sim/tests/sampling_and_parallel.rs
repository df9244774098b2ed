//! Distribution-correctness of the binary-search sampler and bit-level
//! reproducibility of sharded parallel shot execution.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qrio_circuit::{library, Circuit, Gate};
use qrio_sim::{
    run_ideal_parallel, run_with_noise_parallel, NoiseModel, ParallelConfig, StateVector,
};

/// Chi-square goodness-of-fit: draws from the precomputed cumulative table
/// must follow `StateVector::probabilities()`.
#[test]
fn binary_search_sampling_matches_probabilities_chi_square() {
    // An 8-qubit state with structure (GHZ core + rotations) so the
    // distribution is far from uniform.
    let mut sv = StateVector::new(8).unwrap();
    let mut circuit = Circuit::new(8, 0);
    circuit.h(0).unwrap();
    for q in 1..8 {
        circuit.cx(q - 1, q).unwrap();
    }
    circuit.append(Gate::RY(0.4), &[2]).unwrap();
    circuit.append(Gate::RX(1.1), &[5]).unwrap();
    circuit.append(Gate::T, &[0]).unwrap();
    circuit.h(7).unwrap();
    sv.apply_circuit(&circuit).unwrap();

    let probabilities = sv.probabilities();
    let table = sv.cumulative_distribution();
    let draws: u64 = 40_000;
    let mut observed = vec![0u64; probabilities.len()];
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..draws {
        observed[table.sample(&mut rng) as usize] += 1;
    }

    // Pool states with tiny expectation into one bucket so every chi-square
    // term has expected count >= ~5 (the usual validity rule).
    let mut chi_square = 0.0;
    let mut pooled_expected = 0.0;
    let mut pooled_observed = 0.0;
    let mut buckets = 0usize;
    for (index, &p) in probabilities.iter().enumerate() {
        let expected = p * draws as f64;
        if expected < 5.0 {
            pooled_expected += expected;
            pooled_observed += observed[index] as f64;
        } else {
            let diff = observed[index] as f64 - expected;
            chi_square += diff * diff / expected;
            buckets += 1;
        }
    }
    if pooled_expected > 0.0 {
        let diff = pooled_observed - pooled_expected;
        chi_square += diff * diff / pooled_expected.max(1e-9);
        buckets += 1;
    }
    // Degrees of freedom = buckets - 1. Generous p ≈ 0.001 critical bound
    // (for df <= 128, chi2_crit(0.001) < df + 4*sqrt(2*df) + 10): the test is
    // seeded, so this never flakes — it only fails if sampling is biased.
    let df = (buckets - 1) as f64;
    let critical = df + 4.0 * (2.0 * df).sqrt() + 10.0;
    assert!(
        chi_square < critical,
        "chi-square {chi_square:.1} exceeds critical {critical:.1} (df {df})"
    );
}

/// The sampler hits every outcome of a uniform superposition (no dead zones).
#[test]
fn binary_search_sampling_covers_the_support() {
    let mut sv = StateVector::new(4).unwrap();
    for q in 0..4 {
        sv.apply_gate(&Gate::H, &[q]).unwrap();
    }
    let table = sv.cumulative_distribution();
    let mut rng = StdRng::seed_from_u64(7);
    let mut seen = [false; 16];
    for _ in 0..2000 {
        seen[table.sample(&mut rng) as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "some outcomes were never sampled");
}

fn assert_thread_invariant(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    seed: u64,
    label: &str,
) {
    let reference = run_with_noise_parallel(
        circuit,
        noise,
        shots,
        seed,
        &ParallelConfig::with_threads(1),
    )
    .unwrap();
    for threads in [2usize, 8] {
        let counts = run_with_noise_parallel(
            circuit,
            noise,
            shots,
            seed,
            &ParallelConfig::with_threads(threads),
        )
        .unwrap();
        assert_eq!(
            reference, counts,
            "{label}: counts diverged between 1 and {threads} threads"
        );
    }
    // The auto configuration resolves to *some* thread count, so it must
    // reproduce the same histogram too.
    let auto = run_with_noise_parallel(circuit, noise, shots, seed, &ParallelConfig::auto());
    assert_eq!(reference, auto.unwrap(), "{label}: auto config diverged");
}

/// Identical `Counts` for 1, 2 and 8 threads at a fixed seed — stabilizer
/// engine, ideal Pauli-frame plan.
#[test]
fn parallel_execution_is_deterministic_stabilizer_ideal() {
    let circuit = library::random_clifford_circuit(14, 6, 5).unwrap();
    let noise = NoiseModel::ideal(14);
    assert_thread_invariant(&circuit, &noise, 1000, 11, "stabilizer-ideal");
}

/// Identical `Counts` across thread counts — stabilizer engine, noisy replay
/// path.
#[test]
fn parallel_execution_is_deterministic_stabilizer_noisy() {
    let circuit = library::random_clifford_circuit(10, 5, 8).unwrap();
    let noise = NoiseModel::uniform(10, 0.02, 0.08, 0.03);
    assert_thread_invariant(&circuit, &noise, 1000, 13, "stabilizer-noisy");
}

/// Identical `Counts` across thread counts — statevector engine, ideal fast
/// path (binary-search sampling).
#[test]
fn parallel_execution_is_deterministic_statevector_ideal() {
    let circuit = library::random_circuit(8, 4, 21).unwrap();
    let noise = NoiseModel::ideal(8);
    assert_thread_invariant(&circuit, &noise, 1000, 17, "statevector-ideal");
}

/// Identical `Counts` across thread counts — statevector engine, noisy
/// replay path.
#[test]
fn parallel_execution_is_deterministic_statevector_noisy() {
    let circuit = library::random_circuit(6, 4, 33).unwrap();
    let noise = NoiseModel::uniform(6, 0.02, 0.06, 0.02);
    assert_thread_invariant(&circuit, &noise, 600, 19, "statevector-noisy");
}

/// Shot counts that do not divide evenly into shards keep the invariant, and
/// more workers than shards is fine.
#[test]
fn parallel_execution_handles_ragged_and_tiny_shot_counts() {
    let circuit = library::ghz(5).unwrap();
    let noise = NoiseModel::ideal(5);
    for shots in [1u64, 63, 64, 65, 130, 1001] {
        let a = run_ideal_parallel(&circuit, shots, 3, &ParallelConfig::with_threads(1)).unwrap();
        let b = run_ideal_parallel(&circuit, shots, 3, &ParallelConfig::with_threads(8)).unwrap();
        assert_eq!(a, b, "shots={shots}");
        assert_eq!(a.total(), shots);
        let c = run_with_noise_parallel(&circuit, &noise, shots, 3, &ParallelConfig::auto());
        assert_eq!(a, c.unwrap(), "auto diverged at shots={shots}");
    }
}
