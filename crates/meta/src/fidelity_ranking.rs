//! The Fidelity Ranking strategy (paper §3.4.1).
//!
//! The user supplies a target fidelity for their circuit. Because the
//! noise-free output of a general circuit cannot be computed classically, the
//! meta server builds a *Clifford canary* — the user's circuit with every
//! non-Clifford gate snapped to its nearest Clifford — which (a) is
//! classically simulable at any size thanks to Gottesman–Knill and (b)
//! retains the two-qubit gate structure that dominates NISQ error. The canary
//! is executed both noise-free and under the candidate device's noise model;
//! the Hellinger fidelity between the two distributions estimates how well
//! the device would serve the original circuit, and the score returned to the
//! scheduler penalises the shortfall against the user's target.

use std::borrow::Cow;

use qrio_backend::Backend;
use qrio_bytes::codec_struct;
use qrio_circuit::Circuit;
use qrio_sim::{executor, NoiseModel, ParallelConfig};
use qrio_transpiler::{deflate, transpile};

use crate::error::MetaError;

/// Tunable parameters of the canary evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityRankingConfig {
    /// Shots per (circuit, device) evaluation.
    pub shots: u64,
    /// RNG seed (device-independent part; the device name is hashed in).
    pub seed: u64,
    /// Extra penalty weight applied to the shortfall below the target.
    pub shortfall_weight: f64,
}

codec_struct!(FidelityRankingConfig {
    shots,
    seed,
    shortfall_weight,
});

impl Default for FidelityRankingConfig {
    fn default() -> Self {
        FidelityRankingConfig {
            shots: 256,
            seed: 0x0C0FFEE,
            shortfall_weight: 100.0,
        }
    }
}

/// The result of evaluating one device for a fidelity-ranked job.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityEvaluation {
    /// Device that was evaluated.
    pub device: String,
    /// Estimated (canary) fidelity on the device, in `[0, 1]`.
    pub canary_fidelity: f64,
    /// Score returned to the scheduler (lower is better).
    pub score: f64,
    /// Number of SWAPs routing added on this device (context for the score).
    pub swaps_inserted: usize,
}

/// Evaluate how well `backend` can serve `circuit` given a `target_fidelity`.
///
/// The score is `100·(1 − F_canary)` plus `shortfall_weight·(target − F)` when
/// the canary falls short of the target, so devices that meet the requirement
/// compete on raw fidelity and devices that miss it are pushed down the
/// ranking proportionally to how badly they miss.
///
/// # Errors
///
/// Returns an error if the circuit cannot be transpiled to the device or the
/// canary cannot be simulated.
pub fn evaluate_fidelity(
    circuit: &Circuit,
    target_fidelity: f64,
    backend: &Backend,
    config: &FidelityRankingConfig,
) -> Result<FidelityEvaluation, MetaError> {
    if !(0.0..=1.0).contains(&target_fidelity) {
        return Err(MetaError::InvalidMetadata(format!(
            "target fidelity {target_fidelity} is outside [0, 1]"
        )));
    }
    let (canary_fidelity, canary_swaps) = run_canary(circuit, backend, config)?;
    let mut score = 100.0 * (1.0 - canary_fidelity);
    if canary_fidelity < target_fidelity {
        score += config.shortfall_weight * (target_fidelity - canary_fidelity);
    }
    Ok(FidelityEvaluation {
        device: backend.name().to_string(),
        canary_fidelity,
        score,
        swaps_inserted: canary_swaps.unwrap_or_else(|| {
            transpile(&ensure_measured(circuit), backend).map_or(0, |r| r.swaps_inserted)
        }),
    })
}

/// Estimate the Clifford-canary fidelity of `circuit` on `backend`:
/// cliffordize, transpile, deflate to the active qubits, then compare the
/// noise-free and noisy output distributions with Hellinger fidelity.
///
/// # Errors
///
/// Returns an error if transpilation or simulation fails.
pub fn canary_fidelity_on_backend(
    circuit: &Circuit,
    backend: &Backend,
    config: &FidelityRankingConfig,
) -> Result<f64, MetaError> {
    run_canary(circuit, backend, config).map(|(fidelity, _)| fidelity)
}

/// The canary fidelity and, when snapping to Clifford changed no instruction
/// (every Clifford job), the SWAPs the canary's transpile inserted — which
/// are then the SWAPs the user's circuit needs, without transpiling it again.
fn run_canary(
    circuit: &Circuit,
    backend: &Backend,
    config: &FidelityRankingConfig,
) -> Result<(f64, Option<usize>), MetaError> {
    let prepared = ensure_measured(circuit);
    let canary = prepared.to_clifford();
    let transpiled = transpile(&canary, backend)?;
    let same_circuit = canary.instructions() == prepared.instructions();
    let canary_swaps = same_circuit.then_some(transpiled.swaps_inserted);
    // Re-snap: basis translation / 1q fusion keeps Clifford circuits Clifford,
    // but floating-point angle extraction can drift by ~1e-15; snapping makes
    // the stabilizer engine's Clifford check robust.
    let physical_canary = transpiled.circuit.to_clifford();
    let deflated = deflate(&physical_canary, backend)?;

    let seed = config.seed ^ stable_hash(backend.name());
    let noise = NoiseModel::from_backend(&deflated.backend);
    // One preparation, two halves; the noisy half runs a full seed stride
    // away so the two sharded executions never share an RNG stream.
    let (ideal, noisy) = executor::run_paired(
        &deflated.circuit,
        &noise,
        config.shots,
        seed,
        seed.wrapping_add(qrio_sim::SEED_STREAM_STRIDE),
        &ParallelConfig::default(),
    )?;
    Ok((ideal.hellinger_fidelity(&noisy), canary_swaps))
}

/// Add terminal measurements when the user circuit has none, so that there is
/// a distribution to compare.
fn ensure_measured(circuit: &Circuit) -> Cow<'_, Circuit> {
    if circuit.has_measurements() {
        Cow::Borrowed(circuit)
    } else {
        let mut measured = circuit.clone();
        let _ = measured.measure_all();
        Cow::Owned(measured)
    }
}

/// A small deterministic string hash (FNV-1a) so per-device seeds differ.
pub(crate) fn stable_hash(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;
    use qrio_circuit::library;

    fn config() -> FidelityRankingConfig {
        FidelityRankingConfig {
            shots: 128,
            seed: 7,
            shortfall_weight: 100.0,
        }
    }

    #[test]
    fn clean_devices_score_better_than_noisy_ones() {
        let circuit = library::bernstein_vazirani(6, 0b101101).unwrap();
        let clean = Backend::uniform("clean", topology::line(8), 0.0, 0.0);
        let noisy = Backend::uniform("noisy", topology::line(8), 0.05, 0.25);
        let clean_eval = evaluate_fidelity(&circuit, 1.0, &clean, &config()).unwrap();
        let noisy_eval = evaluate_fidelity(&circuit, 1.0, &noisy, &config()).unwrap();
        assert!(clean_eval.canary_fidelity > 0.95);
        assert!(clean_eval.canary_fidelity > noisy_eval.canary_fidelity);
        assert!(clean_eval.score < noisy_eval.score);
    }

    #[test]
    fn canary_fidelity_for_non_clifford_circuits() {
        // "Circ"-style random circuit: non-Clifford, so the canary path must
        // cliffordize before simulating.
        let circuit = library::random_circuit(5, 4, 11).unwrap();
        assert!(!circuit.is_clifford());
        let backend = Backend::uniform("mid", topology::ring(10), 0.01, 0.05);
        let f = canary_fidelity_on_backend(&circuit, &backend, &config()).unwrap();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn shortfall_penalty_applies() {
        let circuit = library::ghz(4).unwrap();
        let noisy = Backend::uniform("noisy", topology::line(6), 0.05, 0.3);
        let strict = evaluate_fidelity(&circuit, 1.0, &noisy, &config()).unwrap();
        let lax = evaluate_fidelity(&circuit, 0.0, &noisy, &config()).unwrap();
        assert!(
            strict.score > lax.score,
            "higher targets must penalise shortfalls harder"
        );
        assert!((strict.canary_fidelity - lax.canary_fidelity).abs() < 1e-9);
    }

    #[test]
    fn swaps_are_those_of_the_users_circuit_clifford_or_not() {
        // A Clifford job reads the count off the canary's transpile; a
        // non-Clifford one transpiles the user's circuit for it, as before.
        let backend = Backend::uniform("line", topology::line(8), 0.01, 0.05);
        for circuit in [
            library::bernstein_vazirani(6, 0b101101).unwrap(),
            library::topology_circuit(4, &[(0, 2), (1, 3), (0, 3)]).unwrap(),
            library::random_circuit(6, 5, 3).unwrap(),
            library::qft(5).unwrap(),
        ] {
            let expected = transpile(&ensure_measured(&circuit), &backend)
                .unwrap()
                .swaps_inserted;
            let evaluation = evaluate_fidelity(&circuit, 0.9, &backend, &config()).unwrap();
            assert_eq!(evaluation.swaps_inserted, expected, "{}", circuit.name());
        }
    }

    #[test]
    fn invalid_target_is_rejected() {
        let circuit = library::ghz(2).unwrap();
        let backend = Backend::uniform("dev", topology::line(2), 0.0, 0.0);
        assert!(evaluate_fidelity(&circuit, 1.5, &backend, &config()).is_err());
        assert!(evaluate_fidelity(&circuit, -0.1, &backend, &config()).is_err());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let circuit = library::hidden_subgroup(4).unwrap();
        let backend = Backend::uniform("dev", topology::ring(8), 0.02, 0.1);
        let a = evaluate_fidelity(&circuit, 0.9, &backend, &config()).unwrap();
        let b = evaluate_fidelity(&circuit, 0.9, &backend, &config()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn circuits_too_large_for_device_error_out() {
        let circuit = library::ghz(12).unwrap();
        let backend = Backend::uniform("small", topology::line(4), 0.0, 0.0);
        assert!(matches!(
            evaluate_fidelity(&circuit, 0.9, &backend, &config()),
            Err(MetaError::Transpiler(_))
        ));
    }

    #[test]
    fn unmeasured_circuits_are_handled() {
        let circuit = library::topology_circuit(3, &[(0, 1), (1, 2)]).unwrap();
        let backend = Backend::uniform("dev", topology::line(5), 0.01, 0.05);
        let f = canary_fidelity_on_backend(&circuit, &backend, &config()).unwrap();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn stable_hash_differs_per_device() {
        assert_ne!(stable_hash("a"), stable_hash("b"));
        assert_eq!(stable_hash("dev"), stable_hash("dev"));
    }
}
