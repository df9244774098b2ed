//! Noise models derived from backend calibration data.
//!
//! The fleet of Table 2 is parameterized by single-qubit, two-qubit and
//! readout error rates. This module turns a [`Backend`] into an executable
//! [`NoiseModel`]: depolarizing Pauli errors after each gate plus readout bit
//! flips. Pauli channels keep Clifford circuits inside the stabilizer
//! formalism, which is exactly what the Clifford-canary strategy needs, and
//! the same channels drive Monte-Carlo trajectories in the statevector engine.

use rand::Rng;

use qrio_backend::Backend;
use qrio_circuit::Gate;

/// A Pauli error to inject after a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauliError {
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl PauliError {
    /// The corresponding circuit gate.
    pub fn gate(&self) -> Gate {
        match self {
            PauliError::X => Gate::X,
            PauliError::Y => Gate::Y,
            PauliError::Z => Gate::Z,
        }
    }

    /// Draw a uniformly random non-identity Pauli.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        match rng.gen_range(0..3u8) {
            0 => PauliError::X,
            1 => PauliError::Y,
            _ => PauliError::Z,
        }
    }
}

/// Executable noise model: per-qubit and per-edge depolarizing probabilities
/// plus per-qubit readout flip probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    single_qubit_error: Vec<f64>,
    readout_error: Vec<f64>,
    /// Two-qubit error per coupled pair `(min, max)`.
    two_qubit_error: std::collections::BTreeMap<(usize, usize), f64>,
    /// Fallback two-qubit error when a pair is not individually calibrated.
    default_two_qubit_error: f64,
    num_qubits: usize,
}

impl NoiseModel {
    /// A noise-free model over `num_qubits` qubits.
    pub fn ideal(num_qubits: usize) -> Self {
        NoiseModel {
            single_qubit_error: vec![0.0; num_qubits],
            readout_error: vec![0.0; num_qubits],
            two_qubit_error: std::collections::BTreeMap::new(),
            default_two_qubit_error: 0.0,
            num_qubits,
        }
    }

    /// Build a noise model from a backend's calibration data.
    pub fn from_backend(backend: &Backend) -> Self {
        let n = backend.num_qubits();
        let single_qubit_error = (0..n)
            .map(|q| backend.qubit(q).single_qubit_error)
            .collect();
        let readout_error = (0..n).map(|q| backend.qubit(q).readout_error).collect();
        let two_qubit_error = backend
            .two_qubit_gates()
            .iter()
            .map(|(&edge, props)| (edge, props.error))
            .collect();
        NoiseModel {
            single_qubit_error,
            readout_error,
            two_qubit_error,
            default_two_qubit_error: backend.avg_two_qubit_error(),
            num_qubits: n,
        }
    }

    /// A uniform noise model (every qubit/edge identical), useful in tests.
    pub fn uniform(
        num_qubits: usize,
        single_qubit_error: f64,
        two_qubit_error: f64,
        readout_error: f64,
    ) -> Self {
        NoiseModel {
            single_qubit_error: vec![single_qubit_error; num_qubits],
            readout_error: vec![readout_error; num_qubits],
            two_qubit_error: std::collections::BTreeMap::new(),
            default_two_qubit_error: two_qubit_error,
            num_qubits,
        }
    }

    /// Number of qubits covered by the model.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Whether the model injects no errors at all.
    pub fn is_ideal(&self) -> bool {
        self.single_qubit_error.iter().all(|&e| e == 0.0)
            && self.readout_error.iter().all(|&e| e == 0.0)
            && self.default_two_qubit_error == 0.0
            && self.two_qubit_error.values().all(|&e| e == 0.0)
    }

    /// Depolarizing probability after a single-qubit gate on `q`.
    pub fn single_qubit_error(&self, q: usize) -> f64 {
        self.single_qubit_error.get(q).copied().unwrap_or(0.0)
    }

    /// Depolarizing probability after a two-qubit gate on `(a, b)`. Falls back
    /// to the device average when the pair is not individually calibrated
    /// (e.g. when a not-yet-routed circuit is being scored).
    pub fn two_qubit_error(&self, a: usize, b: usize) -> f64 {
        let key = (a.min(b), a.max(b));
        self.two_qubit_error
            .get(&key)
            .copied()
            .unwrap_or(self.default_two_qubit_error)
    }

    /// Probability that the measurement of `q` is flipped.
    pub fn readout_error(&self, q: usize) -> f64 {
        self.readout_error.get(q).copied().unwrap_or(0.0)
    }

    /// The places a gate on `qubits` can fault, in draw order: none for a
    /// directive, one pair site for a two-qubit gate, otherwise one site per
    /// operand. A site with `p == 0` draws nothing and is left out. This is
    /// the one site rule: [`NoiseModel::sample_gate_errors`] draws from it
    /// per gate, the Pauli-frame planner compiles it once per run.
    pub(crate) fn fault_sites<'a>(
        &'a self,
        gate: &Gate,
        qubits: &'a [usize],
    ) -> impl Iterator<Item = FaultSite> + 'a {
        let pair = gate.is_two_qubit() && qubits.len() == 2;
        let sites = if gate.is_directive() {
            0
        } else if pair {
            1
        } else {
            qubits.len()
        };
        qubits[..sites].iter().filter_map(move |&q| {
            let (partner, p) = if pair {
                (qubits[1], self.two_qubit_error(q, qubits[1]))
            } else {
                (q, self.single_qubit_error(q))
            };
            let qubits = [q, partner];
            (p > 0.0).then_some(FaultSite { qubits, pair, p })
        })
    }

    /// Sample the Pauli errors (if any) to inject after a gate on `qubits`.
    /// Two-qubit gates may fault either or both operands.
    pub fn sample_gate_errors<R: Rng + ?Sized>(
        &self,
        gate: &Gate,
        qubits: &[usize],
        rng: &mut R,
    ) -> Vec<(usize, PauliError)> {
        let mut faults = Vec::new();
        for site in self.fault_sites(gate, qubits) {
            site.sample(rng, |operand, pauli| {
                faults.push((site.operands()[operand], pauli))
            });
        }
        faults
    }

    /// Sample the Pauli error (if any) to inject after a `Reset` on `q`.
    ///
    /// Reset semantics: the internal collapse of a reset is *not* a classical
    /// readout (nothing is recorded), so readout error does not apply — but
    /// the reset pulse itself is an active single-qubit operation and carries
    /// the qubit's single-qubit depolarizing error, sampled *after* the ideal
    /// re-initialisation. Without this, reset would be the only silently
    /// ideal operation in an otherwise noisy circuit.
    pub fn sample_reset_error<R: Rng + ?Sized>(&self, q: usize, rng: &mut R) -> Option<PauliError> {
        let p = self.single_qubit_error(q);
        if p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0)) {
            Some(PauliError::random(rng))
        } else {
            None
        }
    }

    /// Apply readout noise to a measured bit.
    pub fn flip_readout<R: Rng + ?Sized>(&self, q: usize, value: bool, rng: &mut R) -> bool {
        flip_bit(self.readout_error(q), value, rng)
    }
}

/// One depolarizing site of a gate (see [`NoiseModel::fault_sites`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultSite {
    /// Both operands of a pair site; the first entry alone otherwise.
    qubits: [usize; 2],
    /// Whether this is the pair site of a two-qubit gate.
    pair: bool,
    /// Probability that the site fires; always `> 0`.
    p: f64,
}

impl FaultSite {
    /// The qubits a hit can strike.
    pub(crate) fn operands(&self) -> &[usize] {
        &self.qubits[..1 + usize::from(self.pair)]
    }

    /// Draw the site: one `gen_bool(p)`; on a hit a pair site draws which
    /// operands fault (first, second, both), and every faulted operand draws
    /// its own Pauli, first operand first. `fault` receives the operand's
    /// position in [`FaultSite::operands`].
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut fault: impl FnMut(usize, PauliError),
    ) {
        if !rng.gen_bool(self.p.clamp(0.0, 1.0)) {
            return;
        }
        // Depolarizing on the pair: fault one or both qubits.
        let struck = if self.pair { rng.gen_range(0..3u8) } else { 0 };
        if struck != 1 {
            fault(0, PauliError::random(rng));
        }
        if struck != 0 {
            fault(1, PauliError::random(rng));
        }
    }
}

/// Flip `value` with probability `p`: one `gen_bool(p)` when `p > 0`, no draw
/// otherwise. The one readout draw, behind [`NoiseModel::flip_readout`] and
/// the Pauli-frame shot loop (which stores `p` per measurement).
#[inline]
pub(crate) fn flip_bit<R: Rng + ?Sized>(p: f64, value: bool, rng: &mut R) -> bool {
    if p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0)) {
        !value
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_model_injects_nothing() {
        let model = NoiseModel::ideal(3);
        assert!(model.is_ideal());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(model
                .sample_gate_errors(&Gate::CX, &[0, 1], &mut rng)
                .is_empty());
            assert!(!model.flip_readout(0, false, &mut rng));
        }
    }

    #[test]
    fn from_backend_reads_calibration() {
        let backend = Backend::uniform("noisy", topology::line(4), 0.02, 0.1);
        let model = NoiseModel::from_backend(&backend);
        assert_eq!(model.num_qubits(), 4);
        assert!((model.single_qubit_error(2) - 0.02).abs() < 1e-12);
        assert!((model.two_qubit_error(0, 1) - 0.1).abs() < 1e-12);
        // Uncoupled pair falls back to the average.
        assert!((model.two_qubit_error(0, 3) - 0.1).abs() < 1e-12);
        assert!(!model.is_ideal());
    }

    #[test]
    fn high_error_rates_fault_often() {
        let model = NoiseModel::uniform(2, 0.0, 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut faulted = 0;
        for _ in 0..200 {
            if !model
                .sample_gate_errors(&Gate::CX, &[0, 1], &mut rng)
                .is_empty()
            {
                faulted += 1;
            }
        }
        assert_eq!(faulted, 200);
    }

    #[test]
    fn readout_flip_probability() {
        let model = NoiseModel::uniform(1, 0.0, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(model.flip_readout(0, false, &mut rng));
        assert!(!model.flip_readout(0, true, &mut rng));
    }

    #[test]
    fn directives_never_fault() {
        let model = NoiseModel::uniform(2, 1.0, 1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(model
            .sample_gate_errors(&Gate::Barrier, &[0, 1], &mut rng)
            .is_empty());
    }

    #[test]
    fn pauli_error_gates() {
        assert_eq!(PauliError::X.gate(), Gate::X);
        assert_eq!(PauliError::Y.gate(), Gate::Y);
        assert_eq!(PauliError::Z.gate(), Gate::Z);
    }
}
