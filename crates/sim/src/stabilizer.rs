//! Stabilizer (Clifford) simulation via the Aaronson–Gottesman CHP tableau.
//!
//! The Gottesman–Knill theorem lets circuits composed solely of Clifford
//! operations be simulated in polynomial time, which is the foundation of the
//! paper's *Clifford canary* fidelity-ranking strategy (§3.4.1): the canary is
//! classically simulable at any qubit count, yet retains the two-qubit gate
//! structure of the user's circuit.
//!
//! The implementation follows Aaronson & Gottesman, *Improved simulation of
//! stabilizer circuits* (2004): a `(2n + 1) × (2n + 1)` binary tableau whose
//! first `n` rows are destabilizers and next `n` rows are stabilizers, with a
//! scratch row used during measurement.
//!
//! Rows are bit-packed into `u64` words (64 qubits per word), so the row
//! multiplication at the heart of measurement — `rowsum` — runs word-parallel:
//! the phase exponent of the Pauli product is accumulated with bitwise masks
//! and popcounts instead of a per-qubit table lookup, and the row XOR touches
//! `⌈n/64⌉` words instead of `n` booleans. This is ~64× less memory and
//! memory traffic than the previous `Vec<Vec<bool>>` layout.
//!
//! Two things are written here once, for every Clifford view of a circuit.
//! [`apply_clifford`] is the one table that decomposes a Clifford gate into
//! the generators {H, S, S†, CX, X, Y, Z}; it drives any [`CliffordTarget`]:
//! this tableau, which tracks signs, and the sign-free generator buffer of
//! the Pauli-frame planner in [`crate::frame`], which steps its error images
//! back over a gate generator by generator.
//! [`StabilizerSimulator::collapse`] is the one computational-basis collapse
//! (pivot search, row operations, `rowsum` phase arithmetic), generic over
//! the [`PhaseRider`] that travels with each row's phase bit: nothing for
//! [`StabilizerSimulator::measure`], the coin / frame dependency rows for
//! the Pauli-frame planner.

use rand::Rng;

use qrio_circuit::{Circuit, Gate};

use crate::error::SimulatorError;
use crate::noise::PauliError;

/// What [`apply_clifford`] drives: the generators every Clifford gate
/// decomposes into. A target that tracks signs implements all five; a
/// sign-free one leaves the defaults, for which S† is S and a Pauli does
/// nothing (it commutes with every Pauli up to a sign the target does not
/// carry).
pub(crate) trait CliffordTarget {
    /// Conjugate by H on `q`.
    fn h(&mut self, q: usize);
    /// Conjugate by S on `q`.
    fn s(&mut self, q: usize);
    /// Conjugate by CNOT with control `a` and target `b`.
    fn cx(&mut self, a: usize, b: usize);
    /// Conjugate by S† on `q`.
    #[inline]
    fn sdg(&mut self, q: usize) {
        self.s(q);
    }
    /// Conjugate by the Pauli `pauli` on `q`.
    #[inline]
    fn pauli(&mut self, _pauli: PauliError, _q: usize) {}
}

/// What travels with each row's phase bit through
/// [`StabilizerSimulator::collapse`]. Phase updates are linear in the phase
/// bits, so a rider sees exactly the row operations the phases see.
pub(crate) trait PhaseRider {
    /// Row `h` was multiplied by row `i`: phases add, riders XOR.
    fn add(&mut self, h: usize, i: usize);
    /// Row `dst` became a copy of row `src`.
    fn copy(&mut self, dst: usize, src: usize);
    /// Row `row` was overwritten by a fresh operator with phase `+1`.
    fn clear(&mut self, row: usize);
}

/// Nothing rides along: the concrete tableau of [`StabilizerSimulator::measure`].
impl PhaseRider for () {
    #[inline]
    fn add(&mut self, _h: usize, _i: usize) {}
    #[inline]
    fn copy(&mut self, _dst: usize, _src: usize) {}
    #[inline]
    fn clear(&mut self, _row: usize) {}
}

/// How [`StabilizerSimulator::collapse`] left the tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Collapse {
    /// The outcome is random: this stabilizer row is now the fresh `+Z_a`,
    /// for the caller to sign with the outcome it draws.
    Random(usize),
    /// The outcome is determined: the phase of the scratch row (row `2n`),
    /// whose rider holds what that phase depends on.
    Determined(bool),
}

/// CHP stabilizer tableau over `n` qubits, bit-packed 64 qubits per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizerSimulator {
    n: usize,
    /// Words per row: `⌈n/64⌉` (at least 1 so indexing stays trivial).
    wpr: usize,
    /// X components, row-major: bit `j % 64` of word `i * wpr + j / 64` is
    /// the X component of row `i` on qubit `j`. Bits at positions `>= n` in
    /// the last word of a row are always zero.
    x: Vec<u64>,
    /// Z components, same layout as `x`.
    z: Vec<u64>,
    /// r[i]: phase bit of row i (true = -1).
    r: Vec<bool>,
}

impl StabilizerSimulator {
    /// The |0…0⟩ stabilizer state over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        let n = num_qubits;
        let wpr = n.div_ceil(64).max(1);
        let rows = 2 * n + 1;
        let mut sim = StabilizerSimulator {
            n,
            wpr,
            x: vec![0; rows * wpr],
            z: vec![0; rows * wpr],
            r: vec![false; rows],
        };
        for i in 0..n {
            sim.x[i * wpr + (i >> 6)] |= 1 << (i & 63); // destabilizers X_i
            sim.z[(n + i) * wpr + (i >> 6)] |= 1 << (i & 63); // stabilizers Z_i
        }
        sim
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Words per bit-packed row (`⌈n/64⌉`, at least 1). Used by the
    /// Pauli-frame planner to lay out its masks identically.
    pub(crate) fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// The packed X and Z components of every row (layout documented on
    /// `x`): what the Pauli-frame planner's dependency rows start as.
    pub(crate) fn xz_words(&self) -> (&[u64], &[u64]) {
        (&self.x, &self.z)
    }

    /// Apply a Hadamard gate to qubit `a`.
    pub fn h(&mut self, a: usize) {
        let (w, bit) = (a >> 6, 1u64 << (a & 63));
        let mut off = w;
        for i in 0..2 * self.n {
            let xw = self.x[off];
            let zw = self.z[off];
            self.r[i] ^= xw & zw & bit != 0;
            self.x[off] = (xw & !bit) | (zw & bit);
            self.z[off] = (zw & !bit) | (xw & bit);
            off += self.wpr;
        }
    }

    /// Apply an S (phase) gate to qubit `a`.
    pub fn s(&mut self, a: usize) {
        let (w, bit) = (a >> 6, 1u64 << (a & 63));
        let mut off = w;
        for i in 0..2 * self.n {
            let xw = self.x[off];
            let zw = self.z[off];
            self.r[i] ^= xw & zw & bit != 0;
            self.z[off] = zw ^ (xw & bit);
            off += self.wpr;
        }
    }

    /// Apply a CNOT with control `a` and target `b`.
    pub fn cx(&mut self, a: usize, b: usize) {
        let (wa, sa) = (a >> 6, a & 63);
        let (wb, sb) = (b >> 6, b & 63);
        let mut row = 0;
        // Branchless bit arithmetic: conditional XORs on random tableau data
        // would mispredict about half the time.
        for i in 0..2 * self.n {
            let xia = (self.x[row + wa] >> sa) & 1;
            let zia = (self.z[row + wa] >> sa) & 1;
            let xib = (self.x[row + wb] >> sb) & 1;
            let zib = (self.z[row + wb] >> sb) & 1;
            self.r[i] ^= xia & zib & (xib ^ zia ^ 1) != 0;
            self.x[row + wb] ^= xia << sb;
            self.z[row + wa] ^= zib << sa;
            row += self.wpr;
        }
    }

    /// Apply a Pauli-X gate to qubit `a`.
    pub fn x_gate(&mut self, a: usize) {
        // X = H Z H, but the direct phase update is cheaper: X anticommutes with Z.
        let (w, bit) = (a >> 6, 1u64 << (a & 63));
        let mut off = w;
        for i in 0..2 * self.n {
            self.r[i] ^= self.z[off] & bit != 0;
            off += self.wpr;
        }
    }

    /// Apply a Pauli-Z gate to qubit `a`.
    pub fn z_gate(&mut self, a: usize) {
        let (w, bit) = (a >> 6, 1u64 << (a & 63));
        let mut off = w;
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[off] & bit != 0;
            off += self.wpr;
        }
    }

    /// Apply a Pauli-Y gate to qubit `a`.
    pub fn y_gate(&mut self, a: usize) {
        // Y ∝ Z·X: anticommutes with both X and Z components individually.
        self.z_gate(a);
        self.x_gate(a);
    }

    /// Rowsum as defined by Aaronson–Gottesman: row `h` *= row `i`.
    ///
    /// Word-parallel: the per-qubit phase function `g` is evaluated for all 64
    /// qubits of a word at once as "+1" and "−1" bit masks, accumulated with
    /// popcounts.
    fn rowsum<P: PhaseRider>(&mut self, h: usize, i: usize, rider: &mut P) {
        let mut phase: i64 = i64::from(self.r[h]) * 2 + i64::from(self.r[i]) * 2;
        let hoff = h * self.wpr;
        let ioff = i * self.wpr;
        for j in 0..self.wpr {
            let x1 = self.x[ioff + j];
            let z1 = self.z[ioff + j];
            let x2 = self.x[hoff + j];
            let z2 = self.z[hoff + j];
            // g = +1 on: (x1,z1,x2,z2) ∈ {(1,1,0,1), (1,0,1,1), (0,1,1,0)}
            let plus = (x1 & z1 & !x2 & z2) | (x1 & !z1 & x2 & z2) | (!x1 & z1 & x2 & !z2);
            // g = −1 on: (x1,z1,x2,z2) ∈ {(1,1,1,0), (1,0,0,1), (0,1,1,1)}
            let minus = (x1 & z1 & x2 & !z2) | (x1 & !z1 & !x2 & z2) | (!x1 & z1 & x2 & z2);
            phase += i64::from(plus.count_ones()) - i64::from(minus.count_ones());
            self.x[hoff + j] = x2 ^ x1;
            self.z[hoff + j] = z2 ^ z1;
        }
        self.r[h] = phase.rem_euclid(4) == 2;
        rider.add(h, i);
    }

    /// Collapse qubit `a` in the computational basis: the pivot search and
    /// the row operations, which depend on the X/Z components alone — never
    /// on a phase bit, a coin or an error — and are therefore the same in
    /// every shot. `rider` is told of every row operation.
    pub(crate) fn collapse<P: PhaseRider>(&mut self, a: usize, rider: &mut P) -> Collapse {
        let n = self.n;
        let wpr = self.wpr;
        let (w, bit) = (a >> 6, 1u64 << (a & 63));
        // Is the outcome random? Look for a stabilizer with an X component on a.
        let mut p = None;
        for i in n..2 * n {
            if self.x[i * wpr + w] & bit != 0 {
                p = Some(i);
                break;
            }
        }
        if let Some(p) = p {
            // Random outcome.
            for i in 0..2 * n {
                if i != p && self.x[i * wpr + w] & bit != 0 {
                    self.rowsum(i, p, rider);
                }
            }
            // Destabilizer row p-n becomes the old stabilizer row p.
            self.x.copy_within(p * wpr..(p + 1) * wpr, (p - n) * wpr);
            self.z.copy_within(p * wpr..(p + 1) * wpr, (p - n) * wpr);
            self.r[p - n] = self.r[p];
            rider.copy(p - n, p);
            // New stabilizer row p = +Z_a; the caller gives it its sign.
            self.x[p * wpr..(p + 1) * wpr].fill(0);
            self.z[p * wpr..(p + 1) * wpr].fill(0);
            self.z[p * wpr + w] |= bit;
            self.r[p] = false;
            rider.clear(p);
            Collapse::Random(p)
        } else {
            // Deterministic outcome: compute it in the scratch row 2n.
            let scratch = 2 * n;
            self.x[scratch * wpr..(scratch + 1) * wpr].fill(0);
            self.z[scratch * wpr..(scratch + 1) * wpr].fill(0);
            self.r[scratch] = false;
            rider.clear(scratch);
            for i in 0..n {
                if self.x[i * wpr + w] & bit != 0 {
                    self.rowsum(scratch, i + n, rider);
                }
            }
            Collapse::Determined(self.r[scratch])
        }
    }

    /// Measure qubit `a` in the computational basis, collapsing the state.
    pub fn measure<R: Rng + ?Sized>(&mut self, a: usize, rng: &mut R) -> bool {
        match self.collapse(a, &mut ()) {
            Collapse::Random(p) => {
                // New stabilizer row p = ±Z_a with random sign.
                let outcome = rng.gen_bool(0.5);
                self.r[p] = outcome;
                outcome
            }
            Collapse::Determined(outcome) => outcome,
        }
    }

    /// Apply one Clifford gate by decomposing it into {H, S, CX, X, Y, Z}.
    ///
    /// # Errors
    ///
    /// Returns [`SimulatorError::NotClifford`] if the gate is not a Clifford
    /// operation, and range errors for bad qubit indices.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimulatorError> {
        for &q in qubits {
            if q >= self.n {
                return Err(SimulatorError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.n,
                });
            }
        }
        if !gate.is_clifford() {
            return Err(SimulatorError::NotClifford {
                gate: gate.name().to_string(),
            });
        }
        if matches!(gate, Gate::Measure | Gate::Reset) {
            return Err(SimulatorError::Unsupported(
                "measure/reset must be handled by the executor, not applied as a unitary".into(),
            ));
        }
        apply_clifford(self, gate, qubits)
    }

    /// Apply every unitary instruction of a Clifford circuit.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit contains non-Clifford gates or exceeds
    /// the register size.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimulatorError> {
        if circuit.num_qubits() > self.n {
            return Err(SimulatorError::QubitOutOfRange {
                qubit: circuit.num_qubits().saturating_sub(1),
                num_qubits: self.n,
            });
        }
        for inst in circuit.instructions() {
            if matches!(inst.gate, Gate::Measure | Gate::Reset | Gate::Barrier) {
                continue;
            }
            self.apply_gate(&inst.gate, &inst.qubits)?;
        }
        Ok(())
    }
}

impl CliffordTarget for StabilizerSimulator {
    #[inline]
    fn h(&mut self, q: usize) {
        StabilizerSimulator::h(self, q);
    }
    #[inline]
    fn s(&mut self, q: usize) {
        StabilizerSimulator::s(self, q);
    }
    #[inline]
    fn cx(&mut self, a: usize, b: usize) {
        StabilizerSimulator::cx(self, a, b);
    }
    #[inline]
    fn sdg(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }
    #[inline]
    fn pauli(&mut self, pauli: PauliError, q: usize) {
        match pauli {
            PauliError::X => self.x_gate(q),
            PauliError::Y => self.y_gate(q),
            PauliError::Z => self.z_gate(q),
        }
    }
}

/// The one Clifford table: conjugate `target` by `gate`, as a product of the
/// generators of [`CliffordTarget`] and up to a global phase. The caller has
/// checked qubit ranges and Clifford angles; measure and reset are not
/// unitaries and are not in the table.
///
/// # Errors
///
/// Returns [`SimulatorError::NotClifford`] for a gate outside the table.
pub(crate) fn apply_clifford<T: CliffordTarget>(
    target: &mut T,
    gate: &Gate,
    qubits: &[usize],
) -> Result<(), SimulatorError> {
    match *gate {
        Gate::I | Gate::Barrier => {}
        Gate::H => target.h(qubits[0]),
        Gate::S => target.s(qubits[0]),
        Gate::Sdg => target.sdg(qubits[0]),
        Gate::X => target.pauli(PauliError::X, qubits[0]),
        Gate::Y => target.pauli(PauliError::Y, qubits[0]),
        Gate::Z => target.pauli(PauliError::Z, qubits[0]),
        Gate::SX => {
            // sqrt(X) = H S H up to global phase.
            target.h(qubits[0]);
            target.s(qubits[0]);
            target.h(qubits[0]);
        }
        Gate::CX => target.cx(qubits[0], qubits[1]),
        Gate::CZ => {
            target.h(qubits[1]);
            target.cx(qubits[0], qubits[1]);
            target.h(qubits[1]);
        }
        Gate::CY => {
            target.sdg(qubits[1]);
            target.cx(qubits[0], qubits[1]);
            target.s(qubits[1]);
        }
        Gate::Swap => {
            target.cx(qubits[0], qubits[1]);
            target.cx(qubits[1], qubits[0]);
            target.cx(qubits[0], qubits[1]);
        }
        Gate::RZ(theta) | Gate::U1(theta) => quarter_z(target, qubits[0], theta),
        Gate::RX(theta) => {
            target.h(qubits[0]);
            quarter_z(target, qubits[0], theta);
            target.h(qubits[0]);
        }
        Gate::RY(theta) => {
            // RY(θ) = S · RX(θ) · S†
            target.sdg(qubits[0]);
            target.h(qubits[0]);
            quarter_z(target, qubits[0], theta);
            target.h(qubits[0]);
            target.s(qubits[0]);
        }
        Gate::U2(phi, lambda) => {
            u3(target, qubits[0], std::f64::consts::FRAC_PI_2, phi, lambda);
        }
        Gate::U3(theta, phi, lambda) => u3(target, qubits[0], theta, phi, lambda),
        Gate::CP(theta) | Gate::CRZ(theta) => {
            // At Clifford angles (multiples of π) both reduce to CZ or identity
            // up to single-qubit phases that do not affect measurement outcomes.
            let k = (theta / std::f64::consts::PI).round() as i64;
            if k.rem_euclid(2) == 1 {
                target.h(qubits[1]);
                target.cx(qubits[0], qubits[1]);
                target.h(qubits[1]);
            }
            if matches!(gate, Gate::CRZ(_)) {
                // CRZ(kπ) also applies RZ(-kπ/2) on the control (global-phase free).
                quarter_z(target, qubits[0], -theta / 2.0);
            }
        }
        ref g => {
            return Err(SimulatorError::NotClifford {
                gate: g.name().to_string(),
            })
        }
    }
    Ok(())
}

/// Apply RZ at a multiple of π/2 as a power of S.
fn quarter_z<T: CliffordTarget>(target: &mut T, q: usize, theta: f64) {
    let k = (theta / std::f64::consts::FRAC_PI_2).round() as i64;
    match k.rem_euclid(4) {
        1 => target.s(q),
        2 => target.pauli(PauliError::Z, q),
        3 => target.sdg(q),
        _ => {}
    }
}

/// Apply a Clifford-angle u3 via the ZYZ decomposition u3 = RZ(φ)·RY(θ)·RZ(λ).
fn u3<T: CliffordTarget>(target: &mut T, q: usize, theta: f64, phi: f64, lambda: f64) {
    quarter_z(target, q, lambda);
    target.sdg(q);
    target.h(q);
    quarter_z(target, q, theta);
    target.h(q);
    target.s(q);
    quarter_z(target, q, phi);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn measuring_zero_state_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sim = StabilizerSimulator::new(3);
        for q in 0..3 {
            assert!(!sim.measure(q, &mut rng));
        }
    }

    #[test]
    fn x_gate_flips_measurement() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sim = StabilizerSimulator::new(2);
        sim.x_gate(1);
        assert!(!sim.measure(0, &mut rng));
        assert!(sim.measure(1, &mut rng));
    }

    #[test]
    fn bell_pair_correlations() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut sim = StabilizerSimulator::new(2);
            sim.h(0);
            sim.cx(0, 1);
            let a = sim.measure(0, &mut rng);
            let b = sim.measure(1, &mut rng);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn hadamard_measurement_is_random() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ones = 0;
        for _ in 0..400 {
            let mut sim = StabilizerSimulator::new(1);
            sim.h(0);
            if sim.measure(0, &mut rng) {
                ones += 1;
            }
        }
        assert!((140..260).contains(&ones), "got {ones} ones");
    }

    #[test]
    fn ghz_parity() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut sim = StabilizerSimulator::new(5);
            sim.h(0);
            for q in 1..5 {
                sim.cx(q - 1, q);
            }
            let outcomes: Vec<bool> = (0..5).map(|q| sim.measure(q, &mut rng)).collect();
            assert!(outcomes.iter().all(|&o| o == outcomes[0]));
        }
    }

    #[test]
    fn z_and_s_do_not_affect_computational_measurement_of_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = StabilizerSimulator::new(1);
        sim.z_gate(0);
        sim.s(0);
        sim.sdg(0);
        assert!(!sim.measure(0, &mut rng));
    }

    #[test]
    fn hzh_equals_x() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = StabilizerSimulator::new(1);
        sim.h(0);
        sim.z_gate(0);
        sim.h(0);
        assert!(sim.measure(0, &mut rng));
    }

    #[test]
    fn swap_and_cz_via_apply_gate() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sim = StabilizerSimulator::new(2);
        sim.apply_gate(&Gate::X, &[0]).unwrap();
        sim.apply_gate(&Gate::Swap, &[0, 1]).unwrap();
        assert!(!sim.measure(0, &mut rng));
        assert!(sim.measure(1, &mut rng));

        // CZ sandwiched in Hadamards acts like CX.
        let mut sim = StabilizerSimulator::new(2);
        sim.apply_gate(&Gate::X, &[0]).unwrap();
        sim.apply_gate(&Gate::H, &[1]).unwrap();
        sim.apply_gate(&Gate::CZ, &[0, 1]).unwrap();
        sim.apply_gate(&Gate::H, &[1]).unwrap();
        assert!(sim.measure(1, &mut rng));
    }

    #[test]
    fn clifford_rotations_match_paulis() {
        use std::f64::consts::PI;
        let mut rng = StdRng::seed_from_u64(13);
        // RX(pi) == X up to phase.
        let mut sim = StabilizerSimulator::new(1);
        sim.apply_gate(&Gate::RX(PI), &[0]).unwrap();
        assert!(sim.measure(0, &mut rng));
        // RY(pi) == Y up to phase: also flips |0> to |1>.
        let mut sim = StabilizerSimulator::new(1);
        sim.apply_gate(&Gate::RY(PI), &[0]).unwrap();
        assert!(sim.measure(0, &mut rng));
        // u3(pi, 0, pi) == X.
        let mut sim = StabilizerSimulator::new(1);
        sim.apply_gate(&Gate::U3(PI, 0.0, PI), &[0]).unwrap();
        assert!(sim.measure(0, &mut rng));
        // CP(pi) == CZ.
        let mut sim = StabilizerSimulator::new(2);
        sim.apply_gate(&Gate::X, &[0]).unwrap();
        sim.apply_gate(&Gate::H, &[1]).unwrap();
        sim.apply_gate(&Gate::CP(PI), &[0, 1]).unwrap();
        sim.apply_gate(&Gate::H, &[1]).unwrap();
        assert!(sim.measure(1, &mut rng));
    }

    #[test]
    fn non_clifford_gates_are_rejected() {
        let mut sim = StabilizerSimulator::new(2);
        assert!(matches!(
            sim.apply_gate(&Gate::T, &[0]),
            Err(SimulatorError::NotClifford { .. })
        ));
        assert!(sim.apply_gate(&Gate::RZ(0.3), &[0]).is_err());
        assert!(sim.apply_gate(&Gate::H, &[5]).is_err());
        assert!(sim.apply_gate(&Gate::Measure, &[0]).is_err());
    }

    #[test]
    fn apply_circuit_runs_clifford_library_circuits() {
        let mut rng = StdRng::seed_from_u64(17);
        let circuit = qrio_circuit::library::bernstein_vazirani(10, 0b1100110011).unwrap();
        let mut sim = StabilizerSimulator::new(10);
        sim.apply_circuit(&circuit).unwrap();
        let mut outcome = 0u64;
        for q in 0..10 {
            if sim.measure(q, &mut rng) {
                outcome |= 1 << q;
            }
        }
        assert_eq!(outcome, 0b1100110011);
    }

    #[test]
    fn tableaus_spanning_multiple_words_work() {
        // 70 qubits crosses the 64-bit word boundary; GHZ correlations must
        // hold across it.
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..5 {
            let mut sim = StabilizerSimulator::new(70);
            sim.h(0);
            for q in 1..70 {
                sim.cx(q - 1, q);
            }
            let first = sim.measure(0, &mut rng);
            assert_eq!(sim.measure(63, &mut rng), first);
            assert_eq!(sim.measure(64, &mut rng), first);
            assert_eq!(sim.measure(69, &mut rng), first);
        }
    }
}
