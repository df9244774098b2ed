//! Pauli-frame batched-shot simulation for noisy Clifford circuits.
//!
//! The per-shot replay path rebuilds and replays the full `(2n+1) × (2n+1)`
//! stabilizer tableau for every shot — O(shots · n² · depth) word operations —
//! even though the only thing that differs between shots of a *Clifford*
//! circuit is which Pauli errors fired and which measurement coins came up.
//! This module exploits that: it simulates the ideal tableau **once** at plan
//! time, and per shot propagates only an n-qubit *Pauli frame* (an X mask and
//! a Z mask, `⌈n/64⌉` `u64` words each) plus a handful of parity evaluations —
//! O(shots · n · depth / 64) word operations.
//!
//! # Why this is exact (and byte-identical to replay)
//!
//! The replay computation is affine over GF(2) in two kinds of random
//! sources: the *error indicators* (which Pauli fired at which noise site)
//! and the *measurement coins* (the `gen_bool(0.5)` draws of random-outcome
//! measurements). Three facts make this linearity exact, not approximate:
//!
//! 1. **Pauli errors never change tableau structure.** Applying X/Y/Z to a
//!    tableau only flips phase bits `r[i]` (by whether row `i` anticommutes
//!    with the error); the X/Z components — and therefore every pivot choice
//!    and row operation taken during measurement — are identical in every
//!    shot.
//! 2. **Anticommutation survives conjugation.** An error `E` injected
//!    mid-circuit flips `r[i]` iff row `i` anticommutes with `E` *at that
//!    point*; conjugating both by the rest of the circuit preserves the
//!    symplectic product, so the flip equals the anticommutation of the
//!    *final* row with the *forward-propagated* error. All errors can thus be
//!    accumulated into a single terminal frame.
//! 3. **`rowsum` phases are linear in `r`.** The Aaronson–Gottesman phase is
//!    `(2·r[h] + 2·r[i] + Q) mod 4` where `Q` depends only on X/Z components
//!    and the total is always even for valid stabilizer products, so a
//!    perturbation `δ` of the phase bits propagates as `δ[h] ^= δ[i]` —
//!    plain XOR.
//!
//! [`FramePlan::build`] therefore (a) forward-propagates a unit X and a unit
//! Z frame from every noise site to the end of the circuit, and (b) collapses
//! the terminal measurement block *symbolically*, tracking for every phase
//! bit its dependence on the coins and on the terminal frame. A shot then
//! draws from the RNG **in exactly the order the replay path would** (noise
//! sites in instruction order, then per measurement the coin and the readout
//! flip), so the frame path is byte-identical to per-shot replay — with or
//! without noise — and slots into the sharded executor without disturbing
//! shard seeding or [`SEED_STREAM_STRIDE`] semantics.
//!
//! # What is shared with replay, not restated
//!
//! The planner owns no copy of anything replay does; it calls it:
//!
//! * a frame is conjugated by `apply_clifford`, the one Clifford table the
//!   tableau's `apply_gate` runs (`Frame` is its sign-free
//!   `CliffordTarget`);
//! * the symbolic collapse is `StabilizerSimulator::collapse`, the pivot
//!   search, row operations and `rowsum` of a concrete `measure`, with the
//!   dependency rows riding along as its `PhaseRider`;
//! * noise sites come from `NoiseModel::fault_sites`, the rule under
//!   `sample_gate_errors`, and a shot draws each through
//!   `FaultSite::sample` (and so [`PauliError::random`]) and each readout
//!   flip through `flip_bit`, the draw under `flip_readout`;
//! * which measurements a circuit has, explicit or implicit, is
//!   `measurement_mapping`.
//!
//! # Eligibility
//!
//! A plan is built only for circuits that are Clifford with all measurements
//! terminal ([`forces_replay`] finds no mid-circuit measure and no `Reset`)
//! and at most 64 random-outcome measurements; anything else returns `None`
//! and the executor falls back to per-shot replay. The analyzer reports what
//! `forces_replay` returns as lint `QL0008`.
//!
//! [`SEED_STREAM_STRIDE`]: crate::executor::SEED_STREAM_STRIDE

use rand::Rng;

use qrio_circuit::{Circuit, Gate, Instruction};

use crate::error::SimulatorError;
use crate::executor::{forces_replay, measurement_mapping, record_bit};
use crate::noise::{flip_bit, FaultSite, NoiseModel, PauliError};
use crate::stabilizer::{
    apply_clifford, CliffordTarget, Collapse, PhaseRider, StabilizerSimulator,
};

/// A bit-packed n-qubit Pauli operator, sign-free: `fx` holds the X
/// components, `fz` the Z components. Used both as the per-shot error frame
/// and, at plan time, to forward-propagate unit errors through the circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    fx: Vec<u64>,
    fz: Vec<u64>,
}

impl Frame {
    fn zero(wpr: usize) -> Self {
        Frame {
            fx: vec![0; wpr],
            fz: vec![0; wpr],
        }
    }

    fn unit_x(q: usize, wpr: usize) -> Self {
        let mut f = Frame::zero(wpr);
        f.fx[q >> 6] |= 1 << (q & 63);
        f
    }

    fn unit_z(q: usize, wpr: usize) -> Self {
        let mut f = Frame::zero(wpr);
        f.fz[q >> 6] |= 1 << (q & 63);
        f
    }

    fn x_bit(&self, q: usize) -> bool {
        self.fx[q >> 6] >> (q & 63) & 1 == 1
    }

    fn z_bit(&self, q: usize) -> bool {
        self.fz[q >> 6] >> (q & 63) & 1 == 1
    }

    /// Multiply by `other`, sign-free.
    fn xor(&mut self, other: &Frame) {
        for (d, s) in self.fx.iter_mut().zip(&other.fx) {
            *d ^= *s;
        }
        for (d, s) in self.fz.iter_mut().zip(&other.fz) {
            *d ^= *s;
        }
    }
}

/// The sign-free target of the one Clifford table
/// ([`apply_clifford`]): S† is S and Paulis do nothing, so the frame and the
/// tableau agree gate for gate because they are conjugated by the same code.
impl CliffordTarget for Frame {
    /// Conjugate by H on `q`: X ↔ Z.
    #[inline]
    fn h(&mut self, q: usize) {
        let (w, bit) = (q >> 6, 1u64 << (q & 63));
        let xb = self.fx[w] & bit;
        let zb = self.fz[w] & bit;
        self.fx[w] = (self.fx[w] & !bit) | zb;
        self.fz[w] = (self.fz[w] & !bit) | xb;
    }

    /// Conjugate by S (or S†, identical sign-free) on `q`: X → Y.
    #[inline]
    fn s(&mut self, q: usize) {
        let (w, bit) = (q >> 6, 1u64 << (q & 63));
        self.fz[w] ^= self.fx[w] & bit;
    }

    /// Conjugate by CNOT control `a`, target `b`: X_a → X_a X_b, Z_b → Z_a Z_b.
    #[inline]
    fn cx(&mut self, a: usize, b: usize) {
        if self.x_bit(a) {
            self.fx[b >> 6] ^= 1 << (b & 63);
        }
        if self.z_bit(b) {
            self.fz[a >> 6] ^= 1 << (a & 63);
        }
    }
}

/// The terminal images of a unit X and a unit Z error injected at one noise
/// site: XORing the matching image into the shot frame accounts for the error
/// exactly (Y uses both, since Y ∝ X·Z and propagation is linear).
#[derive(Debug, Clone)]
struct Propagated {
    x: Frame,
    z: Frame,
}

impl Propagated {
    /// Terminal images of unit X / unit Z errors on `q` injected just before
    /// `rest` of the circuit.
    fn new(q: usize, rest: &[Instruction], wpr: usize) -> Result<Self, SimulatorError> {
        let mut prop = Propagated {
            x: Frame::unit_x(q, wpr),
            z: Frame::unit_z(q, wpr),
        };
        for inst in rest {
            if matches!(inst.gate, Gate::Measure | Gate::Reset | Gate::Barrier) {
                continue;
            }
            apply_clifford(&mut prop.x, &inst.gate, &inst.qubits)?;
            apply_clifford(&mut prop.z, &inst.gate, &inst.qubits)?;
        }
        Ok(prop)
    }

    /// XOR the terminal image of `pauli` at this site into the shot frame.
    #[inline]
    fn strike(&self, pauli: PauliError, frame: &mut Frame) {
        if pauli != PauliError::Z {
            frame.xor(&self.x);
        }
        if pauli != PauliError::X {
            frame.xor(&self.z);
        }
    }
}

/// One step of the per-shot loop, in the exact order (and with the exact RNG
/// draw pattern) of the replay path.
#[derive(Debug, Clone)]
enum ShotOp {
    /// A depolarizing site with `p > 0`, drawn by [`FaultSite::sample`]
    /// exactly as the replay path draws it; `props` holds one propagated
    /// error per operand the site can strike.
    Noise {
        site: FaultSite,
        props: Vec<Propagated>,
    },
    /// Measurement with a random ideal outcome: the outcome *is* coin `coin`
    /// (errors flip phase bits, never the freshly drawn sign), followed by
    /// the readout-flip draw.
    MeasureRandom {
        clbit: usize,
        coin: u32,
        readout_p: f64,
    },
    /// Measurement with a deterministic ideal outcome: `base` XOR the parity
    /// of the recorded coin/frame dependencies, followed by the readout-flip
    /// draw.
    MeasureDet {
        clbit: usize,
        base: bool,
        dep_u: u64,
        dep_fx: Vec<u64>,
        dep_fz: Vec<u64>,
        readout_p: f64,
    },
}

/// A compiled Pauli-frame execution plan: the ideal circuit folded into
/// per-site error masks and a symbolic terminal measurement block.
///
/// Built once per run by [`FramePlan::build`]; [`run`]s of the shot loop are
/// then O(sites + measurements) word operations and draw from the RNG in the
/// exact order of the per-shot replay path, making results byte-identical to
/// replay at every seed, shard and thread count.
///
/// [`run`]: FramePlan::build
#[derive(Debug, Clone)]
pub struct FramePlan {
    wpr: usize,
    ops: Vec<ShotOp>,
}

impl FramePlan {
    /// Compile a plan for `circuit` under `noise`.
    ///
    /// Returns `Ok(None)` when the circuit is not eligible — non-Clifford,
    /// mid-circuit measurement, any `Reset`, or more than 64 random-outcome
    /// measurements — in which case the caller should use the replay path.
    ///
    /// # Errors
    ///
    /// Propagates tableau errors (e.g. out-of-range qubits); eligibility
    /// misses are *not* errors.
    pub fn build(
        circuit: &Circuit,
        noise: &NoiseModel,
    ) -> Result<Option<FramePlan>, SimulatorError> {
        if !circuit.is_clifford() || forces_replay(circuit).is_some() {
            return Ok(None);
        }
        let mut tableau = StabilizerSimulator::new(circuit.num_qubits());
        tableau.apply_circuit(circuit)?;
        let wpr = tableau.words_per_row();
        let mut sym = SymbolicTableau::new(tableau);

        let instructions = circuit.instructions();
        let mut ops = Vec::new();
        // Measurements are terminal and directives have no sites, so every
        // site precedes the measurement block, as it does in replay order.
        for (index, inst) in instructions.iter().enumerate() {
            for site in noise.fault_sites(&inst.gate, &inst.qubits) {
                let props = site
                    .operands()
                    .iter()
                    .map(|&q| Propagated::new(q, &instructions[index + 1..], wpr))
                    .collect::<Result<_, _>>()?;
                ops.push(ShotOp::Noise { site, props });
            }
        }
        for (qubit, clbit) in measurement_mapping(circuit) {
            match sym.measure_op(qubit, clbit, noise.readout_error(qubit)) {
                Some(op) => ops.push(op),
                None => return Ok(None),
            }
        }
        Ok(Some(FramePlan { wpr, ops }))
    }

    /// A fresh shot frame sized for this plan, reused across shots so the hot
    /// loop allocates nothing.
    pub(crate) fn scratch(&self) -> Frame {
        Frame::zero(self.wpr)
    }

    /// Execute one shot: walk the plan, drawing noise hits, measurement coins
    /// and readout flips in replay order, and return the packed outcome.
    pub(crate) fn run_shot<R: Rng + ?Sized>(&self, rng: &mut R, frame: &mut Frame) -> u64 {
        frame.fx.fill(0);
        frame.fz.fill(0);
        let mut coins = 0u64;
        let mut outcome = 0u64;
        for op in &self.ops {
            match op {
                ShotOp::Noise { site, props } => {
                    site.sample(rng, |operand, pauli| props[operand].strike(pauli, frame));
                }
                ShotOp::MeasureRandom {
                    clbit,
                    coin,
                    readout_p,
                } => {
                    let raw = rng.gen_bool(0.5);
                    coins |= u64::from(raw) << coin;
                    record_bit(&mut outcome, *clbit, flip_bit(*readout_p, raw, rng));
                }
                ShotOp::MeasureDet {
                    clbit,
                    base,
                    dep_u,
                    dep_fx,
                    dep_fz,
                    readout_p,
                } => {
                    let mut acc = dep_u & coins;
                    let mut word_acc = 0u64;
                    for j in 0..self.wpr {
                        word_acc ^= (dep_fx[j] & frame.fx[j]) ^ (dep_fz[j] & frame.fz[j]);
                    }
                    acc ^= word_acc; // parities add mod 2, so XOR then popcount once
                    let raw = *base ^ (acc.count_ones() & 1 == 1);
                    record_bit(&mut outcome, *clbit, flip_bit(*readout_p, raw, rng));
                }
            }
        }
        outcome
    }
}

/// The plan-time tableau plus, per row, the GF(2) dependence of its phase
/// bit on the measurement coins (`dep_u`, one bit per coin) and on the
/// terminal error frame (`dep_fx`/`dep_fz`, one bit per qubit).
///
/// Row `i`'s phase flips iff the terminal frame anticommutes with row `i`:
/// `parity(fx & z_i) ^ parity(fz & x_i)` — hence the initial dependence of
/// row `i` is `dep_fx = z_i`, `dep_fz = x_i`, a plain copy of the tableau's
/// words. The rows then ride through [`StabilizerSimulator::collapse`] as its
/// [`PhaseRider`]: `rowsum` propagates dependencies by XOR (phase updates are
/// linear in `r`, see module docs), and a random measurement's fresh row
/// depends on its coin alone.
struct SymbolicTableau {
    tableau: StabilizerSimulator,
    deps: DepRows,
    /// Coins handed out so far.
    coins: u32,
}

struct DepRows {
    wpr: usize,
    dep_u: Vec<u64>,
    dep_fx: Vec<u64>,
    dep_fz: Vec<u64>,
}

impl PhaseRider for DepRows {
    fn add(&mut self, h: usize, i: usize) {
        self.dep_u[h] ^= self.dep_u[i];
        for j in 0..self.wpr {
            self.dep_fx[h * self.wpr + j] ^= self.dep_fx[i * self.wpr + j];
            self.dep_fz[h * self.wpr + j] ^= self.dep_fz[i * self.wpr + j];
        }
    }

    fn copy(&mut self, dst: usize, src: usize) {
        let wpr = self.wpr;
        self.dep_u[dst] = self.dep_u[src];
        self.dep_fx
            .copy_within(src * wpr..(src + 1) * wpr, dst * wpr);
        self.dep_fz
            .copy_within(src * wpr..(src + 1) * wpr, dst * wpr);
    }

    fn clear(&mut self, row: usize) {
        let wpr = self.wpr;
        self.dep_u[row] = 0;
        self.dep_fx[row * wpr..(row + 1) * wpr].fill(0);
        self.dep_fz[row * wpr..(row + 1) * wpr].fill(0);
    }
}

impl SymbolicTableau {
    fn new(tableau: StabilizerSimulator) -> Self {
        let (x, z) = tableau.xz_words();
        let deps = DepRows {
            wpr: tableau.words_per_row(),
            dep_u: vec![0; 2 * tableau.num_qubits() + 1],
            dep_fx: z.to_vec(),
            dep_fz: x.to_vec(),
        };
        SymbolicTableau {
            tableau,
            deps,
            coins: 0,
        }
    }

    /// Collapse `qubit` on the plan-time tableau — the same
    /// [`StabilizerSimulator::collapse`] a concrete measurement runs — and
    /// compile the measurement into `clbit` as a shot op whose outcome is a
    /// dependency set instead of an RNG draw. Returns `None` when the plan
    /// would need more than 64 coins.
    fn measure_op(&mut self, qubit: usize, clbit: usize, readout_p: f64) -> Option<ShotOp> {
        let deps = &mut self.deps;
        Some(match self.tableau.collapse(qubit, deps) {
            Collapse::Random(row) => {
                if self.coins >= 64 {
                    return None;
                }
                let coin = self.coins;
                self.coins += 1;
                // The concrete tableau signs the fresh row with the coin it
                // draws; symbolically that is a sole dependency on the coin.
                deps.dep_u[row] = 1 << coin;
                ShotOp::MeasureRandom {
                    clbit,
                    coin,
                    readout_p,
                }
            }
            Collapse::Determined(base) => {
                let scratch = deps.dep_u.len() - 1;
                let words = scratch * deps.wpr..(scratch + 1) * deps.wpr;
                ShotOp::MeasureDet {
                    clbit,
                    base,
                    dep_u: deps.dep_u[scratch],
                    dep_fx: deps.dep_fx[words.clone()].to_vec(),
                    dep_fz: deps.dep_fz[words].to_vec(),
                    readout_p,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_circuit::library;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ineligible_circuits_return_none() {
        // Mid-circuit reset.
        let mut reset = Circuit::new(2, 2);
        reset.x(0).unwrap();
        reset.reset(0).unwrap();
        reset.measure_all().unwrap();
        assert!(FramePlan::build(&reset, &NoiseModel::ideal(2))
            .unwrap()
            .is_none());

        // Gate after measurement.
        let mut mid = Circuit::new(2, 2);
        mid.h(0).unwrap();
        mid.measure(0, 0).unwrap();
        mid.x(1).unwrap();
        mid.measure(1, 1).unwrap();
        assert!(FramePlan::build(&mid, &NoiseModel::ideal(2))
            .unwrap()
            .is_none());

        // Non-Clifford gate.
        let mut t = Circuit::new(1, 1);
        t.t(0).unwrap();
        t.measure(0, 0).unwrap();
        assert!(FramePlan::build(&t, &NoiseModel::ideal(1))
            .unwrap()
            .is_none());
    }

    #[test]
    fn every_clifford_gate_conjugates_the_frame_as_the_tableau_does() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let quarter: Vec<f64> = (0..4).map(|k| f64::from(k) * FRAC_PI_2).collect();
        let mut gates = vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::SX,
            Gate::CX,
            Gate::CZ,
            Gate::CY,
            Gate::Swap,
        ];
        for &a in &quarter {
            gates.extend([Gate::RX(a), Gate::RY(a), Gate::RZ(a), Gate::U1(a)]);
            for &b in &quarter {
                gates.push(Gate::U2(a, b));
                gates.extend(quarter.iter().map(|&c| Gate::U3(a, b, c)));
            }
        }
        for angle in [0.0, PI] {
            gates.extend([Gate::CP(angle), Gate::CRZ(angle)]);
        }

        let (n, wpr) = (3, 1);
        for gate in gates {
            assert!(gate.is_clifford(), "{gate:?}");
            // Operands out of order, so control and target cannot be confused.
            let qubits = &[2, 0][..gate.num_qubits()];
            // Row q of a fresh tableau is X_q and row n+q is Z_q, so after
            // the gate they hold the images of the unit frames, sign aside.
            let mut tableau = StabilizerSimulator::new(n);
            tableau.apply_gate(&gate, qubits).unwrap();
            let (x, z) = tableau.xz_words();
            for &q in qubits {
                for (row, mut frame) in [(q, Frame::unit_x(q, wpr)), (n + q, Frame::unit_z(q, wpr))]
                {
                    apply_clifford(&mut frame, &gate, qubits).unwrap();
                    assert_eq!(
                        (&frame.fx[..], &frame.fz[..]),
                        (&x[row * wpr..][..wpr], &z[row * wpr..][..wpr]),
                        "{gate:?} on {qubits:?}, row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn symbolic_and_concrete_collapse_agree() {
        for seed in 0..24 {
            // Measure everything twice: the second round is determined by
            // the coins of the first.
            let mut circuit = library::random_clifford_circuit(6, 4, seed).unwrap();
            circuit.measure_all().unwrap();
            let plan = FramePlan::build(&circuit, &NoiseModel::ideal(6))
                .unwrap()
                .expect("terminal Clifford circuit");
            let mapping = measurement_mapping(&circuit);
            assert_eq!(plan.ops.len(), mapping.len(), "an ideal plan has no sites");

            let mut concrete = StabilizerSimulator::new(6);
            concrete.apply_circuit(&circuit).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut coins = 0u64;
            for (op, (qubit, _)) in plan.ops.iter().zip(mapping) {
                let random = matches!(
                    concrete.clone().collapse(qubit, &mut ()),
                    Collapse::Random(_)
                );
                let drawn = concrete.measure(qubit, &mut rng);
                match op {
                    ShotOp::MeasureRandom { coin, .. } => {
                        assert!(random, "seed {seed}: plan drew a coin for a fixed outcome");
                        coins |= u64::from(drawn) << coin;
                    }
                    ShotOp::MeasureDet { base, dep_u, .. } => {
                        assert!(!random, "seed {seed}: plan fixed a random outcome");
                        let predicted = base ^ ((dep_u & coins).count_ones() & 1 == 1);
                        assert_eq!(predicted, drawn, "seed {seed}, qubit {qubit}");
                    }
                    ShotOp::Noise { .. } => unreachable!("checked above"),
                }
            }
        }
    }

    #[test]
    fn deterministic_circuit_reproduces_exact_outcome() {
        let secret = 0b1011001101u64;
        let circuit = library::bernstein_vazirani(10, secret).unwrap();
        let plan = FramePlan::build(&circuit, &NoiseModel::ideal(10))
            .unwrap()
            .expect("bv is eligible");
        let mut scratch = plan.scratch();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..16 {
            assert_eq!(plan.run_shot(&mut rng, &mut scratch), secret);
        }
    }

    #[test]
    fn ghz_shots_are_bimodal_and_correlated() {
        let circuit = library::ghz(5).unwrap();
        let plan = FramePlan::build(&circuit, &NoiseModel::ideal(5))
            .unwrap()
            .expect("ghz is eligible");
        let mut scratch = plan.scratch();
        let mut rng = StdRng::seed_from_u64(2);
        let all_ones = (1u64 << 5) - 1;
        let mut zeros = 0;
        for _ in 0..200 {
            let outcome = plan.run_shot(&mut rng, &mut scratch);
            assert!(outcome == 0 || outcome == all_ones, "got {outcome:b}");
            if outcome == 0 {
                zeros += 1;
            }
        }
        assert!((40..160).contains(&zeros), "{zeros} zeros of 200");
    }

    #[test]
    fn pure_readout_noise_flips_every_bit() {
        let mut circuit = Circuit::new(2, 2);
        circuit.measure_all().unwrap();
        let noise = NoiseModel::uniform(2, 0.0, 0.0, 1.0);
        let plan = FramePlan::build(&circuit, &noise).unwrap().unwrap();
        let mut scratch = plan.scratch();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..32 {
            assert_eq!(plan.run_shot(&mut rng, &mut scratch), 0b11);
        }
    }

    #[test]
    fn certain_x_noise_site_flips_downstream_measurement() {
        // One H-free wire: |0> -I-> measure, with p(single-qubit error) = 1.
        // Every shot faults the I gate with X, Y or Z; X and Y flip the
        // outcome, so roughly 2/3 of shots read 1.
        let mut circuit = Circuit::new(1, 1);
        circuit.append(Gate::I, &[0]).unwrap();
        circuit.measure(0, 0).unwrap();
        let noise = NoiseModel::uniform(1, 1.0, 0.0, 0.0);
        let plan = FramePlan::build(&circuit, &noise).unwrap().unwrap();
        let mut scratch = plan.scratch();
        let mut rng = StdRng::seed_from_u64(4);
        let ones: u32 = (0..600)
            .map(|_| plan.run_shot(&mut rng, &mut scratch) as u32)
            .sum();
        assert!((300..500).contains(&ones), "{ones} ones of 600");
    }
}
