//! Pauli-frame batched-shot simulation for Clifford circuits, noisy or ideal.
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
//! [`FramePlan::build`] therefore (a) collapses the measurements
//! *symbolically* on the final tableau, in measurement order, tracking for
//! every phase bit its dependence on the coins and on the terminal frame, and
//! (b) finds, for every noise site, the images at the end of the circuit of a
//! unit X and a unit Z error injected there. A shot then draws from the RNG
//! **in exactly the order the replay path would** — the plan's ops are in
//! instruction order, a noise site drawing its hit, a measurement its coin
//! and its readout flip — so the frame path is byte-identical to per-shot
//! replay — with or without noise — and slots into the sharded executor
//! without disturbing shard seeding or [`SEED_STREAM_STRIDE`] semantics.
//!
//! # Measurements need not be last
//!
//! A measurement is followed, on its own qubit, by nothing but barriers and
//! further measurements ([`forces_replay`]); gates and noise sites on *other*
//! qubits may come after it, as they do in every transpiled circuit (the
//! optimizer's end-of-circuit flush emits a fused `u3` on an idle qubit after
//! the measurement block). Collapsing on the final tableau is still exact:
//! a measurement commutes with every later gate that does not touch its
//! qubit, so whether an outcome is random or determined, and every determined
//! value, is the same on the final state as at the measurement's own place;
//! an error injected after the measurement lives on other qubits and stays
//! there (no later gate touches the measured one), so its terminal image
//! commutes with the measured `Z` and could not move the outcome even if it
//! were already in the frame — and it is not, because a measurement op reads
//! the shot frame as it stands at its place in instruction order.
//!
//! # Plan build is linear in the gate count
//!
//! The terminal images are built in one walk **back** from the end of the
//! circuit. The walk keeps, per qubit, the images of unit X and unit Z under
//! the gates it has passed (at the end: the units themselves). Stepping back
//! over a gate composes it in front: the gate's generators, as
//! `apply_clifford` emits them, are recorded and taken last-first — H swaps
//! the qubit's pair, S multiplies its Z image into its X image, CX(a, b)
//! multiplies X_b's image into X_a's and Z_a's into Z_b's. A noise site
//! copies the images of its operands as the walk passes it. One step per
//! generator, so O(gates) for the circuit where conjugating two fresh frames
//! through the rest of the circuit for every site was O(gates²).
//!
//! # One arena
//!
//! Every mask a shot reads lives in one `Vec<u64>` per plan, sized before the
//! first word is written (a dependency mask per measurement at most, four
//! masks per struck site operand): first the dependency masks of the
//! determined measurements, in measurement order, then the terminal images
//! of the noise sites. A shot op is `Copy` and holds offsets into it. A mask
//! has the shot frame's layout — its X words, then its Z words — so a site
//! strike is one XOR over the frame and a determined outcome one masked
//! parity.
//!
//! # One plan, two halves
//!
//! A fidelity estimate samples a circuit twice, noise-free and under a
//! device's noise. The collapse and the dependency masks do not look at the
//! noise model — they come before the noise walk — so
//! `FramePlan::without_noise` turns the noisy plan into the ideal one by
//! dropping its noise ops and setting every readout flip to `p = 0`: op for
//! op, and word for word of the arena, the plan `build` makes under
//! [`NoiseModel::ideal`]. The executor's paired run builds one plan and
//! samples both halves from it.
//!
//! # What is shared with replay, not restated
//!
//! The planner owns no copy of anything replay does; it calls it:
//!
//! * a gate is decomposed by `apply_clifford`, the one Clifford table the
//!   tableau's `apply_gate` runs (the planner's generator buffer is its
//!   sign-free `CliffordTarget`);
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
//! terminal ([`forces_replay`] finds no `Reset` and no work on a measured
//! qubit) and at most 64 random-outcome measurements; anything else returns
//! `None` and the executor falls back to per-shot replay. The rule does not
//! depend on the noise model: an ideal circuit takes the plan too, where a
//! shot draws one coin per random outcome and no readout flip — what a
//! tableau collapsed afresh per shot draws. The analyzer reports what
//! `forces_replay` returns as lint `QL0008`.
//!
//! [`SEED_STREAM_STRIDE`]: crate::executor::SEED_STREAM_STRIDE

use rand::Rng;

use qrio_circuit::{Circuit, Gate};

use crate::error::SimulatorError;
use crate::executor::{forces_replay, measurement_mapping, record_bit};
use crate::noise::{flip_bit, FaultSite, NoiseModel, PauliError};
use crate::stabilizer::{
    apply_clifford, CliffordTarget, Collapse, PhaseRider, StabilizerSimulator,
};

/// `dst ^= src`, word by word: a sign-free Pauli product.
#[inline]
fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

/// XOR the terminal image of `pauli`, struck at one operand of a site, into
/// the shot frame. `image` is the operand's X image then its Z image, each
/// laid out like the frame; Y uses both, since Y ∝ X·Z and propagation is
/// linear.
#[inline]
fn strike(image: &[u64], pauli: PauliError, frame: &mut [u64]) {
    let (x, z) = image.split_at(frame.len());
    if pauli != PauliError::Z {
        xor_into(frame, x);
    }
    if pauli != PauliError::X {
        xor_into(frame, z);
    }
}

/// A generator [`apply_clifford`] emitted, recorded so that the walk can take
/// a gate's generators last-first. Sign-free like the frame: S† is S and a
/// Pauli is nothing, the defaults of [`CliffordTarget`].
#[derive(Debug, Clone, Copy)]
enum Generator {
    H(usize),
    S(usize),
    Cx(usize, usize),
}

impl CliffordTarget for Vec<Generator> {
    #[inline]
    fn h(&mut self, q: usize) {
        self.push(Generator::H(q));
    }
    #[inline]
    fn s(&mut self, q: usize) {
        self.push(Generator::S(q));
    }
    #[inline]
    fn cx(&mut self, a: usize, b: usize) {
        self.push(Generator::Cx(a, b));
    }
}

/// One step of the backward walk of [`FramePlan::build`]: the `4 · wpr`
/// words of qubit `q` in `images` hold the terminal images of unit X / unit
/// Z errors on `q` injected just after `gate`, and are moved to just before
/// it. An error `P` before a generator `g` is the error `g P g†` after it,
/// and the image of a product is the product of the images. `generators` is
/// the walk's reused buffer.
fn step_back(
    images: &mut [u64],
    wpr: usize,
    generators: &mut Vec<Generator>,
    gate: &Gate,
    qubits: &[usize],
) -> Result<(), SimulatorError> {
    let (mask, image) = (2 * wpr, 4 * wpr);
    generators.clear();
    apply_clifford(generators, gate, qubits)?;
    for generator in generators.iter().rev() {
        match *generator {
            // H: X ↔ Z.
            Generator::H(q) => {
                let (x, z) = images[q * image..][..image].split_at_mut(mask);
                x.swap_with_slice(z);
            }
            // S: X → XZ.
            Generator::S(q) => {
                let (x, z) = images[q * image..][..image].split_at_mut(mask);
                xor_into(x, z);
            }
            // CX: X_a → X_a X_b, Z_b → Z_a Z_b.
            Generator::Cx(a, b) => {
                for j in 0..mask {
                    images[a * image + j] ^= images[b * image + j];
                    images[b * image + mask + j] ^= images[a * image + mask + j];
                }
            }
        }
    }
    Ok(())
}

/// One step of the per-shot loop, in the exact order (and with the exact RNG
/// draw pattern) of the replay path. Offsets point into the plan's arena.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ShotOp {
    /// A depolarizing site with `p > 0`, drawn by [`FaultSite::sample`]
    /// exactly as the replay path draws it; `images` is where the terminal
    /// images of its operands start, one X and one Z mask per operand.
    Noise { site: FaultSite, images: usize },
    /// Measurement with a random ideal outcome: the outcome *is* coin `coin`
    /// (errors flip phase bits, never the freshly drawn sign), followed by
    /// the readout-flip draw.
    MeasureRandom {
        clbit: usize,
        coin: u32,
        readout_p: f64,
    },
    /// Measurement with a deterministic ideal outcome: `base` XOR the parity
    /// of the recorded coin dependencies `dep_u` and of the frame under the
    /// dependency mask at `deps`, followed by the readout-flip draw.
    MeasureDet {
        clbit: usize,
        base: bool,
        dep_u: u64,
        deps: usize,
        readout_p: f64,
    },
}

/// A compiled Pauli-frame execution plan: the ideal circuit folded into
/// per-site error masks and symbolic measurements, in instruction order.
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
    /// Every mask the ops point into: the dependency masks of the determined
    /// measurements, then the noise sites' terminal images.
    arena: Vec<u64>,
    /// How many words at the front of `arena` are dependency masks.
    dep_words: usize,
}

impl FramePlan {
    /// Compile a plan for `circuit` under `noise`.
    ///
    /// Returns `Ok(None)` when the circuit is not eligible — non-Clifford,
    /// any `Reset`, work on a measured qubit, or more than 64 random-outcome
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
        let (mask, image) = (2 * wpr, 4 * wpr);
        let mapping = measurement_mapping(circuit);

        // Size the arena before the first write: a dependency mask per
        // measurement at most, an image per operand a site can strike.
        let (sites, operands) = circuit
            .instructions()
            .iter()
            .flat_map(|inst| noise.fault_sites(&inst.gate, &inst.qubits))
            .fold((0, 0), |(sites, operands), site| {
                (sites + 1, operands + site.operands().len())
            });
        let mut arena = Vec::with_capacity(mapping.len() * mask + operands * image);

        // Every measurement collapses the final tableau, in measurement order.
        let mut sym = SymbolicTableau::new(tableau);
        let mut measures = Vec::with_capacity(mapping.len());
        for (qubit, clbit) in mapping {
            match sym.measure_op(qubit, clbit, noise.readout_error(qubit), &mut arena) {
                Some(op) => measures.push(op),
                None => return Ok(None),
            }
        }
        let dep_words = arena.len();

        // One walk back from the end emits the ops last-first: a `Measure`
        // takes its compiled op, a gate's sites copy their operands' images
        // before the walk steps over the gate (a site fires after its gate).
        let mut ops = Vec::with_capacity(measures.len() + sites);
        if circuit.measurement_count() == 0 {
            // Implicit measurement: as if `measure_all` ended the circuit.
            ops.extend(measures.drain(..).rev());
        }
        // Per qubit, at the walk's place: the terminal image of a unit X (X
        // words, Z words), then of a unit Z.
        let mut walk = vec![0u64; circuit.num_qubits() * image];
        for q in 0..circuit.num_qubits() {
            let (word, bit) = (q >> 6, 1u64 << (q & 63));
            walk[q * image + word] |= bit;
            walk[q * image + mask + wpr + word] |= bit;
        }
        let mut generators = Vec::new();
        for inst in circuit.instructions().iter().rev() {
            if inst.gate == Gate::Measure {
                ops.push(measures.pop().expect("one compiled op per Measure"));
                continue;
            }
            let first = ops.len();
            for site in noise.fault_sites(&inst.gate, &inst.qubits) {
                let images = arena.len();
                ops.push(ShotOp::Noise { site, images });
                for &q in site.operands() {
                    arena.extend_from_slice(&walk[q * image..][..image]);
                }
            }
            ops[first..].reverse(); // a gate's sites stay in draw order
            step_back(&mut walk, wpr, &mut generators, &inst.gate, &inst.qubits)?;
        }
        ops.reverse();
        Ok(Some(FramePlan {
            wpr,
            ops,
            arena,
            dep_words,
        }))
    }

    /// This plan with the noise taken out — its noise ops dropped, every
    /// readout flip at `p = 0` — which is op for op the plan [`build`] makes
    /// under [`NoiseModel::ideal`]: the measurement ops and their dependency
    /// masks come from the collapse, before the noise walk, and the masks are
    /// the arena's prefix.
    ///
    /// [`build`]: FramePlan::build
    pub(crate) fn without_noise(&self) -> FramePlan {
        let mut arena = Vec::with_capacity(self.dep_words);
        arena.extend_from_slice(&self.arena[..self.dep_words]);
        let measurements = self
            .ops
            .iter()
            .filter(|op| !matches!(op, ShotOp::Noise { .. }));
        let mut ops = Vec::with_capacity(measurements.clone().count());
        ops.extend(measurements);
        for op in &mut ops {
            match op {
                ShotOp::MeasureRandom { readout_p, .. } => *readout_p = 0.0,
                ShotOp::MeasureDet { readout_p, .. } => *readout_p = 0.0,
                ShotOp::Noise { .. } => {}
            }
        }
        FramePlan {
            wpr: self.wpr,
            ops,
            arena,
            dep_words: self.dep_words,
        }
    }

    /// A fresh shot frame sized for this plan — its X words, then its Z
    /// words — reused across shots so the hot loop allocates nothing.
    pub(crate) fn scratch(&self) -> Vec<u64> {
        vec![0; 2 * self.wpr]
    }

    /// Execute one shot: walk the plan, drawing noise hits, measurement coins
    /// and readout flips in replay order, and return the packed outcome.
    pub(crate) fn run_shot<R: Rng + ?Sized>(&self, rng: &mut R, frame: &mut [u64]) -> u64 {
        frame.fill(0);
        let mask = frame.len();
        let mut coins = 0u64;
        let mut outcome = 0u64;
        for op in &self.ops {
            match *op {
                ShotOp::Noise { ref site, images } => {
                    site.sample(rng, |operand, pauli| {
                        let image = &self.arena[images + operand * 2 * mask..][..2 * mask];
                        strike(image, pauli, frame);
                    });
                }
                ShotOp::MeasureRandom {
                    clbit,
                    coin,
                    readout_p,
                } => {
                    let raw = rng.gen_bool(0.5);
                    coins |= u64::from(raw) << coin;
                    record_bit(&mut outcome, clbit, flip_bit(readout_p, raw, rng));
                }
                ShotOp::MeasureDet {
                    clbit,
                    base,
                    dep_u,
                    deps,
                    readout_p,
                } => {
                    let dependencies = &self.arena[deps..][..mask];
                    // Parities add mod 2, so XOR the words, then popcount once.
                    let acc = dependencies
                        .iter()
                        .zip(&*frame)
                        .fold(dep_u & coins, |acc, (d, f)| acc ^ (d & f));
                    let raw = base ^ (acc.count_ones() & 1 == 1);
                    record_bit(&mut outcome, clbit, flip_bit(readout_p, raw, rng));
                }
            }
        }
        outcome
    }
}

/// The plan-time tableau plus, per row, the GF(2) dependence of its phase
/// bit on the measurement coins (`dep_u`, one bit per coin) and on the
/// terminal error frame (`masks`, one bit per qubit and frame half).
///
/// Row `i`'s phase flips iff the terminal frame anticommutes with row `i`:
/// `parity(fx & z_i) ^ parity(fz & x_i)` — hence the initial mask of row `i`
/// is its Z words then its X words, a plain copy of the tableau's, laid out
/// like the frame (X words, then Z words). The rows then ride through
/// [`StabilizerSimulator::collapse`] as its [`PhaseRider`]: `rowsum`
/// propagates dependencies by XOR (phase updates are linear in `r`, see
/// module docs), and a random measurement's fresh row depends on its coin
/// alone.
struct SymbolicTableau {
    tableau: StabilizerSimulator,
    deps: DepRows,
    /// Coins handed out so far.
    coins: u32,
}

struct DepRows {
    /// Words per mask: twice the tableau's words per row.
    mask: usize,
    dep_u: Vec<u64>,
    masks: Vec<u64>,
}

impl PhaseRider for DepRows {
    fn add(&mut self, h: usize, i: usize) {
        self.dep_u[h] ^= self.dep_u[i];
        for j in 0..self.mask {
            self.masks[h * self.mask + j] ^= self.masks[i * self.mask + j];
        }
    }

    fn copy(&mut self, dst: usize, src: usize) {
        self.dep_u[dst] = self.dep_u[src];
        self.masks
            .copy_within(src * self.mask..(src + 1) * self.mask, dst * self.mask);
    }

    fn clear(&mut self, row: usize) {
        self.dep_u[row] = 0;
        self.masks[row * self.mask..(row + 1) * self.mask].fill(0);
    }
}

impl SymbolicTableau {
    fn new(tableau: StabilizerSimulator) -> Self {
        let wpr = tableau.words_per_row();
        let (x, z) = tableau.xz_words();
        let mut masks = Vec::with_capacity(x.len() + z.len());
        for (z_row, x_row) in z.chunks_exact(wpr).zip(x.chunks_exact(wpr)) {
            masks.extend_from_slice(z_row);
            masks.extend_from_slice(x_row);
        }
        let deps = DepRows {
            mask: 2 * wpr,
            dep_u: vec![0; 2 * tableau.num_qubits() + 1],
            masks,
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
    /// dependency set instead of an RNG draw; a determined outcome's
    /// dependency mask is appended to `arena`. Returns `None` when the plan
    /// would need more than 64 coins.
    fn measure_op(
        &mut self,
        qubit: usize,
        clbit: usize,
        readout_p: f64,
        arena: &mut Vec<u64>,
    ) -> Option<ShotOp> {
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
                let op = ShotOp::MeasureDet {
                    clbit,
                    base,
                    dep_u: deps.dep_u[scratch],
                    deps: arena.len(),
                    readout_p,
                };
                arena.extend_from_slice(&deps.masks[scratch * deps.mask..][..deps.mask]);
                op
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

    /// A sign-free Pauli operator as two masks, `fx` the X components and
    /// `fz` the Z components: the forward reference's view of a frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Frame {
        fx: Vec<u64>,
        fz: Vec<u64>,
    }

    impl Frame {
        fn unit(q: usize, wpr: usize, z: bool) -> Self {
            let mut frame = Frame {
                fx: vec![0; wpr],
                fz: vec![0; wpr],
            };
            let half = if z { &mut frame.fz } else { &mut frame.fx };
            half[q >> 6] |= 1 << (q & 63);
            frame
        }

        fn unit_x(q: usize, wpr: usize) -> Self {
            Frame::unit(q, wpr, false)
        }

        fn unit_z(q: usize, wpr: usize) -> Self {
            Frame::unit(q, wpr, true)
        }
    }

    /// The forward reference: a frame conjugated gate by gate through the one
    /// Clifford table (S† is S and Paulis do nothing, sign-free), as the
    /// planner conjugated two per noise site before it walked backwards. The
    /// tableau test below holds it to the tableau, the corpus test holds the
    /// backward walk to it.
    impl CliffordTarget for Frame {
        /// Conjugate by H on `q`: X ↔ Z.
        fn h(&mut self, q: usize) {
            let (w, bit) = (q >> 6, 1u64 << (q & 63));
            let (xb, zb) = (self.fx[w] & bit, self.fz[w] & bit);
            self.fx[w] = (self.fx[w] & !bit) | zb;
            self.fz[w] = (self.fz[w] & !bit) | xb;
        }

        /// Conjugate by S (or S†, identical sign-free) on `q`: X → Y.
        fn s(&mut self, q: usize) {
            let (w, bit) = (q >> 6, 1u64 << (q & 63));
            self.fz[w] ^= self.fx[w] & bit;
        }

        /// Conjugate by CNOT control `a`, target `b`: X_a → X_a X_b, Z_b → Z_a Z_b.
        fn cx(&mut self, a: usize, b: usize) {
            let x_a = self.fx[a >> 6] >> (a & 63) & 1;
            let z_b = self.fz[b >> 6] >> (b & 63) & 1;
            self.fx[b >> 6] ^= x_a << (b & 63);
            self.fz[a >> 6] ^= z_b << (a & 63);
        }
    }

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

        // Gate on a qubit that was already measured.
        let mut mid = Circuit::new(2, 2);
        mid.h(0).unwrap();
        mid.measure(0, 0).unwrap();
        mid.x(0).unwrap();
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
    fn work_on_other_qubits_after_a_measurement_stays_eligible() {
        // The twin of the ineligible case above, and the shape every
        // transpiled circuit has: the gate after the measurement acts on a
        // qubit that is measured later, or never.
        let mut late = Circuit::new(3, 2);
        late.h(0).unwrap();
        late.measure(0, 0).unwrap();
        late.x(1).unwrap();
        late.measure(1, 1).unwrap();
        late.h(2).unwrap();
        late.measure(0, 0).unwrap(); // a repeated measure is still terminal
        late.barrier(&[]).unwrap();
        let noise = NoiseModel::uniform(3, 0.1, 0.1, 0.1);
        let plan = FramePlan::build(&late, &noise)
            .unwrap()
            .expect("no gate touches a measured qubit");
        // Ops are in instruction order: site, measure, site, measure, site, measure.
        let kinds: Vec<bool> = plan
            .ops
            .iter()
            .map(|op| matches!(op, ShotOp::Noise { .. }))
            .collect();
        assert_eq!(kinds, [true, false, true, false, true, false]);
    }

    /// The forward walk the planner used to make per site: conjugate a unit
    /// X and a unit Z on `q` through `rest` of the circuit, laid out as the
    /// arena holds an operand's images (X image, Z image; X words, Z words).
    fn forward_images(q: usize, rest: &[qrio_circuit::Instruction], wpr: usize) -> Vec<u64> {
        let (mut x, mut z) = (Frame::unit_x(q, wpr), Frame::unit_z(q, wpr));
        for inst in rest {
            if !inst.gate.is_directive() {
                apply_clifford(&mut x, &inst.gate, &inst.qubits).unwrap();
                apply_clifford(&mut z, &inst.gate, &inst.qubits).unwrap();
            }
        }
        [x.fx, x.fz, z.fx, z.fz].concat()
    }

    #[test]
    fn backward_walk_builds_the_images_of_the_forward_walk() {
        use std::f64::consts::{FRAC_PI_2, PI};
        // Every decomposition of the Clifford table, so that a generator
        // sequence taken in the wrong order shows.
        let gates = [
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::X,
            Gate::SX,
            Gate::RX(FRAC_PI_2),
            Gate::RY(-FRAC_PI_2),
            Gate::RZ(PI),
            Gate::U2(0.0, FRAC_PI_2),
            Gate::U3(FRAC_PI_2, PI, -FRAC_PI_2),
            Gate::CX,
            Gate::CZ,
            Gate::CY,
            Gate::Swap,
            Gate::CP(PI),
            Gate::CRZ(PI),
        ];
        let mut compared = 0;
        for (seed, n) in [(1u64, 2usize), (2, 5), (3, 9), (4, 70)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut circuit = Circuit::new(n, n);
            for step in 0..60 {
                // The last qubit is measured halfway and left alone after.
                if step == 30 {
                    circuit.measure(n - 1, n - 1).unwrap();
                }
                let gate = gates[rng.gen_range(0..gates.len())];
                let a = rng.gen_range(0..n - 1);
                let b = rng.gen_range(a + 1..n);
                let qubits = if rng.gen_bool(0.5) { [a, b] } else { [b, a] };
                let qubits = &qubits[..gate.num_qubits()];
                if step < 30 || !qubits.contains(&(n - 1)) {
                    circuit.append(gate, qubits).unwrap();
                }
            }
            assert_eq!(circuit.measurement_count(), 1);
            let noise = NoiseModel::uniform(n, 0.1, 0.1, 0.0);
            let plan = FramePlan::build(&circuit, &noise).unwrap().unwrap();
            let wpr = plan.wpr;
            let mut planned = plan.ops.iter().filter_map(|op| match *op {
                ShotOp::Noise { site, images } => Some((site, images)),
                _ => None,
            });
            let instructions = circuit.instructions();
            for (index, inst) in instructions.iter().enumerate() {
                for site in noise.fault_sites(&inst.gate, &inst.qubits) {
                    let (planned_site, images) = planned.next().expect("a planned op per site");
                    assert_eq!(planned_site, site, "n {n}, instruction {index}");
                    for (operand, &q) in site.operands().iter().enumerate() {
                        let walked = &plan.arena[images + operand * 4 * wpr..][..4 * wpr];
                        let forward = forward_images(q, &instructions[index + 1..], wpr);
                        assert_eq!(walked, forward, "n {n}, instruction {index}, qubit {q}");
                        compared += 1;
                    }
                }
            }
            assert!(planned.next().is_none());
        }
        assert!(compared > 200, "{compared}");
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

    /// The corpus of `tests/transpiled_circuits.rs` — canaries of random
    /// Clifford and BV-5 circuits routed onto one device per topology family
    /// of `scenarios/cloud.yaml`, as transpiled and as deflated — each under
    /// a noise model with every kind of error, readout included.
    fn transpiled_corpus() -> Vec<(Circuit, NoiseModel)> {
        use qrio_backend::{topology, Backend, CouplingMap};
        use qrio_transpiler::{deflate, transpile};
        let device = |name: &str, map: CouplingMap| Backend::uniform(name, map, 0.004, 0.03);
        let fleet = [
            device("grid", topology::grid(3, 4)),
            device("tree", topology::binary_tree(15)),
            device("line", topology::line(12)),
            device("ring", topology::ring(12)),
            device("star", topology::star(10)),
        ];
        let mut logical = Vec::new();
        for seed in 0..6 {
            logical.push(library::random_clifford_circuit(6, 6, seed).unwrap());
            logical.push(library::random_clifford_circuit(8, 3, 100 + seed).unwrap());
        }
        for secret in 1..32 {
            logical.push(library::bernstein_vazirani(5, secret).unwrap());
        }
        let mut corpus = Vec::new();
        for backend in &fleet {
            for circuit in &logical {
                let physical = transpile(&circuit.to_clifford(), backend)
                    .unwrap()
                    .circuit
                    .to_clifford();
                let deflated = deflate(&physical, backend).unwrap();
                for circuit in [physical, deflated.circuit] {
                    let noise = NoiseModel::uniform(circuit.num_qubits(), 0.004, 0.03, 0.02);
                    corpus.push((circuit, noise));
                }
            }
        }
        corpus
    }

    #[test]
    fn without_noise_is_the_plan_built_under_the_ideal_model() {
        use crate::executor::SEED_STREAM_STRIDE as STRIDE;
        use crate::executor::{run_paired, run_with_noise_parallel, ParallelConfig};
        let serial = ParallelConfig::serial();
        let mut compared = 0;
        for (circuit, noise) in transpiled_corpus() {
            let ideal_model = NoiseModel::ideal(circuit.num_qubits());
            let noisy = FramePlan::build(&circuit, &noise).unwrap().unwrap();
            let ideal = FramePlan::build(&circuit, &ideal_model).unwrap().unwrap();
            let stripped = noisy.without_noise();
            assert!(noisy.ops.len() > ideal.ops.len(), "{}", circuit.name());
            assert_eq!(stripped.ops, ideal.ops, "{}", circuit.name());
            assert_eq!(stripped.arena, ideal.arena, "{}", circuit.name());
            assert_eq!(
                (stripped.wpr, stripped.dep_words),
                (ideal.wpr, ideal.dep_words)
            );
            for shots in [1, 33, 130] {
                let seed = 7 + compared;
                let paired = run_paired(&circuit, &noise, shots, seed, seed + STRIDE, &serial);
                let alone = run_with_noise_parallel(&circuit, &ideal_model, shots, seed, &serial);
                let what = format!("{}, {shots} shots", circuit.name());
                assert_eq!(paired.unwrap().0, alone.unwrap(), "{what}");
                compared += 1;
            }
        }
        assert_eq!(compared, 5 * 43 * 2 * 3);
    }

    #[test]
    fn the_arena_is_sized_before_it_is_written() {
        // Growing the arena by doubling moved a benchmark's peak RSS by a
        // constant; it is reserved once: a mask per measurement (random ones
        // leave theirs unused), an image per struck operand.
        let mut random = 0;
        for (circuit, noise) in transpiled_corpus().into_iter().step_by(7) {
            let plan = FramePlan::build(&circuit, &noise).unwrap().unwrap();
            let unused = plan
                .ops
                .iter()
                .filter(|op| matches!(op, ShotOp::MeasureRandom { .. }))
                .count()
                * 2
                * plan.wpr;
            assert_eq!(plan.arena.capacity(), plan.arena.len() + unused);
            random += usize::from(unused > 0);
        }
        assert!(random > 0);
    }
}
