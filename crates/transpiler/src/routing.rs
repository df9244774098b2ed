//! Routing: inserting SWAPs so every two-qubit gate acts on coupled qubits
//! (the "Routing on Restricted Topology" step of §2.3).
//!
//! Two routers are provided:
//!
//! * [`RoutingStrategy::ShortestPath`] — a simple, always-correct router that
//!   walks each blocked gate's operands together along a BFS shortest path.
//! * [`RoutingStrategy::Sabre`] — a SABRE-style heuristic router (Li, Ding &
//!   Xie 2019, cited by the paper via Mapomatic) that chooses SWAPs by
//!   minimising the summed distance of the blocked front layer with a
//!   lookahead window; it falls back to shortest-path moves if it stalls.

use std::collections::VecDeque;

use qrio_backend::Backend;
use qrio_circuit::{Circuit, Gate, Instruction};

use crate::error::TranspilerError;
use crate::layout::Layout;
use crate::rebuild;

/// Which routing algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingStrategy {
    /// Walk blocked gates along BFS shortest paths.
    ShortestPath,
    /// SABRE-style heuristic with lookahead (default).
    #[default]
    Sabre,
}

/// The outcome of routing a circuit onto a device.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The routed circuit, expressed over physical qubits.
    pub circuit: Circuit,
    /// Number of SWAP gates inserted.
    pub swaps_inserted: usize,
    /// Final mapping `virtual -> physical` after all inserted SWAPs.
    pub final_mapping: Vec<usize>,
}

/// Route `circuit` onto `backend` starting from `layout`.
///
/// The returned circuit acts on `backend.num_qubits()` physical qubits;
/// measurements keep their classical bits.
///
/// # Errors
///
/// Returns an error if the device is disconnected in a way that blocks a gate
/// or if circuit reconstruction fails.
pub fn route(
    circuit: &Circuit,
    backend: &Backend,
    layout: &Layout,
    strategy: RoutingStrategy,
) -> Result<RoutedCircuit, TranspilerError> {
    match strategy {
        RoutingStrategy::ShortestPath => route_shortest_path(circuit, backend, layout),
        RoutingStrategy::Sabre => route_sabre(circuit, backend, layout),
    }
}

/// Tracks where each virtual qubit currently lives as SWAPs are inserted.
#[derive(Debug, Clone)]
struct LiveMapping {
    virt_to_phys: Vec<usize>,
}

impl LiveMapping {
    fn new(layout: &Layout) -> Self {
        LiveMapping {
            virt_to_phys: layout.as_slice().to_vec(),
        }
    }

    fn phys(&self, v: usize) -> usize {
        self.virt_to_phys[v]
    }

    /// Swap the virtual occupants of two *physical* qubits.
    fn swap_physical(&mut self, p1: usize, p2: usize) {
        for slot in &mut self.virt_to_phys {
            if *slot == p1 {
                *slot = p2;
            } else if *slot == p2 {
                *slot = p1;
            }
        }
    }
}

fn emit_swap(out: &mut Vec<Instruction>, p1: usize, p2: usize) {
    out.push(Instruction::new(Gate::Swap, vec![p1, p2]));
}

fn emit_instruction(out: &mut Vec<Instruction>, inst: &Instruction, mapping: &LiveMapping) {
    out.push(Instruction {
        gate: inst.gate,
        qubits: inst.qubits.iter().map(|&v| mapping.phys(v)).collect(),
        clbits: inst.clbits.clone(),
    });
}

/// Walk a blocked gate's operands together: SWAP the first operand along a
/// BFS shortest path until it is adjacent to the second. Returns the number
/// of SWAPs inserted.
fn walk_together(
    out: &mut Vec<Instruction>,
    mapping: &mut LiveMapping,
    backend: &Backend,
    inst: &Instruction,
) -> Result<usize, TranspilerError> {
    let (a, b) = (mapping.phys(inst.qubits[0]), mapping.phys(inst.qubits[1]));
    let path = backend.coupling_map().shortest_path(a, b).ok_or_else(|| {
        TranspilerError::RoutingStuck(format!(
            "no path between physical qubits {a} and {b} on device '{}'",
            backend.name()
        ))
    })?;
    // Walk the first operand along the path until adjacent to b.
    let hops = path.len().saturating_sub(2);
    for window in path.windows(2).take(hops) {
        emit_swap(out, window[0], window[1]);
        mapping.swap_physical(window[0], window[1]);
    }
    Ok(hops)
}

fn route_shortest_path(
    circuit: &Circuit,
    backend: &Backend,
    layout: &Layout,
) -> Result<RoutedCircuit, TranspilerError> {
    let map = backend.coupling_map();
    let mut mapping = LiveMapping::new(layout);
    let mut out = Vec::with_capacity(circuit.len());
    let mut swaps = 0usize;

    for inst in circuit.instructions() {
        if inst.is_two_qubit_gate() {
            let (a, b) = (mapping.phys(inst.qubits[0]), mapping.phys(inst.qubits[1]));
            if !map.has_edge(a, b) {
                swaps += walk_together(&mut out, &mut mapping, backend, inst)?;
            }
        }
        emit_instruction(&mut out, inst, &mapping);
    }
    Ok(RoutedCircuit {
        circuit: rebuild(circuit, backend.num_qubits(), out)?,
        swaps_inserted: swaps,
        final_mapping: mapping.virt_to_phys,
    })
}

/// Number of upcoming two-qubit gates included in the SABRE lookahead window.
const SABRE_LOOKAHEAD: usize = 20;
/// Weight of the lookahead term relative to the front layer.
const SABRE_LOOKAHEAD_WEIGHT: f64 = 0.5;
/// Safety valve: maximum SWAPs inserted between two scheduled gates before
/// falling back to deterministic shortest-path routing.
const SABRE_MAX_STALL: usize = 64;

fn route_sabre(
    circuit: &Circuit,
    backend: &Backend,
    layout: &Layout,
) -> Result<RoutedCircuit, TranspilerError> {
    let map = backend.coupling_map();
    let dist = map.distance_matrix();
    let mut mapping = LiveMapping::new(layout);
    let mut out = Vec::with_capacity(circuit.len());
    let mut swaps = 0usize;

    // Remaining instructions in program order; we schedule greedily from the
    // front, which respects dependencies because we only ever skip over
    // instructions that commute trivially (none here — we preserve order and
    // simply stall the queue on a blocked 2q gate).
    let mut queue: VecDeque<&Instruction> = circuit.instructions().iter().collect();
    let mut stall = 0usize;

    while let Some(inst) = queue.front().copied() {
        let executable = if inst.is_two_qubit_gate() {
            let (a, b) = (mapping.phys(inst.qubits[0]), mapping.phys(inst.qubits[1]));
            map.has_edge(a, b)
        } else {
            true
        };
        if executable {
            queue.pop_front();
            emit_instruction(&mut out, inst, &mapping);
            stall = 0;
            continue;
        }

        // Blocked: pick the SWAP that best reduces the heuristic cost.
        let front_pairs: Vec<(usize, usize)> = blocked_pairs(&queue, &mapping, 1);
        let lookahead_pairs: Vec<(usize, usize)> = blocked_pairs(&queue, &mapping, SABRE_LOOKAHEAD);
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in &front_pairs {
            for &n in map.neighbors(a) {
                candidates.push((a.min(n), a.max(n)));
            }
            for &n in map.neighbors(b) {
                candidates.push((b.min(n), b.max(n)));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();

        // Each candidate is scored once; `min_by` keeps the first minimum.
        let score = |candidate: (usize, usize)| -> f64 {
            let front_cost: f64 = pair_cost(&front_pairs, candidate, &dist);
            let look_cost: f64 = pair_cost(&lookahead_pairs, candidate, &dist);
            front_cost + SABRE_LOOKAHEAD_WEIGHT * look_cost / lookahead_pairs.len().max(1) as f64
        };
        let current_front_cost = pair_cost(&front_pairs, (usize::MAX, usize::MAX), &dist);
        let best = candidates
            .iter()
            .map(|&candidate| (candidate, score(candidate)))
            .min_by(|(_, s1), (_, s2)| s1.partial_cmp(s2).unwrap_or(std::cmp::Ordering::Equal));

        stall += 1;
        if stall > SABRE_MAX_STALL || best.is_none() {
            // Deterministic fallback: move the blocked pair together directly.
            swaps += walk_together(&mut out, &mut mapping, backend, inst)?;
            stall = 0;
            continue;
        }

        let (chosen, chosen_score) = best.expect("candidate list checked non-empty above");
        // Only accept swaps that do not make the front layer strictly worse;
        // otherwise fall through to the deterministic path on the next stall.
        let improves = chosen_score <= current_front_cost + f64::EPSILON;
        if improves {
            emit_swap(&mut out, chosen.0, chosen.1);
            mapping.swap_physical(chosen.0, chosen.1);
            swaps += 1;
        } else {
            stall = SABRE_MAX_STALL; // force the fallback next iteration
        }
    }

    Ok(RoutedCircuit {
        circuit: rebuild(circuit, backend.num_qubits(), out)?,
        swaps_inserted: swaps,
        final_mapping: mapping.virt_to_phys,
    })
}

/// Physical-qubit pairs of the first `limit` blocked two-qubit gates.
fn blocked_pairs(
    queue: &VecDeque<&Instruction>,
    mapping: &LiveMapping,
    limit: usize,
) -> Vec<(usize, usize)> {
    queue
        .iter()
        .filter(|inst| inst.is_two_qubit_gate())
        .take(limit)
        .map(|inst| (mapping.phys(inst.qubits[0]), mapping.phys(inst.qubits[1])))
        .collect()
}

/// Summed distance of `pairs` after hypothetically applying `swap` (pass an
/// out-of-range pair to score the current mapping).
fn pair_cost(pairs: &[(usize, usize)], swap: (usize, usize), dist: &[Vec<usize>]) -> f64 {
    let remap = |q: usize| -> usize {
        if q == swap.0 {
            swap.1
        } else if q == swap.1 {
            swap.0
        } else {
            q
        }
    };
    pairs
        .iter()
        .map(|&(a, b)| {
            let (a, b) = (remap(a), remap(b));
            let d = dist[a][b];
            if d == usize::MAX {
                1e9
            } else {
                d.saturating_sub(1) as f64
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{select_layout, LayoutStrategy};
    use qrio_backend::topology;
    use qrio_circuit::library;
    use qrio_sim::run_ideal;

    fn check_routed(circuit: &Circuit, backend: &Backend, routed: &RoutedCircuit) {
        // Every two-qubit gate in the routed circuit must act on a coupled pair.
        for inst in routed.circuit.instructions() {
            if inst.is_two_qubit_gate() {
                assert!(
                    backend
                        .coupling_map()
                        .has_edge(inst.qubits[0], inst.qubits[1]),
                    "gate {:?} on uncoupled pair",
                    inst
                );
            }
        }
        // Gate counts (excluding inserted swaps) are preserved.
        let original_cx = circuit.two_qubit_gate_count();
        let routed_cx = routed.circuit.two_qubit_gate_count();
        assert_eq!(routed_cx, original_cx + routed.swaps_inserted);
        assert_eq!(
            routed.circuit.measurement_count(),
            circuit.measurement_count()
        );
    }

    #[test]
    fn already_routable_circuits_get_no_swaps() {
        let circuit = library::ghz(4).unwrap();
        let backend = Backend::uniform("line", topology::line(4), 0.0, 0.0);
        let layout = Layout::trivial(4, 4).unwrap();
        for strategy in [RoutingStrategy::ShortestPath, RoutingStrategy::Sabre] {
            let routed = route(&circuit, &backend, &layout, strategy).unwrap();
            assert_eq!(routed.swaps_inserted, 0);
            check_routed(&circuit, &backend, &routed);
        }
    }

    #[test]
    fn distant_gates_get_swapped_into_adjacency() {
        let mut circuit = Circuit::new(4, 4);
        circuit.h(0).unwrap();
        circuit.cx(0, 3).unwrap();
        circuit.measure_all().unwrap();
        let backend = Backend::uniform("line", topology::line(4), 0.0, 0.0);
        let layout = Layout::trivial(4, 4).unwrap();
        for strategy in [RoutingStrategy::ShortestPath, RoutingStrategy::Sabre] {
            let routed = route(&circuit, &backend, &layout, strategy).unwrap();
            assert!(routed.swaps_inserted >= 1);
            check_routed(&circuit, &backend, &routed);
        }
    }

    #[test]
    fn routing_preserves_semantics_on_line() {
        // GHZ over a star interaction pattern routed onto a line must still
        // produce the GHZ distribution.
        let mut circuit = Circuit::new(4, 4);
        circuit.h(0).unwrap();
        for t in 1..4 {
            circuit.cx(0, t).unwrap();
        }
        circuit.measure_all().unwrap();
        let backend = Backend::uniform("line", topology::line(4), 0.0, 0.0);
        let layout = Layout::trivial(4, 4).unwrap();
        let reference = run_ideal(&circuit, 2000, 3).unwrap();
        for strategy in [RoutingStrategy::ShortestPath, RoutingStrategy::Sabre] {
            let routed = route(&circuit, &backend, &layout, strategy).unwrap();
            check_routed(&circuit, &backend, &routed);
            let counts = run_ideal(&routed.circuit, 2000, 3).unwrap();
            let fidelity = counts.hellinger_fidelity(&reference);
            assert!(
                fidelity > 0.98,
                "{strategy:?} broke semantics: fidelity {fidelity}"
            );
        }
    }

    #[test]
    fn random_circuits_route_on_sparse_devices() {
        let circuit = library::random_circuit(6, 6, 5).unwrap();
        let backend = Backend::uniform("ring", topology::ring(8), 0.0, 0.0);
        let layout = select_layout(&circuit, &backend, LayoutStrategy::Dense).unwrap();
        for strategy in [RoutingStrategy::ShortestPath, RoutingStrategy::Sabre] {
            let routed = route(&circuit, &backend, &layout, strategy).unwrap();
            check_routed(&circuit, &backend, &routed);
        }
    }

    #[test]
    fn sabre_is_not_much_worse_than_shortest_path() {
        let circuit = library::random_circuit_with_cx_count(8, 20, 13).unwrap();
        let backend = Backend::uniform("grid", topology::grid(3, 3), 0.0, 0.0);
        let layout = select_layout(&circuit, &backend, LayoutStrategy::Dense).unwrap();
        let sp = route(&circuit, &backend, &layout, RoutingStrategy::ShortestPath).unwrap();
        let sabre = route(&circuit, &backend, &layout, RoutingStrategy::Sabre).unwrap();
        check_routed(&circuit, &backend, &sp);
        check_routed(&circuit, &backend, &sabre);
        assert!(sabre.swaps_inserted <= sp.swaps_inserted * 3 + 3);
    }

    #[test]
    fn disconnected_device_reports_error() {
        let mut circuit = Circuit::new(2, 0);
        circuit.cx(0, 1).unwrap();
        let backend = Backend::uniform("disc", qrio_backend::CouplingMap::new(2), 0.0, 0.0);
        let layout = Layout::trivial(2, 2).unwrap();
        let result = route(&circuit, &backend, &layout, RoutingStrategy::ShortestPath);
        assert!(matches!(result, Err(TranspilerError::RoutingStuck(_))));
    }
}
