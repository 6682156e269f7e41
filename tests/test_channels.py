import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest

from puremit import channels
from puremit.channels import (
    NO_NOISE,
    NOISE_KINDS,
    NoiseModel,
    apply_noise,
    depolarize,
    dual_state,
    noise_superoperator,
    prepare_noisy_state,
    superoperator,
)
from puremit.circuits import (
    ANGLE_GATES,
    GATE_ARITY,
    SWAP_GATE,
    Gate,
    GateCircuit,
    circuit_state,
    circuit_unitary,
    embed_operator,
    gate_matrix,
    inverse_circuit,
    random_circuit,
)
from puremit.linalg import (
    DensityOperator,
    contract,
    random_density,
    random_hermitian,
    zero_projector,
)
from puremit.reference import (
    KrausChannel,
    adjoint_channel,
    amplitude_damping_channel,
    apply_channel,
    apply_local,
    completeness_defect,
    compose_channels,
    compress_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    kraus_sum,
    noise_channel,
    noisy_circuit_channel,
    unitary_channel,
)


def _act(channel, mat):
    return sum(k @ mat @ k.conj().T for k in channel.ops)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("depolarizing-local", -0.1)
    with pytest.raises(ValueError):
        NoiseModel("dephasing", 1.5)
    with pytest.raises(ValueError):
        NoiseModel("thermal", 0.1)
    assert NO_NOISE.is_trivial
    assert not NoiseModel("dephasing", 0.1).is_trivial
    assert NoiseModel("dephasing", 0.0).is_trivial


def test_kraus_channel_completeness_check():
    ok = np.array([np.eye(2)]) / 1.0
    KrausChannel(ok.astype(complex), True)
    bad = np.array([0.5 * np.eye(2, dtype=complex)])
    with pytest.raises(ValueError):
        KrausChannel(bad, True)
    ch = KrausChannel.from_ops(bad)
    assert not ch.trace_preserving
    assert completeness_defect(bad) == pytest.approx(0.75)


def test_builtin_channels_are_trace_preserving():
    for ch in (
        identity_channel(4),
        depolarizing_channel(1, 0.3),
        depolarizing_channel(2, 0.7),
        dephasing_channel(0.2),
        amplitude_damping_channel(0.4),
    ):
        assert ch.trace_preserving
        assert completeness_defect(ch.ops) < 1e-12


def test_depolarizing_closed_form():
    rng = np.random.default_rng(0)
    for n, p in ((1, 0.3), (2, 0.55)):
        d = 2**n
        ch = depolarizing_channel(n, p)
        rho = random_density(rng, d).matrix
        want = (1 - p) * rho + p * np.eye(d) / d
        assert np.max(np.abs(_act(ch, rho) - want)) < 1e-12


def test_dephasing_closed_form():
    rng = np.random.default_rng(1)
    p = 0.25
    ch = dephasing_channel(p)
    rho = random_density(rng, 2).matrix
    got = _act(ch, rho)
    assert abs(got[0, 0] - rho[0, 0]) < 1e-12
    assert abs(got[0, 1] - (1 - 2 * p) * rho[0, 1]) < 1e-12


def test_amplitude_damping_limits():
    rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
    # gamma = 1 pumps everything into |0>
    got = _act(amplitude_damping_channel(1.0), rho)
    assert np.max(np.abs(got - np.diag([1.0, 0.0]))) < 1e-12
    got = _act(amplitude_damping_channel(0.0), rho)
    assert np.max(np.abs(got - rho)) < 1e-12


def test_apply_channel_tracks_normalization():
    rho = DensityOperator.maximally_mixed(2)
    out = apply_channel(dephasing_channel(0.1), rho)
    assert out.normalized
    half = KrausChannel.from_ops(np.array([np.eye(2, dtype=complex) / np.sqrt(2)]))
    out = apply_channel(half, rho)
    assert not out.normalized
    assert abs(out.trace - 0.5) < 1e-12
    with pytest.raises(ValueError):
        apply_channel(dephasing_channel(0.1), DensityOperator.maximally_mixed(4))


def test_kraus_sum_applies_to_any_square_matrix():
    # the adjoint-pairing check of puremit verify applies channels to
    # Hermitian matrices that are not states, which apply_channel refuses
    rng = np.random.default_rng(5)
    noise = NoiseModel("amplitude-damping", 0.2)
    channel = noisy_circuit_channel(random_circuit(rng, 2, 4), noise)
    a = random_hermitian(rng, 4)
    assert np.max(np.abs(kraus_sum(channel, a) - _act(channel, a))) < 1e-12
    with pytest.raises(ValueError):
        apply_channel(channel, a)
    rho = random_density(rng, 4)
    got = apply_channel(channel, rho).matrix
    assert np.max(np.abs(got - kraus_sum(channel, rho.matrix))) < 1e-15


def test_adjoint_channel_pairing():
    # Tr(N^dag(A) B) == Tr(A N(B)) for all A, B
    rng = np.random.default_rng(2)
    ch = compose_channels(
        unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex)),
        amplitude_damping_channel(0.35),
    )
    adj = adjoint_channel(ch)
    for _ in range(20):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        lhs = np.trace(_act(adj, a) @ b)
        rhs = np.trace(a @ _act(ch, b))
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_of_tp_channel_is_unital():
    adj = adjoint_channel(amplitude_damping_channel(0.5))
    eye = np.eye(2, dtype=complex)
    assert np.max(np.abs(_act(adj, eye) - eye)) < 1e-12


def test_compose_channels_matches_sequential():
    rng = np.random.default_rng(3)
    first = dephasing_channel(0.2)
    second = amplitude_damping_channel(0.4)
    both = compose_channels(first, second)
    rho = random_density(rng, 2).matrix
    want = _act(second, _act(first, rho))
    assert np.max(np.abs(_act(both, rho) - want)) < 1e-12


def test_compress_channel_preserves_action():
    rng = np.random.default_rng(4)
    ch = identity_channel(2)
    for p in (0.1, 0.2, 0.3):
        ch = compose_channels(ch, depolarizing_channel(1, p))
    assert ch.num_ops > 4
    small = compress_channel(ch)
    assert small.num_ops <= 4
    assert small.trace_preserving
    for _ in range(5):
        rho = random_density(rng, 2).matrix
        assert np.max(np.abs(_act(small, rho) - _act(ch, rho))) < 1e-10


def test_noise_channel_placement():
    assert noise_channel(NO_NOISE, [0], 2) is None
    # global depolarizing ignores targets
    ch = noise_channel(NoiseModel("depolarizing-global", 0.2), [0], 2)
    rho = random_density(np.random.default_rng(5), 4).matrix
    want = 0.8 * rho + 0.2 * np.eye(4) / 4
    assert np.max(np.abs(_act(ch, rho) - want)) < 1e-12
    # local depolarizing touches only its targets
    ch = noise_channel(NoiseModel("depolarizing-local", 0.3), [1], 2)
    got = _act(ch, rho)
    # qubit 0 marginal untouched: partial trace over qubit 1 agrees
    t = rho.reshape(2, 2, 2, 2)
    g = got.reshape(2, 2, 2, 2)
    assert np.max(np.abs(np.einsum("itjt->ij", g) - np.einsum("itjt->ij", t))) < 1e-12


def test_noisy_circuit_channel_closed_form():
    # one-gate circuit: H then single-qubit depolarizing
    circ = GateCircuit(1, (Gate("H", (0,)),))
    p = 0.2
    ch = noisy_circuit_channel(circ, NoiseModel("depolarizing-local", p))
    zero = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    want = (1 - p) * plus + p * np.eye(2) / 2
    assert np.max(np.abs(_act(ch, zero) - want)) < 1e-12


def test_prepare_noisy_state_matches_channel():
    rng = np.random.default_rng(6)
    circ = random_circuit(rng, 2, 6)
    noise = NoiseModel("amplitude-damping", 0.15)
    via_channel = _act(
        noisy_circuit_channel(circ, noise),
        DensityOperator.computational_zero(2).matrix,
    )
    direct = prepare_noisy_state(circ, noise).matrix
    assert np.max(np.abs(via_channel - direct)) < 1e-10


def test_prepare_noiseless_state_is_circuit_output():
    rng = np.random.default_rng(7)
    circ = random_circuit(rng, 2, 5)
    psi = circuit_unitary(circ)[:, 0]
    got = prepare_noisy_state(circ, NO_NOISE).matrix
    assert np.max(np.abs(got - np.outer(psi, psi.conj()))) < 1e-10


def test_dual_state_noiseless_equals_ideal_projector():
    rng = np.random.default_rng(8)
    circ = random_circuit(rng, 2, 6)
    psi = circuit_unitary(circ)[:, 0]
    dual = dual_state(circ, NO_NOISE)
    assert np.max(np.abs(dual.matrix - np.outer(psi, psi.conj()))) < 1e-10


def test_dual_state_unital_noise_keeps_unit_trace():
    # adjoints of unital channels preserve the trace of |0><0|
    rng = np.random.default_rng(9)
    circ = random_circuit(rng, 2, 5)
    for kind in ("depolarizing-local", "depolarizing-global", "dephasing"):
        dual = dual_state(circ, NoiseModel(kind, 0.2))
        assert abs(dual.trace - 1.0) < 1e-10


def test_dual_state_amplitude_damping_oracle():
    # circuit [X], damping gamma: forward state is damped |1>; the dual
    # works the adjoint backwards from |0> and picks up trace 1 + gamma
    for gamma in (0.3, 0.7):
        dual = dual_state(
            GateCircuit(1, (Gate("X", (0,)),)),
            NoiseModel("amplitude-damping", gamma),
        )
        want = np.diag([gamma, 1.0]).astype(complex)
        assert np.max(np.abs(dual.matrix - want)) < 1e-12
        assert abs(dual.trace - (1.0 + gamma)) < 1e-12
        assert not dual.normalized


def test_dual_state_equals_global_depolarized_state():
    # global depolarizing commutes with every unitary, so the dual equals
    # the forward noisy state exactly
    rng = np.random.default_rng(10)
    circ = random_circuit(rng, 2, 6)
    noise = NoiseModel("depolarizing-global", 0.2)
    dual = dual_state(circ, noise)
    fwd = prepare_noisy_state(circ, noise)
    assert np.max(np.abs(dual.matrix - fwd.matrix)) < 1e-10


def test_dual_state_dual_noise_override():
    circ = GateCircuit(1, (Gate("H", (0,)), Gate("T", (0,))))
    noisy = dual_state(circ, NoiseModel("dephasing", 0.3))
    clean = dual_state(circ, NoiseModel("dephasing", 0.3), dual_noise=NO_NOISE)
    psi = circuit_unitary(circ)[:, 0]
    assert np.max(np.abs(clean.matrix - np.outer(psi, psi.conj()))) < 1e-10
    assert np.max(np.abs(noisy.matrix - clean.matrix)) > 1e-6


# --- local-contraction engine against the dense embedded references ---------


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _embedded_sum(ops, targets, nq, mat):
    full = [embed_operator(op, targets, nq) for op in ops]
    return sum(k @ mat @ k.conj().T for k in full)


# unordered and non-adjacent targets, k = 1..3, nq <= 5
_LOCAL_CASES = [
    (1, [0]),
    (2, [1, 0]),
    (3, [2, 0]),
    (4, [3, 0, 1]),
    (5, [4, 1]),
    (5, [3, 0, 4]),
    (5, [2]),
]


def test_apply_local_matches_embedded_operators():
    rng = np.random.default_rng(11)
    for nq, targets in _LOCAL_CASES:
        d = 2**len(targets)
        mat = _complex(rng, 2**nq, 2**nq)
        for n_ops in (1, 2, 3):
            ops = _complex(rng, n_ops, d, d)
            got = apply_local(mat, ops, targets, nq)
            want = _embedded_sum(ops, targets, nq, mat)
            assert np.max(np.abs(got - want)) < 1e-12


def test_depolarize_matches_kraus_sum():
    rng = np.random.default_rng(12)
    cases = _LOCAL_CASES + [
        # register 1 of ancilla + two 2-qubit registers
        (5, [3, 4]),
        # a whole register
        (3, [0, 1, 2]),
    ]
    for nq, targets in cases:
        mat = _complex(rng, 2**nq, 2**nq)
        for p in (0.0, 0.3, 1.0):
            ops = depolarizing_channel(len(targets), p).ops
            got = depolarize(mat, p, targets, nq)
            want = _embedded_sum(ops, targets, nq, mat)
            assert np.max(np.abs(got - want)) < 1e-12


# circuits that reach every fusion case: a one-qubit chain on one qubit
# (H T RX on 0), a one-qubit step carried past a disjoint two-qubit gate
# (RY on 2 past CNOT 0 1), a rotation repeated with the same angle (RZ
# 0.9), steps pending on the first, the second and both qubits of a
# two-qubit gate, trailing one-qubit steps, a one-qubit circuit and an
# empty one
_FUSION_CIRCUITS = [
    GateCircuit(3, (
        Gate("H", (0,)),
        Gate("T", (0,)),
        Gate("RX", (0,), 0.3),
        Gate("RY", (2,), 0.4),
        Gate("CNOT", (0, 1)),
        Gate("RZ", (1,), 0.9),
        Gate("CZ", (2, 0)),
        Gate("RZ", (1,), 0.9),
        Gate("SWAP", (1, 2)),
        Gate("RZ", (2,), 0.9),
        Gate("S", (0,)),
        Gate("X", (2,)),
        Gate("RZ", (0,), 0.9),
    )),
    GateCircuit(3, (
        Gate("Y", (2,)),
        Gate("X", (1,)),
        Gate("H", (0,)),
        Gate("CZ", (0, 1)),
        Gate("SWAP", (1, 0)),
        Gate("RX", (2,), -1.1),
        Gate("CNOT", (1, 2)),
        Gate("H", (0,)),
    )),
    GateCircuit(1, (
        Gate("H", (0,)),
        Gate("RZ", (0,), 0.5),
        Gate("RZ", (0,), 0.5),
        Gate("S", (0,)),
    )),
    GateCircuit(2, ()),
]


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_engine_states_match_dense_channel_oracles(kind):
    rng = np.random.default_rng(13)
    # the dual's noise may differ from the forward noise in kind and strength
    dual_noise = NoiseModel(NOISE_KINDS[NOISE_KINDS.index(kind) - 1], 0.1)
    circuits = [random_circuit(rng, n, 6) for n in (1, 2, 3)] + _FUSION_CIRCUITS
    # the edge strengths too: global depolarizing at 1 keeps only the
    # identity's coefficient
    for noise in (NoiseModel(kind, p) for p in (0.0, 0.15, 1.0)):
        for circ in circuits:
            zero = DensityOperator.computational_zero(circ.n_qubits).matrix
            want = apply_channel(noisy_circuit_channel(circ, noise), zero).matrix
            got = prepare_noisy_state(circ, noise).matrix
            assert np.max(np.abs(got - want)) < 1e-12, (circ, noise)
            for dual in (noise, dual_noise):
                adj = adjoint_channel(noisy_circuit_channel(inverse_circuit(circ), dual))
                got = dual_state(circ, noise, dual_noise=dual).matrix
                assert np.max(np.abs(got - _act(adj, zero))) < 1e-12, (circ, noise, dual)


# --- fused gate steps on the hot path ----------------------------------------


def _fused_steps(circ) -> int:
    """Two-qubit gates plus the qubits whose last gate acts on them alone."""
    last = {}
    for g in circ.gates:
        for q in g.qubits:
            last[q] = len(g.qubits)
    return sum(len(g.qubits) == 2 for g in circ.gates) + sum(k == 1 for k in last.values())


@pytest.mark.parametrize("evolve", [prepare_noisy_state, dual_state], ids=lambda f: f.__name__)
def test_register_evolution_makes_one_contraction_per_fused_step(monkeypatch, evolve):
    # one contraction per fused step, then ceil(n/2) that turn the Pauli
    # tensor into matrix entries, each on the register's n axes
    ndims = []

    def counting(tensor, op, axes):
        ndims.append(tensor.ndim)
        return contract(tensor, op, axes)

    monkeypatch.setattr(channels, "contract", counting)
    rng = np.random.default_rng(20)
    circuits = _FUSION_CIRCUITS + [random_circuit(rng, n, 14) for n in (1, 2, 3, 4, 5, 6)]
    for kind in ("dephasing", "amplitude-damping", "depolarizing-local"):
        for circ in circuits:
            n = circ.n_qubits
            ndims.clear()
            evolve(circ, NoiseModel(kind, 0.05))
            assert ndims == [n] * (_fused_steps(circ) + (n + 1) // 2), (kind, circ)
    # 13 gates: 3 two-qubit steps and one-qubit steps trailing on qubits 0 and 2
    assert _fused_steps(_FUSION_CIRCUITS[0]) == 5


def _pauli_transfer(sup):
    """B^dag S B / 2^k, B's columns each k-qubit Pauli string flattened
    row-major, qubit 0 most significant: the PTM of the superoperator S."""
    k = sup.shape[0].bit_length() // 2
    paulis = [np.eye(2), *(gate_matrix(name) for name in ("X", "Y", "Z"))]
    basis = np.stack(
        [reduce(np.kron, string).reshape(-1) for string in product(paulis, repeat=k)], axis=1
    )
    return basis.conj().T @ sup @ basis / 2**k


def test_fixed_gates_read_their_steps_from_a_constant_table(monkeypatch):
    # a fixed gate's PTM is built once at import, and an evolution neither
    # builds a superoperator nor writes the table
    table = channels._FIXED_STEPS
    assert set(table) == set(GATE_ARITY) - ANGLE_GATES
    before = {}
    for name, ptm in table.items():
        assert not ptm.flags.writeable, name
        want = _pauli_transfer(superoperator([gate_matrix(name)]))
        assert ptm.dtype == np.float64 and np.max(np.abs(ptm - want)) <= 1e-15, name
        before[name] = ptm.copy()

    built = []

    def counting(ops):
        built.append(ops)
        return superoperator(ops)

    monkeypatch.setattr(channels, "superoperator", counting)
    mixed = _FUSION_CIRCUITS[0]
    assert {g.name for g in mixed.gates} >= {"RX", "RY", "RZ", "CNOT", "H"}
    for kind in NOISE_KINDS:
        noise = NoiseModel(kind, 0.05)
        for evolve in (prepare_noisy_state, dual_state):
            evolve(mixed, noise)
            assert built == [], (kind, evolve.__name__)
    for name, ptm in table.items():
        assert np.array_equal(ptm, before[name]), name


@pytest.mark.parametrize("name", sorted(ANGLE_GATES))
def test_rotation_steps_equal_the_basis_change(name):
    # the closed-form plane rotation, sign convention included
    for theta in (0.0, 0.3, -1.1, np.pi / 2, 2.5, -np.pi):
        got = channels._rotation_ptm(name, theta)
        want = _pauli_transfer(superoperator([gate_matrix(name, theta)]))
        assert np.max(np.abs(got - want)) <= 1e-14, theta


def test_contract_needs_no_argsort(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("linalg.contract called np.argsort")

    circ = _FUSION_CIRCUITS[0]
    noise = NoiseModel("amplitude-damping", 0.1)
    monkeypatch.setattr(np, "argsort", refuse)
    prepare_noisy_state(circ, noise)
    dual_state(circ, noise)
    circuit_state(circ)
    circuit_unitary(circ)
    embed_operator(SWAP_GATE, (2, 0), 3)


# --- noise kernels against apply_local and the Kraus sums -------------------

# nq = 1..6, unordered and non-adjacent targets
_NOISE_CASES = [
    (1, [0]),
    (2, [1, 0]),
    (3, [2, 0]),
    (4, [3, 0, 1]),
    (5, [4, 1]),
    (6, [5, 2, 0]),
    (6, [3]),
]


@pytest.mark.parametrize("kind", ["dephasing", "amplitude-damping"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_per_qubit_noise_matches_the_kraus_pair(kind, adjoint):
    rng = np.random.default_rng(15)
    for p in (0.0, 0.3, 1.0):
        pair = dephasing_channel(p) if kind == "dephasing" else amplitude_damping_channel(p)
        ops = pair.ops.conj().transpose(0, 2, 1) if adjoint else pair.ops
        for nq, targets in _NOISE_CASES:
            mat = _complex(rng, 2**nq, 2**nq)
            want = mat
            for q in targets:
                want = apply_local(want, ops, [q], nq)
            arg = mat.copy()
            got = apply_noise(arg, NoiseModel(kind, p), targets, nq, adjoint=adjoint)
            assert np.array_equal(arg, mat)
            assert np.max(np.abs(got - want)) <= 1e-14, (p, nq, targets)


def test_depolarize_leaves_its_input_and_matches_kraus_sum():
    rng = np.random.default_rng(16)
    for nq, targets in _NOISE_CASES + [(4, [0, 1, 2, 3])]:
        mat = _complex(rng, 2**nq, 2**nq)
        for p in (0.0, 0.3, 1.0):
            want = _embedded_sum(depolarizing_channel(len(targets), p).ops, targets, nq, mat)
            arg = mat.copy()
            got = depolarize(arg, p, targets, nq)
            assert np.array_equal(arg, mat)
            assert np.max(np.abs(got - want)) <= 1e-14, (p, nq, targets)


def test_engine_states_are_wrapped_without_the_eigenvalue_check(monkeypatch):
    # prepared and dual states are PSD by construction: no copy and no
    # eigvalsh, but still read-only and checked for Hermiticity and trace
    def refuse(*args, **kwargs):
        raise AssertionError("called eigvalsh")

    circ = random_circuit(np.random.default_rng(18), 3, 12)
    noise = NoiseModel("amplitude-damping", 0.1)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rho = prepare_noisy_state(circ, noise)
    rbar = dual_state(circ, noise)
    monkeypatch.undo()
    for state, normalized in ((rho, True), (rbar, False)):
        assert state.normalized is normalized
        assert not state.matrix.flags.writeable
        checked = DensityOperator(state.matrix, normalized=normalized)
        assert np.max(np.abs(checked.matrix - state.matrix)) <= 1e-15
    with pytest.raises(ValueError):
        DensityOperator._trusted(np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError):
        DensityOperator._trusted(np.diag([0.7, 0.7]).astype(complex))
    assert DensityOperator._trusted(np.diag([0.7, 0.7]).astype(complex), normalized=False).trace == 1.4


@pytest.mark.parametrize("kind", NOISE_KINDS[1:])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_noise_reads_any_matrix_and_leaves_it_as_it_was(kind, adjoint):
    # a read-only matrix, a transpose and a strided slice each give the
    # result of a contiguous copy, and neither they nor the sliced array
    # change
    rng = np.random.default_rng(17)
    noise = NoiseModel(kind, 0.15)
    nq, targets = 3, [0, 2]
    store = _complex(rng, 16, 16)
    whole = store.copy()
    read_only = random_density(rng, 8).matrix
    assert not read_only.flags.writeable
    for mat in (read_only, _complex(rng, 8, 8).T, store[::2, ::2]):
        before = mat.copy()
        got = apply_noise(mat, noise, targets, nq, adjoint=adjoint)
        want = apply_noise(before, noise, targets, nq, adjoint=adjoint)
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(got - before)) > 1e-3
        assert np.array_equal(mat, before)
    assert np.array_equal(store, whole)


# --- fused gate-and-noise steps against the two-step path -------------------


def _two_step_evolution(circ, noise, adjoint):
    """Each gate contracted, then its noise applied (adjoint: the
    adjoint noise, then the adjoint gate, over the reversed inverse circuit)."""
    n = circ.n_qubits
    mat = zero_projector(circ.dim)
    if not adjoint:
        for g in circ.gates:
            mat = apply_local(mat, [g.matrix()], g.qubits, n)
            mat = apply_noise(mat, noise, g.qubits, n)
        return mat
    for g in reversed(inverse_circuit(circ).gates):
        mat = apply_noise(mat, noise, g.qubits, n, adjoint=True)
        mat = apply_local(mat, [g.matrix().conj().T], g.qubits, n)
    return mat


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_fused_register_steps_match_gate_then_noise(kind, adjoint):
    rng = np.random.default_rng(18)
    noise = NoiseModel(kind, 0.15)
    for n in (4, 5, 6):
        # unordered and non-adjacent targets, besides the random ones
        extra = (
            Gate("CNOT", (n - 1, 0)),
            Gate("RY", (n - 2,), 0.7),
            Gate("SWAP", (n - 1, 1)),
            Gate("CZ", (2, 0)),
        )
        base = random_circuit(rng, n, 10)
        circ = GateCircuit(n, base.gates + extra)
        want = _two_step_evolution(circ, noise, adjoint)
        state = dual_state(circ, noise) if adjoint else prepare_noisy_state(circ, noise)
        assert np.max(np.abs(state.matrix - want)) <= 1e-14, (n, kind, adjoint)


@pytest.mark.parametrize("evolve", [prepare_noisy_state, dual_state], ids=lambda f: f.__name__)
def test_register_evolution_peaks_under_three_and_a_half_registers(evolve):
    # each step reads the Pauli tensor's transposed view (half a register
    # matrix) into one row-major copy and writes one product, which stays a
    # view; the peak is the first conversion to matrix entries, where the
    # tensor and its copy sit beside that copy cast to complex and the
    # complex product: 3 register matrices at n = 8, where copying every
    # product back would reach 4
    register = 16 * 4**8
    circ = random_circuit(np.random.default_rng(0), 8, 12)
    tracemalloc.start()
    try:
        evolve(circ, NoiseModel("depolarizing-local", 0.02))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * register, peak / register


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_noise_superoperator_matches_the_kraus_sum(kind, adjoint):
    for k in (1, 2, 3):
        for p in (0.0, 0.15, 1.0):
            noise = NoiseModel(kind, p)
            channel = noise_channel(noise, range(k), k) or identity_channel(2**k)
            if adjoint:
                channel = adjoint_channel(channel)
            got = noise_superoperator(noise, k, adjoint)
            want = superoperator(channel.ops)
            assert np.max(np.abs(got - want)) <= 1e-14, (k, p)
            # the closed-form PTM an evolution folds in: the adjoint is its
            # transpose, which amplitude damping alone tells apart
            got = channels._noise_ptm(noise, k, adjoint)
            assert np.max(np.abs(got - _pauli_transfer(want))) <= 1e-14, (k, p)


@pytest.mark.parametrize("evolve", [prepare_noisy_state, dual_state], ids=lambda f: f.__name__)
def test_register_evolution_runs_no_noise_function(monkeypatch, evolve):
    # an evolution folds each gate's noise into its step as a closed-form
    # superoperator and never applies noise to a matrix
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[1])
        return apply_noise(*args, **kwargs)

    monkeypatch.setattr(channels, "apply_noise", recording)
    circ = random_circuit(np.random.default_rng(21), 3, 10)
    for kind in NOISE_KINDS:
        evolve(circ, NoiseModel(kind, 0.1))
    assert calls == []


def test_superoperator_acts_on_row_major_matrices():
    rng = np.random.default_rng(19)
    for k in (1, 2):
        d = 2**k
        ops = _complex(rng, 3, d, d)
        x = _complex(rng, d, d)
        want = sum(op @ x @ op.conj().T for op in ops)
        got = (superoperator(ops) @ x.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(got - want)) < 1e-12
