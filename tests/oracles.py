"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own code paths: partial
traces are done by explicit index loops, the channel superoperator is built
from a Kraus decomposition instead of basis images, fixed points come from a
spectral projector instead of iteration, the four-block circuit is
reconstructed from its raw matrix formulas, and the label chain is solved
in exact rational arithmetic.  A result document's expected JSON is
``json.dumps`` of a copy with its floats rounded by string formatting.
"""

from collections import Counter

import numpy as np

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)


# Bell vectors in the order phi+, phi-, psi+, psi-, and Bob's correction for
# each of Alice's outcomes: phi+ -> I, psi+ -> X, phi- -> Z, psi- -> Y.
BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}
BOB_CORRECTION = {"phi+": I2, "phi-": PZ, "psi+": PX, "psi-": PY}


def teleported_branch(psi: np.ndarray, shared: str, outcome: str) -> tuple:
    """Bob's corrected qubit and the probability of Alice's Bell ``outcome``
    on psi (x) |shared>, one kron and one projection per outcome.  Returns
    ``(qubit, probability)``."""
    full = np.kron(psi, BELL[shared])
    bob = BELL[outcome].conj() @ full.reshape(4, 2)
    norm = np.linalg.norm(bob)
    return BOB_CORRECTION[outcome] @ (bob / norm), float(norm ** 2)


def improper_mixture_branches(psi: np.ndarray, rho_ab: np.ndarray) -> dict:
    """Alice's Bell measurement on psi (x) rho_AB as a three-qubit density
    matrix: for each outcome, the trace against |B><B| (x) I, the projected
    state renormalised and traced down to Bob, and his correction.  Returns
    ``{outcome: (Bob's corrected density matrix, probability)}``."""
    rho3 = np.kron(np.outer(psi, psi.conj()), rho_ab)
    branches = {}
    for outcome, vec in BELL.items():
        projector = np.kron(np.outer(vec, vec.conj()), I2)
        probability = float(np.trace(projector @ rho3).real)
        bob = ptrace_brute(projector @ rho3 @ projector / probability, 3, (2,))
        correction = BOB_CORRECTION[outcome]
        branches[outcome] = (correction @ bob @ correction.conj().T, probability)
    return branches


def ensemble(rho: np.ndarray) -> np.ndarray:
    """A density matrix as the factor K, rho = K K^dag, that the CTC stage
    takes: its eigenvectors as columns, each scaled by the square root of its
    eigenvalue, clipped at 0."""
    weights, kets = np.linalg.eigh(rho)
    return kets * np.sqrt(np.clip(weights, 0.0, None))


def ket(bits: str) -> np.ndarray:
    """Computational basis vector of a bit string, e.g. ``ket("10")``."""
    return np.eye(2 ** len(bits), dtype=complex)[int(bits, 2)]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def ptrace_brute(mat: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """Partial trace by explicit index arithmetic over bit strings."""
    keep = sorted(keep)
    traced = [q for q in range(n_qubits) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def embed(keep_bits: int, traced_bits: int) -> int:
        idx = 0
        ki, ti = 0, 0
        for q in range(n_qubits):
            if q in keep:
                bit = (keep_bits >> (len(keep) - 1 - ki)) & 1
                ki += 1
            else:
                bit = (traced_bits >> (len(traced) - 1 - ti)) & 1
                ti += 1
            idx = (idx << 1) | bit
        return idx

    for i in range(dk):
        for j in range(dk):
            total = 0.0j
            for t in range(2 ** len(traced)):
                total += mat[embed(i, t), embed(j, t)]
            out[i, j] = total
    return out


def pt_brute(mat: np.ndarray, n_qubits: int, side) -> np.ndarray:
    """Partial transpose by explicit bit swaps between row and column."""
    side = set(side)
    d = 2 ** n_qubits
    out = np.zeros((d, d), dtype=complex)

    def swap_bits(row: int, col: int):
        r, c = row, col
        for q in side:
            shift = n_qubits - 1 - q
            rb, cb = (row >> shift) & 1, (col >> shift) & 1
            r = (r & ~(1 << shift)) | (cb << shift)
            c = (c & ~(1 << shift)) | (rb << shift)
        return r, c

    for i in range(d):
        for j in range(d):
            r, c = swap_bits(i, j)
            out[r, c] = mat[i, j]
    return out


def kraus_superoperator(u_mat: np.ndarray, rho_cr: np.ndarray,
                        d_cr: int, d_ctc: int) -> np.ndarray:
    """Row-major superoperator of sigma -> Tr_CR(U (rho (x) sigma) U^dag),
    assembled from Kraus operators K_ij = sqrt(p_j) (<i| (x) I) U (|v_j> (x) I)."""
    weights, vectors = np.linalg.eigh(rho_cr)
    S = np.zeros((d_ctc ** 2, d_ctc ** 2), dtype=complex)
    for j in range(d_cr):
        if weights[j] < 1e-15:
            continue
        inject = np.kron(vectors[:, j:j + 1], np.eye(d_ctc))
        for i in range(d_cr):
            bra = np.zeros((1, d_cr))
            bra[0, i] = 1.0
            extract = np.kron(bra, np.eye(d_ctc))
            k = np.sqrt(weights[j]) * (extract @ u_mat @ inject)
            S += np.kron(k, k.conj())
    return S


def eigen_fixed_point(u_mat: np.ndarray, rho_cr: np.ndarray, d_cr: int, d_ctc: int,
                      tol: float = 1e-9):
    """Fixed point from the eigenvalue-1 spectral projector of the vectorized
    channel, applied to the maximally mixed state.  Returns (state, multiplicity).

    For a unique fixed point this is the fixed point itself; in the degenerate
    case it is the eigenvalue-1 component of I/d, the same object the Cesaro
    iteration converges to.
    """
    S = kraus_superoperator(u_mat, rho_cr, d_cr, d_ctc)
    evals_r, vecs_r = np.linalg.eig(S)
    evals_l, vecs_l = np.linalg.eig(S.conj().T)
    right = vecs_r[:, np.abs(evals_r - 1.0) <= tol]
    left = vecs_l[:, np.abs(evals_l - 1.0) <= tol]
    if right.shape[1] == 0:
        raise AssertionError("channel has no eigenvalue-1 eigenvector")
    if right.shape[1] != left.shape[1]:
        raise AssertionError("left/right eigenvalue-1 multiplicities disagree")
    projector = right @ np.linalg.inv(left.conj().T @ right) @ left.conj().T
    vec = projector @ (np.eye(d_ctc, dtype=complex) / d_ctc).reshape(-1)
    sigma = vec.reshape(d_ctc, d_ctc)
    sigma = (sigma + sigma.conj().T) / 2
    sigma /= np.trace(sigma).real
    return sigma, right.shape[1]


def four_blocks(alpha: float, beta: float, circuit: str = "cycle"):
    """The four controlled blocks, straight from their matrix formulas.

    ``"cycle"`` is the library's circuit: U_10 and U_11 end with a NOT on the
    second CTC qubit controlled by the first being |0>.  ``"literal"`` gives
    the bare formulas, whose two-dimensional fixed-point space the tests pin.
    """
    r00 = np.array([[alpha, beta], [-beta, alpha]], dtype=complex)
    r01 = np.array([[beta, alpha], [alpha, -beta]], dtype=complex)
    r10 = np.array([[beta, alpha], [-alpha, beta]], dtype=complex)
    r11 = np.array([[alpha, beta], [beta, -alpha]], dtype=complex)
    blocks = {
        (0, 0): np.kron(r00, I2),
        (0, 1): np.kron(PX, PX) @ np.kron(r01, I2),
        (1, 0): np.kron(PX, I2) @ np.kron(r10, I2),
        (1, 1): np.kron(r11, PX),
    }
    if circuit == "literal":
        return blocks
    if circuit != "cycle":
        raise ValueError(f"unknown circuit {circuit!r}")
    zero_controlled_not = np.array([[0, 1, 0, 0],
                                    [1, 0, 0, 0],
                                    [0, 0, 1, 0],
                                    [0, 0, 0, 1]], dtype=complex)
    for code in ((1, 0), (1, 1)):
        blocks[code] = zero_controlled_not @ blocks[code]
    return blocks


def interaction(alpha: float, beta: float, circuit: str = "cycle") -> np.ndarray:
    """16x16 interaction on (CR1, CR2, CTC1, CTC2) from the block formulas:
    swap the registers, then apply block c when the CR register reads c."""
    blocks = four_blocks(alpha, beta, circuit)
    controlled = sum(np.kron(np.diag(np.eye(4)[c]), blocks[code])
                     for c, code in enumerate(sorted(blocks)))
    return controlled @ qubit_swap(4, 0, 2) @ qubit_swap(4, 1, 3)


def closed_classes(P: np.ndarray, floor: float) -> int:
    """Number of closed communicating classes of the row-stochastic chain
    ``P[i, j]`` (i -> j), with every move to another label of probability at
    most ``floor`` dropped.  Reachability is the transitive closure of the
    remaining moves (Warshall); a class is closed when every label it reaches
    reaches it back."""
    n = len(P)
    reach = (np.asarray(P) > floor) | np.eye(n, dtype=bool)
    for k in range(n):
        reach = reach | (reach[:, k:k + 1] & reach[k:k + 1, :])
    classes = {tuple(np.flatnonzero(reach[i] & reach[:, i])) for i in range(n)
               if (reach[i] <= reach[:, i]).all()}
    return len(classes)


def cycle_shares(P: list) -> np.ndarray:
    """The Cesaro limit of the uniform distribution under ``P[i][j]`` (i -> j)
    when every label stays or escapes to one other label: each label's path
    of escapes is followed until it repeats, and the cycle it ends on gets its
    mass, in proportion to 1/e_c there.  The shares are ratios to the cycle's
    smallest escape, summed by numpy in label order, which is the library's
    arithmetic, so its result must match bit for bit."""
    n = len(P)
    escapes = {i: (j, rate) for i, row in enumerate(P)
               for j, rate in enumerate(row) if j != i and rate > 0}
    cycles = Counter()
    for label in range(n):
        path = []
        while label not in path:
            path.append(label)
            label = escapes.get(label, (label,))[0]
        cycles[tuple(sorted(path[path.index(label):]))] += 1
    p = np.zeros(n)
    for cycle, count in cycles.items():
        rates = [escapes[c][1] for c in cycle] if len(cycle) > 1 else [1.0]
        shares = np.array([min(rates) / rate for rate in rates])
        p[list(cycle)] = count / n * (shares / shares.sum())
    return p


def _solve_exact(A: list, b: list) -> list:
    """x with A x = b, by Gaussian elimination over ``Fraction``s (A invertible)."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_cesaro_limit(P: list) -> list:
    """The Cesaro limit of the uniform distribution under the row-stochastic
    ``P[i][j]`` (i -> j) of ``Fraction``s, by exact linear algebra: the
    stationary distribution of each closed class, weighted by the mass that
    reaches the class (the class's own labels plus each transient label's
    absorption probability into it)."""
    # Imported here, not at the top: fractions loads decimal, and bench/run.py imports this module.
    from fractions import Fraction
    n = len(P)
    reach = [[i == j or P[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        reach = [[reach[i][j] or (reach[i][k] and reach[k][j]) for j in range(n)]
                 for i in range(n)]
    classes = {tuple(j for j in range(n) if reach[i][j]) for i in range(n)
               if all(reach[j][i] for j in range(n) if reach[i][j])}
    transient = [i for i in range(n) if not any(i in c for c in classes)]
    p = [Fraction(0)] * n
    for cls in classes:
        # pi (P - I) = 0 on the class, one equation replaced by sum(pi) = 1
        A = [[P[i][j] - (i == j) for i in cls] for j in cls[:-1]] + [[Fraction(1)] * len(cls)]
        pi = _solve_exact(A, [Fraction(0)] * (len(cls) - 1) + [Fraction(1)])
        # h = P h on the transient labels, with h = 1 on the class and 0 elsewhere
        h = _solve_exact([[(i == t) - P[i][t] for t in transient] for i in transient],
                         [sum(P[i][c] for c in cls) for i in transient]) if transient else []
        mass = (len(cls) + sum(h)) / Fraction(n)
        for c, share in zip(cls, pi):
            p[c] = mass * share
    return p


def exact_chain_readout(outputs: np.ndarray) -> list:
    """The CR diagonal of the label-chain CTC stage, exactly, for the block
    outputs ``outputs[c, c', j] = (U_c K)[c', j]`` read as exact rationals.

    The move c -> c' != c has probability sum_j |outputs[c, c', j]|^2, as in
    the solve, and each label stays with the rest, so the chain is exactly
    stochastic; p is :func:`exact_cesaro_limit`.  The CR output is
    sigma*_cc' Tr(U_c rho U_c'^dag) with sigma* = sum_c p_c tau_c / trace, so
    its diagonal entry c is sigma*_cc times ||U_c K||_F^2."""
    from fractions import Fraction
    d = outputs.shape[0]
    weight = [[sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in outputs[c, c2])
               for c2 in range(d)] for c in range(d)]
    P = [list(row) for row in weight]
    for c in range(d):
        P[c][c] = 1 - sum(w for c2, w in enumerate(weight[c]) if c2 != c)
    p = exact_cesaro_limit(P)
    sigma = [sum(p[c] * weight[c][c2] for c in range(d)) for c2 in range(d)]
    trace = sum(sigma)
    return [sigma[c] / trace * sum(weight[c]) for c in range(d)]


def discrimination_chain(alpha: float, beta: float, cr_qubit: np.ndarray) -> np.ndarray:
    """Column-stochastic transition matrix of the CTC label chain: entry
    [c', c] is the weight of basis label c' in U_c (cr_qubit (x) |0>)."""
    blocks = four_blocks(alpha, beta)
    vin = np.kron(np.asarray(cr_qubit, dtype=complex), np.array([1, 0], dtype=complex))
    M = np.zeros((4, 4))
    for c, code in enumerate(sorted(blocks)):
        out = blocks[code] @ vin
        M[:, c] = np.abs(out) ** 2
    return M


def smolin_pauli_form() -> np.ndarray:
    """Smolin state as (I + X^4 + Y^4 + Z^4) / 16."""
    total = np.eye(16, dtype=complex)
    for p in (PX, PY, PZ):
        term = np.array([[1.0 + 0j]])
        for _ in range(4):
            term = np.kron(term, p)
        total = total + term
    return total / 16


def qubit_swap(n_qubits: int, i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging qubits i and j of an n-qubit register."""
    d = 2 ** n_qubits
    P = np.zeros((d, d))
    for k in range(d):
        si, sj = n_qubits - 1 - i, n_qubits - 1 - j
        bi, bj = (k >> si) & 1, (k >> sj) & 1
        m = k & ~(1 << si) & ~(1 << sj) | (bj << si) | (bi << sj)
        P[m, k] = 1.0
    return P


def rounded(value):
    """A copy of a result document (or of any value in it) with every float
    rounded to 15 significant digits, the precision a ``dctc-sim`` document
    carries: ``json.dumps`` of the copy is the text the CLI writes."""
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    if isinstance(value, float):
        return float(f"{value:.15g}")
    return value
