"""The paper's controls against an exact CTC stage on Bob's rational qubit.

At a Pythagorean pair alpha = n/h, beta = m/h (n^2 + m^2 = h^2) every
number of the discrimination stage is rational: the blocks' entries lie in
{0, +-alpha, +-beta}, Bob's corrected state is a rational 2 x 2 density
matrix, and the label chain's Cesaro limit is rational
(``oracles.exact_cesaro_limit``).  The exact stage here works on that
density matrix, never on a factor of it, so it needs no square root:
tau_c = U_c (rho (x) |0><0|) U_c^T, p is the Cesaro limit of the chain
read from the tau_c's diagonals, and the CR distribution is the diagonal of
sum_c p_c tau_c over its trace.

Two controls are checked against it.  A Werner pair (1 - eps)|B_k><B_k| +
eps I/4 leaves Bob (1 - eps) E_k psi psi^T E_k^T + eps I/2 for every Alice
outcome; the float path (one 4-row factor, teleportation with the outcome
pinned, the CTC stage) must match the exact distribution.  Deutsch on
Bob's actual state, unconditioned on the referee's pair, is I/2 and reads
1/4 on every label.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dctcsim import AmplitudePair, BellLabel
from dctcsim.protocols import ctc_readouts, teleport_and_correct

from oracles import exact_cesaro_limit, four_blocks

TRIPLES = [(3, 4, 5), (20, 21, 29), (119, 120, 169), (696, 697, 985)]
NOISE = [Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1)]
# Bob's residual error for each shared pair, in BellLabel order: psi, Z psi, X psi, XZ psi.
ERRORS = [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]]]
BELL_FACTORS = np.array([[label.state_vector()] for label in BellLabel])


def _product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def exact_blocks(n, m, h):
    """The four blocks at alpha = n/h, beta = m/h, in label order, read back
    from their float formulas as exact rationals."""
    blocks = four_blocks(n / h, m / h)
    assert not any(np.iscomplex(block).any() for block in blocks.values())
    return [[[Fraction(float(z.real)).limit_denominator(h) for z in row] for row in blocks[code]]
            for code in sorted(blocks)]


def exact_stage(rho, blocks):
    """The CR distribution of the label-chain stage for Bob's rational 2 x 2 ``rho``."""
    lifted = [[rho[i // 2][j // 2] if i % 2 == j % 2 == 0 else Fraction(0) for j in range(4)]
              for i in range(4)]        # rho (x) |0><0|, Bob's qubit first
    taus = [_product(_product(u, lifted), [list(col) for col in zip(*u)]) for u in blocks]
    p = exact_cesaro_limit([[tau[c][c] for c in range(4)] for tau in taus])
    diagonal = [sum(p[c] * taus[c][label][label] for c in range(4)) for label in range(4)]
    return [entry / sum(diagonal) for entry in diagonal]


def werner_bob(n, m, h, k, eps):
    """Bob's corrected qubit, exactly, for a Werner pair around Bell pair ``k``."""
    v = [sum(e * x for e, x in zip(row, (Fraction(n, h), Fraction(m, h)))) for row in ERRORS[k]]
    return [[(1 - eps) * v[a] * v[b] + (eps / 2 if a == b else 0) for b in range(2)]
            for a in range(2)]


def float_distributions(amps, k, eps):
    """The CTC stage's distribution for each pinned Alice outcome, the Werner
    pair passed as one factor with rows sqrt(w_j) B_j."""
    weights = [1 - 3 * eps / 4 if j == k else eps / 4 for j in range(4)]
    factor = np.array([[math.sqrt(w) * label.state_vector()
                        for w, label in zip(weights, BellLabel)]])
    distributions = []
    for outcome in BellLabel:
        _, kets = teleport_and_correct(factor, amps, alice_outcome=outcome)
        [(distribution, *_)] = ctc_readouts(amps, kets)
        distributions.append(distribution)
    return distributions


class TestWernerPair:
    @pytest.mark.parametrize("n, m, h", TRIPLES)
    def test_float_stage_matches_exact_stage(self, n, m, h):
        blocks = exact_blocks(n, m, h)
        amps = AmplitudePair.from_alpha(n / h)
        for eps in NOISE:
            for k in range(4):
                exact = [float(x) for x in exact_stage(werner_bob(n, m, h, k, eps), blocks)]
                for distribution in float_distributions(amps, k, float(eps)):
                    assert max(abs(a - b) for a, b in zip(distribution, exact)) <= 1e-15, (eps, k)

    @pytest.mark.parametrize("n, m, h", TRIPLES)
    def test_noiseless_pair_is_identified_and_full_noise_reads_a_quarter(self, n, m, h):
        blocks = exact_blocks(n, m, h)
        for k in range(4):
            assert exact_stage(werner_bob(n, m, h, k, Fraction(0)), blocks)[k] == 1
            assert exact_stage(werner_bob(n, m, h, k, Fraction(1)), blocks) == [Fraction(1, 4)] * 4

    @pytest.mark.parametrize("eps, success", [(Fraction(1, 100), 0.9337099803404136),
                                              (Fraction(1, 10), 0.6560744776438341)])
    def test_mean_success_at_three_fifths(self, eps, success):
        # The values the noisy-pair table records at alpha = 0.6.
        blocks = exact_blocks(3, 4, 5)
        exact = sum(exact_stage(werner_bob(3, 4, 5, k, eps), blocks)[k] for k in range(4)) / 4
        assert abs(float(exact) - success) <= 1e-15
        amps = AmplitudePair.from_alpha(0.6)
        measured = np.mean([d[k] for k in range(4)
                            for d in float_distributions(amps, k, float(eps))])
        assert abs(measured - success) <= 1e-15


class TestActualState:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.7071, 0.75])
    def test_unconditioned_bob_reads_a_quarter(self, alpha):
        # Per Alice outcome, one input holding Bob's four corrected branches,
        # each times 1/2: Deutsch on the actual state I/2, not branch by branch.
        amps = AmplitudePair.from_alpha(alpha)
        for outcome in BellLabel:
            _, kets = teleport_and_correct(BELL_FACTORS, amps, alice_outcome=outcome)
            actual = kets[:, :, 0].T[None] / 2
            [(distribution, *_)] = ctc_readouts(amps, actual)
            assert max(abs(p - 0.25) for p in distribution) <= 1e-15, outcome

    @pytest.mark.parametrize("n, m, h", TRIPLES)
    def test_exact_stage_reads_a_quarter_on_the_maximally_mixed_qubit(self, n, m, h):
        half = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
        assert exact_stage(half, exact_blocks(n, m, h)) == [Fraction(1, 4)] * 4
