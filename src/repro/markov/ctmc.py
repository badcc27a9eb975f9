"""Generic finite continuous-time Markov chain (CTMC) machinery.

A chain is described *implicitly* by a transition function mapping a state to
its outgoing ``(target, rate)`` pairs; the reachable state space is explored
breadth-first.  The stationary distribution is obtained by solving the
global-balance equations with one equation replaced by normalization.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

State = Hashable
TransitionFn = Callable[[State], Iterable[Tuple[State, float]]]

#: Below this many states a dense solve is faster and more robust.
_DENSE_CUTOFF = 600


class FiniteCTMC:
    """A finite CTMC built by exploring ``transition_fn`` from seed states.

    Parameters
    ----------
    transition_fn:
        Maps a state to an iterable of ``(target_state, rate)`` pairs.
        Rates must be positive; self-loops are ignored.
    initial_states:
        Seeds for the reachability exploration.
    state_filter:
        Optional predicate; targets for which it returns False are dropped
        (used to truncate infinite chains).
    """

    def __init__(self, transition_fn: TransitionFn,
                 initial_states: Iterable[State],
                 state_filter: Optional[Callable[[State], bool]] = None):
        self._transition_fn = transition_fn
        self._filter = state_filter
        self.states: List[State] = []
        self.index: Dict[State, int] = {}
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._rates: List[float] = []
        self._explore(initial_states)

    def _explore(self, initial_states: Iterable[State]) -> None:
        queue = deque()
        for state in initial_states:
            if state not in self.index:
                self.index[state] = len(self.states)
                self.states.append(state)
                queue.append(state)
        while queue:
            state = queue.popleft()
            source = self.index[state]
            for target, rate in self._transition_fn(state):
                if rate < 0:
                    raise AnalysisError(f"negative rate {rate} from state {state!r}")
                if rate == 0 or target == state:
                    continue
                if self._filter is not None and not self._filter(target):
                    continue
                if target not in self.index:
                    self.index[target] = len(self.states)
                    self.states.append(target)
                    queue.append(target)
                self._rows.append(source)
                self._cols.append(self.index[target])
                self._rates.append(float(rate))

    @property
    def num_states(self) -> int:
        """Size of the reachable (possibly truncated) state space."""
        return len(self.states)

    def generator_matrix(self) -> csr_matrix:
        """The infinitesimal generator Q (rows sum to zero)."""
        from scipy import sparse

        n = self.num_states
        off = sparse.coo_matrix((self._rates, (self._rows, self._cols)), shape=(n, n))
        off = off.tocsr()
        diagonal = -np.asarray(off.sum(axis=1)).ravel()
        return off + sparse.diags(diagonal)

    def stationary_distribution(self) -> np.ndarray:
        """Solve pi Q = 0, pi 1 = 1.

        Replaces the last balance equation with the normalization condition.
        Raises :class:`AnalysisError` if the solution is not a proper
        distribution (e.g. the chain is not irreducible).
        """
        n = self.num_states
        if n == 0:
            raise AnalysisError("empty state space")
        if n == 1:
            return np.array([1.0])
        generator_t = self.generator_matrix().transpose().tolil()
        generator_t[n - 1, :] = 1.0  # normalization row
        rhs = np.zeros(n)
        rhs[n - 1] = 1.0
        if n <= _DENSE_CUTOFF:
            solution = np.linalg.solve(generator_t.toarray(), rhs)
        else:
            from scipy.sparse.linalg import spsolve

            solution = spsolve(generator_t.tocsr(), rhs)
        if not np.all(np.isfinite(solution)):
            raise AnalysisError("stationary solve produced non-finite values")
        # Tiny negative entries are numerical noise; large ones are a bug.
        if solution.min() < -1e-8:
            raise AnalysisError(
                f"stationary solve produced negative probability {solution.min():.3e}"
            )
        solution = np.clip(solution, 0.0, None)
        total = solution.sum()
        if not np.isfinite(total) or total <= 0:
            raise AnalysisError("stationary distribution does not normalize")
        return solution / total

    def expected_value(self, value_fn: Callable[[State], float],
                       distribution: Optional[np.ndarray] = None) -> float:
        """E[value_fn(state)] under ``distribution`` (computed if omitted)."""
        if distribution is None:
            distribution = self.stationary_distribution()
        return float(sum(value_fn(state) * p
                         for state, p in zip(self.states, distribution)))

    def probability(self, predicate: Callable[[State], bool],
                    distribution: Optional[np.ndarray] = None) -> float:
        """P(predicate(state)) under the stationary distribution."""
        return self.expected_value(lambda s: 1.0 if predicate(s) else 0.0,
                                   distribution)
