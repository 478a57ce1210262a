"""Exception types shared across the package, and the one check of each
parameter of the paper's premises: a sparsity or order K, an RIC delta, a
noise level epsilon and an example's signal magnitude a."""

import math
import sys


class OmpSharpError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(OmpSharpError):
    pass


class RankDeficient(OmpSharpError):
    """Selected columns are numerically linearly dependent."""


class InvalidOrder(OmpSharpError):
    pass


class BudgetExceeded(OmpSharpError):
    """Subset enumeration would exceed the configured budget."""

    def __init__(self, message, requested=None):
        super().__init__(message)
        self.requested = requested


class OutOfSharpRegion(OmpSharpError):
    """delta >= 1/sqrt(K+1), outside the recovery-guarantee region."""


class InvalidDeltaOrder(OmpSharpError):
    """delta_2 > delta_{K+1}, which violates RIC monotonicity."""


class DegenerateDenominator(OmpSharpError):
    pass


class GammaOutOfRange(OmpSharpError):
    pass


class ParameterOutOfRange(OmpSharpError):
    pass


class NotProperSubset(OmpSharpError):
    pass


class DegenerateMatrix(OmpSharpError):
    pass


class ParseError(OmpSharpError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def check_order(K, name="sparsity K", most=math.inf):
    """``K``, a sparsity, an RIC order or an iteration count, as an int:
    InvalidOrder unless it is an integer (numpy's too, not a bool) in
    [1, most] whose K + 1 has a float, as sqrt(K + 1) needs."""
    if isinstance(K, bool) or not hasattr(K, "__index__") or not 1 <= K <= most:
        raise InvalidOrder(f"{name} must be an integer in [1, {most}], got {K}")
    if not K < sys.float_info.max:
        raise InvalidOrder(f"{name} = {K} too large: K + 1 exceeds the float range")
    return K.__index__()


def check_delta(delta, name="delta", positive=False, below=1.0):
    """``delta``, an RIC or an instance's delta: ParameterOutOfRange unless
    it is finite and lies in [0, below), or in (0, below) if ``positive``."""
    if not ((0.0 < delta if positive else 0.0 <= delta) and delta < below):
        interval = f"{'(' if positive else '['}0, {below:g})"
        raise ParameterOutOfRange(f"{name} must be finite and lie in {interval}, got {delta}")
    return delta


def check_epsilon(epsilon, name="epsilon"):
    """``epsilon``, a noise level or a stopping threshold:
    ParameterOutOfRange unless it is finite and > 0."""
    if not abs(epsilon) <= sys.float_info.max:  # false for NaN too
        raise ParameterOutOfRange(f"{name} must be finite, got {epsilon}")
    if not epsilon > 0:
        raise ParameterOutOfRange(f"{name} must be > 0, got {epsilon}")
    return epsilon


def check_magnitude(a, above, below=sys.float_info.max):
    """``a``, an example's signal magnitude: ParameterOutOfRange unless
    above < a < below, by default the largest float, so a is finite."""
    if not above < a < below:
        raise ParameterOutOfRange(f"a {a} outside ({above}, {below})")
