"""Shared exception types, and the library's three ways of saying no: an
argument below its floor (`require_at_least`), an input past a cap
(`require_at_most`), and an output its own validator refuses
(`raise_if_invalid`)."""


class SparsekitError(Exception):
    pass


class GraphInputError(SparsekitError, ValueError):
    """Malformed graph data (bad ids, self-loops, duplicate edges)."""


class EdgeListParseError(GraphInputError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class FormulaParseError(SparsekitError, ValueError):
    def __init__(self, message, pos):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class FormulaScopeError(SparsekitError, ValueError):
    """A variable is used outside the scope of its quantifier."""


class LocalityError(SparsekitError, ValueError):
    """A formula does not satisfy the syntactic radius restriction."""


class CapabilityError(SparsekitError):
    """Instance exceeds a configured exact-computation cap."""

    def __init__(self, message, cap_name, cap_value):
        super().__init__(message)
        self.cap_name = cap_name
        self.cap_value = cap_value


class PreconditionError(SparsekitError, ValueError):
    """An operation's stated precondition does not hold for the input."""


class StrategyBugError(SparsekitError):
    """A game strategy produced an illegal move."""

    def __init__(self, message, round_no, side):
        super().__init__(f"round {round_no}, {side}: {message}")
        self.round_no = round_no
        self.side = side


class AlgorithmStallError(SparsekitError):
    """An iterative construction failed to make progress where theory says it must."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state or {}


def require_at_least(name: str, value, least) -> None:
    """The one floor rule: an argument below the least value its operation
    accepts is the caller's mistake, a PreconditionError."""
    if value < least:
        raise PreconditionError(f"{name} must be >= {least}, got {value}")


def require_at_most(cap_name: str, value, cap, unit: str) -> None:
    """The one cap rule: an input past a configured cap is refused, before
    any work, with a CapabilityError that names the cap and its value."""
    if value > cap:
        raise CapabilityError(f"{cap_name}: capped at {cap} {unit}, got {value}",
                              cap_name, cap)


def raise_if_invalid(violations: list, message: str, **state) -> None:
    """The one self-check rule: a construction passes its own output's
    validator verdict here, and any violation raises AlgorithmStallError
    with `message`, the state and the violations.  A state value that has a
    `to_json` is serialized only then."""
    if violations:
        state = {k: v.to_json() if hasattr(v, "to_json") else v for k, v in state.items()}
        raise AlgorithmStallError(f"{message}: {violations}",
                                  state={**state, "violations": violations})
