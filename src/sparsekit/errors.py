"""Shared exception types."""


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


def raise_if_invalid(violations: list, message: str, **state) -> None:
    """The one self-check rule: a construction passes its own output's
    validator verdict here, and any violation raises AlgorithmStallError
    with `message`, the state and the violations.  A state value that has a
    `to_json` is serialized only then."""
    if violations:
        state = {k: v.to_json() if hasattr(v, "to_json") else v for k, v in state.items()}
        raise AlgorithmStallError(f"{message}: {violations}",
                                  state={**state, "violations": violations})
