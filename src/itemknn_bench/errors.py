"""Exception types shared across the package."""


class SchemaError(ValueError):
    """An input file does not follow its format, such as a missing required column."""


class RowParseError(ValueError):
    """A data row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class ExperimentError(RuntimeError):
    """Pipeline failure, tagged with the phase that raised it."""

    def __init__(self, phase: str, message: str):
        super().__init__(f"[{phase}] {message}")
        self.phase = phase
