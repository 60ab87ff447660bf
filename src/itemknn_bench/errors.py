"""Exception types shared across the package."""


class SchemaError(ValueError):
    """An input file does not follow its format, such as a missing required column."""


class RowParseError(SchemaError):
    """A line of an input file breaks its format; carries the path and the 1-based line."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class ExperimentError(RuntimeError):
    """Pipeline failure, tagged with the phase that raised it."""

    def __init__(self, phase: str, message: str):
        super().__init__(f"[{phase}] {message}")
        self.phase = phase
