"""Minimal estimator base: constructor-introspected get_params/set_params,
and the model and algorithm names, which the CLI reads without loading numpy."""

from __future__ import annotations

import inspect

MODEL_KINDS = ("gmm", "mrm", "rmc")

ALGORITHMS = ("em", "clipped", "dpgem", "dpem")


class BaseEstimator:
    """Estimators declare hyperparameters as explicit ``__init__`` keyword
    arguments and store them unchanged; fitted state uses trailing
    underscores.  ``get_params``/``set_params`` follow from the signature.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, p in signature.parameters.items()
            if name != "self" and p.kind == p.POSITIONAL_OR_KEYWORD
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
