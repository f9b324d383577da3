"""Synchronous buck power stage (paper Figures 10-13, 15).

The power stage switches the filter input between the source voltage ``Vg``
(high-side switch on) and ground (low-side switch on) with the duty cycle
provided by the DPWM; the LC low-pass filter averages the switched node so
the output voltage is ``Vout = Duty * Vg`` in steady state (paper eq. 11).

Within each on/off interval the converter is a linear time-invariant 2-state
system, so the interval update has a closed form: the state transition matrix
is the matrix exponential of the (2x2) system matrix and the constant source
drive integrates to an affine term.  The default ``exact`` stepper evaluates
that closed form once per interval (two matrix-vector products per switching
period), with the transition coefficients cached per
``(load, duration)`` so repeated duty words cost almost nothing.  The
original explicit-Euler integrator (64 sub-steps per on/off interval) is kept
behind ``method="euler"`` for cross-validation; the two agree to a fraction
of a millivolt on the regulation workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

__all__ = [
    "BuckParameters",
    "BuckPowerStage",
    "BuckState",
    "PlantTerms",
    "duration_coefficients",
    "exact_interval_coefficients",
    "plant_matrix_entries",
    "plant_terms",
]


def plant_matrix_entries(
    inductance_h: Any,
    capacitance_f: Any,
    series_resistance_ohm: Any,
    load_resistance_ohm: Any,
) -> tuple[Any, Any, Any, Any]:
    """System-matrix entries of the buck LC plant.

    For state ``x = [i_L, v_out]`` and ``dx/dt = A x + u`` with
    ``u = [V_switch_node / L, 0]``, returns the entries ``(a, b, c, d)`` of
    ``A``.  Shared by the scalar exact stepper and the batch engine so the
    two can never model different plants; inputs may be scalars or
    broadcastable arrays.
    """
    return (
        -series_resistance_ohm / inductance_h,
        -1.0 / inductance_h,
        1.0 / capacitance_f,
        -1.0 / (load_resistance_ohm * capacitance_f),
    )

#: Relative threshold under which the expm eigenvalue split counts as zero
#: (critically damped); below it the sinh(q t)/q factor degenerates to t.
_DEGENERATE_EPS = 1e-24


class PlantTerms(NamedTuple):
    """Duration-independent terms of the closed-form interval update.

    ``(a, b, c, d)`` are the system-matrix entries as float arrays; ``mu``
    and ``delta`` the half-sum and half-difference of the diagonal; ``q``
    the eigenvalue split (1 where ``degenerate``); ``oscillatory`` marks
    the underdamped plants (``q**2 < 0``) and ``det`` is ``det(A)``.  All
    fields broadcast together, one entry per plant.
    """

    a: Any
    b: Any
    c: Any
    d: Any
    mu: Any
    delta: Any
    q: Any
    degenerate: Any
    oscillatory: Any
    det: Any


def plant_terms(a: Any, b: Any, c: Any, d: Any) -> PlantTerms:
    """The duration-independent half of :func:`exact_interval_coefficients`.

    A plant's terms serve every interval it is advanced over, so callers
    that evaluate many durations of one plant (the on and off intervals of
    a period, every duty word of a load level) compute them once and pass
    them to :func:`duration_coefficients`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)

    mu = 0.5 * (a + d)
    delta = 0.5 * (a - d)
    q_squared = delta * delta + b * c
    scale = np.maximum(mu * mu, np.abs(q_squared))
    degenerate = np.abs(q_squared) <= _DEGENERATE_EPS * np.maximum(scale, 1.0)
    q = np.sqrt(np.abs(np.where(degenerate, 1.0, q_squared)))
    oscillatory = q_squared < 0
    # det(A) > 0 for any physical buck (d = -1/(R C) and b c = -1/(L C)
    # make it strictly positive); M = inv(A) (Ad - I) divides by it.
    det = a * d - b * c
    return PlantTerms(a, b, c, d, mu, delta, q, degenerate, oscillatory, det)


def duration_coefficients(
    terms: PlantTerms, duration: Any, out: Any = None
) -> tuple[Any, Any, Any, Any, Any, Any]:
    """The duration half of :func:`exact_interval_coefficients`.

    ``duration`` broadcasts against the plant terms, so a ``(2, N)`` stack
    of on and off times evaluates both intervals of ``N`` plants in one
    pass.  Every operation is elementwise, so each entry equals the
    separate evaluation of its own plant and duration bit for bit.

    Only the closed-form branches some plant of the batch takes are
    evaluated: an all-underdamped batch computes cos/sin alone, the grouped
    exponentials run only if some plant is grouped, and the critically
    damped override only if some plant is degenerate.  A skipped branch is
    one whose ``np.where`` would have discarded every value, so skipping it
    changes no bit.

    ``out``, when given, is a ``(6, *shape)`` float array that receives
    ``(ad11, ad12, ad21, ad22, m11, m21)`` in place of fresh arrays.
    """
    a, b, c, d, mu, delta, q, degenerate, oscillatory, det = terms
    duration = np.asarray(duration, dtype=float)
    qt = q * duration

    envelope = np.exp(mu * duration)
    # Branch presence is counted with np.count_nonzero: one call answers
    # both "all" and "any", cheaper than the ndarray.all/any reductions.
    oscillating = np.count_nonzero(oscillatory)
    if oscillating == np.size(oscillatory):
        cosh_env = envelope * np.cos(qt)
        sinh_env = envelope * np.sin(qt) / q
    else:
        # Overdamped branch.  For moderate q t, evaluate exp(mu t) *
        # cosh/sinh directly (well-conditioned for small q t).  For large
        # q t those factors overflow/underflow individually even though
        # their product is finite, so group them as exp((mu +/- q) t) --
        # both exponents are non-positive because det(A) > 0 implies
        # q < |mu|.  Branch arguments are masked so the unused side never
        # overflows.
        grouped = (~oscillatory) & (qt > 30.0)
        qt_direct = np.where(grouped, 0.0, qt)
        cosh_env = envelope * np.where(oscillatory, np.cos(qt), np.cosh(qt_direct))
        sinh_env = envelope * np.where(oscillatory, np.sin(qt), np.sinh(qt_direct)) / q
        if np.count_nonzero(grouped):
            q_grouped = np.where(grouped, q, 0.0)
            exp_plus = np.exp((mu + q_grouped) * duration)
            exp_minus = np.exp((mu - q_grouped) * duration)
            cosh_env = np.where(grouped, 0.5 * (exp_plus + exp_minus), cosh_env)
            sinh_env = np.where(grouped, (exp_plus - exp_minus) / (2.0 * q), sinh_env)
    if np.count_nonzero(degenerate):
        cosh_env = np.where(degenerate, envelope, cosh_env)
        sinh_env = np.where(degenerate, duration * envelope, sinh_env)

    ad11, ad12, ad21, ad22, m11, m21 = (None,) * 6 if out is None else out
    sinh_delta = sinh_env * delta
    ad11 = np.add(cosh_env, sinh_delta, out=ad11)
    ad12 = np.multiply(sinh_env, b, out=ad12)
    ad21 = np.multiply(sinh_env, c, out=ad21)
    ad22 = np.subtract(cosh_env, sinh_delta, out=ad22)

    # M = inv(A) (Ad - I); only the first column is needed because the
    # drive's second component is zero.
    ad11_minus_one = ad11 - 1.0
    m11 = np.divide(d * ad11_minus_one - b * ad21, det, out=m11)
    m21 = np.divide(a * ad21 - c * ad11_minus_one, det, out=m21)
    return ad11, ad12, ad21, ad22, m11, m21


def exact_interval_coefficients(
    a: Any, b: Any, c: Any, d: Any, duration: Any
) -> tuple[Any, Any, Any, Any, Any, Any]:
    """Exact discrete-time update coefficients for a 2-state linear interval.

    For ``dx/dt = A x + u`` with ``A = [[a, b], [c, d]]`` constant over
    ``duration`` and a constant drive ``u``, the exact update is::

        x(T) = Ad @ x(0) + M @ u        with  Ad = expm(A T),
                                              M  = inv(A) @ (Ad - eye(2))

    The matrix exponential is evaluated in closed form: with
    ``mu = (a + d) / 2`` and ``q**2 = ((a - d) / 2)**2 + b c``,

        ``expm(A T) = exp(mu T) * (C(T) I + S(T) (A - mu I))``

    where ``C = cosh(q T)`` and ``S = sinh(q T) / q`` (which become
    ``cos``/``sin`` for the underdamped case ``q**2 < 0`` and ``1``/``T``
    in the critically damped limit).  All inputs may be scalars or
    broadcastable numpy arrays, which is what the batch engine relies on.

    The evaluation is :func:`plant_terms` (everything that depends on the
    plant alone) composed with :func:`duration_coefficients`; this
    function is that composition and nothing else, so the scalar stepper
    and the batch engine share one copy of the math.

    Returns:
        ``(ad11, ad12, ad21, ad22, m11, m21)`` -- the four entries of ``Ad``
        and the first column of ``M`` (the buck's drive only has a first
        component, ``u = [Vs / L, 0]``, so the second column is never
        needed).
    """
    return duration_coefficients(plant_terms(a, b, c, d), duration)


@dataclass(frozen=True)
class BuckParameters:
    """Electrical parameters of the buck converter.

    Attributes:
        input_voltage_v: source voltage ``Vg``.
        inductance_h: filter inductance.
        capacitance_f: filter capacitance.
        switching_frequency_hz: regulator switching frequency.
        switch_resistance_ohm: on-resistance of each power switch.
        inductor_resistance_ohm: series resistance of the inductor.
    """

    input_voltage_v: float = 1.8
    inductance_h: float = 100e-9
    capacitance_f: float = 100e-9
    switching_frequency_hz: float = 100e6
    switch_resistance_ohm: float = 0.02
    inductor_resistance_ohm: float = 0.01

    def __post_init__(self) -> None:
        if self.input_voltage_v <= 0:
            raise ValueError("input voltage must be positive")
        if self.inductance_h <= 0 or self.capacitance_f <= 0:
            raise ValueError("L and C must be positive")
        if self.switching_frequency_hz <= 0:
            raise ValueError("switching frequency must be positive")
        if self.switch_resistance_ohm < 0 or self.inductor_resistance_ohm < 0:
            raise ValueError("parasitic resistances must be non-negative")

    @property
    def switching_period_s(self) -> float:
        return 1.0 / self.switching_frequency_hz

    @property
    def lc_cutoff_frequency_hz(self) -> float:
        """Corner frequency of the output filter (paper eq. 9)."""
        return 1.0 / (
            2.0 * np.pi * np.sqrt(self.inductance_h * self.capacitance_f)
        )

    def steady_state_output_v(self, duty: float) -> float:
        """Ideal steady-state output voltage (paper eq. 11)."""
        if not 0.0 <= duty <= 1.0:
            raise ValueError("duty must be in [0, 1]")
        return duty * self.input_voltage_v


@dataclass
class BuckState:
    """Dynamic state of the power stage."""

    inductor_current_a: float = 0.0
    output_voltage_v: float = 0.0


class BuckPowerStage:
    """Cycle-by-cycle behavioural model of the synchronous buck.

    Args:
        parameters: electrical parameters of the converter.
        substeps_per_interval: Euler sub-steps per on/off interval (only used
            by ``method="euler"``).
        method: ``"exact"`` (default) advances each on/off interval with the
            closed-form state-transition update; ``"euler"`` keeps the
            original fixed-step explicit integration for cross-validation.
    """

    #: Transition-coefficient cache bound; duty words are quantized so real
    #: workloads stay far below this, but open-loop sweeps with continuously
    #: varying duty must not grow the cache without limit.
    MAX_CACHED_INTERVALS = 4096

    def __init__(
        self,
        parameters: BuckParameters,
        substeps_per_interval: int = 64,
        method: str = "exact",
    ) -> None:
        if substeps_per_interval < 4:
            raise ValueError("need at least 4 integration sub-steps per interval")
        if method not in ("exact", "euler"):
            raise ValueError(f"method must be 'exact' or 'euler', got {method!r}")
        self.parameters = parameters
        self.substeps_per_interval = substeps_per_interval
        self.method = method
        self.state = BuckState()
        self._interval_cache: dict[tuple[float, float], tuple] = {}
        self._cached_parameters = parameters

    def reset(
        self, inductor_current_a: float = 0.0, output_voltage_v: float = 0.0
    ) -> None:
        """Reset the dynamic state (e.g. before a new experiment).

        Also drops the cached transition coefficients, so a caller that
        reconfigures ``parameters`` and resets gets coefficients for the new
        plant rather than a stale mix.
        """
        self.state = BuckState(
            inductor_current_a=inductor_current_a,
            output_voltage_v=output_voltage_v,
        )
        self._interval_cache.clear()

    def _integrate(
        self, source_voltage_v: float, load_resistance_ohm: float, duration_s: float
    ) -> None:
        """Integrate the LC state with the switch node held at a voltage."""
        if duration_s <= 0:
            return
        params = self.parameters
        series_resistance = (
            params.switch_resistance_ohm + params.inductor_resistance_ohm
        )
        steps = self.substeps_per_interval
        dt = duration_s / steps
        current = self.state.inductor_current_a
        voltage = self.state.output_voltage_v
        for _ in range(steps):
            di_dt = (
                source_voltage_v - voltage - series_resistance * current
            ) / params.inductance_h
            dv_dt = (
                current - voltage / load_resistance_ohm
            ) / params.capacitance_f
            current += di_dt * dt
            voltage += dv_dt * dt
        self.state.inductor_current_a = current
        self.state.output_voltage_v = voltage

    def _step_exact(
        self, source_voltage_v: float, load_resistance_ohm: float, duration_s: float
    ) -> None:
        """Advance the LC state by one interval with the closed-form update."""
        if duration_s <= 0:
            return
        # The cached coefficients bake in L/C/R; parameters are frozen, so an
        # identity check is enough to catch the stage being retuned by
        # assigning a new parameter set (a pattern the Euler path supports by
        # reading ``self.parameters`` live).
        if self.parameters is not self._cached_parameters:
            self._interval_cache.clear()
            self._cached_parameters = self.parameters
        key = (load_resistance_ohm, duration_s)
        coefficients = self._interval_cache.get(key)
        if coefficients is None:
            params = self.parameters
            a, b, c, d = plant_matrix_entries(
                inductance_h=params.inductance_h,
                capacitance_f=params.capacitance_f,
                series_resistance_ohm=params.switch_resistance_ohm
                + params.inductor_resistance_ohm,
                load_resistance_ohm=load_resistance_ohm,
            )
            coefficients = tuple(
                float(value)
                for value in exact_interval_coefficients(a, b, c, d, duration_s)
            )
            if len(self._interval_cache) >= self.MAX_CACHED_INTERVALS:
                self._interval_cache.clear()
            self._interval_cache[key] = coefficients
        ad11, ad12, ad21, ad22, m11, m21 = coefficients
        drive = source_voltage_v / self.parameters.inductance_h
        current = self.state.inductor_current_a
        voltage = self.state.output_voltage_v
        self.state.inductor_current_a = ad11 * current + ad12 * voltage + m11 * drive
        self.state.output_voltage_v = ad21 * current + ad22 * voltage + m21 * drive

    def run_period(
        self,
        duty: float,
        load_resistance_ohm: float,
        source_voltage_v: float | None = None,
    ) -> BuckState:
        """Advance the converter by one switching period at a given duty.

        Args:
            duty: fraction of the period the high-side switch is on (0..1).
            load_resistance_ohm: load seen at the output during this period.
            source_voltage_v: input voltage during this period; defaults to
                the nominal ``input_voltage_v`` (override it to model line
                transients).

        Returns:
            the state at the end of the period (also kept internally).
        """
        if not 0.0 <= duty <= 1.0:
            raise ValueError(f"duty must be in [0, 1], got {duty}")
        if load_resistance_ohm <= 0:
            raise ValueError("load resistance must be positive")
        params = self.parameters
        if source_voltage_v is None:
            source_voltage_v = params.input_voltage_v
        elif source_voltage_v < 0:
            raise ValueError("source voltage must be non-negative")
        period = params.switching_period_s
        on_time = duty * period
        off_time = period - on_time
        step = self._step_exact if self.method == "exact" else self._integrate
        step(source_voltage_v, load_resistance_ohm, on_time)
        step(0.0, load_resistance_ohm, off_time)
        return self.state

    def run_periods(
        self, duty: float, load_resistance_ohm: float, periods: int
    ) -> np.ndarray:
        """Run several periods at a constant duty; returns per-period Vout."""
        if periods < 1:
            raise ValueError("periods must be >= 1")
        outputs = np.empty(periods)
        for index in range(periods):
            outputs[index] = self.run_period(duty, load_resistance_ohm).output_voltage_v
        return outputs

    def settle(
        self,
        duty: float,
        load_resistance_ohm: float,
        max_periods: int = 5000,
        tolerance_v: float = 1e-4,
        stable_periods: int = 16,
    ) -> float:
        """Run until the per-period output voltage stops changing.

        The output must stay within ``tolerance_v`` of its previous
        per-period value for ``stable_periods`` consecutive periods; a single
        small step is not enough, because the lightly damped LC response
        passes through ring peaks where the voltage is momentarily flat.

        Returns the settled output voltage.  Raises ``RuntimeError`` if the
        converter does not settle within ``max_periods`` (a sign of an
        unstable configuration).
        """
        previous = self.state.output_voltage_v
        consecutive = 0
        for _ in range(max_periods):
            current = self.run_period(duty, load_resistance_ohm).output_voltage_v
            if abs(current - previous) < tolerance_v:
                consecutive += 1
                if consecutive >= stable_periods:
                    return current
            else:
                consecutive = 0
            previous = current
        raise RuntimeError(
            f"buck converter did not settle within {max_periods} periods"
        )
