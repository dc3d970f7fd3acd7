"""Named parameter sets and the sweep presets behind the reference figures.

The microwave-optomechanics base set: mechanical frequency 2pi*3.6 MHz,
cavity 2pi*6.23 GHz, kappa = 2pi*450 kHz (= omega_m/8), gamma = 2pi*3 Hz,
single-photon coupling 2pi*36 Hz, baths at 10 mK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import DirectCouplings, PhysicalParams, PowerDrive

TWO_PI = 2.0 * math.pi

OMEGA_M = TWO_PI * 3.6e6
OMEGA_C = TWO_PI * 6.23e9
KAPPA = TWO_PI * 450e3
GAMMA = TWO_PI * 3.0
G_SINGLE_PHOTON = TWO_PI * 36.0
BATH_TEMPERATURE = 0.010

FIGURE_NAMES = (
    "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b",
    "fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig6d",
    "fig7a", "fig7b", "fig9",
)

# Open-boundary thresholds Lambda = kappa/2 and G_+ = G_- are excluded by
# capping the swept ratios just below them.
LAMBDA_CAP = 0.4999
RATIO_CAP = 0.999

DENSITY_RESOLUTION = 101
LINE_RESOLUTION = 201


@dataclass(frozen=True)
class TracePreset:
    """A time-domain preset: relax the covariance and record Tr sigma(t)."""

    name: str
    params: PhysicalParams


def paper_base(
    *,
    p_minus: float = 10e-9,
    p_plus: float = 0.0,
    lambda_pa: float = 0.0,
) -> PhysicalParams:
    """Power-driven base configuration at zero pump phase."""
    return PhysicalParams(
        omega_m=OMEGA_M,
        omega_c=OMEGA_C,
        kappa=KAPPA,
        gamma=GAMMA,
        g=G_SINGLE_PHOTON,
        lambda_pa=lambda_pa,
        phi=0.0,
        temperature=BATH_TEMPERATURE,
        drive=PowerDrive(P_minus=p_minus, P_plus=p_plus),
    )


def coupling_base(
    *,
    g_minus_k: float = 1.0,
    g_plus_k: float = 0.0,
    lambda_k: float = 0.0,
    phi: float = 0.0,
    gamma_k: float = 6.67e-6,
) -> PhysicalParams:
    """Directly-coupled base configuration, couplings given in kappa units."""
    return PhysicalParams(
        omega_m=OMEGA_M,
        omega_c=OMEGA_C,
        kappa=KAPPA,
        gamma=gamma_k * KAPPA,
        g=G_SINGLE_PHOTON,
        lambda_pa=lambda_k * KAPPA,
        phi=phi,
        temperature=BATH_TEMPERATURE,
        drive=DirectCouplings(G_minus=g_minus_k * KAPPA, G_plus=g_plus_k * KAPPA),
    )


def appendix_c_params() -> PhysicalParams:
    """Stability-verification point: Lambda=0.4k, phi=0, G-=0.2k, G+=0.1k."""
    return coupling_base(g_minus_k=0.2, g_plus_k=0.1, lambda_k=0.4, phi=0.0)


PARAM_PRESETS = {
    "paper": paper_base,
    "appendixC": appendix_c_params,
}


def param_preset(name: str) -> PhysicalParams:
    try:
        return PARAM_PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown parameter preset {name!r}; valid presets: "
            f"{sorted(PARAM_PRESETS)}"
        ) from None


def figure_preset(name: str):
    """Sweep (or trace) spec reproducing one reference-figure dataset.

    Returns a SweepSpec for the parameter-scan figures and a TracePreset
    for the time-trace figure (fig9).
    """
    from .sweep import SweepAxis, SweepSpec  # local import avoids a cycle

    def lam_axis(count):
        return SweepAxis.linear("lambda_over_kappa", 0.0, LAMBDA_CAP, count)

    def ratio_axis(name, count):
        return SweepAxis.linear(name, 0.0, RATIO_CAP, count)

    if name in ("fig2a", "fig2b"):
        ratio = 0.0 if name == "fig2a" else 0.1
        return SweepSpec(
            base=paper_base(p_minus=10e-9, p_plus=ratio * 10e-9),
            axes=(
                lam_axis(DENSITY_RESOLUTION),
                SweepAxis.linear("phi_over_pi", -1.0, 1.0, DENSITY_RESOLUTION),
            ),
            coupling_mode="powers",
            name=name,
        )
    if name in ("fig3a", "fig3b"):
        return SweepSpec(
            base=paper_base(p_minus=3e-9, lambda_pa=0.49 * KAPPA),
            axes=(
                ratio_axis("p_plus_over_p_minus", LINE_RESOLUTION),
                SweepAxis.explicit(
                    "phi_over_pi", (0.0, 1 / 36, 1 / 24, 1 / 18, 1 / 16)
                ),
            ),
            coupling_mode="powers",
            name=name,
        )
    if name in ("fig4a", "fig4b"):
        return SweepSpec(
            base=paper_base(p_minus=3e-9),
            axes=(
                ratio_axis("p_plus_over_p_minus", LINE_RESOLUTION),
                SweepAxis.explicit(
                    "lambda_over_kappa", (0.0, 0.1, 0.2, 0.3, 0.4, 0.49)
                ),
            ),
            coupling_mode="powers",
            name=name,
        )
    if name in ("fig5a", "fig5b"):
        lam = 0.0 if name == "fig5a" else 0.49
        return SweepSpec(
            base=coupling_base(lambda_k=lam),
            axes=(
                SweepAxis.linear("g_minus_over_kappa", 0.0, 1.0, DENSITY_RESOLUTION),
                ratio_axis("g_plus_over_g_minus", DENSITY_RESOLUTION),
            ),
            coupling_mode="direct",
            name=name,
        )
    if name in ("fig6a", "fig6b", "fig6c", "fig6d"):
        lam = 0.49 if name in ("fig6b", "fig6d") else 0.0
        gamma_k = 0.667e-6 if name in ("fig6c", "fig6d") else 6.67e-6
        return SweepSpec(
            base=coupling_base(lambda_k=lam, gamma_k=gamma_k),
            axes=(
                ratio_axis("g_plus_over_g_minus", LINE_RESOLUTION),
                SweepAxis.explicit("temperature_mk", (10.0, 400.0, 1000.0)),
            ),
            coupling_mode="direct",
            name=name,
        )
    if name == "fig7a":
        return SweepSpec(
            base=coupling_base(g_minus_k=0.1, g_plus_k=0.01),
            axes=(lam_axis(LINE_RESOLUTION),),
            coupling_mode="direct",
            name=name,
        )
    if name == "fig7b":
        return SweepSpec(
            base=coupling_base(lambda_k=0.49),
            axes=(ratio_axis("g_plus_over_g_minus", LINE_RESOLUTION),),
            coupling_mode="direct",
            name=name,
        )
    if name == "fig9":
        return TracePreset(name="fig9", params=appendix_c_params())
    raise ValueError(
        f"unknown figure preset {name!r}; valid presets: {', '.join(FIGURE_NAMES)}"
    )
