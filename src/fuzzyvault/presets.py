"""Built-in parameter bundles from published fingerprint-vault designs,
plus the literature-reported complexity figures the estimator annotates."""

from __future__ import annotations

from dataclasses import dataclass

from .vault import VaultParams


@dataclass(frozen=True)
class Preset:
    name: str
    q: int
    k: int
    t: int
    r: int
    D: int
    d: float
    crc: bool
    quiz_n: int
    secret_bits: int
    # complexity figures quoted in the literature for this parameter family
    # (bits); None when no figure is on record.
    reported_attack_bits: float | None = None
    reported_threshold_bits: float | None = None
    reported_security_bits: float | None = None


PRESETS: dict[str, Preset] = {
    "clancy": Preset(
        name="clancy",
        q=65537, k=14, t=38, r=313, D=17, d=11.0, crc=False, quiz_n=0,
        secret_bits=112,
        reported_attack_bits=50.0,
        reported_threshold_bits=69.0,
        reported_security_bits=44.0,
    ),
    "uludag": Preset(
        name="uludag",
        q=65537, k=8, t=25, r=200, D=11, d=11.0, crc=True, quiz_n=0,
        secret_bits=112,
        reported_attack_bits=36.0,
    ),
    "small-attack": Preset(
        name="small-attack",
        q=65537, k=6, t=15, r=60, D=9, d=11.0, crc=False, quiz_n=0,
        secret_bits=96,
    ),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r} (available: {', '.join(sorted(PRESETS))})"
        ) from None


def vault_params(preset: Preset | None, **overrides) -> VaultParams:
    """The preset's parameters (the VaultParams defaults without a preset)
    with every override that is not None applied on top."""
    base = {} if preset is None else dict(
        k=preset.k, t=preset.t, r=preset.r, q=preset.q, d=preset.d,
        crc=preset.crc, quiz_n=preset.quiz_n,
    )
    base.update((name, value) for name, value in overrides.items() if value is not None)
    return VaultParams(**base)


# (preset figure, computed estimate field, how the literature states it)
_REFERENCES = (
    ("reported_attack_bits", "log2_R_bound", "~2^{:.0f} brute-force work reported for this family"),
    ("reported_threshold_bits", "log2_Cbf", "O(2^{:.0f}) reported for the threshold criterion"),
    ("reported_security_bits", "log2_F", "security factor ~2^{:.0f}"),
)


def reference_lines(preset: Preset, est) -> list[str]:
    """One line per literature figure on record for the preset: the computed
    counterpart from ``est`` (an analysis.ComplexityEstimate) and the gap,
    reproduced when within 2 bits."""
    lines = []
    for reported_name, computed_name, claim in _REFERENCES:
        reported = getattr(preset, reported_name)
        if reported is None:
            continue
        computed = getattr(est, computed_name)
        gap = computed - reported
        verdict = "within 2 bits" if abs(gap) <= 2.0 else "unreproduced"
        lines.append(
            f"literature reference: {claim.format(reported)}; computed {computed_name} = "
            f"{computed:.2f} (gap {gap:+.2f} bits) -- {verdict}"
        )
    return lines
