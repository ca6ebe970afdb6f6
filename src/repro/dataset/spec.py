"""The compression-spec mini-language: one string every layer understands.

The paper's question — compress or not, and at what bound — is asked *per
variable* of real datasets, but codec/bound configuration used to travel
through the repo as loose ``(codec: str, rel_bound: float)`` pairs.  This
module gives that configuration a first-class value with a stable textual
form (the enstools-style grammar):

=====================  =====================================================
spec                   meaning
=====================  =====================================================
``lossless``           bit-exact storage via the default lossless codec
``lossless,zstd``      bit-exact storage via a named lossless codec
``lossy,sz3,rel,1e-3`` EBLC at a value-range relative bound
``lossy,zfp,abs,0.01`` EBLC at an absolute bound (resolved against the
                       variable's value range at write time)
``auto``               auto-tune codec+bound at the default quality floor
``auto,rel,1e-3``      auto-tune with an explicit quality floor
=====================  =====================================================

Per-variable maps separate entries with ``;`` and prefix each spec with a
variable name and ``:``; an unprefixed entry is the default for unnamed
variables::

    temp:lossy,sz3,abs,1e-3;vel:lossless;auto,rel,1e-3

:meth:`CompressionSpec.parse` / :meth:`CompressionSpec.format` round-trip
exactly, and :attr:`CompressionSpec.canonical` is deterministic — the
canonical string is what experiment grids embed in content-addressed store
keys, so it must never depend on incidental input spelling.

The module is import-light on purpose (``repro.errors`` only at import
time); codec registries and capability tables load lazily inside
``validate`` so :mod:`repro.runtime.spec` can consult this grammar without
an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "CompressionSpec",
    "CompressionMap",
    "parse_compression",
    "DEFAULT_LOSSLESS_CODEC",
    "DEFAULT_AUTO_FLOOR",
    "sweep_axes_from_spec",
]

MODES = ("lossless", "lossy", "auto")
BOUND_MODES = ("abs", "rel")

#: ``"lossless"`` with no codec means this codec.
DEFAULT_LOSSLESS_CODEC = "zstd"
#: ``"auto"`` with no floor means this value-range relative quality floor.
DEFAULT_AUTO_FLOOR = 1e-3

_NAME_FORBIDDEN = set(":;, \t\n")


def _parse_bound(text: str, where: str) -> float:
    try:
        bound = float(text)
    except ValueError:
        raise ConfigurationError(
            f"{where}: bound {text!r} is not a number"
        ) from None
    if not bound > 0.0 or bound != bound or bound == float("inf"):
        raise ConfigurationError(
            f"{where}: bound must be a finite positive number, got {text!r}"
        )
    return bound


@dataclass(frozen=True)
class CompressionSpec:
    """One parsed compression spec (a single variable's storage policy).

    ``mode`` is ``"lossless"``/``"lossy"``/``"auto"``; ``codec`` is the
    codec name (``None`` while ``auto`` leaves the choice to the tuner);
    ``bound_mode``/``bound`` carry the error bound (``lossy``) or quality
    floor (``auto``) and are ``None`` for ``lossless``.
    """

    mode: str
    codec: str | None = None
    bound_mode: str | None = None
    bound: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"compression mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.mode == "lossless":
            if not self.codec:
                object.__setattr__(self, "codec", DEFAULT_LOSSLESS_CODEC)
            if self.bound_mode is not None or self.bound is not None:
                raise ConfigurationError("lossless specs carry no error bound")
        else:
            if self.bound_mode is None:
                object.__setattr__(self, "bound_mode", "rel")
            if self.bound_mode not in BOUND_MODES:
                raise ConfigurationError(
                    f"bound mode must be one of {BOUND_MODES}, "
                    f"got {self.bound_mode!r}"
                )
            if self.bound is None:
                if self.mode == "lossy":
                    raise ConfigurationError("lossy specs require a bound")
                object.__setattr__(self, "bound", DEFAULT_AUTO_FLOOR)
            object.__setattr__(self, "bound", float(self.bound))
            if not self.bound > 0.0 or self.bound == float("inf"):
                raise ConfigurationError(
                    f"bound must be a finite positive number, got {self.bound!r}"
                )
            if self.bound_mode == "rel" and self.bound > 1.0:
                raise ConfigurationError(
                    f"a value-range relative bound cannot exceed 1.0, "
                    f"got {self.bound!r}"
                )
            if self.mode == "auto":
                if self.codec is not None:
                    raise ConfigurationError(
                        "auto specs name no codec (the tuner chooses one); "
                        f"got codec {self.codec!r}"
                    )
            elif not self.codec:
                raise ConfigurationError("lossy specs require a codec name")

    # -- parse / format ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "CompressionSpec":
        """Parse one spec string (no per-variable map; see
        :func:`parse_compression` for the full grammar)."""
        parts = [p.strip() for p in str(text).split(",")]
        if not parts or not parts[0]:
            raise ConfigurationError(f"empty compression spec in {text!r}")
        mode = parts[0]
        if mode not in MODES:
            raise ConfigurationError(
                f"compression spec {text!r}: mode must be one of {MODES}, "
                f"got {mode!r}"
            )
        if mode == "lossless":
            if len(parts) == 1:
                return cls(mode="lossless")
            if len(parts) == 2 and parts[1]:
                return cls(mode="lossless", codec=parts[1])
            raise ConfigurationError(
                f"compression spec {text!r}: expected 'lossless' or "
                "'lossless,<codec>'"
            )
        if mode == "lossy":
            if len(parts) != 4 or not all(parts[1:]):
                raise ConfigurationError(
                    f"compression spec {text!r}: expected "
                    "'lossy,<codec>,<abs|rel>,<bound>'"
                )
            return cls(
                mode="lossy",
                codec=parts[1],
                bound_mode=parts[2],
                bound=_parse_bound(parts[3], f"compression spec {text!r}"),
            )
        # auto
        if len(parts) == 1:
            return cls(mode="auto")
        if len(parts) == 3 and all(parts[1:]):
            return cls(
                mode="auto",
                bound_mode=parts[1],
                bound=_parse_bound(parts[2], f"compression spec {text!r}"),
            )
        raise ConfigurationError(
            f"compression spec {text!r}: expected 'auto' or "
            "'auto,<abs|rel>,<floor>'"
        )

    def format(self) -> str:
        """The canonical wire form; ``parse(format(s)) == s`` exactly."""
        if self.mode == "lossless":
            return f"lossless,{self.codec}"
        if self.mode == "lossy":
            return f"lossy,{self.codec},{self.bound_mode},{self.bound!r}"
        return f"auto,{self.bound_mode},{self.bound!r}"

    @property
    def canonical(self) -> str:
        return self.format()

    def __str__(self) -> str:
        return self.format()

    # -- semantics -----------------------------------------------------------

    @property
    def is_lossless(self) -> bool:
        return self.mode == "lossless"

    @property
    def is_auto(self) -> bool:
        return self.mode == "auto"

    def spec_for(self, variable: str) -> "CompressionSpec":
        """One spec governs every variable (cf. :meth:`CompressionMap.spec_for`)."""
        return self

    def rel_bound_for(self, value_range: float) -> float:
        """The value-range relative bound this spec means for one variable.

        ``abs`` bounds divide by the variable's value range (clamped to the
        codecs' legal ``(0, 1]`` domain); a zero-range (constant) variable
        yields 1.0 — every codec stores constants exactly through the
        constant fast path, so any legal bound is equivalent there.
        """
        if self.mode == "lossless":
            return 0.0
        if self.bound_mode == "rel":
            return float(self.bound)
        if value_range <= 0.0:
            return 1.0
        return float(min(1.0, self.bound / value_range))

    def validate(
        self,
        ndim: int | None = None,
        mode: str = "serial",
        paper_fidelity: bool = False,
    ) -> None:
        """Check the named codec against the live registry — and, when
        ``paper_fidelity`` is set and ``ndim`` given, against the paper's
        reference-toolchain capability matrix, surfacing
        :func:`repro.compressors.capabilities.unsupported_reason` in the
        error instead of letting the sweep fail deep inside evaluate.
        """
        from repro.compressors import available_compressors, get_compressor
        from repro.compressors.capabilities import unsupported_reason

        if self.codec is None:  # auto: the tuner validates its own grid
            return
        try:
            lossless = get_compressor(self.codec).lossless
        except KeyError:
            raise ConfigurationError(
                f"unknown codec {self.codec!r} in compression spec "
                f"{self.format()!r}; registered: "
                f"{', '.join(available_compressors())}"
            ) from None
        if self.mode == "lossless" and not lossless:
            raise ConfigurationError(
                f"compression spec {self.format()!r}: {self.codec!r} is an "
                "error-bounded codec; lossless mode needs a lossless codec "
                f"({', '.join(n for n in available_compressors() if get_compressor(n).lossless)})"
            )
        if self.mode == "lossy" and lossless:
            raise ConfigurationError(
                f"compression spec {self.format()!r}: {self.codec!r} is "
                "lossless and takes no error bound; use "
                f"'lossless,{self.codec}'"
            )
        if paper_fidelity and ndim is not None and self.mode == "lossy":
            reason = unsupported_reason(self.codec, ndim, mode)
            if reason is not None:
                raise ConfigurationError(
                    f"compression spec {self.format()!r} is outside the "
                    f"paper's measurement matrix for {ndim}-D data: {reason}"
                )


@dataclass(frozen=True)
class CompressionMap:
    """A per-variable compression policy: named entries plus a default.

    ``entries`` is sorted by variable name (the canonical order);
    ``default`` applies to variables without an entry and may be ``None``,
    in which case :meth:`spec_for` raises for unnamed variables.
    """

    entries: tuple[tuple[str, CompressionSpec], ...] = ()
    default: CompressionSpec | None = None

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"per-variable compression map names {dupes} more than once"
            )
        for name in names:
            if not name or _NAME_FORBIDDEN & set(name):
                raise ConfigurationError(
                    f"invalid variable name {name!r} in compression map "
                    "(must be non-empty, without ':;,' or whitespace)"
                )
        object.__setattr__(
            self, "entries", tuple(sorted(self.entries, key=lambda e: e[0]))
        )
        if self.default is None and not self.entries:
            raise ConfigurationError("empty compression map")

    def spec_for(self, variable: str) -> CompressionSpec:
        """The spec governing one variable (entry, else the default)."""
        for name, spec in self.entries:
            if name == variable:
                return spec
        if self.default is None:
            raise ConfigurationError(
                f"compression map {self.format()!r} has no entry for "
                f"variable {variable!r} and no default"
            )
        return self.default

    def format(self) -> str:
        """Canonical wire form: default first, then entries sorted by name."""
        parts = []
        if self.default is not None:
            parts.append(self.default.format())
        parts.extend(f"{name}:{spec.format()}" for name, spec in self.entries)
        return ";".join(parts)

    @property
    def canonical(self) -> str:
        return self.format()

    def __str__(self) -> str:
        return self.format()

    def validate(self, **kwargs) -> None:
        """Validate every member spec (see :meth:`CompressionSpec.validate`)."""
        if self.default is not None:
            self.default.validate(**kwargs)
        for _, spec in self.entries:
            spec.validate(**kwargs)


def parse_compression(text: str) -> CompressionSpec | CompressionMap:
    """Parse the full grammar: a single spec, or a ``;``-separated map.

    A lone unprefixed spec parses to :class:`CompressionSpec`; anything with
    a named entry parses to :class:`CompressionMap` (the unprefixed segment,
    if any, becoming the map's default).
    """
    segments = [s.strip() for s in str(text).split(";") if s.strip()]
    if not segments:
        raise ConfigurationError(f"empty compression spec {text!r}")
    default: CompressionSpec | None = None
    entries: list[tuple[str, CompressionSpec]] = []
    for seg in segments:
        if ":" in seg:
            name, _, body = seg.partition(":")
            name = name.strip()
            entries.append((name, CompressionSpec.parse(body)))
        else:
            if default is not None:
                raise ConfigurationError(
                    f"compression spec {text!r} has more than one default "
                    "(unnamed) entry"
                )
            default = CompressionSpec.parse(seg)
    if not entries:
        return default  # a plain single spec
    return CompressionMap(entries=tuple(entries), default=default)


# -- grid derivation ----------------------------------------------------------
#
# The refactor contract: a compression spec never invents new grid-point
# identities.  It only *narrows or filters* the existing codecs/bounds axes,
# so every (op, kwargs) pair a derived sweep emits is one the hand-threaded
# axes could already emit — keeping content-addressed store keys stable.


def sweep_axes_from_spec(spec, kind: str) -> dict:
    """SweepSpec axis overrides derived from one compression spec.

    ``spec`` is a parsed :class:`CompressionSpec` (maps are only legal for
    the ``dataset`` kind, which consumes the string directly); the returned
    dict assigns ``codecs``/``bounds``/``rel_bound``/``lossless_codecs`` for
    the grid kinds, and nothing for ``auto`` (the tuner's ``candidate_bounds``
    narrows its bound axis).  Raises :class:`ConfigurationError` for
    combinations that have no meaning on a grid (absolute bounds, lossless
    specs outside the ``lossless`` kind).
    """
    if isinstance(spec, CompressionMap):
        raise ConfigurationError(
            f"per-variable compression maps ({spec.format()!r}) only apply "
            "to the 'dataset' kind; grid kinds take a single spec"
        )
    spec.validate()
    if spec.mode == "lossless":
        if kind != "lossless":
            raise ConfigurationError(
                f"compression spec {spec.format()!r}: lossless storage has "
                f"no (codec, bound) grid for kind {kind!r}; use "
                "--kind lossless or the dataset facade"
            )
        return {"codecs": (), "lossless_codecs": (spec.codec,)}
    if spec.bound_mode == "abs":
        raise ConfigurationError(
            f"compression spec {spec.format()!r}: absolute bounds resolve "
            "against a variable's value range and only apply to the "
            "'dataset' kind; grid kinds take 'rel' bounds"
        )
    if spec.mode == "lossy":
        return {
            "codecs": (spec.codec,),
            "bounds": (spec.bound,),
            "rel_bound": spec.bound,
        }
    return {}  # auto: the codec axis is the search grid

