"""Model catalog and config ingestion.

A model bundles the user-supplied fields (metric, gauge potential,
electromagnetic field, observer, particle data) and derives every
downstream object once: total spacetime connection, phase and second-order
connections, the cosymplectic two-form and, when a gauge potential for the
full field content is known, the potential one-form with its contact
splitting.

Catalog entries: ``free2d`` and ``free3d`` (affine spacetime, Euclidean
metric), ``cyclotron`` (flat model with a uniform magnetic field along the
third axis) and ``rigidbody`` (left-invariant inertia metric on a
ZXZ Euler-angle chart; the free asymmetric top).
"""

import json
import random

from . import units as u
from .fields import (
    Chart,
    ZERO,
    as_field,
    constant,
    coordinate,
    cos_of,
    sin_of,
    from_config,
    integer,
    polynomial,
    sample_points,
    default_box,
)
from .geometry import (
    EMField,
    Metric,
    Observer,
    PhaseTwoForm,
    identity_metric,
    metric_connection,
    minimal_coupling,
    phase_from_spacetime,
    poincare_cartan,
    spacetime_from_phase,
)
from .symmetry import LieAlgebraAction, SpacetimeVectorField
from .units import ScaledScalar, UnitDim, UnitMismatchError


class ModelError(ValueError):
    """Config could not be turned into a consistent model."""


class Model:
    """A fully derived chart model."""

    def __init__(self, name, chart, G, A=None, em=None, em_potential=None,
                 observer=None, box=None, actions=None,
                 em_check_points=None):
        self.name = name
        self.chart = chart
        n = chart.n
        self.G = G
        self.A = [as_field(a) for a in (A or [ZERO] * (n + 1))]
        self.em = em
        self.em_potential = em_potential
        self.observer = observer or Observer(chart)
        self.box = box or default_box(chart.dim_phase)
        if len(self.box) != chart.dim_phase:
            raise ModelError(f"box must have {chart.dim_phase} coordinate ranges")
        self.actions = actions or {}

        probe = self.sample_e(8)
        G.check_spd(probe)

        k_nat = metric_connection(chart, G, A=self.A)
        omega_nat = PhaseTwoForm(G, phase_from_spacetime(k_nat))
        self.omega = minimal_coupling(omega_nat, em)
        self.pconn = self.omega.conn
        self.dyn = self.omega.dyn
        self.K = spacetime_from_phase(self.pconn)

        self.theta = None
        self.a_total = None
        if em is None or not em._e:
            self.a_total = self.A
        elif em_potential is not None:
            qm = em.coupling
            self.a_total = [
                self.A[lam] + constant(qm) * as_field(em_potential[lam])
                for lam in range(n + 1)
            ]
            self._check_em_potential(em_check_points or probe)
        if self.a_total is not None:
            self.theta = poincare_cartan(G, self.a_total)

    def _check_em_potential(self, points):
        n = self.chart.n
        a = self.em_potential
        for lam in range(n + 1):
            for mu in range(lam + 1, n + 1):
                for xs in points:
                    da = as_field(a[mu]).partial((lam,), xs) - as_field(a[lam]).partial((mu,), xs)
                    f = self.em.value(lam, mu, xs)
                    if abs(da - f) > 1e-9 * (1.0 + abs(f)):
                        raise ModelError(
                            f"electromagnetic potential does not match the field "
                            f"at entry ({lam},{mu})"
                        )

    # sampling helpers ------------------------------------------------------

    def box_e(self):
        return self.box[: self.chart.n + 1]

    def box_te(self):
        return self.box_e() + [(-1.0, 1.0)] * (self.chart.n + 1)

    def box_j2(self):
        return list(self.box) + [(-1.0, 1.0)] * self.chart.n

    def sample_phase(self, count, seed=0):
        return sample_points(count, self.box, seed)

    def sample_e(self, count, seed=0):
        return sample_points(count, self.box_e(), seed)

    def sample_te(self, count, seed=0):
        return sample_points(count, self.box_te(), seed)

    def sample_j2(self, count, seed=0):
        return sample_points(count, self.box_j2(), seed)

    def anchor(self):
        """Deterministic gauge anchor: centre of the configuration box with
        zero velocity (the chart origin for symmetric boxes)."""
        n = self.chart.n
        mids = [0.5 * (lo + hi) for lo, hi in self.box_e()]
        return mids + [0.0] * n


def _check_units(q, m, em_dim=None):
    u.require_dim(q, u.CHARGE, "charge q")
    u.require_dim(m, u.MASS, "mass m")
    if em_dim is not None and em_dim != u.EM_FIELD:
        raise UnitMismatchError(
            f"field entries: expected dimension {u.EM_FIELD}, got {em_dim}"
        )


# -- generator catalogs -------------------------------------------------------


def translation_generators(chart):
    gens = []
    for a in range(1, chart.n + 1):
        comps = [ZERO] * chart.n
        comps[a - 1] = constant(1.0)
        gens.append(SpacetimeVectorField(chart, 0.0, comps, label=f"d{a}"))
    return gens


def time_translation_generator(chart):
    return SpacetimeVectorField(chart, 1.0, [ZERO] * chart.n, label="d0")


def rotation_generators(chart):
    """Rotations of a Euclidean chart: R_a = eps_abc x^b d_c."""
    n = chart.n
    if n == 2:
        return [
            SpacetimeVectorField(
                chart, 0.0, [-coordinate(2), coordinate(1)], label="R"
            )
        ]
    gens = []
    axes = [(2, 3), (3, 1), (1, 2)]
    for a, (b, c) in enumerate(axes, start=1):
        comps = [ZERO] * n
        comps[c - 1] = coordinate(b)
        comps[b - 1] = -coordinate(c)
        gens.append(SpacetimeVectorField(chart, 0.0, comps, label=f"R{a}"))
    return gens


def euler_rotation_generators(chart):
    """Spatial-rotation generators on the ZXZ Euler-angle chart
    (phi, theta, psi) = (x1, x2, x3); these generate left multiplication
    and commute with the left-invariant metric."""
    phi, theta = coordinate(1), coordinate(2)
    sphi, cphi = sin_of(phi), cos_of(phi)
    stheta, ctheta = sin_of(theta), cos_of(theta)
    x_gen = SpacetimeVectorField(
        chart, 0.0,
        [ZERO - sphi * ctheta / stheta, cphi, sphi / stheta],
        label="Rx",
    )
    y_gen = SpacetimeVectorField(
        chart, 0.0,
        [cphi * ctheta / stheta, sphi, ZERO - cphi / stheta],
        label="Ry",
    )
    z_gen = SpacetimeVectorField(
        chart, 0.0, [constant(1.0), ZERO, ZERO], label="Rz"
    )
    return [x_gen, y_gen, z_gen]


def _so3_structure():
    # [R_a, R_b] = -eps_abc R_c for these generator conventions
    return {
        (0, 1): [0.0, 0.0, -1.0],
        (0, 2): [0.0, 1.0, 0.0],
        (1, 2): [-1.0, 0.0, 0.0],
    }


# -- catalog models -----------------------------------------------------------


def _free_model(n):
    chart = Chart(n)
    actions = {
        "translations": LieAlgebraAction(
            "translations",
            translation_generators(chart),
            {(p, q): [0.0] * n for p in range(n) for q in range(p + 1, n)},
        ),
        "time": LieAlgebraAction("time", [time_translation_generator(chart)]),
        "rotations": LieAlgebraAction(
            "rotations",
            rotation_generators(chart),
            _so3_structure() if n == 3 else {},
        ),
    }
    return Model(f"free{n}d", chart, identity_metric(chart), actions=actions)


def _cyclotron_model(b_value=1.0, q_value=1.0, m_value=1.0):
    chart = Chart(3)
    q = ScaledScalar(q_value, u.CHARGE)
    m = ScaledScalar(m_value, u.MASS)
    _check_units(q, m)
    em = EMField(chart, {(1, 2): constant(b_value)}, q, m)
    # da = f for the uniform field
    a_pot = [
        ZERO,
        constant(-0.5 * b_value) * coordinate(2),
        constant(0.5 * b_value) * coordinate(1),
        ZERO,
    ]
    actions = {
        "time": LieAlgebraAction("time", [time_translation_generator(chart)]),
        "axial": LieAlgebraAction(
            "axial",
            [SpacetimeVectorField(chart, 0.0, [ZERO, ZERO, constant(1.0)], label="d3")],
        ),
        "rotation": LieAlgebraAction(
            "rotation",
            [SpacetimeVectorField(
                chart, 0.0, [-coordinate(2), coordinate(1), ZERO], label="R3"
            )],
        ),
    }
    return Model("cyclotron", chart, identity_metric(chart), em=em,
                 em_potential=a_pot, actions=actions)


def _rigid_body_model(inertia=(1.0, 2.0, 3.0)):
    chart = Chart(3)
    i1, i2, i3 = inertia
    theta, psi = coordinate(2), coordinate(3)
    st, ct = sin_of(theta), cos_of(theta)
    sp, cp = sin_of(psi), cos_of(psi)
    entries = {
        (1, 1): constant(i1) * st * st * sp * sp
        + constant(i2) * st * st * cp * cp
        + constant(i3) * ct * ct,
        (1, 2): constant(i1 - i2) * st * sp * cp,
        (1, 3): constant(i3) * ct,
        (2, 2): constant(i1) * cp * cp + constant(i2) * sp * sp,
        (2, 3): ZERO,
        (3, 3): constant(i3),
    }
    # theta range avoids the chart singularity of the Euler angles
    box = [(-0.4, 0.4), (-0.5, 0.5), (0.7, 2.4), (-0.5, 0.5),
           (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]
    actions = {
        "rotations": LieAlgebraAction(
            "rotations", euler_rotation_generators(chart), _so3_structure()
        ),
        "time": LieAlgebraAction("time", [time_translation_generator(chart)]),
    }
    return Model("rigidbody", chart, Metric(chart, entries), box=box, actions=actions)


def nonclosed_field_model():
    """Deliberately broken: a field entry depending on the third coordinate,
    so the total two-form is not closed.  No potential exists."""
    chart = Chart(3)
    q = ScaledScalar(1.0, u.CHARGE)
    m = ScaledScalar(1.0, u.MASS)
    em = EMField(chart, {(1, 2): coordinate(3)}, q, m)
    return Model("broken-field", chart, identity_metric(chart), em=em)


def nonmetric_connection_model():
    """Deliberately broken: a connection that is not metric-compatible."""
    from .geometry import SpacetimeConnection

    chart = Chart(3)
    G = identity_metric(chart)
    sym = {(1, 1): [coordinate(1), ZERO, ZERO]}
    K = SpacetimeConnection(chart, sym)
    model = _free_model(3)
    model.name = "broken-connection"
    model.K = K
    model.pconn = phase_from_spacetime(K)
    model.omega = PhaseTwoForm(G, model.pconn)
    model.dyn = model.omega.dyn
    model.theta = None
    return model


def random_compatible_model(seed, n=3):
    """Randomized metric + gauge model; closed by construction since every
    derived piece comes from potentials."""
    rng = random.Random(seed)
    chart = Chart(n)

    def small_poly():
        terms = [(rng.uniform(-0.12, 0.12), {})]
        for slot in range(0, n + 1):
            terms.append((rng.uniform(-0.12, 0.12), {slot: 1}))
        terms.append((rng.uniform(-0.08, 0.08), {rng.randrange(0, n + 1): 2}))
        return polynomial(terms)

    entries = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            base = 2.0 if a == b else 0.0
            entries[(a, b)] = constant(base) + small_poly()
    A = [small_poly() for _ in range(n + 1)]
    return Model(f"random-{seed}", chart, Metric(chart, entries), A=A)


_CATALOG = {
    "free2d": lambda: _free_model(2),
    "free3d": lambda: _free_model(3),
    "cyclotron": _cyclotron_model,
    "rigidbody": _rigid_body_model,
}


def catalog_names():
    return sorted(_CATALOG)


def load_model(name_or_path):
    """Catalog entry by name, or a JSON model config by path."""
    if name_or_path in _CATALOG:
        return _CATALOG[name_or_path]()
    try:
        with open(name_or_path, "r", encoding="utf8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ModelError(f"no catalog model or readable config {name_or_path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ModelError(f"config {name_or_path!r} is not valid JSON: {exc}")
    return model_from_config(cfg)


def _section(cfg, key, kind, default=None):
    """``cfg[key]``, a JSON object or array (kind dict or list), or ``default``."""
    val = cfg.get(key)
    if val is not None and not isinstance(val, kind):
        raise ModelError(f"{key!r} must be a JSON {'object' if kind is dict else 'array'}")
    return default if val is None else val


def _parse_scaled(spec, what):
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return ScaledScalar(float(spec), u.DIMENSIONLESS)
    if not isinstance(spec, dict):
        raise ModelError(f"{what} must be a number or an object, got {spec!r}")
    try:
        dim = UnitDim.from_triple(spec.get("dim", [0, 0, 0]))
    except (UnitMismatchError, TypeError, ValueError) as exc:
        raise UnitMismatchError(f"{what}: bad dimension triple: {exc}")
    if "value" not in spec:
        raise ModelError(f"{what}: missing 'value'")
    return ScaledScalar(float(spec["value"]), dim)


def model_from_config(cfg):
    if not isinstance(cfg, dict):
        raise ModelError(f"config must be a JSON object, got {type(cfg).__name__}")
    n = integer(cfg.get("n", 3), "'n'")
    chart = Chart(n)

    def field(spec):  # a field on spacetime: it may read slots 0..n only
        f = from_config(spec)
        if not f.deps <= set(range(n + 1)):
            raise ModelError(f"field {spec!r} reads a slot outside 0..{n}")
        return f
    name = cfg.get("name", "custom")

    metric_cfg = _section(cfg, "metric", dict, {})
    g_dim = UnitDim.from_triple(metric_cfg["dim"]) if "dim" in metric_cfg else u.METRIC
    if g_dim != u.METRIC:
        raise UnitMismatchError(f"metric entries: expected dimension {u.METRIC}, got {g_dim}")
    entries = {}
    for key, spec in _section(metric_cfg, "entries", dict, {}).items():
        a, b = (int(s) for s in key.split(","))
        entries[(min(a, b), max(a, b))] = field(spec)
    for a in range(1, n + 1):
        entries.setdefault((a, a), constant(1.0))
    G = Metric(chart, entries)

    A = None
    if cfg.get("potential") is not None:
        A = [field(s) for s in _section(cfg, "potential", list)]
        if len(A) != n + 1:
            raise ModelError(f"potential needs {n + 1} components")

    em = None
    em_potential = None
    if cfg.get("em") is not None:
        em_cfg = _section(cfg, "em", dict)
        q = _parse_scaled(em_cfg.get("q", 0.0), "charge q")
        m = _parse_scaled(em_cfg.get("m", 1.0), "mass m")
        em_dim = None
        if "dim" in em_cfg:
            em_dim = UnitDim.from_triple(em_cfg["dim"])
        if q.dim != u.DIMENSIONLESS or m.dim != u.DIMENSIONLESS:
            _check_units(q, m, em_dim=em_dim)
        f_entries = {}
        for key, spec in _section(em_cfg, "entries", dict, {}).items():
            lam, mu = (int(s) for s in key.split(","))
            if lam >= mu:
                raise ModelError("field entries must use indices lam < mu")
            f_entries[(lam, mu)] = field(spec)
        em = EMField(chart, f_entries, q, m)
        if em_cfg.get("potential") is not None:
            em_potential = [field(s) for s in _section(em_cfg, "potential", list)]
            if len(em_potential) != n + 1:
                raise ModelError(f"em potential needs {n + 1} components")

    observer = None
    if cfg.get("observer") is not None:
        observer = Observer(chart, [field(s) for s in _section(cfg, "observer", list)])

    box = None
    if cfg.get("box") is not None:
        box = _section(cfg, "box", list)
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in box):
            raise ModelError("'box' entries must be [lo, hi] pairs")
        box = [tuple(float(x) for x in pair) for pair in box]

    return Model(name, chart, G, A=A, em=em, em_potential=em_potential,
                 observer=observer, box=box)


# -- named charges -------------------------------------------------------------


def named_charges(model, names=None, check_points=None):
    """Charges by action for tracking along trajectories.

    Returns an ordered dict label -> SpecialQuadratic for every generator of
    every action whose potential-form invariance holds (skips the rest).
    With ``names``, only the named generators are verified, and the result
    holds exactly those charges in that order.
    """
    from .symmetry import noether_charge

    if model.theta is None:
        return {}
    pts = check_points if check_points is not None else model.sample_phase(12)
    out = {}
    for action in model.actions.values():
        for gen in action.generators:
            key = f"charge_{gen.label or action.name}"
            if names is not None and key not in names:
                continue
            charge, residual, conserved = noether_charge(gen, model.theta, pts)
            if conserved:
                out[key] = charge
    if names is not None:
        missing = [nm for nm in names if nm not in out]
        if missing:
            raise ModelError(f"unknown or non-conserved charges: {missing}")
        out = {nm: out[nm] for nm in names}
    return out
