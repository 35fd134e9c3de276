"""End-to-end acceptance checks, one test per criterion.

Each test prints one line `criterion NN <name>: PASS|FAIL (details)` before
asserting, so a full run (use `pytest tests/test_acceptance.py -v -s`)
yields a 12-line scoreboard.  Two criteria fail by design and the failures
are kept honest rather than quietly relaxed:

* criterion 01: the three basin fractions of z^3 - 1 over the square
  window are not within 0.01 of each other; the conjugate pair ties
  exactly but the square's geometry favors the real root's basin by
  about 0.029.  Only a rotation-symmetric (disk) window would tie all
  three.
* criterion 10: the candidate lines produced by the conjugate-pair
  construction for the cubic/parabola system are measurably not
  invariant, so on-line points leave the line and no nearby seed stays
  within 0.1 for 500 iterations.  The criterion measures the defect
  with measure_invariance_defect at span 2: the two lines give 14.96
  and 0.50, so the best defect is 0.50, not 1e-6.  The invariance_defect
  that ghost_lines attaches to each line samples a longer span (half
  the box diagonal, 4.24 for the box [-3, 3]^2) and reads 4.04 and 65.0.
"""

import json
import time

import numpy as np
import pytest

from newtondyn.poly import (
    MultiPoly,
    PlaneMap,
    UniComplexPoly,
    parse_plane_map,
    parse_poly,
    univariate_complex_roots,
    system_real_roots,
)
from newtondyn.newton import (
    ComplexRationalMap,
    build_newton_complex,
    build_newton_plane,
    ghost_lines,
    homogenize_newton,
    jacobian_at_infinity,
    measure_invariance_defect,
    pullback_map,
)
from newtondyn.forward import ScanConfig, render_basins, parameter_scan, classify_orbit
from newtondyn.grid import (
    Window,
    OccupancyRaster,
    CODE_CYCLE,
    CODE_ESCAPED,
    CODE_UNDECIDED,
)
from newtondyn.backward import (
    backward_tree,
    directed_pixel_distance,
    hutchinson_iterate,
    random_backward_orbit,
)
from newtondyn.analysis import (
    barna_check,
    enumerate_cycles_1d,
    extract_boundary,
    compare_alpha_boundary,
    GhostProbeConfig,
    probe_ghost_attractor,
)
from newtondyn.cli import load_config, run_job


CUBIC = UniComplexPoly([-1.0, 0.0, 0.0, 1.0])          # z^3 - 1
ISLAND = UniComplexPoly([2.0, -2.0, 0.0, 1.0])         # z^3 - 2z + 2
QUARTIC = UniComplexPoly([4.0, 0.0, -5.0, 0.0, 1.0])   # (z^2-1)(z^2-4)
SQUARE = (-2.0, 2.0, -2.0, 2.0)

PLANAR_FIRST = "y - x^2"
PLANAR_SECOND = "x - 2 + 4*y - y^2"   # x + 2 - (y - 2)^2 expanded
PLANAR_WINDOW = (-4.0, 4.0, -2.0, 6.0)
PLANAR_DOMAIN = (-20.0, 20.0, -24.0, 10.0)


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def cubic_newton():
    return build_newton_complex(CUBIC)


@pytest.fixture(scope="module")
def cubic_boundary_256(cubic_newton):
    roots = univariate_complex_roots(CUBIC)
    basins = render_basins(cubic_newton, roots, SQUARE, 256, 256)
    return extract_boundary(basins)


@pytest.fixture(scope="module")
def cubic_tree_256(cubic_newton):
    return backward_tree(cubic_newton, 5.0 + 1.0j, 10,
                         window=SQUARE, width=256, height=256)


def test_criterion_01_cubic_benchmark(cubic_newton):
    roots = univariate_complex_roots(CUBIC)
    t0 = time.perf_counter()
    raster = render_basins(cubic_newton, roots, SQUARE, 300, 300)
    elapsed = time.perf_counter() - t0
    fr = raster.fractions()
    basin_fracs = sorted(fr[i] for i in range(3))
    spread = basin_fracs[-1] - basin_fracs[0]
    stray = raster.fraction_of(CODE_UNDECIDED) + raster.fraction_of(CODE_CYCLE)
    ok = elapsed < 10.0 and spread <= 0.01 and stray < 0.001
    line = report(
        1, "three-root benchmark", ok,
        f"time {elapsed:.2f}s, fraction spread {spread:.4f}, "
        f"undecided+cycle {stray:.2e}",
    )
    assert elapsed < 10.0, line
    assert stray < 0.001, line
    assert spread <= 0.01, line


def test_criterion_02_superattracting_island_cycle():
    N = build_newton_complex(ISLAND)
    step_01 = abs(N.step(0.0) - 1.0)
    step_10 = abs(N.step(1.0) - 0.0)
    cycles = enumerate_cycles_1d(N, 2, (-2.0, 2.0))
    attracting = [r for r in cycles if r.stability == "attracting"]
    found = len(attracting) == 1 and np.allclose(
        sorted(attracting[0].points), [0.0, 1.0], atol=1e-9)
    multiplier = attracting[0].multiplier if attracting else float("inf")
    roots = univariate_complex_roots(ISLAND)
    raster = render_basins(N, roots, (-1.5, 1.5, -1.5, 1.5), 300, 300)
    cycle_fraction = raster.fraction_of(CODE_CYCLE)
    ok = (step_01 == 0.0 and step_10 == 0.0 and found
          and multiplier < 1e-6 and cycle_fraction > 0.01)
    line = report(
        2, "island two-cycle", ok,
        f"|N(0)-1|={step_01:.1e}, |N(1)|={step_10:.1e}, "
        f"multiplier {multiplier:.1e}, cycle fraction {cycle_fraction:.4f}",
    )
    assert ok, line


def test_criterion_03_alpha_limit_vs_boundary(cubic_boundary_256,
                                              cubic_tree_256):
    d_complex = directed_pixel_distance(cubic_tree_256, cubic_boundary_256)

    f = parse_plane_map(PLANAR_FIRST, PLANAR_SECOND)
    N = build_newton_plane(f)
    roots = system_real_roots(f, PLANAR_DOMAIN)
    basins = render_basins(N, roots, PLANAR_WINDOW, 512, 512)
    boundary = extract_boundary(basins)
    tree = backward_tree(N, (0.0, -1.0), 12, domain=PLANAR_DOMAIN,
                         window=PLANAR_WINDOW, width=512, height=512)
    d_planar = directed_pixel_distance(tree, boundary)

    ok = d_complex <= 3.0 and d_planar <= 5.0
    line = report(
        3, "alpha limit traces boundary", ok,
        f"complex 256px distance {d_complex:.2f} (<=3), "
        f"planar 512px distance {d_planar:.2f} (<=5)",
    )
    assert ok, line


def test_criterion_04_random_backward_sampling(cubic_newton, cubic_tree_256):
    distances = {}
    for seed in (1, 2, 3):
        orbit = random_backward_orbit(cubic_newton, 5.0 + 1.0j, 2000,
                                      burn_in=100, prng_seed=seed)
        cloud = OccupancyRaster.from_points(
            [p.real for p in orbit.points], [p.imag for p in orbit.points],
            Window(*SQUARE), 256, 256)
        distances[seed] = directed_pixel_distance(cloud, cubic_tree_256)
    ok = all(d <= 3.0 for d in distances.values())
    line = report(
        4, "random backward orbit sampling", ok,
        "cloud-to-tree px " + ", ".join(
            f"seed {s}: {d:.2f}" for s, d in distances.items()),
    )
    assert ok, line


def test_criterion_05_hutchinson_contraction(cubic_newton):
    win = Window(*SQUARE)
    initial = OccupancyRaster(win, 256, 256,
                              np.ones((256, 256), dtype=bool))
    roots = univariate_complex_roots(CUBIC)
    disks = [(r.real, r.imag, 0.3) for r in roots]
    rasters, gaps = hutchinson_iterate(cubic_newton, initial, disks, 12)
    reached = min(gaps) <= 2.0
    first = next((i + 1 for i, g in enumerate(gaps) if g <= 2.0), None)
    line = report(
        5, "set-map iteration settles", reached,
        f"min gap {min(gaps):.2f}px at step {first} of 12",
    )
    assert reached, line


def test_criterion_06_barna_suite():
    t0 = time.perf_counter()
    rep = barna_check(QUARTIC, cfg=ScanConfig(max_iter=500), max_period=5,
                      samples=1_000_000, sample_interval=(-10.0, 10.0),
                      prng_seed=0)
    elapsed = time.perf_counter() - t0
    all_repelling = all(
        rec.stability == "repelling"
        for k in range(2, 6) for rec in rep.cycles_by_period[k])
    bounds_ok = all(rep.cycle_count_bound_ok[k] for k in range(1, 6))
    ok = (rep.all_roots_real and all_repelling and bounds_ok
          and rep.nonconvergent_fraction < 1e-3 and elapsed < 120.0)
    line = report(
        6, "real-rooted quartic census", ok,
        f"all real {rep.all_roots_real}, repelling {all_repelling}, "
        f"2^k bounds {bounds_ok}, nonconvergent "
        f"{rep.nonconvergent_fraction:.2e}, {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_07_projective_form():
    f = parse_plane_map("x^2 - y^2 - 1", "2*x*y")
    P, _ = homogenize_newton(f)
    expected = (
        MultiPoly({(3, 0, 0): 1.0, (1, 2, 0): 1.0, (1, 0, 2): 1.0}),
        MultiPoly({(2, 1, 0): 1.0, (0, 3, 0): 1.0, (0, 1, 2): -1.0}),
        MultiPoly({(2, 0, 1): 2.0, (0, 2, 1): 2.0}),
    )
    rng = np.random.default_rng(7)
    max_rel = 0.0
    for _ in range(20):
        x, y, z = rng.uniform(-2.0, 2.0, size=3)
        got = np.array(P.eval(x, y, z))
        want = np.array([e.eval(x, y, z) for e in expected])
        scale = np.vdot(want, got) / np.vdot(want, want)
        rel = np.linalg.norm(got - scale * want) / (np.linalg.norm(got) + 1e-300)
        max_rel = max(max_rel, rel)

    max_dev = 0.0
    for x0 in np.linspace(-2.0, 2.0, 10):
        J = jacobian_at_infinity(P, x0)
        max_dev = max(max_dev, abs(J[1, 1] - 2.0), abs(J[0, 1]),
                      abs(J[1, 0]))
    ok = max_rel < 1e-9 and max_dev <= 1e-4
    line = report(
        7, "projective triple and infinity", ok,
        f"triple rel err {max_rel:.1e}, eigenvalue-2 deviation {max_dev:.1e}",
    )
    assert ok, line


def test_criterion_08_conjugation_changes_dynamics():
    f = parse_plane_map("x^2 - y^2 - 1", "2*x*y")
    psi = parse_plane_map("x", "y + x^2")
    psi_inv = parse_plane_map("x", "y - x^2")
    pf = pullback_map(f, psi, psi_inv)
    N_pf = build_newton_plane(pf)
    Nf = build_newton_plane(f)
    a = N_pf.step((1.0, 1.0))
    b = psi_inv.eval(*Nf.step(psi.eval(1.0, 1.0)))
    gap = max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    pulled = render_basins(N_pf, [(1.0, -1.0), (-1.0, -1.0)],
                           SQUARE, 200, 200)
    straight = render_basins(Nf, [(1.0, 0.0), (-1.0, 0.0)],
                             SQUARE, 200, 200)
    esc_pulled = pulled.fraction_of(CODE_ESCAPED)
    esc_straight = straight.fraction_of(CODE_ESCAPED)
    ok = gap > 1e-3 and esc_pulled > 0.0 and esc_straight == 0.0
    line = report(
        8, "conjugation is not natural", ok,
        f"map gap at (1,1) {gap:.2f}, escaped fractions "
        f"pulled {esc_pulled:.3f} vs straight {esc_straight:.3f}",
    )
    assert ok, line


def test_criterion_09_parameter_scan():
    family = parse_poly("z^3 + A*z - z - A", variables=("z", "A"))
    raster = parameter_scan(family, 0.0, (-2.3, 1.7, -2.0, 2.0), 200, 200)
    rows, cols = np.nonzero(raster.codes == CODE_CYCLE)
    xs, ys = Window(-2.3, 1.7, -2.0, 2.0).pixel_centers(200, 200)
    multipliers = []
    for row, col in zip(rows, cols):
        a = complex(xs[row, col], ys[row, col])
        coeffs = {}
        for (ez, ea), c in family.terms:
            coeffs[ez] = coeffs.get(ez, 0.0) + c * (a ** ea)
        member = UniComplexPoly([coeffs.get(k, 0.0)
                                 for k in range(max(coeffs) + 1)])
        outcome = classify_orbit(build_newton_complex(member), 0.0,
                                 univariate_complex_roots(member))
        if outcome.kind == "cycle":
            multipliers.append(abs(outcome.multiplier))
    ok = (len(rows) >= 1 and len(multipliers) == len(rows)
          and all(m < 1.0 for m in multipliers))
    line = report(
        9, "parameter scan finds extra cycles", ok,
        f"{len(rows)} cycle pixels, {len(multipliers)} reverified, "
        f"max multiplier {max(multipliers) if multipliers else float('nan'):.3f}",
    )
    assert ok, line


def test_criterion_10_ghost_lines():
    x = MultiPoly.variable(0)
    y = MultiPoly.variable(1)
    f = PlaneMap(x * x * (x - MultiPoly.constant(1.0)) + y,
                 x + MultiPoly.constant(0.5) - y * y)
    N = build_newton_plane(f)
    lines = ghost_lines(f, (-3.0, 3.0, -3.0, 3.0))
    found = len(lines) >= 1
    defect = min(
        (measure_invariance_defect(N, line, span=2.0, samples=50)
         for line in lines), default=float("inf"))
    on_line_ok = defect <= 1e-6
    stay = 0.0
    if found:
        probe = probe_ghost_attractor(
            N, lines[0],
            GhostProbeConfig(delta=0.1, iterations=500, seed_count=60))
        stay = max(stay, probe.stay_fraction)
    ok = found and on_line_ok and stay > 0.0
    line = report(
        10, "ghost lines", ok,
        f"{len(lines)} candidate lines, best invariance defect {defect:.2f} "
        f"(needs <=1e-6), stay fraction {stay:.2f} (needs >0)",
    )
    assert found, line
    assert on_line_ok, line
    assert stay > 0.0, line


def test_criterion_11_rational_map_coverage():
    num = UniComplexPoly([1.0, 0.0, 2.0, 0.0, 1.0])
    den = UniComplexPoly([0.0, -4.0, 0.0, 4.0])
    rmap = ComplexRationalMap(num, den)
    tree = backward_tree(rmap, 0.5 + 0.5j, 12,
                         window=(-3.0, 3.0, -3.0, 3.0),
                         width=128, height=128)
    coverage = tree.count / (128 * 128)
    ok = coverage > 0.9
    line = report(
        11, "degree-4 rational map fills the window", ok,
        f"coverage {coverage:.4f} of 128x128 (needs >0.9)",
    )
    assert ok, line


def test_criterion_12_deterministic_artifacts(tmp_path):
    config = {
        "mode": "alpha-random",
        "map": {"kind": "complex", "polynomial": "z^3 - 1"},
        "window": [-2.0, 2.0, -2.0, 2.0],
        "width": 128, "height": 128,
        "seed_point": [5.0, 1.0],
        "length": 500,
        "burn_in": 50,
        "prng_seed": 11,
    }
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outs = []
    for run, threads in (("a", 1), ("b", 4)):
        job = load_config(str(cfg_path), "alpha-random",
                          threads_override=threads)
        _, written = run_job(job, out_dir=tmp_path / run)
        outs.append({p.split("/")[-1]: p for p in written})
    same = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("alpha-random.ppm", "alpha-random.csv")
    )
    reports = [json.loads((tmp_path / run / "alpha-random.json").read_text())
               for run in ("a", "b")]
    for rep in reports:
        rep.pop("timings_s")
        rep["config"].pop("threads", None)
        rep.pop("threads", None)
    ok = same and reports[0] == reports[1]
    line = report(
        12, "byte-identical reruns", ok,
        f"raster+orbit identical {same}, reports match minus timings "
        f"{reports[0] == reports[1]}",
    )
    assert ok, line
