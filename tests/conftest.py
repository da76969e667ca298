import numpy as np
import pytest

from phasecon import ChannelParams, QuadratureGrid, reference_constellation


@pytest.fixture(scope="session")
def psk8():
    return reference_constellation("psk", 8)


@pytest.fixture(scope="session")
def grid7():
    return QuadratureGrid.of_degree(7)


@pytest.fixture(scope="session")
def grid15():
    return QuadratureGrid.of_degree(15)


@pytest.fixture(autouse=True)
def no_kept_evaluators():
    """Every test starts with no evaluator kept on its thread by
    `capacity._quadrature`, so what it counts or measures does not depend on
    the tests before it."""
    from phasecon import capacity

    capacity._KEPT.evaluators.clear()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_unit_power_constellation(rng, size=8):
    """Random distinct points normalized to unit average power."""
    from phasecon import make_constellation

    pts = rng.normal(size=size) + 1j * rng.normal(size=size)
    pts /= np.sqrt(np.mean(np.abs(pts) ** 2))
    return make_constellation(pts, rng.permutation(size))


def channel(snr_db, pnsd_deg):
    return ChannelParams.from_snr_pnsd(snr_db, pnsd_deg)


def set_threads(monkeypatch, threads):
    """Set PHASECON_THREADS, the one thread setting, for the rest of the test."""
    monkeypatch.setenv("PHASECON_THREADS", str(threads))


def spy_pools(monkeypatch):
    """The thread count of every pool an evaluation asks for, from now on."""
    from phasecon import capacity

    pools, real_pool = [], capacity._pool
    monkeypatch.setattr(capacity, "_pool", lambda k: pools.append(k) or real_pool(k))
    return pools


def spy_bit_losses(monkeypatch):
    """The (M, m, G) per-bit losses of the last PAMI evaluation of one set,
    assembled from every tile, from now on: call the returned function
    after it."""
    from phasecon.capacity import QuadEvaluator

    tiles, real = {}, QuadEvaluator._bit_losses

    def spy(ev, rows, *args):
        losses = real(ev, rows, *args)
        tiles[rows.start] = losses.copy()
        return losses

    monkeypatch.setattr(QuadEvaluator, "_bit_losses", spy)

    def last():
        rows = [tiles.pop(start) for start in sorted(tiles)]
        return np.concatenate(rows, axis=1)[0]

    return last


def count_builds(monkeypatch):
    """The (slots, size) of every evaluator built from now on."""
    from phasecon.capacity import QuadEvaluator

    builds, real = [], QuadEvaluator.__init__

    def spy(ev, channels, grid, size):
        builds.append((len(channels), size))
        real(ev, channels, grid, size)

    monkeypatch.setattr(QuadEvaluator, "__init__", spy)
    return builds


def spy_table_rows(monkeypatch):
    """The sent rows of every quadrature table pass from now on, one count
    per tile."""
    from phasecon.capacity import QuadEvaluator

    rows, real = [], QuadEvaluator._table_pass

    def spy(ev, points, tile, *args):
        rows.append(tile.stop - tile.start)
        return real(ev, points, tile, *args)

    monkeypatch.setattr(QuadEvaluator, "_table_pass", spy)
    return rows


# Relative tolerance for detecting tied nearest-neighbour distances.
GRAY_TIE_RTOL = 1e-9


def is_gray(c, rtol=GRAY_TIE_RTOL):
    """True when every minimum-distance neighbour pair differs in one bit.

    For each point the nearest-neighbour distance is found over the other
    points; every point within a relative tolerance `rtol` of that distance
    counts as a neighbour (ties included).
    """
    pts = c.points
    dist = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(dist, np.inf)
    for i in range(pts.size):
        neighbours = np.nonzero(dist[i] <= dist[i].min() * (1.0 + rtol))[0]
        for j in neighbours:
            if (int(c.labels[i]) ^ int(c.labels[j])).bit_count() != 1:
                return False
    return True


# Verdict lines recorded by the acceptance tests; echoed after the run so the
# measured values appear in the terminal log even with output capture on.
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
