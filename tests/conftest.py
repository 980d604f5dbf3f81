"""Shared fixtures: canonical desk-scale assemblies, reused across modules."""

import itertools

import pytest

from frostdem.mechanics import ParticleSystem
from frostdem.packing import PackingConfig, generate_packing


def desk_config(porosity=0.0859, radius=5.0, height=10.0, seed=5,
                solid_fraction=0.5) -> PackingConfig:
    return PackingConfig(
        target_porosity=porosity,
        rock_radius_min=1.0, rock_radius_max=1.2,
        water_radius_min=0.8, water_radius_max=0.95,
        cylinder_radius=radius, cylinder_height=height,
        rng_seed=seed, solid_fraction=solid_fraction)


def corrupt_loading(monkeypatch, when, corrupt):
    """Make ``ParticleSystem.step`` call ``corrupt(system)`` once, after the
    first step with platens for which ``when(system, n)`` holds, where ``n``
    counts the steps taken with platens."""
    original = ParticleSystem.step
    count, done = itertools.count(1), []

    def step(self, dt):
        original(self, dt)
        if self.walls is not None and not done and when(self, next(count)):
            corrupt(self)
            done.append(True)

    monkeypatch.setattr(ParticleSystem, "step", step)


@pytest.fixture(scope="session")
def small_saturated():
    """~76 particles, saturated."""
    return generate_packing(desk_config())


@pytest.fixture(scope="session")
def small_dry():
    """~70 particles, rock only; slightly looser, large grains pack worse."""
    return generate_packing(desk_config(porosity=0.0, solid_fraction=0.48))


@pytest.fixture(scope="session")
def medium_saturated():
    """~313 particles, saturated; used for compression and calibration."""
    return generate_packing(desk_config(radius=8.0, height=16.0))
