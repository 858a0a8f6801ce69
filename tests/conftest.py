"""Shared fixtures: mesh corpora and small hierarchies reused across tests."""

import pytest

from hasts import samples
from hasts.benchmarks import tensor_space
from hasts.basis import GlobalKnots
from hasts.hierarchy import LevelMesh, build_hierarchy, refine_by_elements


def as_mesh_corpus():
    """Analysis-suitable meshes of mixed degree: tensor grids, the figure
    reconstructions, and randomized T-junction meshes."""
    meshes = [
        samples.tensor_mesh(3, 3, 2, 2),
        samples.tensor_mesh(4, 4, 2, 2),
        samples.tensor_mesh(3, 3, 3, 3),
        samples.tensor_mesh(4, 3, 2, 3),
        samples.tensor_mesh(3, 4, 3, 2),
        samples.index_vector_mesh_a(),
        samples.index_vector_mesh_b(),
        samples.index_vector_mesh_c(),
        samples.index_vector_mesh_d(),
        samples.extension_mesh_suitable(),
        samples.random_as_mesh(2, 2, num_elements=6, removals=8, seed=1),
        samples.random_as_mesh(3, 3, num_elements=6, removals=8, seed=2),
        samples.random_as_mesh(2, 3, num_elements=6, removals=6, seed=3),
    ]
    return meshes


@pytest.fixture(scope="session")
def as_meshes():
    return as_mesh_corpus()


def one_level(mesh):
    """The single-level hierarchy of a mesh with uniform open knots."""
    return build_hierarchy(
        [
            LevelMesh(
                1,
                mesh,
                GlobalKnots.uniform_open(mesh.m, mesh.p),
                GlobalKnots.uniform_open(mesh.n, mesh.q),
                None,
            )
        ]
    )


def two_level_space(ne=4, p=2, marked_levels=(1,)):
    """Tensor start refined once in the lower-left corner."""
    space = tensor_space(ne, p)
    marked = [e for e in space.elements
              if e.level in marked_levels
              and float(e.param_rect[1]) <= 0.5 and float(e.param_rect[3]) <= 0.5]
    return refine_by_elements(space, marked)


def sample_hierarchies():
    """Multi-level hierarchical spaces of depth 2..4 and mixed degree."""
    out = []
    sp = two_level_space(4, 2)
    out.append(sp)
    sp3 = refine_by_elements(
        sp, [e for e in sp.elements if e.level == 2 and float(e.param_rect[1]) <= 0.25]
    )
    sp4 = refine_by_elements(
        sp3, [e for e in sp3.elements if e.level == 3 and float(e.param_rect[1]) <= 0.125]
    )
    out.append(sp4)
    out.append(two_level_space(4, 3))
    sp23 = tensor_space(4, 2, 3)
    sp23 = refine_by_elements(
        sp23, [e for e in sp23.elements if float(e.param_rect[0]) >= 0.5]
    )
    out.append(sp23)
    return out


@pytest.fixture(scope="session")
def hierarchies():
    return sample_hierarchies()
