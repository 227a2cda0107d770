from .geometry import Geometry
from .mesh import Mesh, MeshError, MeshParams, generate_mesh, read_mesh, write_mesh
from .assembly import AssemblyError, ElasticitySystem, assemble
from .solve import (
    DisplacementField,
    SolverError,
    gap_center_node,
    incident_gradients,
    sample,
    solve_component,
    solve_components,
    solve_hard_inclusion,
    solve_holes,
    solve_large_contrast,
)

__all__ = [
    "AssemblyError",
    "DisplacementField",
    "ElasticitySystem",
    "Geometry",
    "Mesh",
    "MeshError",
    "MeshParams",
    "SolverError",
    "assemble",
    "generate_mesh",
    "read_mesh",
    "gap_center_node",
    "incident_gradients",
    "sample",
    "solve_component",
    "solve_components",
    "solve_hard_inclusion",
    "solve_holes",
    "solve_large_contrast",
    "write_mesh",
]
