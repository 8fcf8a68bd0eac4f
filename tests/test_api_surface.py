"""No API without a caller: every top-level function or class of the
package is referenced somewhere in the package outside its own body.
No memo but the derivation stages that a later check or request reads
again, and the ring's product table of monomial pairs."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "z22field"

# the lazy loader's module hooks, which Python itself calls
HOOKS = {"__init__.__getattr__", "__init__.__dir__"}

# displays and rewritings that only tests read today; the list may only
# shrink: a name here that gains a caller in the package fails the test
TEST_ONLY = {
    "action.spinor_lagrangian",
    "reference.kinetic_body", "reference.interaction_body",
    "reference.interaction_z_slot", "reference.lagrangian_kinetic",
    "reference.lagrangian_interaction", "reference.lagrangian_eliminated",
    "reference.quadratic_lagrangian_printed",
    "reference.trig_lagrangian_printed",
    "reference.quadratic_specialization",
}


def _uncalled():
    trees = {p.stem: ast.parse(p.read_text()) for p in
             sorted(PACKAGE.glob("*.py"))}
    # every name read anywhere: a bare name, an attribute or an import
    uses = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses.setdefault(name, []).append((mod, node))
    out = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(m != mod or id(n) not in own
                       for m, n in uses.get(node.name, ())):
                out.add(f"{mod}.{node.name}")
    return out


def test_every_definition_has_a_caller_in_the_package():
    assert _uncalled() - HOOKS - TEST_ONLY == set()


def test_the_test_only_list_only_shrinks():
    assert TEST_ONLY - _uncalled() == set()


# the functools caches of the package: each one a stage of the derivation
# chain that more than one check or request reads, and the product table
# keyed by pairs of canonical monomials
STAGE_MEMOS = {
    "expr._mono_mul",
    "derivations._leibniz", "derivations.total_t", "derivations.total_space",
    "derivations.jet_partial", "derivations.partial_coord",
    "derivations.superspace_operators",
    "superfield.variation_table", "superfield._stage_field_image",
    "action._component_lagrangian", "action.auxiliary_solution",
    "variational.field_equations", "variational.solved_forms",
    "variational._solved_split", "variational.eliminated_variation",
}


def test_the_only_memos_are_the_stage_memos():
    memos = set()
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"z22field.{path.stem}")
        for name, obj in vars(module).items():
            if (callable(getattr(obj, "cache_clear", None))
                    and obj.__module__ == module.__name__):
                memos.add(f"{path.stem}.{name}")
    assert memos == STAGE_MEMOS
