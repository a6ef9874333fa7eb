"""Source layout: `src/rtslab` holds only code that the package itself uses."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import rtslab.train.stratified
from rtslab import cli
from rtslab.model.network import WinPredictor
from rtslab.sim.tournament import run_tournament

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rtslab"


# The names a subpackage's __init__ imports, which perfbench imports by
# package path; every other name is imported from the module defining it.
PACKAGE_NAMES = {"model": {"WinPredictor", "get_preset"}, "train": {"bce_loss"}}


def test_every_public_definition_is_used_in_src():
    # a top-level public def or class that no module names is test-only
    # or dead code
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    )
    assert not unused, f"public definitions no src module uses: {unused}"


def test_subpackage_inits_hold_only_their_docstring():
    # a re-export layer gives each name two import paths, and loading a
    # leaf module then loads its whole package
    for path in sorted(SRC.glob("*/__init__.py")):
        docstring, *rest = ast.parse(path.read_text(encoding="utf-8")).body
        assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
        names = set()
        for node in rest:
            assert isinstance(node, ast.ImportFrom) and node.level == 1, ast.dump(node)
            names |= {alias.name for alias in node.names if alias.asname is None}
        assert names == PACKAGE_NAMES.get(path.parent.name, set()), path


def test_src_imports_no_name_through_a_subpackage():
    # `from .sim import x` must name a module of sim/, not a name sim/
    # would have to re-export
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rtslab")):
                base = path.parents[node.level - 1] if node.level else SRC.parent
                target = base.joinpath(*(node.module or "").split("."))
                if target != SRC and (target / "__init__.py").exists():
                    for alias in node.names:
                        assert (target / f"{alias.name}.py").exists(), (path, alias.name)


def test_planes_are_normalized_in_one_module():
    # clips stay raw uint8 until the training loop forwards a batch; a
    # second module naming normalize_planes would be a second normalization
    # path. encode.py only defines it.
    namers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (
                (isinstance(node, ast.Name) and node.id == "normalize_planes")
                or (isinstance(node, ast.Attribute) and node.attr == "normalize_planes")
                or (isinstance(node, ast.alias) and node.name == "normalize_planes")
            )
            if named:
                namers.add(path.relative_to(SRC).as_posix())
    assert namers == {"train/loop.py"}, f"modules naming normalize_planes: {sorted(namers)}"


def test_cli_scores_only_through_the_one_scorer():
    # every cut is scored in progress_stratified_eval; a CLI that imports a
    # model call, a clip sampler, a cut by fraction, a decoder or a rule
    # has grown a second scoring path
    scoring = {"predict_probs", "sample_timeline", "visible_prefix", "decode_planes",
               "simple_eval", "lanchester_eval", "winner_by_score"}
    named = set()
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            named.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & scoring, f"cli.py names: {sorted(named & scoring)}"


def test_no_module_imports_threading():
    # open tapes sit on one module-level list in rtslab.tensor, so a tape
    # opened on a second thread would record onto the first thread's tape
    importers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "_thread") for name in names):
                importers.add(path.relative_to(SRC).as_posix())
    assert not importers, f"modules importing threading: {sorted(importers)}"


def test_cli_import_loads_no_process_pool():
    # only `--threads` above 1 needs a process pool, so every other start of
    # the CLI should not pay for importing multiprocessing
    probe = "import sys, rtslab.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def test_every_flag_and_run_setting_is_wired():
    # a flag no command takes, or a RunConfig field cli.py never reads, is
    # a setting half deleted or never connected
    taken = set(cli.COMMON_FLAGS).union(*(flags for _, _, flags in cli.COMMANDS.values()))
    assert set(cli.FLAGS) <= taken, f"flags no command takes: {sorted(set(cli.FLAGS) - taken)}"
    read = {
        node.attr
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
    }
    unread = sorted(f.name for f in dataclasses.fields(cli.RunConfig) if f.name not in read)
    assert not unread, f"RunConfig fields cli.py never reads as cfg.<field>: {unread}"


def test_tracer_installs_on_every_name_and_restores_it(monkeypatch):
    # perfbench's tracer wraps rtslab functions and methods by name, so a
    # rename in src would stop `perfbench/run.py --trace 1` at install time
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    def label(owner):
        return f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__

    def snapshot():
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "rtslab"]
        classes = [c for m in modules for c in vars(m).values()
                   if isinstance(c, type) and c.__module__.startswith("rtslab")]
        return {(label(o), key): value for o in modules + classes for key, value in vars(o).items()}

    before = snapshot()
    forward = WinPredictor.forward
    with Tracer().installed():
        assert WinPredictor.forward is not forward
    after = snapshot()
    changed = sorted(key for key, value in before.items() if after.get(key) is not value)
    assert not changed, f"names the tracer did not restore: {changed}"


def test_tracer_counts_every_classical_score(monkeypatch):
    # progress_stratified_eval looks both scores up at call time, so the
    # tracer's wrappers see each call: two rules, two players a state
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    names = ["WorkerRushLite", "LightRushLite"]
    records = dict(enumerate(run_tournament(names, 2, 3, max_steps=40, capture_every=4)))
    fractions = (0.2, 0.6, 1.0)
    cuts = rtslab.train.stratified.fraction_cuts(records, fractions)
    tracer = Tracer()
    with tracer.installed():
        rtslab.train.stratified.progress_stratified_eval([], records, cuts)
    assert tracer.calls["baselines.eval"] == 4 * len(records) * len(fractions)


def test_imports_stay_within_the_declared_dependencies():
    # numpy is the one runtime dependency: src may import only the standard
    # library, numpy and itself; tests and docs may add pytest and the
    # helper modules kept beside them (installed but undeclared packages
    # such as hypothesis must not creep in)
    allowed = set(sys.stdlib_module_names) | {"numpy", "rtslab"}
    helpers = {"pytest", "oracles", "parameter_counts", "tracer"}
    strays = []
    for folder, names in (("src", allowed), ("tests", allowed | helpers),
                          ("docs", allowed | helpers)):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    tops = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    tops = [node.module.split(".")[0]]
                else:
                    continue
                strays += [f"{path.relative_to(ROOT)}: {top}" for top in tops if top not in names]
    assert not strays, f"imports outside the declared dependencies: {strays}"
