"""Artifacts are replaced whole or not at all, and readers refuse corrupt ones.

Every file the package writes goes through ``serialize.write_atomic``. A
guard test holds that line in the source, a subprocess test kills writers
partway through a write, and a fuzz test feeds each reader damaged copies
of a valid file.
"""

import ast
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kneegrade
from kneegrade.data import GradedExam, load_landmarks, load_manifest, save_landmarks, \
    save_manifest
from kneegrade.ensemble import read_predictions_csv, write_predictions_csv
from kneegrade.errors import KneeGradeError
from kneegrade.imageio import read_pgm16, write_pgm16
from kneegrade.preprocess import LandmarkSet, NormalizedImage, load_image_cache, \
    save_image_cache
from kneegrade.serialize import load_tensors, save_tensors, write_atomic

SRC = Path(kneegrade.__file__).resolve().parent


def _calls(tree):
    """(enclosing function, call node) of each call in ``tree``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                found.append((function, child))
            visit(child, function)

    visit(tree, "<module>")
    return found


def _name(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _file_writes(tree):
    """(enclosing function, line) of each call that opens a file for writing."""
    found = []
    for function, call in _calls(tree):
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        # a mode that is not a literal may write, so it counts too
        writes_mode = mode is not None and not (
            isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax"))
        if _name(call) in ("write_text", "write_bytes") or (_name(call) == "open" and writes_mode):
            found.append((function, call.lineno))
    return found


def _dir_makes(tree):
    """(enclosing function, line) of each ``makedirs`` or ``mkdir`` call."""
    return [(function, call.lineno) for function, call in _calls(tree)
            if _name(call) in ("makedirs", "mkdir")]


def test_write_atomic_is_the_only_writer():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for function, line in _file_writes(ast.parse(path.read_text(), str(path))):
            if function != "write_atomic":
                offenders.append(f"{path.name}:{line} in {function}")
    assert offenders == []


def test_guard_sees_each_kind_of_write():
    source = ("def f(p):\n"
              "    open(p, 'w'); open(p, mode='ab'); open(p, 'x'); open(p, flags)\n"
              "    p.write_text('a'); p.write_bytes(b'a')\n"
              "    open(p); open(p, 'rb')\n")
    assert _file_writes(ast.parse(source)) == [("f", 2)] * 4 + [("f", 3)] * 2


def test_make_dirs_is_the_only_directory_maker():
    # so serialize.rollback knows every directory a failed command made
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for function, line in _dir_makes(ast.parse(path.read_text(), str(path))):
            if (path.name, function) != ("serialize.py", "make_dirs"):
                offenders.append(f"{path.name}:{line} in {function}")
    assert offenders == []


def test_guard_sees_each_kind_of_directory_make():
    source = ("def f(p):\n"
              "    os.makedirs(p); os.mkdir(p); makedirs(p, exist_ok=True)\n"
              "    p.mkdir(); Path(p).mkdir(parents=True)\n"
              "    os.path.isdir(p); os.listdir(p)\n")
    assert _dir_makes(ast.parse(source)) == [("f", 2)] * 3 + [("f", 3)] * 2


# The benchmark patches these two names in the modules that import them.
_PATCHED_IMPORTS = {("ensemble.py", "batch_images"), ("report.py", "bootstrap_ci")}


def _unused_imports(tree):
    """Names a module imports and never reads, ``from __future__`` aside."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_does_not_use():
    unused = [(path.name, name) for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert sorted(set(unused) - _PATCHED_IMPORTS) == []
    assert sorted(_PATCHED_IMPORTS - set(unused)) == []


def test_import_guard_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from .x import a, b as c\n"
              "np.zeros(a)\n")
    assert _unused_imports(ast.parse(source)) == ["c", "os"]


def _text_reads_without_encoding(tree):
    """Line of each text-mode ``open`` or ``read_text`` call that names no encoding."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        keywords = {k.arg for k in node.keywords}
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
            if not binary and len(node.args) < 4 and "encoding" not in keywords:
                found.append(node.lineno)
        elif name == "read_text" and not node.args and "encoding" not in keywords:
            found.append(node.lineno)
    return found


def test_every_text_read_names_its_encoding():
    """Readers decode UTF-8, as every writer encodes, whatever the locale."""
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in _text_reads_without_encoding(ast.parse(path.read_text(), str(path)))]
    assert offenders == []


def test_encoding_guard_sees_a_text_read_without_one():
    source = ("open(p); open(p, 'r'); open(p, mode=m); p.read_text()\n"
              "open(p, 'rb'); open(p, mode='wb'); open(p, encoding='utf-8')\n"
              "open(p, 'r', -1, 'utf-8'); p.read_text('utf-8'); p.read_text(encoding='utf-8')\n")
    assert _text_reads_without_encoding(ast.parse(source)) == [1, 1, 1, 1]


def _lazy_imports(tree):
    """(function, line) of each import inside a function body."""
    return [(fn.name, node.lineno) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_function_imports_a_module():
    """Every import sits at module level, so an import cycle cannot hide in a body."""
    lazy = [f"{path.name}:{line} in {fn}" for path in sorted(SRC.glob("*.py"))
            for fn, line in _lazy_imports(ast.parse(path.read_text(), str(path)))]
    assert lazy == []


def test_lazy_import_guard_sees_an_import_in_a_function_or_method():
    source = ("import os\n"
              "def f():\n"
              "    import json\n"
              "class C:\n"
              "    def m(self):\n"
              "        from .config import from_doc\n")
    assert _lazy_imports(ast.parse(source)) == [("f", 3), ("m", 6)]


# ---------------------------------------------------------------------------
# a writer killed partway through


_KILLED_MIDWAY = '''
import builtins, os, shutil, signal, sys
import numpy as np
from kneegrade.data import GradedExam, save_manifest
from kneegrade.ensemble import write_predictions_csv
from kneegrade.serialize import save_tensors

def write(writer, path, version):
    n = 2000 + version      # the two versions differ in size and bytes
    if writer == "save_tensors":
        save_tensors(path, {"w": np.full(n, version, dtype=np.float32)})
    elif writer == "write_predictions_csv":
        probs = np.full((n, 2), 0.5, dtype=np.float32)
        write_predictions_csv(path, [f"E{i}" for i in range(n)], [("KL", 2)],
                              {"KL": probs}, {"KL": np.full(n, version % 2)})
    else:
        save_manifest(path, [GradedExam(f"E{i}", f"S{i}", "L", version, "i.pgm", "l.json", 0.1)
                             for i in range(n)])

class KilledMidway:
    """Passes writes through until 1000 bytes are out, then SIGKILLs the process."""
    def __init__(self, fh):
        self.fh = fh
        self.written = 0
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.fh.close()
    def write(self, data):
        room = 1000 - self.written
        self.fh.write(data[:room])
        if len(data) >= room:
            self.fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        self.written += len(data)

real_open = builtins.open
def killing_open(file, mode="r", *args, **kwargs):
    fh = real_open(file, mode, *args, **kwargs)
    return KilledMidway(fh) if set(mode) & set("wax") else fh

writer, path, existing = sys.argv[1:]
if existing == "1":
    write(writer, path, 1)
    shutil.copyfile(path, path + ".old")
builtins.open = killing_open
write(writer, path, 2)
'''


@pytest.mark.parametrize("existing", [False, True], ids=["new", "replacing"])
@pytest.mark.parametrize("writer", ["save_tensors", "write_predictions_csv", "save_manifest"])
def test_sigkill_midway_leaves_old_bytes_or_nothing(tmp_path, writer, existing):
    target = tmp_path / "artifact"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _KILLED_MIDWAY, writer, str(target),
                           str(int(existing))], env=env, capture_output=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()[-2000:]
    if existing:
        assert target.read_bytes() == (tmp_path / "artifact.old").read_bytes()
    else:
        assert not target.exists()


@pytest.mark.parametrize("where", ["missing_directory", "over_a_directory"])
def test_failed_write_names_the_artifact(tmp_path, where):
    # opening the temp file fails in a missing directory, the rename over a directory
    target = tmp_path / ("nodir/x.csv" if where == "missing_directory" else "x.csv")
    if where == "over_a_directory":
        target.mkdir()
    with pytest.raises(OSError) as info:
        write_atomic(target, "a,b\n")
    assert info.value.filename == str(target) and info.value.filename2 is None
    assert ".tmp" not in str(info.value)
    assert [p.name for p in tmp_path.iterdir()] == ([] if where == "missing_directory"
                                                    else ["x.csv"])


# ---------------------------------------------------------------------------
# damaged input: a correct load or a KneeGradeError


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """kind -> (path of a valid file, reader that takes the path)."""
    root = tmp_path_factory.mktemp("valid")
    exams = [GradedExam(f"E{i}", f"S{i}", "LR"[i % 2], 12 * i, f"images/E{i}.pgm",
                        f"landmarks/E{i}.json", 0.1 + i, {"KL": i, "JSN_M": 1})
             for i in range(3)]
    save_manifest(root / "manifest.csv", exams)
    probs = np.array([[0.25, 0.75], [0.5, 0.5], [0.875, 0.125]], dtype=np.float32)
    write_predictions_csv(root / "preds.csv", ["E0", "E1", "E2"], [("JSN_M", 2)],
                          {"JSN_M": probs}, {"JSN_M": np.array([1, 0, 0])})
    save_landmarks(root / "E0.json", "E0", LandmarkSet(
        knee_center=(8.0, 9.5), plateau_left=(2.0, 10.0), plateau_right=(14.0, 10.0), side="L"))
    cache = root / "images.kgw"
    save_image_cache(cache, {f"E{i}": NormalizedImage(np.full((2, 2), i / 4, np.float32),
                                                      {"clip_pct": [1.0, 99.0]})
                             for i in range(2)}, meta={"config_hash": "ab12"})
    save_tensors(root / "weights.kgw", {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                                        "b": np.float32(1.5)})
    write_pgm16(root / "image.pgm", np.arange(6, dtype=np.uint16).reshape(2, 3) * 9000)
    return {
        "manifest": (root / "manifest.csv", load_manifest),
        "predictions": (root / "preds.csv", read_predictions_csv),
        "landmarks": (root / "E0.json", load_landmarks),
        "sidecar": (Path(f"{cache}.meta.json"), lambda _: load_image_cache(cache)),
        "container": (root / "weights.kgw", load_tensors),
        "image_cache": (cache, load_image_cache),
        "pgm": (root / "image.pgm", read_pgm16),
    }


EDITS = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
), min_size=1, max_size=3)


def _damage(raw, edits):
    buf = bytearray(raw)
    for kind, pos, *arg in edits:
        pos %= len(buf) + 1
        if kind == "truncate":
            del buf[pos:]
        elif kind == "flip" and pos < len(buf):
            buf[pos] ^= 1 << arg[0]
        elif kind == "insert":
            buf[pos:pos] = arg[0]
    return bytes(buf)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("kind", ["manifest", "predictions", "landmarks", "sidecar",
                                  "container", "image_cache", "pgm"])
def test_damaged_input_loads_or_raises_a_typed_error(valid_files, kind):
    path, read = valid_files[kind]
    raw = path.read_bytes()

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(EDITS)
    def check(edits):
        path.write_bytes(_damage(raw, edits))
        try:
            read(path)
        except KneeGradeError:
            pass

    check()
    path.write_bytes(raw)       # the image cache's case reads the sidecar too
