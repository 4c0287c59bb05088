"""The package surface: names resolve lazily, and `eval` loads only the modules it runs."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import lauricella
from lauricella import HyperSpec, lauricella_fd
from lauricella.cli import _format_value

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter with only this checkout's src on the path."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)


class TestEvalImports:
    def test_cli_import_leaves_catalog_modules_unloaded(self):
        # A disk point loads neither the catalog modules nor quadrature, elliptic or
        # dataclasses.  Diffed against the modules loaded before the package,
        # because `site` may preload some.
        proc = _fresh("""
            import json, sys
            before = set(sys.modules)
            import lauricella.cli
            code = lauricella.cli.main(["eval", "2f1", "--a", "1", "--b", "0.5",
                                        "--c", "1.5", "--x", "-1"])
            unused = {"lauricella.identities", "lauricella.reductions", "lauricella.catalog",
                      "concurrent.futures", "lauricella.quadrature", "lauricella.elliptic",
                      "dataclasses", "inspect"}
            print(json.dumps({"loaded": sorted(unused & (set(sys.modules) - before)), "code": code}))
        """)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"loaded": [], "code": 0}
        assert proc.stdout.startswith("0.785398163397448")

    def test_continuation_point_loads_quadrature(self):
        proc = _fresh("""
            import json, sys
            from lauricella.cli import main
            code = main(["eval", "fd", "--a", "0.5", "--bs", "0.2,0.3,0.4", "--c", "1.5", "--xs=5,-2,3"])
            print(json.dumps({"quadrature": "lauricella.quadrature" in sys.modules, "code": code}))
        """)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert json.loads(lines[-1]) == {"quadrature": True, "code": 0}
        want = lauricella_fd(HyperSpec(0.5, (0.2, 0.3, 0.4), 1.5, (5.0, -2.0, 3.0)))
        assert lines[0] == _format_value(want)

    @pytest.mark.parametrize("argv", [
        ["verify", "--filter", "enu5-1"],
        ["reduce", "--filter", "goursat-*"],
    ])
    def test_catalog_commands_in_fresh_process(self, argv):
        proc = _fresh(f"""
            import sys
            from lauricella.cli import main
            sys.exit(main({argv!r}))
        """)
        assert proc.returncode == 0, proc.stderr


class TestLazySurface:
    def test_every_public_name_resolves(self):
        for name in lauricella.__all__:
            assert getattr(lauricella, name) is not None, name

    def test_lazy_names_are_the_submodule_objects(self):
        from lauricella import elliptic, identities, quadrature, reductions

        assert lauricella.verify_all is identities.verify_all
        assert lauricella.ReductionRecord is reductions.ReductionRecord
        assert lauricella.integrate is quadrature.integrate
        assert lauricella.complete_k is elliptic.complete_k

    def test_one_quadrature_error_class(self):
        from lauricella import core, quadrature

        assert lauricella.QuadratureError is core.QuadratureError is quadrature.QuadratureError

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from lauricella import *", namespace)
        assert set(lauricella.__all__) <= set(namespace)

    def test_dir_lists_all(self):
        assert set(lauricella.__all__) <= set(dir(lauricella))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            lauricella.no_such_name

    def test_submodule_import_falls_back(self):
        from lauricella import catalog

        assert catalog.__name__ == "lauricella.catalog"

    def test_lazy_names_before_first_use(self):
        proc = _fresh("""
            import sys
            import lauricella
            lazy = ("lauricella.quadrature", "lauricella.elliptic", "lauricella.identities")
            assert not any(m in sys.modules for m in lazy)
            assert {"integrate", "complete_k", "verify_all"} <= set(dir(lauricella))
            from lauricella import IntegrandSpec, complete_k
            assert "lauricella.quadrature" in sys.modules
            assert "lauricella.elliptic" in sys.modules
            assert "lauricella.identities" not in sys.modules
            from lauricella import verify_all, check_reduction
            assert "lauricella.identities" in sys.modules
            assert "lauricella.reductions" in sys.modules
            assert vars(lauricella)["verify_all"] is verify_all
        """)
        assert proc.returncode == 0, proc.stderr
