import ast
import pathlib
import sys

import khtangle


def test_runtime_imports_only_the_standard_library():
    # the package declares `dependencies = []`: every import in it names
    # a standard-library module or khtangle itself
    for path in sorted(pathlib.Path(khtangle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue   # not an import, or a relative one
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "khtangle", \
                    f"{path.name}:{node.lineno} imports {name}"
