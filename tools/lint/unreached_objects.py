#!/usr/bin/env python3
"""unreached_objects — every object of libmocos.a must serve an entry point.

    unreached_objects.py BUILD_DIR

The entry points are the executables a build makes from tools/, bench/ and
examples/. An object of the `mocos` library counts as linked when one of its
global defined symbols (`nm --defined-only`, types T, D, B and R) is defined
in one of those executables. The linker pulls an archive member only to
resolve a symbol, so an object no entry point links is code that only the
tests reach.

Objects are named by their source path, not by archive member name:
basenames (metrics, trace) repeat across modules. The objects are the
files under src/CMakeFiles/mocos.dir/ that are members of src/libmocos.a (a
member matches the object with its basename and its symbols), so an object
left behind by a source an earlier build compiled is not counted.

Run it on a complete build: an executable that was not built links nothing.
It reads nm's path from the build's CMakeCache.txt and falls back to `nm` on
PATH. Exit status: 0 when every object is linked, 1 when some object is not
(each is named by its source path), 2 when the build directory holds no
library or no entry points, or its objects do not match the library.
"""

import os
import subprocess
import sys

ENTRY_DIRS = ("tools", "bench", "examples")
LIBRARY = os.path.join("src", "libmocos.a")
LIBRARY_OBJECTS = os.path.join("src", "CMakeFiles", "mocos.dir")
LINKED_TYPES = frozenset("TDBR")


def fail(message):
    print("unreached_objects: %s" % message, file=sys.stderr)
    sys.exit(2)


def nm_tool(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt"),
                  encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_NM:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "nm"


def linked_symbols(nm, path):
    """[(name, symbols)]: the global symbols of types T, D, B and R that
    `path` defines, one entry for an object or executable and one per member
    for an archive."""
    out = subprocess.run([nm, "--defined-only", "--extern-only", path],
                         capture_output=True, text=True)
    if out.returncode != 0:
        fail("%s %s failed: %s" % (nm, path, out.stderr.strip()))
    entries = [(os.path.basename(path), set())]
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 1 and line.endswith(":"):
            entries.append((line[:-1], set()))
        elif len(parts) == 3 and parts[1] in LINKED_TYPES:
            entries[-1][1].add(parts[2])
    return entries[1:] if len(entries) > 1 else entries


def library_objects(nm, build_dir):
    """{source path: symbols} of every member of the mocos library."""
    archive = os.path.join(build_dir, LIBRARY)
    if not os.path.isfile(archive):
        fail("no library at %s" % archive)
    members = {(name, frozenset(symbols))
               for name, symbols in linked_symbols(nm, archive)}
    root = os.path.join(build_dir, LIBRARY_OBJECTS)
    objects = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".o"):
                continue
            path = os.path.join(dirpath, name)
            (_, symbols), = linked_symbols(nm, path)
            if (name, frozenset(symbols)) in members:
                rel = os.path.relpath(path[:-2], root).replace(os.sep, "/")
                objects["src/" + rel] = symbols
    if len(objects) != len(members):
        fail("%d members in %s but %d matching objects under %s; rebuild"
             % (len(members), archive, len(objects), root))
    return objects


def is_executable(path):
    if not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def entry_points(build_dir):
    found = []
    for top in ENTRY_DIRS:
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(build_dir, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
            found += [os.path.join(dirpath, name) for name in sorted(filenames)
                      if is_executable(os.path.join(dirpath, name))]
    return found


def main(argv):
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: unreached_objects.py BUILD_DIR", file=sys.stderr)
        return 2
    build_dir = argv[0]
    nm = nm_tool(build_dir)
    objects = library_objects(nm, build_dir)
    executables = entry_points(build_dir)
    if not executables:
        fail("no executables under %s"
             % ", ".join(os.path.join(build_dir, d) for d in ENTRY_DIRS))

    linked = set()
    for exe in executables:
        (_, symbols), = linked_symbols(nm, exe)
        linked |= symbols
    unreached = sorted(src for src, symbols in objects.items()
                       if not symbols & linked)
    if unreached:
        print("unreached_objects: %d of %d objects of libmocos.a are linked "
              "by no executable under tools/, bench/ or examples/:"
              % (len(unreached), len(objects)))
        for src in unreached:
            print("  " + src)
        return 1
    print("unreached_objects: each of the %d objects of libmocos.a is linked "
          "by one of %d executables under tools/, bench/ or examples/"
          % (len(objects), len(executables)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
