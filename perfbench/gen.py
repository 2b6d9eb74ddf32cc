"""Seeded input generators, each with an independent oracle.

Every generator takes a ``random.Random`` built from the workload name
and the ``--seed``, and returns Maya source text together with what the
program must produce: stdout lines, a return value, class names, an
error line, or a module build's recompile cone.  Those expectations are
computed here in plain Python, never by the compiler under test, so a
wrong compile or a wrong run shows as a failed operation.

Java ``int`` arithmetic is kept far from overflow so Python integers
give the same answers.  String literals hold no ``(){}[]``: the stream
lexer matches delimiters by token text, so a literal such as ``"("``
fails to lex.  ``tests/test_perfbench.py`` holds that defect as a strict
expected failure; when it starts passing, lift this restriction.

The traffic shares below are assumptions, not measurements: the
repository holds no request log or usage data to draw them from.  Each
is chosen to be even, or to give its path enough samples per run to
read a ratio with a base of about a hundred:

* ``cold_start`` weights its four extension strata evenly;
* ``daemon_warm`` deals method counts (1..5) and method kinds from
  seeded shuffled rounds, so each kind and size is equally common in
  every run, and in every ten requests sends two exact repeats
  (artifact-cache hits) and one source with a known type error.

Where a share is even, it is dealt in rounds rather than drawn at
random, so runs with different seeds do the same mix of work and differ
only in its order and details.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

FOREACH = "maya.util.ForEach"
TYPEDEF = "maya.util.Typedef"
COLLECT = "maya.util.Collect"

#: The grammar extensions a ``cold_start`` program ``use``s, one chain
#: per stratum.  Every cycle of the workload compiles one program of
#: each stratum, so each run weights them evenly.
COLD_STRATA: Tuple[Tuple[str, ...], ...] = (
    (FOREACH,),
    (TYPEDEF,),
    (COLLECT,),
    (FOREACH, TYPEDEF),
)

_WORDS = ("maya", "mayan", "syntax", "dispatch", "lazy", "parse", "grammar",
          "hygiene", "template", "vector", "lalr", "token", "reduce", "shift")


def make_rng(workload: str, seed) -> random.Random:
    """The one source of randomness for a workload's inputs."""
    return random.Random(f"perfbench:{workload}:{seed}")


def _words(rng: random.Random, low: int, high: int) -> List[str]:
    return [rng.choice(_WORDS) + str(rng.randrange(100))
            for _ in range(rng.randint(low, high))]


class Bag:
    """Draws ``items`` in seeded shuffled rounds: every round of
    ``len(items)`` draws holds each item once."""

    def __init__(self, rng: random.Random, items: Sequence):
        self.rng = rng
        self.items = list(items)
        self.left: List = []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _java_str(text: str) -> str:
    return '"' + text + '"'


# -- cold_start: one small program per mayac process -----------------------

class ColdProgram:
    """A ``mayac FILE --run CLASS`` input and its expected stdout."""

    def __init__(self, class_name: str, uses: Sequence[str], source: str,
                 stdout: List[str]):
        self.class_name = class_name
        self.uses = tuple(uses)
        self.source = source
        self.stdout = stdout


def cold_program(rng: random.Random, index: int,
                 uses: Sequence[str]) -> ColdProgram:
    """A program whose ``main`` exercises every macro in ``uses``."""
    name = f"Cold{index}"
    words = _words(rng, 3, 6)
    suffix = rng.choice(("!", "?", ".", ":"))
    body: List[str] = [f"use {use};" for use in uses]
    out: List[str] = []
    body.append("Vector v = new Vector();")
    body += [f"v.addElement({_java_str(w)});" for w in words]
    if FOREACH in uses:
        body.append("v.elements().foreach(String s) {")
        body.append(f'    System.out.println(s + "{suffix}");')
        body.append("}")
        out += [w + suffix for w in words]
    if TYPEDEF in uses:
        alias = rng.choice(("Vec", "List", "Bag"))
        extra = _words(rng, 1, 4)
        body.append(f"typedef ({alias} = java.util.Vector) {{")
        body.append(f"    {alias} w = new {alias}();")
        body += [f"    w.addElement({_java_str(e)});" for e in extra]
        body.append("    System.out.println(w.size() + v.size());")
        body.append("}")
        out.append(str(len(extra) + len(words)))
    if COLLECT in uses:
        mark = rng.choice(("<", "#", "@"))
        body.append("Vector out = new Vector();")
        body.append(f'collect(out, "{mark}" + t : String t : v.elements());')
        body.append("System.out.println(out.size());")
        body.append("System.out.println(out.elementAt(0));")
        out += [str(len(words)), mark + words[0]]
    bound = rng.randint(150, 250)
    mul, mod = rng.randint(2, 9), rng.randint(5, 13)
    body.append("int total = 0;")
    body.append(f"for (int i = 0; i < {bound}; i++) {{ "
                f"total += i * {mul} % {mod}; }}")
    body.append("System.out.println(total);")
    out.append(str(sum(i * mul % mod for i in range(bound))))
    lines = ["import java.util.*;", "", f"class {name} {{",
             "    static void main() {"]
    lines += ["        " + line for line in body]
    lines += ["    }", "}", ""]
    return ColdProgram(name, uses, "\n".join(lines), out)


# -- daemon_warm: compile requests ------------------------------------------

class CompileRequest:
    """One ``MayaClient.compile`` request and its expected answer.

    ``error_line`` is None for a source that must compile, else the
    1-based line the single type error must be reported on."""

    def __init__(self, filename: str, source: str, classes: List[str],
                 error_line=None, repeat: bool = False):
        self.filename = filename
        self.source = source
        self.classes = classes
        self.error_line = error_line
        self.repeat = repeat


_METHOD_KINDS = ("foreach", "typedef", "collect", "plain")


def _daemon_method(rng: random.Random, index: int,
                   kind: str = "") -> List[str]:
    """One static method body using a macro (seeded unless ``kind`` is
    given), or none."""
    kind = kind or rng.choice(_METHOD_KINDS)
    words = _words(rng, 2, 5)
    lines = [f"static int m{index}() {{"]
    if kind == "foreach":
        lines += ["    use maya.util.ForEach;", "    Vector v = new Vector();"]
        lines += [f"    v.addElement({_java_str(w)});" for w in words]
        lines += ["    int n = 0;",
                  "    v.elements().foreach(String s) { n += s.length(); }",
                  "    return n;"]
    elif kind == "typedef":
        lines += ["    use maya.util.Typedef;",
                  "    int n = 0;",
                  "    typedef (V = java.util.Vector) {",
                  "        V w = new V();"]
        lines += [f"        w.addElement({_java_str(w)});" for w in words]
        lines += ["        n = w.size();", "    }", "    return n;"]
    elif kind == "collect":
        lines += ["    use maya.util.Collect;", "    Vector v = new Vector();"]
        lines += [f"    v.addElement({_java_str(w)});" for w in words]
        lines += ["    Vector out = new Vector();",
                  "    collect(out, s + \"!\" : String s : v.elements());",
                  "    return out.size();"]
    else:
        bound = rng.randint(3, 30)
        lines += ["    int t = 0;",
                  f"    for (int i = 0; i < {bound}; i++) {{ t += i; }}",
                  "    return t;"]
    lines.append("}")
    return lines


def compile_request(rng: random.Random, index: int, with_error: bool,
                    sizes: Bag = None, kinds: Bag = None) -> CompileRequest:
    """A distinct macro-using source of 1..5 methods (dealt from
    ``sizes``, kinds from ``kinds``; drawn at random without them),
    optionally with one type error at a known line."""
    name = f"Req{index}"
    lines = ["import java.util.*;", "", f"class {name} {{"]
    error_line = None
    methods = sizes.draw() if sizes else rng.randint(1, 5)
    error_at = rng.randrange(methods) if with_error else -1
    for m in range(methods):
        if m == error_at:
            lines.append(f"    static int bad{m}() {{")
            error_line = len(lines) + 1
            lines.append(f'        int x = "oops{index}";')
            lines.append("        return x;")
            lines.append("    }")
        kind = kinds.draw() if kinds else ""
        lines += ["    " + line for line in _daemon_method(rng, m, kind)]
    lines += ["}", ""]
    return CompileRequest(f"req{index}.maya", "\n".join(lines), [name],
                          error_line)


class RequestMix:
    """One client's ``daemon_warm`` request stream, deterministic for a
    seed.  In every block of ten requests two, at seeded positions, are
    exact repeats of one of this client's last 32 successful requests
    (served from the artifact cache) and one of the distinct sources has
    a known compile error.  Seeded positions keep clients from settling
    into a shared rhythm in which every repeat meets an idle daemon."""

    BLOCK = 10
    REPEATS = 2
    REPEAT_WINDOW = 32

    def __init__(self, rng: random.Random, client: int = 0):
        self.rng = rng
        self.client = client
        self.ok_sent: List[CompileRequest] = []
        self.distinct = 0
        self.plan: List[str] = []
        self.sizes = Bag(rng, range(1, 6))
        self.kinds = Bag(rng, _METHOD_KINDS)

    def _block(self) -> List[str]:
        slots = ["distinct"] * self.BLOCK
        picks = self.rng.sample(range(self.BLOCK), self.REPEATS + 1)
        for slot in picks[:self.REPEATS]:
            slots[slot] = "repeat"
        slots[picks[-1]] = "error"
        return slots

    def next(self) -> CompileRequest:
        if not self.plan:
            self.plan = self._block()
        kind = self.plan.pop(0)
        if kind == "repeat" and self.ok_sent:
            original = self.rng.choice(self.ok_sent[-self.REPEAT_WINDOW:])
            return CompileRequest(original.filename, original.source,
                                  original.classes, None, repeat=True)
        self.distinct += 1
        request = compile_request(self.rng,
                                  self.client * 1_000_000 + self.distinct,
                                  with_error=kind == "error",
                                  sizes=self.sizes, kinds=self.kinds)
        if request.error_line is None:
            self.ok_sent.append(request)
        return request


def warmup_requests(rng: random.Random) -> List[CompileRequest]:
    """One source per method kind, so every macro's tables are warm and
    set-up does the same work whatever the seed."""
    out = []
    for index, kind in enumerate(sorted(_METHOD_KINDS)):
        name = f"Warm{index}"
        lines = ["import java.util.*;", "", f"class {name} {{"]
        lines += ["    " + line for line in _daemon_method(rng, 0, kind)]
        lines += ["}", ""]
        out.append(CompileRequest(f"warm{index}.maya", "\n".join(lines),
                                  [name]))
    return out


# -- modules_edit: a layered project and a stream of edits -------------------

class Project:
    """A layered module project (``l{k}/M{k}_{i}.maya`` plus
    ``app/Main.maya``) with exported macros along import edges.

    ``consts`` are the values the edits change; :meth:`expected_stdout`
    and :meth:`cone` are the oracle."""

    def __init__(self, rng: random.Random, layers: int = 4, width: int = 6):
        self.layers = layers
        self.width = width
        self.deps: Dict[str, List[str]] = {}
        self.consts: Dict[str, int] = {}
        self.words: Dict[str, List[str]] = {}
        self.extra: Dict[str, int] = {}
        self.uses_foreach: Dict[str, bool] = {}
        for layer in range(layers):
            for i in range(width):
                name = self.module(layer, i)
                if layer == 0:
                    self.deps[name] = []
                else:
                    # Module i imports module i of the layer below, so
                    # every module is reachable from app.Main.
                    other = (i + rng.randint(1, width - 1)) % width
                    self.deps[name] = [self.module(layer - 1, p)
                                       for p in sorted((i, other))]
                self.consts[name] = rng.randint(1, 9)
                self.words[name] = _words(rng, 2, 4)
                self.extra[name] = 0
                # Leaves export foreach along import edges; some upper
                # modules ``use`` it themselves as well.
                self.uses_foreach[name] = (i % 2 == 0) if layer == 0 \
                    else rng.random() < 0.25
        self.top = [self.module(layers - 1, i) for i in range(width)]
        self.deps["app.Main"] = list(self.top)
        self.edits = 0

    @staticmethod
    def module(layer: int, index: int) -> str:
        return f"l{layer}.M{layer}_{index}"

    @staticmethod
    def class_of(module: str) -> str:
        return module.rsplit(".", 1)[1]

    def has_foreach(self, name: str) -> bool:
        """Whether ``name`` sees the foreach syntax: it uses it, or an
        import exports it (exports are transitive)."""
        if self.uses_foreach.get(name):
            return True
        return any(self.has_foreach(dep) for dep in self.deps[name])

    def path_of(self, name: str) -> str:
        return name.replace(".", "/") + ".maya"

    def source(self, name: str) -> str:
        if name == "app.Main":
            return self._main_source()
        cls = self.class_of(name)
        lines = [f"// module {name}"]
        lines += [f"import {dep};" for dep in self.deps[name]]
        if self.uses_foreach[name]:
            lines.append(f"use {FOREACH};")
        lines += ["", f"class {cls} {{", "    static int value() {"]
        terms = [str(self.consts[name])]
        terms += [f"{self.class_of(d)}.value()" for d in self.deps[name]]
        lines.append(f"        return {' + '.join(terms)};")
        lines += ["    }", "    static int letters() {"]
        words = self.words[name]
        lines.append(f"        String[] ws = new String[{len(words)}];")
        lines += [f"        ws[{k}] = {_java_str(w)};"
                  for k, w in enumerate(words)]
        lines.append("        int n = 0;")
        if self.has_foreach(name):
            lines.append("        ws.foreach(String w) { n += w.length(); }")
        else:
            lines.append("        for (int k = 0; k < ws.length; k++) "
                         "{ n += ws[k].length(); }")
        for dep in self.deps[name]:
            lines.append(f"        n += {self.class_of(dep)}.letters();")
        lines += ["        return n;", "    }"]
        for k in range(self.extra[name]):
            lines += [f"    static int extra{k}(int x) {{",
                      f"        return x * {k + 2} + value();", "    }"]
        lines += ["}", ""]
        return "\n".join(lines)

    def _main_source(self) -> str:
        lines = ["// module app.Main"]
        lines += [f"import {dep};" for dep in self.top]
        lines += ["", "class Main {", "    static void main() {"]
        for dep in self.top:
            cls = self.class_of(dep)
            lines.append(f"        System.out.println({cls}.value());")
            lines.append(f"        System.out.println({cls}.letters());")
        lines += ["    }", "}", ""]
        return "\n".join(lines)

    def modules(self) -> List[str]:
        return list(self.deps)

    def value(self, name: str) -> int:
        return self.consts[name] + sum(self.value(d) for d in self.deps[name])

    def letters(self, name: str) -> int:
        return (sum(len(w) for w in self.words[name])
                + sum(self.letters(d) for d in self.deps[name]))

    def expected_stdout(self) -> List[str]:
        out = []
        for dep in self.top:
            out += [str(self.value(dep)), str(self.letters(dep))]
        return out

    def cone(self, name: str) -> List[str]:
        """``name`` plus every module that imports it, transitively."""
        cone = {name}
        changed = True
        while changed:
            changed = False
            for module, deps in self.deps.items():
                if module not in cone and any(d in cone for d in deps):
                    cone.add(module)
                    changed = True
        return sorted(cone)

    def edit(self, rng: random.Random, layer: int) -> str:
        """Change one module of ``layer``; returns its name.  Alternate
        edits change a constant or add a method, so the cone varies in
        both shape and size."""
        name = self.module(layer, rng.randrange(self.width))
        self.edits += 1
        if self.edits % 3 == 0 and self.extra[name] < 3:
            self.extra[name] += 1
        else:
            old = self.consts[name]
            self.consts[name] = rng.choice([c for c in range(1, 10)
                                            if c != old])
        return name


# -- interp_run: kernels run on the pycode backend ----------------------------
#
# Each kernel is sized to take about the same time (~25 ms on a 2-CPU
# host), so op times form one cluster and their median is steady.

class Kernel:
    """A compiled-in-set-up program, the static method to run, and the
    value it must return."""

    def __init__(self, name: str, source: str, class_name: str,
                 method: str, expected, multijava: bool = False):
        self.name = name
        self.source = source
        self.class_name = class_name
        self.method = method
        self.expected = expected
        self.multijava = multijava


def _multijava_kernel(rng: random.Random) -> Kernel:
    vals = [rng.randint(1, 9) for _ in range(3)]
    kinds = [rng.randrange(3) for _ in range(16)]
    rounds = 200
    ctor = ("new C()", "new D()", "new E()")
    fill = "\n".join(f"        xs[{k}] = {ctor[kind]};"
                     for k, kind in enumerate(kinds))
    source = f"""
use multijava.MultiJava;
class C {{ }}
class D extends C {{ }}
class E extends D {{ }}
class Host {{
    int m(C c) {{ return {vals[0]}; }}
    int m(C@D c) {{ return {vals[1]}; }}
    int m(C@E c) {{ return {vals[2]}; }}
}}
class MJ {{
    static int run() {{
        Host h = new Host();
        C[] xs = new C[{len(kinds)}];
{fill}
        int total = 0;
        for (int r = 0; r < {rounds}; r++) {{
            for (int k = 0; k < xs.length; k++) {{ total += h.m(xs[k]); }}
        }}
        return total;
    }}
}}
"""
    expected = rounds * sum(vals[kind] for kind in kinds)
    return Kernel("multijava", source, "MJ", "run", expected, multijava=True)


def _vforeach_kernel(rng: random.Random) -> Kernel:
    items = [rng.randint(1, 50) for _ in range(40)]
    rounds = 60
    fill = "\n".join(f"        v.addElement(new Integer({x}));"
                     for x in items)
    source = f"""
class VF {{
    static int run() {{
        use maya.util.ForEach;
        maya.util.Vector v = new maya.util.Vector();
{fill}
        int total = 0;
        for (int r = 0; r < {rounds}; r++) {{
            v.elements().foreach(Integer x) {{ total += x.intValue(); }}
        }}
        return total;
    }}
}}
"""
    return Kernel("vforeach", source, "VF", "run", rounds * sum(items))


def _virtual_kernel(rng: random.Random) -> Kernel:
    coeffs = [(rng.randint(1, 5), rng.randint(0, 9)) for _ in range(4)]
    rounds = 1500
    classes = ["class Base { int f(int x) { return x; } }"]
    for k, (a, b) in enumerate(coeffs):
        parent = "Base" if k == 0 else f"S{k - 1}"
        classes.append(f"class S{k} extends {parent} {{ "
                       f"int f(int x) {{ return x * {a} + {b}; }} }}")
    fill = "\n".join(f"        xs[{k}] = new S{k}();" for k in range(4))
    source = "\n".join(classes) + f"""
class VC {{
    static int run() {{
        Base[] xs = new Base[5];
{fill}
        xs[4] = new Base();
        int total = 0;
        for (int r = 0; r < {rounds}; r++) {{
            for (int k = 0; k < 5; k++) {{ total += xs[k].f(r % 7); }}
        }}
        return total;
    }}
}}
"""
    expected = 0
    for r in range(rounds):
        x = r % 7
        expected += sum(x * a + b for a, b in coeffs) + x
    return Kernel("virtual", source, "VC", "run", expected)


def _field_kernel(rng: random.Random) -> Kernel:
    size = 64
    mul, add, mod = rng.randint(2, 7), rng.randint(1, 9), rng.randint(50, 97)
    rounds = 180
    source = f"""
class Cell {{
    int value;
    Cell next;
}}
class FA {{
    static int run() {{
        int[] arr = new int[{size}];
        for (int i = 0; i < arr.length; i++) {{ arr[i] = (i * {mul} + {add}) % {mod}; }}
        Cell head = new Cell();
        head.next = new Cell();
        head.next.next = head;
        Cell cur = head;
        int total = 0;
        for (int r = 0; r < {rounds}; r++) {{
            for (int i = 0; i < arr.length; i++) {{
                cur.value = cur.value + arr[i];
                total += cur.value % 11;
                cur = cur.next;
            }}
        }}
        return total;
    }}
}}
"""
    arr = [(i * mul + add) % mod for i in range(size)]
    cells = [0, 0]
    cur = 0
    total = 0
    for _ in range(rounds):
        for x in arr:
            cells[cur] += x
            total += cells[cur] % 11
            cur = 1 - cur
    return Kernel("fields", source, "FA", "run", total)


def _stringbuffer_kernel(rng: random.Random) -> Kernel:
    parts = _words(rng, 4, 4)
    rounds = 850
    appends = "\n".join(f'            sb.append("{p}");' for p in parts)
    source = f"""
class SB {{
    static String run() {{
        StringBuffer sb = new StringBuffer();
        for (int r = 0; r < {rounds}; r++) {{
{appends}
            sb.append(r % 10);
        }}
        return sb.toString();
    }}
}}
"""
    expected = "".join("".join(parts) + str(r % 10) for r in range(rounds))
    return Kernel("stringbuffer", source, "SB", "run", expected)


KERNEL_MAKERS = (_multijava_kernel, _vforeach_kernel, _virtual_kernel,
                 _field_kernel, _stringbuffer_kernel)


def kernels(rng: random.Random) -> List[Kernel]:
    """One kernel of each kind, with seeded data."""
    return [make(rng) for make in KERNEL_MAKERS]
