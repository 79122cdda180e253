#!/usr/bin/env python3
"""Codegen gate: the batch integrand loops must compile to packed AVX2 FMAs.

Disassembles the hspec_rrc archive and requires that the x86-64-v3 clones
of both batch loops in src/rrc/rrc_batch.cpp (eval_gaunt and eval_nogaunt,
emitted by HSPEC_VEC_TARGET's target_clones) contain packed double FMAs on
256-bit registers (vfmadd...pd / vfnmadd...pd with a %ymm operand). A loop
that GCC stopped vectorizing — a cast that AVX2 cannot do, an out-of-line
call, a branch it cannot if-convert — has none, and the bitwise-identity
tests cannot see that: the scalar loop gives the same bits, only slower.

Usage:
  check_vec_codegen.py --compiler GNU --compiler-version 12.2.0 \\
      --processor x86_64 [--objdump objdump] path/to/libhspec_rrc.a

Exit 0 when both clones are vectorized, 1 when not, 77 (the ctest
SKIP_RETURN_CODE) when the compiler or target is not x86-64 GCC 12 or
later, where the clones and their names are not what this check looks for
(HSPEC_VEC_TARGET in src/util/fastmath.h).
"""

import argparse
import re
import subprocess
import sys

SKIP = 77
LOOPS = ("eval_gaunt", "eval_nogaunt")
CLONE_SUFFIX = ".arch_x86_64_v3"
# objdump prints "0000000000000000 <symbol>:" at the top of each function.
FUNC_RE = re.compile(r"^[0-9a-f]+ <(?P<name>[^>]+)>:$")
PACKED_FMA_RE = re.compile(r"\bvfn?m(?:add|sub)\w*pd\b.*%ymm")


def packed_fma_counts(disassembly):
    """Map each function symbol to its count of packed 256-bit FMAs."""
    counts = {}
    current = None
    for line in disassembly.splitlines():
        match = FUNC_RE.match(line)
        if match:
            current = match.group("name")
            counts.setdefault(current, 0)
        elif current is not None and PACKED_FMA_RE.search(line):
            counts[current] += 1
    return counts


def loop_clone(symbol, loop):
    # Mangled names end in "<len><loop>E<params>": match the exact loop name
    # so eval_gaunt does not also match eval_nogaunt.
    return symbol.endswith(CLONE_SUFFIX) and re.search(
        r"\d%sE" % re.escape(loop), symbol
    )


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compiler", required=True)
    parser.add_argument("--compiler-version", required=True)
    parser.add_argument("--processor", required=True)
    parser.add_argument("--objdump", default="objdump")
    parser.add_argument("archive")
    args = parser.parse_args(argv[1:])

    if not (
        args.compiler == "GNU"
        and args.processor in ("x86_64", "AMD64")
        and int(args.compiler_version.split(".")[0]) >= 12
    ):
        print(
            "check_vec_codegen: skipped (%s %s on %s; the gate reads the "
            "clone names of x86-64 GCC 12+)"
            % (args.compiler, args.compiler_version, args.processor)
        )
        return SKIP

    disassembly = subprocess.run(
        [args.objdump, "-d", "--no-show-raw-insn", args.archive],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    counts = packed_fma_counts(disassembly)

    failed = False
    for loop in LOOPS:
        clones = {s: n for s, n in counts.items() if loop_clone(s, loop)}
        if not clones:
            print(
                "check_vec_codegen: no %s%s clone in %s — is the loop still "
                "HSPEC_VEC_TARGET?" % (loop, CLONE_SUFFIX, args.archive)
            )
            failed = True
            continue
        for symbol, n in sorted(clones.items()):
            verdict = "ok" if n > 0 else "NOT VECTORIZED"
            print("%s: %d packed ymm FMAs — %s" % (symbol, n, verdict))
            failed = failed or n == 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
