#!/usr/bin/env python3
"""Validate a tracked hspec JSON record against its registered schema.

Dispatches on the record's "schema" key:

  hspec-bench-kernel-v2   — bench/micro_kernel_roofline
  hspec-hlint-v3          — tools/hlint --json findings report

The kernel record is consumed by the CI bench-smoke job and baselined at
the repo root (BENCH_kernel.json); the hlint report is validated and
archived by the CI lint job.

Standard library only. Exit 0 when the file conforms, 1 with a message per
defect otherwise.
"""

import json
import sys

# Per-schema required keys (name -> type) and the subset that must be > 0.
SCHEMAS = {
    "hspec-bench-kernel-v2": {
        "required": {
            "schema": str,
            "method": str,
            "panels": int,
            "bins": int,
            "live_bins": int,
            "evals_per_bin": int,
            "repeat": int,
            "scalar_bins_per_s": float,
            "batch_bins_per_s": float,
            "speedup": float,
            "integrand_ns_per_eval": float,
            "rule_ns_per_bin": float,
            "host_fma_gflops": float,
            "scalar_bins_per_s_per_gflops": float,
            "batch_bins_per_s_per_gflops": float,
            "model_bytes_per_flop": float,
            "bitwise_identical": bool,
        },
        "positive": [
            "panels",
            "bins",
            "live_bins",
            "evals_per_bin",
            "repeat",
            "scalar_bins_per_s",
            "batch_bins_per_s",
            "speedup",
            "integrand_ns_per_eval",
            "rule_ns_per_bin",
            "host_fma_gflops",
            "model_bytes_per_flop",
        ],
        "true_flags": ["bitwise_identical"],
    },
    "hspec-hlint-v3": {
        "required": {
            "schema": str,
            "files_scanned": int,
            "violations": int,
            "baselined": int,
            "rule_counts": dict,
            "pass_counts": dict,
            "pass_wall_ms": dict,
            "suggestions": list,
            "findings": list,
        },
        "positive": ["files_scanned"],
        "true_flags": [],
    },
}


def check(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: unreadable or not JSON: %s" % (path, e)]
    if not isinstance(record, dict):
        return ["%s: top level must be an object" % path]
    schema_name = record.get("schema")
    if schema_name not in SCHEMAS:
        return [
            "%s: schema is %r, expected one of %s"
            % (path, schema_name, sorted(SCHEMAS))
        ]
    spec = SCHEMAS[schema_name]
    for key, expected in spec["required"].items():
        if key not in record:
            errors.append("%s: missing key %r" % (path, key))
            continue
        value = record[key]
        # bool is an int subclass; keep the check strict.
        if expected is int and isinstance(value, bool):
            errors.append("%s: key %r must be an integer, got bool" % (path, key))
        elif expected is float and isinstance(value, bool):
            errors.append("%s: key %r must be a number, got bool" % (path, key))
        elif expected is float and not isinstance(value, (int, float)):
            errors.append("%s: key %r must be a number" % (path, key))
        elif expected in (str, int, bool, dict, list) and not isinstance(
            value, expected
        ):
            errors.append(
                "%s: key %r must be %s" % (path, key, expected.__name__)
            )
    if errors:
        return errors
    for key in spec["positive"]:
        if record[key] <= 0:
            errors.append("%s: key %r must be positive" % (path, key))
    for key in spec["true_flags"]:
        if not record[key]:
            errors.append("%s: %s must be true" % (path, key))
    if schema_name == "hspec-hlint-v3":
        for section in ("rule_counts", "pass_counts"):
            for rule, count in record[section].items():
                if isinstance(count, bool) or not isinstance(count, int):
                    errors.append(
                        "%s: %s[%r] must be an integer" % (path, section, rule)
                    )
                elif count < 0:
                    errors.append(
                        "%s: %s[%r] must be >= 0" % (path, section, rule)
                    )
        for name, ms in record["pass_wall_ms"].items():
            if isinstance(ms, bool) or not isinstance(ms, (int, float)):
                errors.append(
                    "%s: pass_wall_ms[%r] must be a number" % (path, name)
                )
            elif ms < 0:
                errors.append(
                    "%s: pass_wall_ms[%r] must be >= 0" % (path, name)
                )
        # Every pass with a finding count must also report a wall time.
        for name in record["pass_counts"]:
            if name not in record["pass_wall_ms"]:
                errors.append(
                    "%s: pass %r has a count but no wall time" % (path, name)
                )
        for section, keys in (
            ("findings", ("file", "line", "rule", "message")),
            ("suggestions", ("file", "line", "rule", "text")),
        ):
            for i, entry in enumerate(record[section]):
                if not isinstance(entry, dict):
                    errors.append(
                        "%s: %s[%d] must be an object" % (path, section, i)
                    )
                    continue
                for key in keys:
                    if key not in entry:
                        errors.append(
                            "%s: %s[%d] missing key %r"
                            % (path, section, i, key)
                        )
    return errors


def main(argv):
    if len(argv) != 2:
        print(
            "usage: check_bench_schema.py BENCH_<name>.json", file=sys.stderr
        )
        return 1
    errors = check(argv[1])
    for err in errors:
        print(err, file=sys.stderr)
    if not errors:
        with open(argv[1], encoding="utf-8") as f:
            print("%s: conforms to %s" % (argv[1], json.load(f)["schema"]))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
