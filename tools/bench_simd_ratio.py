#!/usr/bin/env python3
"""Records the scalar-vs-vector SIMD kernel ratios in the bench artifact.

Usage: bench_simd_ratio.py [--semandaq-build-type=TYPE] \\
           BENCH_detect.json [BENCH_partition_simd.json]

--semandaq-build-type stamps the semandaq library's CMAKE_BUILD_TYPE into
the artifact context as "semandaq_build_type". The benchmark-emitted
"library_build_type" field describes how *libbenchmark itself* was
compiled (the Debian/Ubuntu package ships without NDEBUG, so it reports
"debug" no matter how this repo is configured); the explicit stamp records
the build type that actually governs the measured code.

Reads the BM_NativeDetectSimd A/B runs (second benchmark arg = requested
kernel tier; the "simd_level" counter is the tier that actually ran after
host clamping), computes time(scalar) / time(best vector tier) per tuple
count, and writes them back into BENCH_detect.json under "simd_ratios".
When the partition JSON is given, its BM_PartitionBuildSimd runs are merged
into the detect artifact (one file carries the whole record) and their
ratios are included. The count-only detector's speedup,
time(BM_NativeDetectSharded) / time(BM_NativeDetectCount) at each shared
tuples/shards point, goes under "count_ratios". Exits nonzero only on
malformed input — shared CI runners are too noisy for a hard perf gate;
the acceptance ratio is judged from the recorded artifact.
"""

import json
import sys


def ratios(benchmarks, prefix):
    """{group -> scalar_time / best_vector_time} for one A/B family."""
    runs = {}
    for b in benchmarks:
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or not name.startswith(prefix + "/"):
            continue
        parts = name.split("/")
        if len(parts) < 3:
            continue
        group, level = "/".join(parts[1:-1]), b.get("simd_level")
        runs.setdefault(group, {})[level] = b["real_time"]
    out = {}
    for group, by_level in runs.items():
        scalar = by_level.get(0)
        vector_levels = {l: t for l, t in by_level.items() if l and l > 0}
        if not scalar or not vector_levels:
            continue
        best_level = max(vector_levels)  # highest tier that actually ran
        out[group] = {
            "scalar_ms": scalar,
            "vector_ms": vector_levels[best_level],
            "vector_level": best_level,
            "scalar_over_vector": round(scalar / vector_levels[best_level], 3),
        }
    return out


def count_ratios(benchmarks):
    """{"tuples/shards" -> full Detect time / Count time} at equal inputs."""
    families = ("BM_NativeDetectSharded", "BM_NativeDetectCount")
    runs = {}
    for b in benchmarks:
        parts = b.get("name", "").split("/")
        if (b.get("run_type") == "aggregate" or parts[0] not in families
                or len(parts) < 3):
            continue
        runs.setdefault("/".join(parts[1:3]), {})[parts[0]] = b["real_time"]
    out = {}
    for point, by_family in runs.items():
        full, count = (by_family.get(f) for f in families)
        if full and count:
            out[point] = {"detect_ms": full, "count_ms": count,
                          "detect_over_count": round(full / count, 3)}
    return out


def main(argv):
    build_type = None
    args = []
    for a in argv[1:]:
        if a.startswith("--semandaq-build-type="):
            build_type = a.split("=", 1)[1]
        else:
            args.append(a)
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    detect_path = args[0]
    with open(detect_path) as f:
        detect = json.load(f)
    if build_type:
        detect.setdefault("context", {})["semandaq_build_type"] = \
            build_type.lower()

    if len(args) > 1:
        with open(args[1]) as f:
            partition = json.load(f)
        detect.setdefault("benchmarks", []).extend(
            partition.get("benchmarks", []))

    detect["simd_ratios"] = {
        "BM_NativeDetectSimd": ratios(detect.get("benchmarks", []),
                                      "BM_NativeDetectSimd"),
        "BM_PartitionBuildSimd": ratios(detect.get("benchmarks", []),
                                        "BM_PartitionBuildSimd"),
    }
    detect["count_ratios"] = count_ratios(detect.get("benchmarks", []))
    with open(detect_path, "w") as f:
        json.dump(detect, f, indent=1)
    for family, groups in detect["simd_ratios"].items():
        for group, r in sorted(groups.items()):
            print(f"{family}/{group}: scalar {r['scalar_ms']:.3f} ms, "
                  f"vector(level {r['vector_level']}) {r['vector_ms']:.3f} ms "
                  f"-> {r['scalar_over_vector']}x")
    for point, r in sorted(detect["count_ratios"].items()):
        print(f"count/{point}: detect {r['detect_ms']:.3f} ms, "
              f"count {r['count_ms']:.3f} ms -> {r['detect_over_count']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
