#!/usr/bin/env bash
# Reachability census: the library functions that no entry binary links.
#
# Builds semandaq_server and semandaq_cli into a scratch build directory
# with every function in its own section (-ffunction-sections), inlining
# off (-fno-inline, so a function called only from an inlined caller still
# shows up as linked), and the linker's section garbage collection on
# (--gc-sections; --print-gc-sections writes what it dropped into the
# build log). Each binary then holds exactly the out-of-line functions
# reachable from its main. The census is every semandaq:: function that
# libsemandaq.a defines out of line and neither binary contains — code
# reachable only from tests, benches or examples, or from nothing.
#
# Usage: tools/reachability.sh [BUILD_DIR]     (default: build-reach)
# Prints one demangled signature per line on stdout, the count on stderr.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-"$root/build-reach"}

mkdir -p "$out"
cmake -B "$out" -S "$root" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fno-inline" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections,--print-gc-sections" \
  > "$out/reach-configure.log" 2>&1 ||
  { cat "$out/reach-configure.log" >&2; exit 1; }
cmake --build "$out" -j "$(nproc)" --target semandaq_server semandaq_cli \
  > "$out/reach-build.log" 2>&1 || { tail -50 "$out/reach-build.log" >&2; exit 1; }

# Demangled names of text symbols; nm prints "ADDRESS TYPE NAME...".
text_symbols() {  # $1 = awk pattern for the type column, $2.. = files
  local types=$1
  shift
  nm -C --defined-only "$@" |
    awk -v t="$types" '$2 ~ t { $1 = ""; $2 = ""; sub(/^ +/, ""); print }' |
    sort -u
}

text_symbols '^T$' "$out/libsemandaq.a" > "$out/reach-library.txt"
text_symbols '^[TtWw]$' "$out/semandaq_server" "$out/semandaq_cli" \
  > "$out/reach-linked.txt"

comm -23 "$out/reach-library.txt" "$out/reach-linked.txt" |
  grep '^semandaq::' |
  sed 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' |
  tee "$out/reach-census.txt"
echo "$(wc -l < "$out/reach-census.txt") semandaq:: function(s) linked by neither semandaq_server nor semandaq_cli" >&2
