#ifndef SEMANDAQ_CORE_COMMAND_WORDS_H_
#define SEMANDAQ_CORE_COMMAND_WORDS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/simd/simd.h"
#include "common/status.h"
#include "storage/wal.h"

namespace semandaq::core {

/// The lexical layer of the command grammar (server/service.h): how a
/// command line splits into words and how option words parse. The CLI and
/// the TCP server both run that one grammar, so a `detect REL threads=N`
/// frame sent over the wire means exactly what the same line means at the
/// CLI.

/// Splits a command line on whitespace (no quoting; the `cfd` and `sql`
/// commands take the raw remainder instead).
std::vector<std::string> Words(std::string_view line);

/// Parses a non-negative integer ("not a count" otherwise).
common::Result<size_t> ParseCount(const std::string& text);

/// Parses one `threads=N` / `simd=LEVEL` option word (shared by the mine,
/// detect, and clean commands) into the given slots. *matched reports
/// whether the word was one of the two forms; malformed values are errors.
common::Status ParseSweepOption(const std::string& arg, size_t* num_threads,
                                common::simd::Level* simd_level, bool* matched);

/// Parses the trailing option words of `save REL PATH [compact=N]
/// [sync=MODE]` (in either order) starting at args[from]. `sync` is left
/// untouched when no sync= word appears, so callers can tell "inherit the
/// facade default" apart from an explicit policy.
common::Status ParseSaveOptions(const std::vector<std::string>& args,
                                size_t from, size_t* compact_after,
                                std::optional<storage::SyncPolicy>* sync);

}  // namespace semandaq::core

#endif  // SEMANDAQ_CORE_COMMAND_WORDS_H_
